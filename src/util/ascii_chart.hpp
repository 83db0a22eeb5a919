// Minimal ASCII charts so the benchmark binaries can render the paper's
// figures (scaling lines, runtime-breakdown bars, comm-volume-over-time
// traces) directly in the terminal next to the CSV output.
#pragma once

#include <string>
#include <vector>

namespace pgasemb {

/// One named series of a line chart.
struct ChartSeries {
  std::string name;
  std::vector<double> x;
  std::vector<double> y;
  char marker = '*';
};

/// Renders one or more (x, y) series on a shared character grid with
/// y-axis labels, suitable for scaling curves and volume-over-time plots.
class AsciiLineChart {
 public:
  AsciiLineChart(std::string title, int width = 72, int height = 18);

  void addSeries(ChartSeries series);
  void setAxisLabels(std::string x_label, std::string y_label);

  std::string render() const;

 private:
  std::string title_;
  std::string x_label_;
  std::string y_label_;
  int width_;
  int height_;
  std::vector<ChartSeries> series_;
};

/// Horizontal stacked-bar chart used for runtime-breakdown figures
/// (paper Figs 6 and 9): each row is a configuration, segments are the
/// named time components.
class AsciiStackedBars {
 public:
  AsciiStackedBars(std::string title, std::vector<std::string> segment_names,
                   int width = 60);

  /// `values` must have one entry per segment name.
  void addBar(std::string label, std::vector<double> values);

  std::string render() const;

 private:
  std::string title_;
  std::vector<std::string> segment_names_;
  std::vector<std::pair<std::string, std::vector<double>>> bars_;
  int width_;
};

}  // namespace pgasemb
