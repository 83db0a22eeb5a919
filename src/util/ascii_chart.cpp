#include "util/ascii_chart.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <sstream>

#include "util/expect.hpp"

namespace pgasemb {

AsciiLineChart::AsciiLineChart(std::string title, int width, int height)
    : title_(std::move(title)), width_(width), height_(height) {
  PGASEMB_CHECK(width_ >= 16 && height_ >= 4, "chart too small");
}

void AsciiLineChart::addSeries(ChartSeries series) {
  PGASEMB_CHECK(series.x.size() == series.y.size(),
                "series x/y size mismatch");
  series_.push_back(std::move(series));
}

void AsciiLineChart::setAxisLabels(std::string x_label, std::string y_label) {
  x_label_ = std::move(x_label);
  y_label_ = std::move(y_label);
}

std::string AsciiLineChart::render() const {
  double x_min = 0, x_max = 1, y_min = 0, y_max = 1;
  bool first = true;
  for (const auto& s : series_) {
    for (std::size_t i = 0; i < s.x.size(); ++i) {
      if (first) {
        x_min = x_max = s.x[i];
        y_min = y_max = s.y[i];
        first = false;
      } else {
        x_min = std::min(x_min, s.x[i]);
        x_max = std::max(x_max, s.x[i]);
        y_min = std::min(y_min, s.y[i]);
        y_max = std::max(y_max, s.y[i]);
      }
    }
  }
  y_min = std::min(y_min, 0.0);
  if (x_max == x_min) x_max = x_min + 1;
  if (y_max == y_min) y_max = y_min + 1;

  std::vector<std::string> grid(static_cast<std::size_t>(height_),
                                std::string(static_cast<std::size_t>(width_),
                                            ' '));
  auto plot = [&](double x, double y, char m) {
    const int cx = static_cast<int>(std::lround(
        (x - x_min) / (x_max - x_min) * (width_ - 1)));
    const int cy = static_cast<int>(std::lround(
        (y - y_min) / (y_max - y_min) * (height_ - 1)));
    if (cx < 0 || cx >= width_ || cy < 0 || cy >= height_) return;
    grid[static_cast<std::size_t>(height_ - 1 - cy)]
        [static_cast<std::size_t>(cx)] = m;
  };

  for (const auto& s : series_) {
    // Linear interpolation between consecutive points for a continuous line.
    for (std::size_t i = 0; i + 1 < s.x.size(); ++i) {
      const int steps = width_;
      for (int k = 0; k <= steps; ++k) {
        const double t = static_cast<double>(k) / steps;
        plot(s.x[i] + t * (s.x[i + 1] - s.x[i]),
             s.y[i] + t * (s.y[i + 1] - s.y[i]), s.marker);
      }
    }
    if (s.x.size() == 1) plot(s.x[0], s.y[0], s.marker);
  }

  std::ostringstream out;
  out << title_ << "\n";
  if (!y_label_.empty()) out << "  [y: " << y_label_ << "]\n";
  char label[32];
  for (int r = 0; r < height_; ++r) {
    const double yv =
        y_max - (y_max - y_min) * static_cast<double>(r) / (height_ - 1);
    snprintf(label, sizeof(label), "%10.3f |", yv);
    out << label << grid[static_cast<std::size_t>(r)] << "\n";
  }
  out << std::string(11, ' ') << "+" << std::string(
      static_cast<std::size_t>(width_), '-') << "\n";
  snprintf(label, sizeof(label), "%.3f", x_min);
  std::string xa = label;
  snprintf(label, sizeof(label), "%.3f", x_max);
  std::string xb = label;
  out << std::string(12, ' ') << xa;
  const int pad = width_ - static_cast<int>(xa.size()) -
                  static_cast<int>(xb.size());
  out << std::string(static_cast<std::size_t>(std::max(1, pad)), ' ') << xb;
  if (!x_label_.empty()) out << "   [x: " << x_label_ << "]";
  out << "\n";
  for (const auto& s : series_) {
    out << "    " << s.marker << " = " << s.name << "\n";
  }
  return out.str();
}

AsciiStackedBars::AsciiStackedBars(std::string title,
                                   std::vector<std::string> segment_names,
                                   int width)
    : title_(std::move(title)),
      segment_names_(std::move(segment_names)),
      width_(width) {
  PGASEMB_CHECK(!segment_names_.empty(), "need at least one segment");
}

void AsciiStackedBars::addBar(std::string label, std::vector<double> values) {
  PGASEMB_CHECK(values.size() == segment_names_.size(),
                "bar segment count mismatch");
  bars_.emplace_back(std::move(label), std::move(values));
}

std::string AsciiStackedBars::render() const {
  static constexpr char kFill[] = {'#', '=', '.', '%', '+', 'o'};
  double max_total = 0.0;
  std::size_t label_w = 0;
  for (const auto& [label, values] : bars_) {
    double total = 0.0;
    for (double v : values) total += v;
    max_total = std::max(max_total, total);
    label_w = std::max(label_w, label.size());
  }
  if (max_total <= 0.0) max_total = 1.0;

  std::ostringstream out;
  out << title_ << "\n";
  for (const auto& [label, values] : bars_) {
    out << "  " << label << std::string(label_w - label.size(), ' ') << " |";
    double total = 0.0;
    for (std::size_t s = 0; s < values.size(); ++s) {
      const int cells = static_cast<int>(
          std::lround(values[s] / max_total * width_));
      out << std::string(static_cast<std::size_t>(std::max(0, cells)),
                         kFill[s % sizeof(kFill)]);
      total += values[s];
    }
    char buf[64];
    snprintf(buf, sizeof(buf), "  (%.3f)", total);
    out << buf << "\n";
  }
  out << "  legend:";
  for (std::size_t s = 0; s < segment_names_.size(); ++s) {
    out << " [" << kFill[s % sizeof(kFill)] << "] " << segment_names_[s];
  }
  out << "\n";
  return out.str();
}

}  // namespace pgasemb
