// Console table rendering for benchmark reports.
//
// Produces the fixed-width, pipe-separated tables the benchmark binaries
// print to mirror the paper's tables (e.g. "Speedup | 2 GPUs | 3 GPUs ...").
#pragma once

#include <string>
#include <vector>

namespace pgasemb {

/// A simple left-padded text table with a header row and separator line.
class ConsoleTable {
 public:
  explicit ConsoleTable(std::vector<std::string> headers);

  /// Append a row; must have the same arity as the header.
  void addRow(std::vector<std::string> cells);

  /// Convenience: format a double with the given precision.
  static std::string num(double v, int precision = 2);

  /// Render the whole table (trailing newline included).
  std::string render() const;

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace pgasemb
