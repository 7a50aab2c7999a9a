// ASCII table / series rendering for the benchmark harnesses, so each bench
// binary prints rows directly comparable to the paper's tables and figures.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace lzp::metrics {

class Table {
 public:
  explicit Table(std::vector<std::string> headers);

  void add_row(std::vector<std::string> cells);
  [[nodiscard]] std::string render() const;

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

// A figure series: x label -> one value per series name. Rendered as an
// aligned table with the x column first (the shape of Fig. 4/5 data).
class Series {
 public:
  Series(std::string x_label, std::vector<std::string> series_names);

  void add_point(std::string x, std::vector<double> values, int decimals = 1);
  [[nodiscard]] std::string render() const;

 private:
  Table table_;
};

// "2.38x" style ratio formatting.
[[nodiscard]] std::string ratio(double value, int decimals = 2);
// "94.72%" style.
[[nodiscard]] std::string percent(double value, int decimals = 2);

// A two-column counter table ("counter | value") for cache/stat reports —
// the shape the benches use for block-cache hit/miss/invalidation counts.
[[nodiscard]] std::string counters_table(
    const std::vector<std::pair<std::string, std::uint64_t>>& counters);

}  // namespace lzp::metrics
