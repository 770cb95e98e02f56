#pragma once
// Output helpers for benches and examples: CSV emission and aligned console
// tables (the figure harnesses print the paper's series as tables).

#include <cstdint>
#include <iosfwd>
#include <string>
#include <variant>
#include <vector>

namespace resex::sim {

using Cell = std::variant<std::monostate, std::int64_t, double, std::string>;

/// Format a cell: integers plain, doubles with 2 decimals, empty as "".
std::string format_cell(const Cell& c, int precision = 2);

/// Shortest decimal rendering of `v` that round-trips to the same double
/// (std::to_chars). Deterministic across runs: the runner's exported files
/// rely on this to stay byte-identical between serial and parallel runs.
std::string format_double(double v);

/// Escape a string for embedding in a JSON document (no surrounding quotes).
std::string json_escape(const std::string& s);

/// Accumulates rows and renders them either as CSV or as an aligned table.
class Table {
 public:
  explicit Table(std::vector<std::string> columns);

  /// Append a row. Must have exactly as many cells as there are columns.
  void add_row(std::vector<Cell> row);

  [[nodiscard]] std::size_t row_count() const noexcept { return rows_.size(); }
  [[nodiscard]] const std::vector<std::string>& columns() const noexcept {
    return columns_;
  }
  [[nodiscard]] const std::vector<Cell>& row(std::size_t i) const {
    return rows_.at(i);
  }

  /// Render as an aligned, human-readable table.
  void print(std::ostream& os, int precision = 2) const;

  /// Render as CSV (RFC-4180 quoting for strings containing separators).
  void write_csv(std::ostream& os, int precision = 6) const;

 private:
  std::vector<std::string> columns_;
  std::vector<std::vector<Cell>> rows_;
};

/// Print a section header for bench output, e.g. "== Figure 5: ... ==".
void print_heading(std::ostream& os, const std::string& title);

}  // namespace resex::sim
