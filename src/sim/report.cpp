#include "sim/report.hpp"

#include <iomanip>
#include <ostream>
#include <sstream>
#include <stdexcept>

#include "obs/json.hpp"

namespace resex::sim {

std::string format_cell(const Cell& c, int precision) {
  struct Visitor {
    int precision;
    std::string operator()(std::monostate) const { return ""; }
    std::string operator()(std::int64_t v) const { return std::to_string(v); }
    std::string operator()(double v) const {
      std::ostringstream os;
      os << std::fixed << std::setprecision(precision) << v;
      return os.str();
    }
    std::string operator()(const std::string& s) const { return s; }
  };
  return std::visit(Visitor{precision}, c);
}

std::string format_double(double v) {
  std::string out;
  obs::append_double(out, v);
  return out;
}

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  obs::append_json_escaped(out, s);
  return out;
}

namespace {
std::string csv_escape(const std::string& s) {
  if (s.find_first_of(",\"\n") == std::string::npos) return s;
  std::string out = "\"";
  for (char ch : s) {
    if (ch == '"') out += "\"\"";
    else out += ch;
  }
  out += '"';
  return out;
}
}  // namespace

Table::Table(std::vector<std::string> columns) : columns_(std::move(columns)) {
  if (columns_.empty()) {
    throw std::invalid_argument("Table: need at least one column");
  }
}

void Table::add_row(std::vector<Cell> row) {
  if (row.size() != columns_.size()) {
    throw std::invalid_argument("Table::add_row: wrong cell count");
  }
  rows_.push_back(std::move(row));
}

void Table::print(std::ostream& os, int precision) const {
  std::vector<std::size_t> widths(columns_.size());
  std::vector<std::vector<std::string>> rendered;
  rendered.reserve(rows_.size());
  for (std::size_t c = 0; c < columns_.size(); ++c) {
    widths[c] = columns_[c].size();
  }
  for (const auto& row : rows_) {
    std::vector<std::string> r;
    r.reserve(row.size());
    for (std::size_t c = 0; c < row.size(); ++c) {
      r.push_back(format_cell(row[c], precision));
      widths[c] = std::max(widths[c], r.back().size());
    }
    rendered.push_back(std::move(r));
  }
  auto emit = [&](const std::vector<std::string>& cells) {
    for (std::size_t c = 0; c < cells.size(); ++c) {
      os << (c == 0 ? "" : "  ") << std::setw(static_cast<int>(widths[c]))
         << cells[c];
    }
    os << '\n';
  };
  emit(columns_);
  std::string rule;
  for (std::size_t c = 0; c < columns_.size(); ++c) {
    if (c != 0) rule += "  ";
    rule += std::string(widths[c], '-');
  }
  os << rule << '\n';
  for (const auto& r : rendered) emit(r);
}

void Table::write_csv(std::ostream& os, int precision) const {
  for (std::size_t c = 0; c < columns_.size(); ++c) {
    os << (c == 0 ? "" : ",") << csv_escape(columns_[c]);
  }
  os << '\n';
  for (const auto& row : rows_) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      os << (c == 0 ? "" : ",") << csv_escape(format_cell(row[c], precision));
    }
    os << '\n';
  }
}

void print_heading(std::ostream& os, const std::string& title) {
  os << "\n== " << title << " ==\n";
}

}  // namespace resex::sim
