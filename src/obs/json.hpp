#pragma once
// Deterministic JSON text building, shared by every exporter: the trace and
// metrics documents here and, through sim::format_double / sim::json_escape,
// the runner's result files. obs ranks below sim and runner, so this is the
// one copy they all call.

#include <cstdint>
#include <string>
#include <string_view>

namespace resex::obs {

/// Shortest decimal rendering that round-trips to the same double
/// (std::to_chars), so exports stay byte-identical across runs and --jobs.
void append_double(std::string& out, double v);
void append_u64(std::string& out, std::uint64_t v);
/// `s` with JSON string escapes (quote, backslash, \n, \t, \r, other control
/// characters as \u00XX), without surrounding quotes.
void append_json_escaped(std::string& out, std::string_view s);
/// `s` as a quoted JSON string.
void append_json_string(std::string& out, std::string_view s);

}  // namespace resex::obs
