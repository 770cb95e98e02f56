#include "fault/plan.hpp"

#include <charconv>
#include <cmath>
#include <sstream>
#include <stdexcept>

#include "sim/report.hpp"

namespace resex::fault {

namespace {

[[noreturn]] void bad(std::string_view spec, const std::string& why) {
  throw std::invalid_argument("FaultPlan: " + why + " in spec '" +
                              std::string(spec) + "'");
}

double parse_double(std::string_view spec, std::string_view text,
                    const char* what) {
  double value = 0.0;
  const auto [ptr, ec] =
      std::from_chars(text.data(), text.data() + text.size(), value);
  if (ec != std::errc{} || ptr != text.data() + text.size()) {
    bad(spec, std::string("malformed ") + what + " '" + std::string(text) +
                  "'");
  }
  return value;
}

sim::SimDuration ms_to_ns(double ms) {
  return static_cast<sim::SimDuration>(
      std::llround(ms * static_cast<double>(sim::kMillisecond)));
}

/// Split "a:b:c" into fields (empty fields allowed).
std::vector<std::string_view> split(std::string_view text, char sep) {
  std::vector<std::string_view> out;
  while (true) {
    const auto pos = text.find(sep);
    if (pos == std::string_view::npos) {
      out.push_back(text);
      return out;
    }
    out.push_back(text.substr(0, pos));
    text.remove_prefix(pos + 1);
  }
}

}  // namespace

FaultPlan FaultPlan::parse(std::string_view spec) {
  FaultPlan plan;
  for (std::string_view token : split(spec, ',')) {
    if (token.empty()) continue;
    const auto eq = token.find('=');
    if (eq == std::string_view::npos) {
      bad(spec, "directive without '=' ('" + std::string(token) + "')");
    }
    const std::string_view key = token.substr(0, eq);
    const std::string_view value = token.substr(eq + 1);
    if (key == "drop" || key == "corrupt") {
      const double p = parse_double(spec, value, "probability");
      if (p < 0.0 || p >= 1.0) {
        bad(spec, std::string(key) + " probability must be in [0, 1)");
      }
      (key == "drop" ? plan.drop_rate : plan.corrupt_rate) = p;
    } else if (key == "flap") {
      const auto f = split(value, ':');
      if (f.size() < 2 || f.size() > 3) {
        bad(spec, "flap needs AT:DUR[:CHAN]");
      }
      LinkFlap flap;
      flap.at = ms_to_ns(parse_double(spec, f[0], "flap start"));
      flap.duration = ms_to_ns(parse_double(spec, f[1], "flap duration"));
      if (flap.duration <= 0) bad(spec, "flap duration must be > 0");
      if (f.size() == 3) flap.channel = std::string(f[2]);
      plan.flaps.push_back(std::move(flap));
    } else if (key == "stall") {
      const auto f = split(value, ':');
      if (f.size() < 2 || f.size() > 3) {
        bad(spec, "stall needs AT:DUR[:HCA]");
      }
      HcaStall stall;
      stall.at = ms_to_ns(parse_double(spec, f[0], "stall start"));
      stall.duration = ms_to_ns(parse_double(spec, f[1], "stall duration"));
      if (stall.duration <= 0) bad(spec, "stall duration must be > 0");
      if (f.size() == 3 && !f[2].empty()) {
        stall.hca =
            static_cast<std::int32_t>(parse_double(spec, f[2], "HCA index"));
        if (stall.hca < 0) bad(spec, "HCA index must be >= 0");
      }
      plan.stalls.push_back(stall);
    } else if (key == "squeeze") {
      const auto f = split(value, ':');
      if (f.size() < 3 || f.size() > 4) {
        bad(spec, "squeeze needs AT:DUR:PKTS[:CHAN]");
      }
      BufferSqueeze sq;
      sq.at = ms_to_ns(parse_double(spec, f[0], "squeeze start"));
      sq.duration = ms_to_ns(parse_double(spec, f[1], "squeeze duration"));
      if (sq.duration <= 0) bad(spec, "squeeze duration must be > 0");
      const double pkts = parse_double(spec, f[2], "squeeze packets");
      if (pkts < 1.0 || pkts != std::floor(pkts)) {
        bad(spec, "squeeze packets must be an integer >= 1");
      }
      sq.pkts = static_cast<std::uint32_t>(pkts);
      if (f.size() == 4) sq.channel = std::string(f[3]);
      plan.squeezes.push_back(std::move(sq));
    } else if (key == "ctl") {
      const auto f = split(value, ':');
      if (f.size() != 3) bad(spec, "ctl needs AT:DUR:EXTRA_US");
      ControlDelay d;
      d.at = ms_to_ns(parse_double(spec, f[0], "ctl start"));
      d.duration = ms_to_ns(parse_double(spec, f[1], "ctl duration"));
      if (d.duration <= 0) bad(spec, "ctl duration must be > 0");
      d.extra = static_cast<sim::SimDuration>(
          std::llround(parse_double(spec, f[2], "ctl extra") *
                       static_cast<double>(sim::kMicrosecond)));
      if (d.extra <= 0) bad(spec, "ctl extra must be > 0");
      plan.control_delays.push_back(d);
    } else {
      bad(spec, "unknown directive '" + std::string(key) + "'");
    }
  }
  return plan;
}

std::string FaultPlan::to_string() const {
  std::ostringstream out;
  // Shortest round-trip renderings, so parse() rebuilds every value exactly
  // (a stream's default six significant digits would not).
  using sim::format_double;
  const auto ms = [](sim::SimDuration ns) {
    return format_double(static_cast<double>(ns) /
                         static_cast<double>(sim::kMillisecond));
  };
  const char* sep = "";
  if (drop_rate > 0.0) {
    out << "drop=" << format_double(drop_rate);
    sep = ",";
  }
  if (corrupt_rate > 0.0) {
    out << sep << "corrupt=" << format_double(corrupt_rate);
    sep = ",";
  }
  for (const auto& f : flaps) {
    out << sep << "flap=" << ms(f.at) << ':' << ms(f.duration);
    if (!f.channel.empty()) out << ':' << f.channel;
    sep = ",";
  }
  for (const auto& s : stalls) {
    out << sep << "stall=" << ms(s.at) << ':' << ms(s.duration);
    if (s.hca >= 0) out << ':' << s.hca;
    sep = ",";
  }
  for (const auto& d : control_delays) {
    out << sep << "ctl=" << ms(d.at) << ':' << ms(d.duration) << ':'
        << format_double(static_cast<double>(d.extra) /
                         static_cast<double>(sim::kMicrosecond));
    sep = ",";
  }
  for (const auto& sq : squeezes) {
    out << sep << "squeeze=" << ms(sq.at) << ':' << ms(sq.duration) << ':'
        << sq.pkts;
    if (!sq.channel.empty()) out << ':' << sq.channel;
    sep = ",";
  }
  return out.str();
}

bool matches_channel(std::string_view pattern, std::string_view name) {
  if (pattern.empty()) return true;
  if (pattern.find_first_of("*?") == std::string_view::npos) {
    return name.find(pattern) != std::string_view::npos;
  }
  // Iterative glob over the full name with single-star backtracking: on
  // mismatch, retry from the character after the last '*' anchor.
  std::size_t p = 0, n = 0;
  std::size_t star = std::string_view::npos, anchor = 0;
  while (n < name.size()) {
    if (p < pattern.size() &&
        (pattern[p] == '?' || pattern[p] == name[n])) {
      ++p;
      ++n;
    } else if (p < pattern.size() && pattern[p] == '*') {
      star = p++;
      anchor = n;
    } else if (star != std::string_view::npos) {
      p = star + 1;
      n = ++anchor;
    } else {
      return false;
    }
  }
  while (p < pattern.size() && pattern[p] == '*') ++p;
  return p == pattern.size();
}

}  // namespace resex::fault
