#include "obs/trace.hpp"

#include <fstream>
#include <ostream>
#include <stdexcept>
#include <string_view>

#include "obs/json.hpp"

namespace resex::obs {

void Tracer::enable(std::size_t capacity) {
  if (capacity == 0) {
    throw std::invalid_argument("Tracer::enable: capacity must be >= 1");
  }
  ring_.assign(capacity, TraceEvent{});
  next_ = 0;
  count_ = 0;
  dropped_ = 0;
  enabled_ = true;
}

void Tracer::for_each(
    const std::function<void(const TraceEvent&)>& fn) const {
  if (count_ == 0) return;
  // Oldest event: `next_` when the ring has wrapped, 0 otherwise.
  const std::size_t start = count_ == ring_.size() ? next_ : 0;
  for (std::size_t i = 0; i < count_; ++i) {
    fn(ring_[(start + i) % ring_.size()]);
  }
}

namespace {

/// Nanoseconds rendered as microseconds with three decimals ("12.345") —
/// Chrome's ts/dur unit — without any floating-point rounding.
void append_ns_as_us(std::string& out, std::uint64_t ns) {
  append_u64(out, ns / 1000);
  const auto frac = static_cast<unsigned>(ns % 1000);
  out.push_back('.');
  out.push_back(static_cast<char>('0' + frac / 100));
  out.push_back(static_cast<char>('0' + (frac / 10) % 10));
  out.push_back(static_cast<char>('0' + frac % 10));
}

void append_args(std::string& out, const TraceEvent& ev) {
  if (ev.a.key == nullptr && ev.b.key == nullptr && ev.c.key == nullptr) {
    return;
  }
  out += ",\"args\":{";
  bool first = true;
  for (const TraceArg* arg : {&ev.a, &ev.b, &ev.c}) {
    if (arg->key == nullptr) continue;
    if (!first) out.push_back(',');
    first = false;
    append_json_string(out, arg->key);
    out.push_back(':');
    append_double(out, arg->value);
  }
  out.push_back('}');
}

void append_event_fields(std::string& out, const TraceEvent& ev) {
  out += "\"name\":";
  append_json_string(out, ev.name != nullptr ? ev.name : "?");
  out += ",\"cat\":";
  append_json_string(out, ev.category != nullptr ? ev.category : "?");
  out += ",\"ph\":\"";
  out.push_back(ev.phase);
  out.push_back('"');
}

void append_chrome_prefix(std::string& out, std::uint64_t dropped) {
  out += "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[";
  // Metadata first: lets viewers name the single sim-thread track and
  // records how many events the ring dropped (0 in a well-sized ring).
  out += "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":0,\"tid\":0,"
         "\"args\":{\"name\":\"resex-sim\"}},";
  out += "{\"name\":\"dropped_events\",\"ph\":\"M\",\"pid\":0,\"tid\":0,"
         "\"args\":{\"count\":";
  append_u64(out, dropped);
  out += "}}";
}

void append_chrome_event(std::string& out, const TraceEvent& ev) {
  out += ",\n{";
  append_event_fields(out, ev);
  out += ",\"pid\":0,\"tid\":0,\"ts\":";
  append_ns_as_us(out, ev.ts);
  if (ev.phase == 'X') {
    out += ",\"dur\":";
    append_ns_as_us(out, ev.dur);
  }
  if (ev.phase == 'i') out += ",\"s\":\"t\"";  // thread-scoped instant
  append_args(out, ev);
  out.push_back('}');
}

void append_jsonl_event(std::string& out, const TraceEvent& ev) {
  out.push_back('{');
  append_event_fields(out, ev);
  out += ",\"ts_ns\":";
  append_u64(out, ev.ts);
  if (ev.phase == 'X') {
    out += ",\"dur_ns\":";
    append_u64(out, ev.dur);
  }
  append_args(out, ev);
  out += "}\n";
}

bool is_jsonl_path(const std::string& path) {
  return path.size() >= 6 &&
         path.compare(path.size() - 6, 6, ".jsonl") == 0;
}

}  // namespace

void write_chrome_trace(std::ostream& os, const Tracer& tracer) {
  std::string out;
  out.reserve(1u << 16);
  append_chrome_prefix(out, tracer.dropped());
  tracer.for_each([&out, &os](const TraceEvent& ev) {
    append_chrome_event(out, ev);
    if (out.size() > (1u << 20)) {  // flush in chunks, not per event
      os.write(out.data(), static_cast<std::streamsize>(out.size()));
      out.clear();
    }
  });
  out += "\n]}\n";
  os.write(out.data(), static_cast<std::streamsize>(out.size()));
}

void write_trace_jsonl(std::ostream& os, const Tracer& tracer) {
  std::string out;
  out.reserve(1u << 16);
  tracer.for_each([&out, &os](const TraceEvent& ev) {
    append_jsonl_event(out, ev);
    if (out.size() > (1u << 20)) {
      os.write(out.data(), static_cast<std::streamsize>(out.size()));
      out.clear();
    }
  });
  os.write(out.data(), static_cast<std::streamsize>(out.size()));
}

void save_trace(const std::string& path, const Tracer& tracer) {
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  if (!os) {
    throw std::runtime_error("save_trace: cannot open '" + path + "'");
  }
  is_jsonl_path(path) ? write_trace_jsonl(os, tracer)
                      : write_chrome_trace(os, tracer);
  os.flush();
  if (!os) {
    throw std::runtime_error("save_trace: write to '" + path + "' failed");
  }
}

}  // namespace resex::obs
