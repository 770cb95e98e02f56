#pragma once
// Sim-time event tracer (the recording half of resex::obs).
//
// The paper's whole argument is about observing I/O the hypervisor cannot
// see; this is the equivalent instrument for the simulation itself. A Tracer
// records {name, category, sim_ts_ns, args} events into a fixed-capacity
// per-simulation ring (newest events win when it wraps) and exports them as
// Chrome trace_event JSON — loadable in Perfetto / chrome://tracing — or as
// one-object-per-line JSONL.
//
// Cost model: recording is only ever enabled for runs that asked for a
// trace (`--trace`). The RESEX_TRACE_* macros and SpanScope compile down to
// a single predictable branch on `enabled()` when tracing is off, so the
// hot layers stay instrumented permanently without a measurable tax.
//
// Lifetime contract: event names, categories and arg keys are stored as
// `const char*` without copying. Pass string literals, or strings that
// outlive the export (e.g. a Channel's name, which lives as long as the
// fabric).

#include <cstddef>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <string>
#include <vector>

#include "sim/time.hpp"

namespace resex::obs {

/// One optional named numeric argument attached to a trace event.
struct TraceArg {
  const char* key = nullptr;
  double value = 0.0;
};

/// One recorded event. `phase` follows the Chrome trace_event convention:
/// 'X' = complete span (ts..ts+dur), 'i' = instant, 'C' = counter sample.
struct TraceEvent {
  const char* name = nullptr;
  const char* category = nullptr;
  char phase = 'i';
  sim::SimTime ts = 0;       // simulated nanoseconds
  sim::SimDuration dur = 0;  // span length ('X' only)
  TraceArg a{};
  TraceArg b{};
  TraceArg c{};
};

class Tracer {
 public:
  /// Default ring capacity (events). At ~64 B/event this bounds a trace at
  /// a few tens of MB; the newest events are kept when the ring wraps.
  static constexpr std::size_t kDefaultCapacity = 1u << 18;

  /// `clock` is the simulation's nanosecond clock (the Simulation that owns
  /// this tracer points it at its own `now`).
  explicit Tracer(const sim::SimTime* clock) : clock_(clock) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Start recording into a fresh ring of `capacity` events.
  void enable(std::size_t capacity = kDefaultCapacity);
  /// Stop recording; the already-recorded events stay exportable.
  void disable() noexcept { enabled_ = false; }

  [[nodiscard]] bool enabled() const noexcept { return enabled_; }
  [[nodiscard]] sim::SimTime now() const noexcept { return *clock_; }

  /// Record an instant event at the current simulated time.
  void instant(const char* name, const char* category, TraceArg a = {},
               TraceArg b = {}, TraceArg c = {}) {
    if (!enabled_) return;
    push(TraceEvent{name, category, 'i', *clock_, 0, a, b, c});
  }

  /// Record a complete span [start, start + dur).
  void complete(const char* name, const char* category, sim::SimTime start,
                sim::SimDuration dur, TraceArg a = {}, TraceArg b = {}) {
    if (!enabled_) return;
    push(TraceEvent{name, category, 'X', start, dur, a, b});
  }

  /// Record a counter sample (rendered as a counter track).
  void counter(const char* name, const char* key, double value) {
    if (!enabled_) return;
    push(TraceEvent{name, "counter", 'C', *clock_, 0, TraceArg{key, value}});
  }

  /// Events currently held (<= capacity).
  [[nodiscard]] std::size_t size() const noexcept { return count_; }
  /// Events overwritten because the ring wrapped.
  [[nodiscard]] std::uint64_t dropped() const noexcept { return dropped_; }
  [[nodiscard]] std::size_t capacity() const noexcept { return ring_.size(); }

  /// Visit the retained events oldest-to-newest (recording order).
  void for_each(const std::function<void(const TraceEvent&)>& fn) const;

 private:
  void push(const TraceEvent& ev) {
    ring_[next_] = ev;
    next_ = next_ + 1 == ring_.size() ? 0 : next_ + 1;
    if (count_ < ring_.size()) {
      ++count_;
    } else {
      ++dropped_;
    }
  }

  const sim::SimTime* clock_;
  bool enabled_ = false;
  std::vector<TraceEvent> ring_;
  std::size_t next_ = 0;   // slot the next event lands in
  std::size_t count_ = 0;  // events retained
  std::uint64_t dropped_ = 0;
};

/// RAII span: records one complete event covering its own lifetime. When the
/// tracer is disabled at construction the destructor is a no-op (one branch).
class SpanScope {
 public:
  SpanScope(Tracer& tracer, const char* name, const char* category,
            TraceArg a = {}, TraceArg b = {})
      : tracer_(tracer.enabled() ? &tracer : nullptr), name_(name),
        category_(category), a_(a), b_(b),
        start_(tracer_ != nullptr ? tracer.now() : 0) {}
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;
  ~SpanScope() {
    if (tracer_ != nullptr) {
      tracer_->complete(name_, category_, start_, tracer_->now() - start_, a_,
                        b_);
    }
  }

 private:
  Tracer* tracer_;
  const char* name_;
  const char* category_;
  TraceArg a_;
  TraceArg b_;
  sim::SimTime start_;
};

// --- export ----------------------------------------------------------------

/// Chrome trace_event JSON ({"traceEvents": [...]}); ts/dur in microseconds
/// with nanosecond precision. Byte-deterministic for identical event
/// sequences, so per-trial traces are identical at any --jobs count.
void write_chrome_trace(std::ostream& os, const Tracer& tracer);

/// One JSON object per line: {"name":...,"cat":...,"ph":...,"ts_ns":...}.
void write_trace_jsonl(std::ostream& os, const Tracer& tracer);

/// Write to `path`, picking the format by extension (".jsonl" selects JSONL,
/// anything else Chrome JSON). Throws std::runtime_error on I/O failure.
void save_trace(const std::string& path, const Tracer& tracer);

// --- macros ----------------------------------------------------------------
// The macro layer keeps call sites terse and guarantees the disabled path is
// nothing but the `enabled()` test. `tracer` is any expression yielding a
// Tracer& (typically `sim.tracer()`).

#define RESEX_OBS_CONCAT_IMPL(a, b) a##b
#define RESEX_OBS_CONCAT(a, b) RESEX_OBS_CONCAT_IMPL(a, b)

/// Span covering the rest of the enclosing scope.
#define RESEX_TRACE_SPAN(tracer, name, category, ...)              \
  ::resex::obs::SpanScope RESEX_OBS_CONCAT(resex_trace_span_,      \
                                           __LINE__)(              \
      (tracer), (name), (category)__VA_OPT__(, ) __VA_ARGS__)

/// Instant event at the current simulated time.
#define RESEX_TRACE_INSTANT(tracer, name, category, ...)           \
  do {                                                             \
    ::resex::obs::Tracer& resex_trace_t_ = (tracer);               \
    if (resex_trace_t_.enabled()) {                                \
      resex_trace_t_.instant((name),                               \
                             (category)__VA_OPT__(, ) __VA_ARGS__); \
    }                                                              \
  } while (false)

/// Counter sample (one value on a named counter track).
#define RESEX_TRACE_COUNTER(tracer, name, key, value)              \
  do {                                                             \
    ::resex::obs::Tracer& resex_trace_t_ = (tracer);               \
    if (resex_trace_t_.enabled()) {                                \
      resex_trace_t_.counter((name), (key), (value));              \
    }                                                              \
  } while (false)

}  // namespace resex::obs
