#include "obs/metrics.hpp"

#include <algorithm>
#include <stdexcept>

#include "obs/json.hpp"
#include "obs/trace.hpp"

namespace resex::obs {

const char* to_string(MetricKind k) noexcept {
  switch (k) {
    case MetricKind::kCounter: return "counter";
    case MetricKind::kGauge: return "gauge";
    case MetricKind::kHistogram: return "histogram";
  }
  return "?";
}

MetricsRegistry::Entry& MetricsRegistry::entry_for(std::string_view name,
                                                  MetricKind kind) {
  if (const auto it = index_.find(name); it != index_.end()) {
    Entry& e = *it->second;
    if (e.kind != kind) {
      throw std::logic_error("MetricsRegistry: '" + e.name +
                             "' already registered as " + to_string(e.kind) +
                             ", requested as " + to_string(kind));
    }
    return e;
  }
  auto owned = std::make_unique<Entry>();
  owned->name = std::string(name);
  owned->kind = kind;
  if (kind == MetricKind::kHistogram) {
    owned->hist = std::make_unique<Histogram>();
  }
  Entry& e = *entries_.emplace_back(std::move(owned));
  index_.emplace(std::string_view(e.name), &e);
  return e;
}

Counter& MetricsRegistry::counter(std::string_view name) {
  return entry_for(name, MetricKind::kCounter).counter;
}

Gauge& MetricsRegistry::gauge(std::string_view name) {
  return entry_for(name, MetricKind::kGauge).gauge;
}

Histogram& MetricsRegistry::histogram(std::string_view name) {
  return *entry_for(name, MetricKind::kHistogram).hist;
}

void MetricsRegistry::gauge_fn(std::string_view name,
                               std::function<double()> fn) {
  entry_for(name, MetricKind::kGauge).pull = std::move(fn);
}

MetricsSnapshot MetricsRegistry::snapshot(sim::SimTime at) const {
  for (const auto& fn : refresh_) fn();
  MetricsSnapshot snap;
  snap.at = at;
  snap.samples.reserve(entries_.size());
  for (const auto& e : entries_) {
    MetricSample s;
    s.name = e->name;
    s.kind = e->kind;
    switch (e->kind) {
      case MetricKind::kCounter:
        s.value = static_cast<double>(e->counter.value());
        break;
      case MetricKind::kGauge:
        s.value = e->pull ? e->pull() : e->gauge.value();
        break;
      case MetricKind::kHistogram: {
        const Histogram& h = *e->hist;
        s.count = h.count();
        s.sum = h.sum();
        s.min = h.min();
        s.max = h.max();
        s.value = h.mean();
        for (std::size_t i = 0; i < Histogram::kBuckets; ++i) {
          if (h.bucket(i) != 0) {
            s.buckets.emplace_back(static_cast<std::uint32_t>(i), h.bucket(i));
          }
        }
        break;
      }
    }
    snap.samples.push_back(std::move(s));
  }
  std::sort(snap.samples.begin(), snap.samples.end(),
            [](const MetricSample& a, const MetricSample& b) {
              return a.name < b.name;
            });
  return snap;
}

void MetricsRegistry::emit_to_tracer(Tracer& tracer) const {
  if (!tracer.enabled()) return;
  for (const auto& fn : refresh_) fn();
  std::vector<const Entry*> sorted;
  sorted.reserve(entries_.size());
  for (const auto& e : entries_) sorted.push_back(e.get());
  std::sort(sorted.begin(), sorted.end(),
            [](const Entry* a, const Entry* b) { return a->name < b->name; });
  for (const Entry* e : sorted) {
    switch (e->kind) {
      case MetricKind::kCounter:
        tracer.counter(e->name.c_str(), "value",
                       static_cast<double>(e->counter.value()));
        break;
      case MetricKind::kGauge:
        tracer.counter(e->name.c_str(), "value",
                       e->pull ? e->pull() : e->gauge.value());
        break;
      case MetricKind::kHistogram:
        tracer.counter(e->name.c_str(), "count",
                       static_cast<double>(e->hist->count()));
        tracer.counter(e->name.c_str(), "mean", e->hist->mean());
        break;
    }
  }
}

std::string to_json(const MetricsSnapshot& snapshot) {
  std::string out;
  out.reserve(256 + snapshot.samples.size() * 96);
  out += "{\"at_ns\":";
  append_u64(out, snapshot.at);
  out += ",\"metrics\":[";
  bool first = true;
  for (const MetricSample& s : snapshot.samples) {
    if (!first) out.push_back(',');
    first = false;
    out += "\n{\"name\":";
    append_json_string(out, s.name);
    out += ",\"kind\":\"";
    out += to_string(s.kind);
    out.push_back('"');
    if (s.kind == MetricKind::kHistogram) {
      out += ",\"count\":";
      append_u64(out, s.count);
      out += ",\"sum\":";
      append_u64(out, s.sum);
      out += ",\"min\":";
      append_u64(out, s.min);
      out += ",\"max\":";
      append_u64(out, s.max);
      out += ",\"mean\":";
      append_double(out, s.value);
      out += ",\"buckets\":[";
      bool bfirst = true;
      for (const auto& [idx, n] : s.buckets) {
        if (!bfirst) out.push_back(',');
        bfirst = false;
        out.push_back('[');
        append_u64(out, idx);
        out.push_back(',');
        append_u64(out, n);
        out.push_back(']');
      }
      out.push_back(']');
    } else {
      out += ",\"value\":";
      append_double(out, s.value);
    }
    out.push_back('}');
  }
  out += "\n]}";
  return out;
}

}  // namespace resex::obs
