#include "ibmon/ibmon.hpp"

#include <algorithm>
#include <cstring>

#include "sim/task.hpp"

namespace resex::ibmon {

void IbMon::watch_cq(hv::Domain& domain, const fabric::CompletionQueue& cq) {
  // Mapping the ring exercises the privilege check once up-front, like the
  // real tool's xc_map_foreign_range call at attach time.
  (void)domain.memory().map_foreign_range(
      cq.ring_base(),
      ((cq.ring_bytes() + mem::kPageSize - 1) / mem::kPageSize) *
          mem::kPageSize);
  WatchedCq w;
  w.domain = domain.id();
  w.memory = &domain.memory();
  w.cq = &cq;
  w.base = cq.ring_base();
  w.entries = cq.entries();
  watched_.push_back(w);
  stats_.try_emplace(domain.id());
  last_activity_.emplace(domain.id(), sim_.now());
}

void IbMon::watch_domain(hv::Domain& domain,
                         const std::vector<fabric::CompletionQueue*>& cqs) {
  for (const auto* cq : cqs) watch_cq(domain, *cq);
}

void IbMon::start() {
  if (started_) return;
  started_ = true;
  sim_.spawn([](IbMon& mon) -> sim::Task {
    for (;;) {
      co_await mon.sim_.delay(mon.config_.sample_period);
      mon.sample_now();
    }
  }(*this));
}

void IbMon::sample_now() {
  RESEX_TRACE_SPAN(sim_.tracer(), "ibmon.sample", "ibmon",
                   {"cqs", static_cast<double>(watched_.size())});
  ++samples_;
  if (samples_metric_ == nullptr) {
    samples_metric_ = &sim_.metrics().gauge("ibmon.samples");
  }
  samples_metric_->set(static_cast<double>(samples_));
  for (auto& w : watched_) scan(w);
}

fabric::Cqe IbMon::read_slot(const WatchedCq& w, std::uint64_t count) const {
  const mem::GuestAddr addr =
      w.base + (count % w.entries) * sizeof(fabric::Cqe);
  // Out-of-band read through the foreign mapping (page-aligned window that
  // covers the slot).
  const mem::GuestAddr page = addr & ~(mem::GuestAddr{mem::kPageSize} - 1);
  const auto view = w.memory->map_foreign_range(page, mem::kPageSize);
  fabric::Cqe cqe;
  std::memcpy(&cqe, view.data() + (addr - page), sizeof(cqe));
  return cqe;
}

void IbMon::scan(WatchedCq& w) {
  const std::uint64_t window_start = w.last_ts;
  std::uint64_t consumed = 0;
  std::uint64_t resynced = 0;
  std::uint64_t newest_ts = w.last_ts;
  std::vector<double> scan_gaps;
  for (;;) {
    const fabric::Cqe cqe = read_slot(w, w.shadow);
    const std::uint8_t expected = owner_for(w, w.shadow);
    if (cqe.owner == expected) {
      w.last_ts = std::max(w.last_ts, cqe.timestamp_ns);
      newest_ts = std::max(newest_ts, cqe.timestamp_ns);
      // Feed the rate estimators (timestamps are nondecreasing in ring
      // order; 0 means "never stamped" and is skipped).
      if (cqe.timestamp_ns != 0) {
        if (w.prev_consumed_ts != 0 &&
            cqe.timestamp_ns > w.prev_consumed_ts) {
          const auto gap =
              static_cast<double>(cqe.timestamp_ns - w.prev_consumed_ts);
          w.ewma_gap_ns =
              w.ewma_gap_ns == 0.0 ? gap
                                   : 0.875 * w.ewma_gap_ns + 0.125 * gap;
          scan_gaps.push_back(gap);
        }
        w.prev_consumed_ts = cqe.timestamp_ns;
      }
      const auto op = static_cast<fabric::CqeOpcode>(cqe.opcode);
      if (cqe.status ==
          static_cast<std::uint8_t>(fabric::CqeStatus::kSuccess)) {
        const auto bytes = static_cast<double>(cqe.byte_len);
        if (op == fabric::CqeOpcode::kSendComplete) {
          ++w.seen_send;
          w.ewma_send_bytes = w.ewma_send_bytes == 0.0
                                  ? bytes
                                  : 0.875 * w.ewma_send_bytes + 0.125 * bytes;
        } else {
          ++w.seen_recv;
          w.ewma_recv_bytes = w.ewma_recv_bytes == 0.0
                                  ? bytes
                                  : 0.875 * w.ewma_recv_bytes + 0.125 * bytes;
        }
      }
      account(w.domain, cqe);
      ++consumed;
      ++w.consumed_total;
      ++w.shadow;
      continue;
    }
    // Invalid for our lap. Either the slot simply is not written yet (it
    // holds a *previous* lap's entry, or pristine zeros), or the producer
    // lapped us and overwrote it with the *next* lap's parity. The owner
    // bit cannot distinguish these; the completion timestamp can: a lapped
    // slot is strictly newer than the newest CQE we have consumed, while a
    // stale slot is older.
    if (cqe.timestamp_ns > w.last_ts && cqe.timestamp_ns != 0) {
      // The producer overwrote this slot, so its CQE for *our* lap is lost.
      // Step the shadow forward one slot: walking slot-by-slot resyncs to
      // the overwritten region's lap and still consumes any
      // not-yet-overwritten entries of our lap. The charge for the lost
      // completions is computed once at the end of the scan.
      ++resynced;
      newest_ts = std::max(newest_ts, cqe.timestamp_ns);
      // The next consumed CQE sits across the lost region; the timestamp
      // gap to the previous consumed one spans many completions and would
      // poison the rate EWMA. Re-seed instead of sampling it.
      w.prev_consumed_ts = 0;
      sim_.metrics().counter("ibmon.lap_resyncs").add();
      RESEX_TRACE_INSTANT(sim_.tracer(), "ibmon.lap_resync", "ibmon",
                          {"domain", static_cast<double>(w.domain)},
                          {"slot", static_cast<double>(w.shadow % w.entries)});
      ++w.shadow;
      continue;
    }
    break;
  }
  if (!scan_gaps.empty()) {
    // Refresh the robust rate estimate from this scan's consumed gaps. The
    // median shrugs off the handful of wide gaps a resync leaves behind,
    // which otherwise inflate the EWMA and make the extrapolation below
    // undercount the lost lap(s).
    auto mid = scan_gaps.begin() +
               static_cast<std::ptrdiff_t>(scan_gaps.size() / 2);
    std::nth_element(scan_gaps.begin(), mid, scan_gaps.end());
    w.median_gap_ns = *mid;
  }
  // Charge the lost lap(s). Each overwritten slot proves at least one
  // lost completion, but when the producer lapped the ring k times only
  // the last lap's overwrites are visible — a pure per-slot charge
  // undercounts by (k-1) rings. Extrapolate from the observed completion
  // rate instead: the timestamp span this scan covered, divided by the
  // median inter-completion gap (EWMA fallback), estimates how many
  // completions the app produced; what we did not consume, we missed.
  // (Entries still pending in the ring are counted here and consumed next
  // scan without a span contribution, so the overshoot cancels across
  // scans.) The per-slot count stays as the lower bound and as the
  // fallback when timestamps carry no rate signal.
  //
  // With hw_produce_counter the HCA's per-CQ counter makes the count exact:
  // every CQE ever produced was either consumed by a scan or overwritten
  // before one saw it, so the cumulative loss is produced() - consumed_total
  // and each scan charges only the delta. This also catches losses the
  // owner-bit walk cannot even see (an exact even number of laps between
  // scans restores the expected parity, so resynced stays 0).
  std::uint64_t missed = 0;
  if (config_.hw_produce_counter && w.cq != nullptr) {
    const std::uint64_t lost = w.cq->produced() - w.consumed_total;
    missed = lost > w.missed_charged ? lost - w.missed_charged : 0;
    w.missed_charged += missed;
  } else if (resynced > 0) {
    missed = resynced;
    const double gap_est =
        w.median_gap_ns > 0.0 ? w.median_gap_ns : w.ewma_gap_ns;
    if (gap_est > 0.0 && window_start > 0 && newest_ts > window_start) {
      const auto produced = static_cast<std::uint64_t>(
          static_cast<double>(newest_ts - window_start) / gap_est);
      if (produced > consumed && produced - consumed > missed) {
        missed = produced - consumed;
      }
    }
  }
  if (missed > 0) {
    auto& st = stats_[w.domain];
    st.missed_estimate += missed;
    // Apportion the loss to the completion kinds this CQ actually carries
    // (a dedicated recv ring must not be charged as sends), sized by the
    // per-kind EWMAs with the largest-seen-message fallback.
    const std::uint64_t seen = w.seen_send + w.seen_recv;
    const std::uint64_t missed_send =
        seen == 0 ? missed
                  : static_cast<std::uint64_t>(
                        static_cast<double>(missed) *
                        (static_cast<double>(w.seen_send) /
                         static_cast<double>(seen)));
    const std::uint64_t missed_recv = missed - missed_send;
    const double send_each = w.ewma_send_bytes > 0.0
                                 ? w.ewma_send_bytes
                                 : static_cast<double>(st.est_buffer_size);
    if (missed_send > 0 && send_each > 0.0) {
      st.send_bytes += static_cast<std::uint64_t>(
          send_each * static_cast<double>(missed_send));
      const std::uint32_t mtu = config_.mtu_bytes;
      st.send_mtus +=
          missed_send *
          ((static_cast<std::uint64_t>(send_each) + mtu - 1) / mtu);
    }
    if (missed_recv > 0 && w.ewma_recv_bytes > 0.0) {
      st.recv_bytes += static_cast<std::uint64_t>(
          w.ewma_recv_bytes * static_cast<double>(missed_recv));
    }
  }
  if (consumed > 0 || resynced > 0) {
    last_activity_[w.domain] = sim_.now();
  }
}

bool IbMon::stale(hv::DomainId id) const {
  if (config_.stale_after == 0) return false;
  const auto it = last_activity_.find(id);
  if (it == last_activity_.end()) return false;
  return sim_.now() - it->second > config_.stale_after;
}

void IbMon::account(hv::DomainId dom, const fabric::Cqe& cqe) {
  VmIoStats& st = stats_[dom];
  st.qpns.insert(cqe.qp_num);
  if (cqe.status != static_cast<std::uint8_t>(fabric::CqeStatus::kSuccess)) {
    ++st.error_completions;
    return;
  }
  const auto op = static_cast<fabric::CqeOpcode>(cqe.opcode);
  if (op == fabric::CqeOpcode::kSendComplete) {
    ++st.send_completions;
    st.send_bytes += cqe.byte_len;
    const std::uint32_t mtu = config_.mtu_bytes;
    st.send_mtus += cqe.byte_len == 0 ? 1 : (cqe.byte_len + mtu - 1) / mtu;
    st.est_buffer_size = std::max(st.est_buffer_size, cqe.byte_len);
  } else {
    ++st.recv_completions;
    st.recv_bytes += cqe.byte_len;
  }
}

VmIoStats IbMon::stats(hv::DomainId id) const {
  const auto it = stats_.find(id);
  return it == stats_.end() ? VmIoStats{} : it->second;
}

}  // namespace resex::ibmon
