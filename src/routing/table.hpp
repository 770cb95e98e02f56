#pragma once
// Dense next-hop table: the forwarding hot path's route lookup.
//
// Routes are installed pair-by-pair during topology construction (a build
// map keyed on (at, dst) holding the candidate list), then compiled into a
// flat layout the moment the first packet needs a lookup:
//
//   entries_[at * N + dst] -> {offset, count} into candidates_
//
// so the per-packet cost is one multiply-add index plus a contiguous span —
// no hashing, no pointer chasing. Any topology mutation (new switch, new
// trunk, new route) invalidates the compiled form; it is rebuilt lazily.
//
// Port is the egress handle stored alongside each candidate switch id
// (fabric instantiates this with Channel) so the forwarding code gets the
// queue it needs without a second map lookup.

#include <cstdint>
#include <map>
#include <stdexcept>
#include <vector>

namespace resex::routing {

template <typename Port>
class NextHopTable {
 public:
  struct Candidate {
    std::uint32_t via = 0;  // next-hop switch id
    Port* port = nullptr;   // egress channel toward `via`
  };

  struct Span {
    const Candidate* data = nullptr;
    std::uint32_t count = 0;
    [[nodiscard]] const Candidate& operator[](std::uint32_t i) const {
      return data[i];
    }
    [[nodiscard]] bool empty() const noexcept { return count == 0; }
  };

  /// Append an equal-cost candidate for (at, dst). Duplicate `via`s are
  /// ignored so topology builders can install rotations without bookkeeping.
  void add(std::uint32_t at, std::uint32_t dst, Candidate c) {
    auto& list = build_[key(at, dst)];
    for (const auto& have : list) {
      if (have.via == c.via) return;
    }
    list.push_back(c);
    compiled_ = false;
  }

  [[nodiscard]] bool has(std::uint32_t at, std::uint32_t dst) const {
    return build_.find(key(at, dst)) != build_.end();
  }

  void invalidate() noexcept { compiled_ = false; }
  [[nodiscard]] bool compiled() const noexcept { return compiled_; }

  /// Flatten the build map into the dense arrays. `num_switches` bounds the
  /// (at, dst) index space; entries outside it are a logic error upstream.
  void compile(std::uint32_t num_switches) {
    n_ = num_switches;
    entries_.assign(static_cast<std::size_t>(n_) * n_, Entry{});
    candidates_.clear();
    // build_ is an ordered map, so the flat layout (and therefore candidate
    // order within a span) is deterministic regardless of insertion order.
    for (const auto& [k, list] : build_) {
      const std::uint32_t at = static_cast<std::uint32_t>(k >> 32);
      const std::uint32_t dst = static_cast<std::uint32_t>(k);
      if (at >= n_ || dst >= n_) {
        throw std::logic_error("route table entry outside switch id space");
      }
      Entry& e = entries_[static_cast<std::size_t>(at) * n_ + dst];
      e.offset = static_cast<std::uint32_t>(candidates_.size());
      e.count = static_cast<std::uint32_t>(list.size());
      candidates_.insert(candidates_.end(), list.begin(), list.end());
    }
    compiled_ = true;
  }

  /// Hot-path lookup; requires compile() (checked only by the caller's
  /// lazy-compile guard, not here).
  [[nodiscard]] Span lookup(std::uint32_t at, std::uint32_t dst) const {
    const Entry& e = entries_[static_cast<std::size_t>(at) * n_ + dst];
    return Span{candidates_.data() + e.offset, e.count};
  }

 private:
  struct Entry {
    std::uint32_t offset = 0;
    std::uint32_t count = 0;
  };

  static std::uint64_t key(std::uint32_t at, std::uint32_t dst) noexcept {
    return (static_cast<std::uint64_t>(at) << 32) | dst;
  }

  std::map<std::uint64_t, std::vector<Candidate>> build_;
  std::vector<Entry> entries_;
  std::vector<Candidate> candidates_;
  std::uint32_t n_ = 0;
  bool compiled_ = false;
};

}  // namespace resex::routing
