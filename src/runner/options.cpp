#include "runner/options.hpp"

#include <algorithm>
#include <charconv>
#include <ostream>
#include <stdexcept>
#include <string_view>
#include <thread>

#include "fault/plan.hpp"

namespace resex::runner {

std::size_t RunnerOptions::resolved_jobs() const {
  if (jobs > 0) return jobs;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? hw : 1;
}

congestion::CongestionConfig RunnerOptions::congestion_config(
    congestion::CongestionConfig base) const {
  base.buffer_pkts = buf_pkts;
  base.ecn_kmin = ecn_kmin;
  base.ecn_kmax = ecn_kmax;
  // Marking without reaction just loses information; the CLI pairs them.
  base.rate_control = ecn_kmax > 0;
  if (pool_alpha > 0.0) {
    // --pool-alpha reinterprets --buf-bytes as the shared pool size.
    base.pool_bytes = buf_bytes;
    base.pool_alpha = pool_alpha;
  } else {
    base.buffer_bytes = buf_bytes;
  }
  base.pfc = pfc;
  return base;
}

namespace {

std::uint64_t parse_u64(std::string_view flag, std::string_view text) {
  std::uint64_t value = 0;
  const auto [end, ec] =
      std::from_chars(text.data(), text.data() + text.size(), value);
  if (ec != std::errc{} || end != text.data() + text.size()) {
    throw std::invalid_argument(std::string(flag) + ": expected an integer, got '" +
                                std::string(text) + "'");
  }
  return value;
}

double parse_f64(std::string_view flag, std::string_view text) {
  double value = 0.0;
  const auto [end, ec] =
      std::from_chars(text.data(), text.data() + text.size(), value);
  if (ec != std::errc{} || end != text.data() + text.size()) {
    throw std::invalid_argument(std::string(flag) + ": expected a number, got '" +
                                std::string(text) + "'");
  }
  return value;
}

/// The flags every runner program reads.
constexpr std::string_view kCommonFlags[] = {
    "--help", "-h",    "--jobs",  "-j",           "--seeds",         "--seed",
    "--json", "--csv", "--trace", "--metrics-json", "--metrics-period"};

}  // namespace

RunnerOptions parse_options(
    int argc, const char* const* argv,
    std::optional<std::span<const std::string_view>> reads) {
  const auto is_read = [&](std::string_view flag) {
    return !reads || std::ranges::find(*reads, flag) != reads->end();
  };
  RunnerOptions opts;
  for (int i = 1; i < argc; ++i) {
    std::string_view arg(argv[i]);
    std::string_view value;
    bool has_inline_value = false;
    if (const auto eq = arg.find('='); eq != std::string_view::npos) {
      value = arg.substr(eq + 1);
      arg = arg.substr(0, eq);
      has_inline_value = true;
    }
    auto take_value = [&]() -> std::string_view {
      if (has_inline_value) return value;
      if (i + 1 >= argc) {
        throw std::invalid_argument(std::string(arg) + ": missing value");
      }
      return argv[++i];
    };

    if (arg == "--help" || arg == "-h") {
      opts.help = true;
    } else if (arg == "--jobs" || arg == "-j") {
      opts.jobs = static_cast<std::size_t>(parse_u64(arg, take_value()));
      if (opts.jobs == 0) throw std::invalid_argument("--jobs: must be >= 1");
    } else if (arg == "--seeds") {
      opts.seeds = static_cast<std::size_t>(parse_u64(arg, take_value()));
      if (opts.seeds == 0) throw std::invalid_argument("--seeds: must be >= 1");
    } else if (arg == "--seed") {
      opts.seed = parse_u64(arg, take_value());
    } else if (arg == "--json") {
      opts.json_path = std::string(take_value());
    } else if (arg == "--csv") {
      opts.csv_path = std::string(take_value());
    } else if (arg == "--trace") {
      opts.trace_path = std::string(take_value());
    } else if (arg == "--metrics-json") {
      opts.metrics_path = std::string(take_value());
    } else if (arg == "--metrics-period") {
      opts.metrics_period_ms = parse_f64(arg, take_value());
      if (opts.metrics_period_ms <= 0.0) {
        throw std::invalid_argument("--metrics-period: must be > 0 ms");
      }
    } else if (arg == "--faults") {
      opts.faults = std::string(take_value());
      // Validate now so a typo fails before any trial runs (FaultPlan::parse
      // throws std::invalid_argument with a pointed message).
      (void)fault::FaultPlan::parse(opts.faults);
    } else if (arg == "--buf-pkts") {
      opts.buf_pkts = static_cast<std::uint32_t>(parse_u64(arg, take_value()));
      if (opts.buf_pkts == 0) {
        throw std::invalid_argument("--buf-pkts: must be >= 1");
      }
    } else if (arg == "--ecn-kmin") {
      opts.ecn_kmin = static_cast<std::uint32_t>(parse_u64(arg, take_value()));
    } else if (arg == "--ecn-kmax") {
      opts.ecn_kmax = static_cast<std::uint32_t>(parse_u64(arg, take_value()));
    } else if (arg == "--buf-bytes") {
      opts.buf_bytes = parse_u64(arg, take_value());
      if (opts.buf_bytes == 0) {
        throw std::invalid_argument("--buf-bytes: must be >= 1");
      }
    } else if (arg == "--pool-alpha") {
      opts.pool_alpha = parse_f64(arg, take_value());
      if (opts.pool_alpha <= 0.0) {
        throw std::invalid_argument("--pool-alpha: must be > 0");
      }
    } else if (arg == "--pfc") {
      if (has_inline_value) {
        throw std::invalid_argument("--pfc: takes no value");
      }
      opts.pfc = true;
    } else if (arg == "--qos") {
      if (has_inline_value) {
        throw std::invalid_argument("--qos: takes no value");
      }
      opts.qos.enabled = true;
    } else if (arg == "--sl-vl-map") {
      try {
        opts.qos.set_sl_vl_map(take_value());
      } catch (const std::invalid_argument& err) {
        throw std::invalid_argument("--" + std::string(err.what()));
      }
    } else if (arg == "--vl-weights") {
      try {
        opts.qos.set_vl_weights(take_value());
      } catch (const std::invalid_argument& err) {
        throw std::invalid_argument("--" + std::string(err.what()));
      }
    } else if (arg == "--vl-hi-limit") {
      opts.qos.hi_limit =
          static_cast<std::uint32_t>(parse_u64(arg, take_value()));
      opts.qos.hi_limit_set = true;
    } else if (arg == "--routing") {
      opts.routing.mode = routing::parse_route_mode(take_value());
    } else if (arg == "--ecmp-seed") {
      opts.routing.ecmp_seed = parse_u64(arg, take_value());
      opts.ecmp_seed_set = true;
    } else if (arg == "--vl-shift") {
      if (has_inline_value) {
        throw std::invalid_argument("--vl-shift: takes no value");
      }
      opts.routing.vl_shift = true;
    } else if (arg == "--coll-ranks") {
      opts.coll_ranks =
          static_cast<std::uint32_t>(parse_u64(arg, take_value()));
      if (opts.coll_ranks < 2) {
        throw std::invalid_argument("--coll-ranks: must be >= 2");
      }
    } else if (arg == "--coll-bytes") {
      opts.coll_bytes = parse_u64(arg, take_value());
      if (opts.coll_bytes == 0 || opts.coll_bytes % 8 != 0) {
        throw std::invalid_argument(
            "--coll-bytes: must be a positive multiple of 8");
      }
    } else if (arg == "--coll-chunk") {
      opts.coll_chunk =
          static_cast<std::uint32_t>(parse_u64(arg, take_value()));
      if (opts.coll_chunk < 8 || opts.coll_chunk % 8 != 0) {
        throw std::invalid_argument(
            "--coll-chunk: must be a multiple of 8 (>= 8)");
      }
    } else if (arg == "--coll-algo") {
      opts.coll_algo = std::string(take_value());
      if (opts.coll_algo != "ring" && opts.coll_algo != "allgather" &&
          opts.coll_algo != "bcast") {
        throw std::invalid_argument(
            "--coll-algo: want ring | allgather | bcast");
      }
    } else if (arg == "--coll-iters") {
      opts.coll_iters =
          static_cast<std::uint32_t>(parse_u64(arg, take_value()));
      if (opts.coll_iters == 0) {
        throw std::invalid_argument("--coll-iters: must be >= 1");
      }
    } else {
      throw std::invalid_argument("unknown option '" + std::string(arg) +
                                  "' (see --help)");
    }
    if (!is_read(arg) &&
        std::ranges::find(kCommonFlags, arg) == std::end(kCommonFlags)) {
      throw std::invalid_argument(std::string(arg) +
                                  " is not used by this bench");
    }
  }
  // ECN thresholds come as a pair: marking needs both bounds, and the fabric
  // rejects kmin > kmax. Catch it here so the message names the flags.
  if (opts.ecn_kmax > 0 &&
      (opts.ecn_kmin == 0 || opts.ecn_kmin > opts.ecn_kmax)) {
    throw std::invalid_argument(
        "--ecn-kmax: requires --ecn-kmin with 1 <= kmin <= kmax");
  }
  if (opts.ecn_kmin > 0 && opts.ecn_kmax == 0) {
    throw std::invalid_argument("--ecn-kmin: requires --ecn-kmax");
  }
  if (opts.pool_alpha > 0.0 && opts.buf_bytes == 0) {
    throw std::invalid_argument(
        "--pool-alpha: requires --buf-bytes (the shared pool size)");
  }
  if (opts.pfc && opts.buf_pkts == 0 && opts.buf_bytes == 0) {
    throw std::invalid_argument(
        "--pfc: requires finite buffers (--buf-pkts or --buf-bytes)");
  }
  if (!opts.qos.enabled) {
    if (opts.qos.map_set) {
      throw std::invalid_argument("--sl-vl-map: requires --qos");
    }
    if (opts.qos.weights_set) {
      throw std::invalid_argument("--vl-weights: requires --qos");
    }
    if (opts.qos.hi_limit_set) {
      throw std::invalid_argument("--vl-hi-limit: requires --qos");
    }
  }
  if (opts.ecmp_seed_set && !opts.routing.multipath() &&
      is_read("--routing")) {
    throw std::invalid_argument(
        "--ecmp-seed: requires --routing ecmp or --routing adaptive");
  }
  if (opts.routing.vl_shift && !opts.qos.enabled) {
    throw std::invalid_argument("--vl-shift: requires --qos (lane headroom)");
  }
  return opts;
}

void print_usage(std::ostream& os, const std::string& prog) {
  os << "usage: " << prog << " [--jobs N] [--seeds K] [--seed S]"
     << " [--json PATH] [--csv PATH]\n"
     << "       " << std::string(prog.size(), ' ')
     << " [--trace PATH] [--metrics-json PATH]\n"
     << "  --jobs N    worker threads (default: hardware concurrency)\n"
     << "  --seeds K   replicates per sweep point with derived seeds"
     << " (default 1)\n"
     << "  --seed S    base seed to derive replicate streams from\n"
     << "  --json PATH write per-trial + aggregate results as JSON\n"
     << "  --csv PATH  write the aggregate table as CSV\n"
     << "  --trace PATH        write per-trial sim-time traces (Chrome\n"
     << "              trace_event JSON, Perfetto-loadable; .jsonl = JSONL).\n"
     << "              Trial p0r0 writes PATH itself, others insert"
     << " .p<P>r<R>.\n"
     << "  --metrics-json PATH write per-trial metrics snapshots\n"
     << "  --metrics-period MS also snapshot every MS ms of sim time (adds a\n"
     << "              per-trial \"series\" to --metrics-json output, and\n"
     << "              streams counter tracks into --trace files)\n"
     << "  --faults SPEC       inject a deterministic fault plan into every\n"
     << "              trial, e.g. drop=0.01,flap=300:150:A/up (see\n"
     << "              fault::FaultPlan for the grammar)\n"
     << "  --buf-pkts N        finite per-port switch buffers, in packets.\n"
     << "              Full ports tail-drop; RC recovers via NAK/RTO.\n"
     << "  --ecn-kmin N        ECN marking lower threshold, in packets\n"
     << "  --ecn-kmax N        ECN marking upper threshold; setting it turns\n"
     << "              on marking and DCQCN-style per-QP rate control\n"
     << "  --buf-bytes N       finite switch buffers in bytes (byte-based\n"
     << "              occupancy). Per-port, unless --pool-alpha makes it\n"
     << "              the shared per-switch pool size.\n"
     << "  --pool-alpha A      shared-pool dynamic thresholds: each port\n"
     << "              admits up to A * free-pool bytes (needs --buf-bytes)\n"
     << "  --pfc               PFC-style lossless pause/resume instead of\n"
     << "              tail-drop (needs --buf-pkts or --buf-bytes)\n"
     << "  --qos               service levels / virtual lanes: SL 0 (latency,\n"
     << "              RPC + control) on high-priority VL 0, SL 1 (bulk,\n"
     << "              collectives + migration) on VL 1; per-lane buffers,\n"
     << "              ECN and per-priority PFC pause\n"
     << "  --sl-vl-map SPEC    SL:VL pairs, e.g. 0:0,1:1,2:1 (needs --qos)\n"
     << "  --vl-weights SPEC   per-lane WRR weights, e.g. 4,1 (needs --qos)\n"
     << "  --vl-hi-limit N     consecutive high-table grants before a forced\n"
     << "              low-table grant; 0 = strict priority (default 16)\n"
     << "  --routing MODE      multipath route selection on fat-tree fabrics:\n"
     << "              static (one trunk per pair, the default) | ecmp\n"
     << "              (flow-consistent hash over (QP, SL)) | adaptive\n"
     << "              (least-loaded candidate at flow start + pause escape)\n"
     << "  --ecmp-seed S       hash seed for ECMP/adaptive flow placement\n"
     << "  --vl-shift          deadlock-free lane shifts: routes crossing the\n"
     << "              switch-order wrap travel one lane up, breaking cyclic\n"
     << "              PFC buffer dependencies (needs --qos; reserves a lane)\n"
     << "  --coll-ranks N      collective benches only: override the rank\n"
     << "              count (>= 2; the bench's sweep otherwise)\n"
     << "  --coll-bytes N      collective payload size in bytes (multiple\n"
     << "              of 8)\n"
     << "  --coll-chunk N      largest single RDMA write of a step\n"
     << "  --coll-algo A       ring | allgather | bcast\n"
     << "  --coll-iters N      back-to-back collective iterations\n"
     << "Per-trial results are byte-identical for any --jobs value.\n";
}

}  // namespace resex::runner
