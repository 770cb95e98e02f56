// resex_perfbench: the compiled half of the benchmark. perfbench/run.py
// starts one process per trial (so peak RSS is one trial's) and reads the
// single JSON line it prints.
//
//   resex_perfbench trial <workload> <seed> [<trace-file>]
//   resex_perfbench probes <seed>
//
// Exit status 0 with a JSON line on stdout, 2 on bad usage, 1 when the
// simulator threw.

#include <sys/resource.h>

#include <cstdlib>
#include <exception>
#include <iomanip>
#include <iostream>
#include <sstream>
#include <string>

#include "workloads.hpp"

namespace {

using perfbench::Values;

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

std::string object(const Values& v) {
  std::ostringstream os;
  os << std::setprecision(17) << "{";
  const char* sep = "";
  for (const auto& [k, x] : v) {
    os << sep << quoted(k) << ": " << x;
    sep = ", ";
  }
  os << "}";
  return os.str();
}

int usage() {
  std::cerr << "usage: resex_perfbench trial <workload> <seed> [<trace-file>]\n"
               "       resex_perfbench probes <seed>\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 3) return usage();
  const std::string cmd = argv[1];
  const auto seed_arg = [&](int i) {
    return std::strtoull(argv[i], nullptr, 10);
  };
  try {
    if (cmd == "trial" && (argc == 4 || argc == 5)) {
      const auto r = perfbench::run_trial(argv[2], seed_arg(3),
                                          argc == 5 ? argv[4] : "");
      std::ostringstream os;
      os << std::setprecision(17) << "{\"setup_s\": " << r.setup_s
         << ", \"run_s\": " << r.run_s
         << ", \"trial_wall_s\": " << r.trial_wall_s
         << ", \"sim_s\": " << r.sim_s << ", \"peak_rss_mb\": " << peak_rss_mb()
         << ", \"fingerprint\": " << object(r.fingerprint)
         << ", \"counts\": " << object(r.counts) << ", \"problems\": [";
      const char* sep = "";
      for (const auto& p : r.problems) {
        os << sep << quoted(p);
        sep = ", ";
      }
      os << "]}";
      std::cout << os.str() << "\n";
      return 0;
    }
    if (cmd == "probes" && argc == 3) {
      std::cout << object(perfbench::run_probes(seed_arg(2))) << "\n";
      return 0;
    }
  } catch (const std::exception& e) {
    std::cerr << "resex_perfbench: " << e.what() << "\n";
    return 1;
  }
  return usage();
}
