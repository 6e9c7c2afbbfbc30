// xspbench — the repository benchmark binary. run.py builds and drives it;
// it can also be run by hand:
//
//   xspbench --workload zoo_leveled|fleet_steady --seed N
//            --seconds S [--trace 0|1] [--ledger FILE] [--tmp DIR]
//            [--golden FILE] [--write-golden FILE] [--commit SHA]
//
// Prints a human-readable metric table, then one JSON result line (the
// last line of stdout). Exit code 0 when every output check passed, 1 when
// a check failed or the run broke, 2 on a usage error.
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <map>
#include <string>
#include <thread>

#include "common.hpp"

namespace {

using namespace xspbench;

void usage() {
  std::fprintf(stderr,
               "usage: xspbench --workload zoo_leveled|fleet_steady --seed N\n"
               "                --seconds S [--trace 0|1] [--ledger FILE] [--tmp DIR]\n"
               "                [--golden FILE] [--write-golden FILE] [--commit SHA]\n");
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(line.find_first_not_of(' ', colon + 1));
    }
  }
  return "unknown";
}

void print_table(const char* title, const std::map<std::string, Metric>& metrics) {
  std::printf("%s\n", title);
  for (const auto& [name, m] : metrics)
    std::printf("  %-32s %16.6g %s\n", name.c_str(), m.value, m.unit.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  RunConfig cfg;
  std::string ledger_path;
  std::string commit = "unknown";
  cfg.tmp_root = ".bench_build/tmp";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) {
      usage();
      return 2;
    }
    const std::string val = argv[++i];
    if (arg == "--workload") {
      cfg.workload = val;
    } else if (arg == "--seed") {
      cfg.seed = std::strtoull(val.c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      cfg.seconds = std::strtod(val.c_str(), nullptr);
    } else if (arg == "--trace") {
      cfg.trace = val == "1";
    } else if (arg == "--ledger") {
      ledger_path = val;
    } else if (arg == "--tmp") {
      cfg.tmp_root = val;
    } else if (arg == "--golden") {
      cfg.golden_path = val;
    } else if (arg == "--write-golden") {
      cfg.golden_path = val;
      cfg.write_golden = true;
    } else if (arg == "--commit") {
      commit = val;
    } else {
      usage();
      return 2;
    }
  }
  if (cfg.seconds <= 0 || (cfg.workload != "zoo_leveled" && cfg.workload != "fleet_steady")) {
    usage();
    return 2;
  }

  const std::map<std::string, std::string> context = {
      {"workload", cfg.workload},
      {"seed", std::to_string(cfg.seed)},
      {"seconds", std::to_string(cfg.seconds)},
      {"trace", cfg.trace ? "1" : "0"},
      {"nproc", std::to_string(std::thread::hardware_concurrency())},
      {"cpu_model", cpu_model()},
      {"build_type", XSPBENCH_BUILD_TYPE},
      {"compiler", XSPBENCH_COMPILER},
      {"commit", commit},
  };

  Ledger ledger(cfg.trace);
  Report report;
  try {
    report = cfg.workload == "zoo_leveled" ? run_zoo(cfg, ledger) : run_fleet(cfg, ledger);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "xspbench: %s\n", e.what());
    return 1;
  }

  print_table("end-to-end:", report.end_to_end);
  print_table("workload detail:", report.detail);
  if (cfg.trace) print_table("per-layer (traced):", report.layers);
  for (const std::string& f : report.check_failures)
    std::printf("CHECK FAILED: %s\n", f.c_str());
  if (cfg.trace && !ledger_path.empty() && !ledger.write(ledger_path, context, report)) {
    std::fprintf(stderr, "xspbench: cannot write ledger %s\n", ledger_path.c_str());
    report.check(false, "ledger not written");
  }
  std::printf("%s\n", report_json(report, context).c_str());
  std::fflush(stdout);
  return report.check_failures.empty() ? 0 : 1;
}
