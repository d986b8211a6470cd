// meshledger — performance ledger for meshopt.
//
//   meshledger --workload <live_mesh|replay_tiers|serve_tenants>
//              --seed <n> --seconds <s> --trace <0|1> [--trace-file <path>]
//
// Untraced (--trace 0): runs the named workload and prints, as the last
// line of stdout, one JSON object with the end-to-end metrics:
//   {"correct": true, "attempted": N, "failed": F, "metrics": {...}}
// Traced (--trace 1): runs the traced variant of every workload, the
// named one first, splitting --seconds between them; reports the
// per-layer metrics and writes the benchmark's spans as Chrome
// trace-event JSON to --trace-file.
//
// A failed correctness check prints the reason on stderr and exits with
// status 3 without a result line; bad arguments exit with status 2.

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "harness.h"

namespace {

using ledger::Outcome;
using ledger::RunConfig;
using ledger::SpanLog;

struct Workload {
  const char* name;
  Outcome (*run)(const RunConfig&, SpanLog*);
};

constexpr Workload kWorkloads[] = {
    {"live_mesh", ledger::run_live_mesh},
    {"replay_tiers", ledger::run_replay_tiers},
    {"serve_tenants", ledger::run_serve_tenants},
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "meshledger: %s\nusage: meshledger --workload "
               "<live_mesh|replay_tiers|serve_tenants> --seed <n> "
               "--seconds <s> --trace <0|1> [--trace-file <path>]\n",
               why);
  std::exit(2);
}

/// Peak resident set of this process image (VmHWM). getrusage's
/// ru_maxrss is not used: Linux carries the launching process's
/// pre-exec high-water mark into it, so a small ledger started from a
/// larger Python launcher would report the launcher's memory.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line))
    if (line.rfind("VmHWM:", 0) == 0)
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
  throw std::runtime_error("VmHWM missing from /proc/self/status");
}

void print_result(const Outcome& o) {
  std::string line = "{\"correct\": true, \"attempted\": " +
                     std::to_string(o.attempted) +
                     ", \"failed\": " + std::to_string(o.failed) +
                     ", \"metrics\": {";
  char buf[256];
  for (std::size_t i = 0; i < o.metrics.size(); ++i) {
    std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", o.metrics[i].name.c_str(),
                  o.metrics[i].value, o.metrics[i].unit.c_str());
    line += buf;
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  RunConfig cfg;
  cfg.process_start = ledger::Clock::now();
  std::string workload, trace_file;
  int trace = -1;
  bool have_seed = false, have_seconds = false;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (i + 1 >= argc) usage("missing value after an option");
    const char* value = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      workload = value;
    } else if (arg == "--seed") {
      cfg.seed = std::strtoull(value, &end, 10);
      have_seed = *end == '\0';
    } else if (arg == "--seconds") {
      cfg.seconds = std::strtod(value, &end);
      have_seconds = *end == '\0' && cfg.seconds > 0.0;
    } else if (arg == "--trace") {
      trace = std::string_view(value) == "1"   ? 1
              : std::string_view(value) == "0" ? 0
                                               : -1;
    } else if (arg == "--trace-file") {
      trace_file = value;
    } else {
      usage("unknown option");
    }
  }
  const Workload* chosen = nullptr;
  for (const Workload& w : kWorkloads)
    if (workload == w.name) chosen = &w;
  if (chosen == nullptr) usage("unknown or missing --workload");
  if (!have_seed || !have_seconds || trace < 0)
    usage("--seed, --seconds and --trace are required");
  if (trace == 1 && trace_file.empty()) usage("--trace 1 needs --trace-file");

  try {
    Outcome result;
    if (trace == 0) {
      result = chosen->run(cfg, nullptr);
      result.metrics.push_back({"peak_rss_mb", peak_rss_mb(), "MB"});
    } else {
      SpanLog spans;
      std::vector<const Workload*> order = {chosen};
      for (const Workload& w : kWorkloads)
        if (&w != chosen) order.push_back(&w);
      RunConfig each = cfg;
      each.seconds = cfg.seconds / static_cast<double>(order.size());
      for (const Workload* w : order) {
        Outcome o = w->run(each, &spans);
        result.attempted += o.attempted;
        result.failed += o.failed;
        for (auto& m : o.metrics) result.metrics.push_back(std::move(m));
      }
      std::ofstream file(trace_file);
      file << spans.to_json();
      if (!file) throw std::runtime_error("cannot write " + trace_file);
      spans.print_layer_shares(stderr);
    }
    print_result(result);
  } catch (const ledger::CheckFailure& e) {
    std::fprintf(stderr, "meshledger: check failed: %s\n", e.what());
    return 3;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "meshledger: error: %s\n", e.what());
    return 4;
  }
  return 0;
}
