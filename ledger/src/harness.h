#pragma once
// Shared machinery of the ledger: clocks, medians, the result record each
// workload returns, correctness-check failures, and the benchmark's own
// span log for traced runs.
//
// Every workload has the same shape: build inputs and run one warm round
// (set-up), run whole rounds until the requested seconds have elapsed
// (timed phase), then run the checks that need a fresh world. A round's
// work is timed on its own; the checks that follow it are not, so the
// timed-phase figures cover only calls into the library.

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace ledger {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double ms_between(Clock::time_point a,
                                       Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// A correctness check failed: main() reports it on stderr and exits
/// nonzero without printing a result.
struct CheckFailure : std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// Throw CheckFailure(`what`) unless `ok`.
void check(bool ok, const std::string& what);

/// Median of `v` (the mean of the two middle values for even sizes).
/// @throws std::invalid_argument on an empty sample.
[[nodiscard]] double median(std::vector<double> v);

/// One reported figure.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one workload run hands back to main().
struct Outcome {
  std::uint64_t attempted = 0;  ///< operations (plans) attempted
  std::uint64_t failed = 0;     ///< operations that failed (see README)
  std::vector<Metric> metrics;
};

/// How a workload is run.
struct RunConfig {
  std::uint64_t seed = 1;
  double seconds = 10.0;
  Clock::time_point process_start{};  ///< set-up time is measured from here
};

/// Timed-phase record: the work time of every round and the plans done.
struct Phase {
  std::vector<double> round_ms;
  double busy_s = 0.0;  ///< sum of the round work times
  std::uint64_t plans = 0;

  void add(double work_ms, std::uint64_t round_plans) {
    round_ms.push_back(work_ms);
    busy_s += work_ms / 1e3;
    plans += round_plans;
  }
};

/// The end-to-end metrics every workload reports (peak_rss_mb is added by
/// main at exit): set-up seconds, median round, plans per busy second.
[[nodiscard]] std::vector<Metric> end_to_end(double setup_s,
                                             const Phase& phase);

/// The benchmark's own spans around calls into the library, kept in memory
/// and written as Chrome trace-event JSON at exit (traced runs only).
class SpanLog {
 public:
  SpanLog() : origin_(Clock::now()) {}

  /// Workload whose spans follow (the trace's thread lane).
  void set_workload(const char* workload) { workload_ = workload; }

  /// Open a span; returns its id for end() and as a parent.
  int begin(const char* layer, const char* name, int parent = -1);
  /// Close span `id`; returns its duration in milliseconds.
  double end(int id);

  /// Durations (ms) of every closed span called `name`, in order.
  [[nodiscard]] std::vector<double> durations_ms(std::string_view name) const;

  /// Chrome trace-event JSON of every span plus, per workload, each
  /// layer's self time (span time minus its child spans) and share.
  [[nodiscard]] std::string to_json() const;

  /// Per-workload layer shares as a table on `out`.
  void print_layer_shares(std::FILE* out) const;

  /// Self time of one layer in one workload.
  struct LayerSelf {
    std::string workload;
    std::string layer;
    double self_ms;
  };

 private:
  struct Span {
    const char* workload;
    const char* layer;
    const char* name;
    int parent;
    std::int64_t start_ns;
    std::int64_t end_ns;
  };
  [[nodiscard]] std::vector<LayerSelf> layer_self_times() const;

  Clock::time_point origin_;
  const char* workload_ = "";
  std::vector<Span> spans_;
};

/// RAII span; a null log makes it a no-op.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const char* layer, const char* name,
             int parent = -1)
      : log_(log), id_(log != nullptr ? log->begin(layer, name, parent) : -1) {}
  ~ScopedSpan() {
    if (log_ != nullptr) log_->end(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  [[nodiscard]] int id() const { return id_; }

 private:
  SpanLog* log_;
  int id_;
};

// The three workloads (one translation unit each). With `spans` null the
// run reports the end-to-end metrics; with a span log it runs the traced
// variant and reports the per-layer metrics.
Outcome run_live_mesh(const RunConfig& cfg, SpanLog* spans);
Outcome run_replay_tiers(const RunConfig& cfg, SpanLog* spans);
Outcome run_serve_tenants(const RunConfig& cfg, SpanLog* spans);

}  // namespace ledger
