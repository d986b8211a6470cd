#include "harness.h"

#include <algorithm>
#include <map>
#include <utility>

namespace ledger {

void check(bool ok, const std::string& what) {
  if (!ok) throw CheckFailure(what);
}

double median(std::vector<double> v) {
  if (v.empty()) throw std::invalid_argument("median of an empty sample");
  const std::size_t mid = v.size() / 2;
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(mid),
                   v.end());
  const double hi = v[mid];
  if (v.size() % 2 == 1) return hi;
  const double lo = *std::max_element(
      v.begin(), v.begin() + static_cast<std::ptrdiff_t>(mid));
  return 0.5 * (lo + hi);
}

std::vector<Metric> end_to_end(double setup_s, const Phase& phase) {
  return {
      {"setup_s", setup_s, "s"},
      {"round_ms", median(phase.round_ms), "ms"},
      {"plans_per_s", static_cast<double>(phase.plans) / phase.busy_s, "1/s"},
  };
}

int SpanLog::begin(const char* layer, const char* name, int parent) {
  const auto now = std::chrono::duration_cast<std::chrono::nanoseconds>(
                       Clock::now() - origin_)
                       .count();
  spans_.push_back(Span{workload_, layer, name, parent, now, now});
  return static_cast<int>(spans_.size()) - 1;
}

double SpanLog::end(int id) {
  Span& s = spans_.at(static_cast<std::size_t>(id));
  s.end_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                 Clock::now() - origin_)
                 .count();
  return static_cast<double>(s.end_ns - s.start_ns) / 1e6;
}

std::vector<double> SpanLog::durations_ms(std::string_view name) const {
  std::vector<double> out;
  for (const Span& s : spans_)
    if (name == s.name)
      out.push_back(static_cast<double>(s.end_ns - s.start_ns) / 1e6);
  return out;
}

std::vector<SpanLog::LayerSelf> SpanLog::layer_self_times() const {
  std::vector<double> self(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i)
    self[i] = static_cast<double>(spans_[i].end_ns - spans_[i].start_ns);
  for (const Span& s : spans_)
    if (s.parent >= 0)
      self[static_cast<std::size_t>(s.parent)] -=
          static_cast<double>(s.end_ns - s.start_ns);
  std::map<std::pair<std::string, std::string>, double> acc;
  for (std::size_t i = 0; i < spans_.size(); ++i)
    acc[{spans_[i].workload, spans_[i].layer}] += self[i] / 1e6;
  std::vector<LayerSelf> out;
  for (const auto& [key, ms] : acc) out.push_back({key.first, key.second, ms});
  return out;
}

namespace {

/// Rounds run with a library TraceRecorder attached are timed whole under
/// the "obs" layer; they are a side-by-side tracing-overhead measurement,
/// so layer shares leave them out.
constexpr std::string_view kObsLayer = "obs";

double workload_total_ms(const std::vector<SpanLog::LayerSelf>& layers,
                         const std::string& w) {
  double total = 0.0;
  for (const auto& l : layers)
    if (l.workload == w && l.layer != kObsLayer) total += l.self_ms;
  return total;
}

double share(const std::vector<SpanLog::LayerSelf>& layers,
             const SpanLog::LayerSelf& l) {
  const double total = workload_total_ms(layers, l.workload);
  return l.layer == kObsLayer || total <= 0.0 ? 0.0 : l.self_ms / total;
}

}  // namespace

std::string SpanLog::to_json() const {
  std::map<std::string, int> lanes;
  for (const Span& s : spans_)
    lanes.emplace(s.workload, static_cast<int>(lanes.size()) + 1);

  std::string out = "{\"traceEvents\":[";
  char buf[512];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::snprintf(buf, sizeof buf,
                  "%s{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                  "\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f,"
                  "\"args\":{\"id\":%zu,\"parent\":%d}}",
                  i == 0 ? "" : ",", s.name, s.layer, lanes[s.workload],
                  static_cast<double>(s.start_ns) / 1e3,
                  static_cast<double>(s.end_ns - s.start_ns) / 1e3, i,
                  s.parent);
    out += buf;
  }
  out += "],\"layer_self_ms\":[";
  const std::vector<LayerSelf> layers = layer_self_times();
  for (std::size_t i = 0; i < layers.size(); ++i) {
    std::snprintf(buf, sizeof buf,
                  "%s{\"workload\":\"%s\",\"layer\":\"%s\",\"self_ms\":%.6f,"
                  "\"share\":%.6f}",
                  i == 0 ? "" : ",", layers[i].workload.c_str(),
                  layers[i].layer.c_str(), layers[i].self_ms,
                  share(layers, layers[i]));
    out += buf;
  }
  out += "]}\n";
  return out;
}

void SpanLog::print_layer_shares(std::FILE* out) const {
  const std::vector<LayerSelf> layers = layer_self_times();
  std::fprintf(out, "%-14s %-11s %12s %7s\n", "workload", "layer", "self ms",
               "share");
  for (const LayerSelf& l : layers)
    std::fprintf(out, "%-14s %-11s %12.1f %6.1f%%\n", l.workload.c_str(),
                 l.layer.c_str(), l.self_ms, 100.0 * share(layers, l));
}

}  // namespace ledger
