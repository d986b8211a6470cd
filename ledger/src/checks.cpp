#include "checks.h"

#include <algorithm>
#include <cmath>
#include <set>
#include <string>

#include "harness.h"

namespace ledger {

using meshopt::FlowSpec;
using meshopt::MeasurementSnapshot;
using meshopt::NodeId;

ConflictPairs lir_conflicts(const MeasurementSnapshot& s) {
  ConflictPairs out;
  const int n = static_cast<int>(s.links.size());
  check(s.lir.rows() == n && s.lir.cols() == n,
        "snapshot LIR table is not aligned with its links");
  for (int i = 0; i < n; ++i)
    for (int j = i + 1; j < n; ++j)
      if (std::min(s.lir(i, j), s.lir(j, i)) < s.lir_threshold)
        out.emplace_back(i, j);
  return out;
}

ConflictPairs two_hop_conflicts(const MeasurementSnapshot& s) {
  std::set<std::pair<NodeId, NodeId>> nbr;
  for (const auto& [a, b] : s.neighbors) {
    nbr.emplace(a, b);
    nbr.emplace(b, a);
  }
  const auto close = [&](NodeId a, NodeId b) {
    return a == b || nbr.count({a, b}) > 0;
  };
  ConflictPairs out;
  const int n = static_cast<int>(s.links.size());
  for (int i = 0; i < n; ++i) {
    for (int j = i + 1; j < n; ++j) {
      const auto& l1 = s.links[static_cast<std::size_t>(i)];
      const auto& l2 = s.links[static_cast<std::size_t>(j)];
      if (close(l1.src, l2.src) || close(l1.src, l2.dst) ||
          close(l1.dst, l2.src) || close(l1.dst, l2.dst))
        out.emplace_back(i, j);
    }
  }
  return out;
}

std::vector<double> link_loads(const MeasurementSnapshot& s,
                               const std::vector<FlowSpec>& flows,
                               const std::vector<double>& y) {
  check(y.size() == flows.size(), "plan has one rate per flow");
  std::vector<double> load(s.links.size(), 0.0);
  for (std::size_t f = 0; f < flows.size(); ++f) {
    const auto& path = flows[f].path;
    for (std::size_t h = 0; h + 1 < path.size(); ++h)
      for (std::size_t l = 0; l < s.links.size(); ++l)
        if (s.links[l].src == path[h] && s.links[l].dst == path[h + 1])
          load[l] += y[f];
  }
  return load;
}

void check_pairwise_feasible(const MeasurementSnapshot& s,
                             const ConflictPairs& pairs,
                             const std::vector<FlowSpec>& flows,
                             const std::vector<double>& y, double tol,
                             const char* what) {
  // Rates are nonnegative up to rounding, judged on the capacity scale
  // the constraints use.
  double max_capacity = 0.0;
  for (const auto& l : s.links)
    max_capacity = std::max(max_capacity, l.estimate.capacity_bps);
  for (double v : y)
    check(std::isfinite(v) && v >= -tol * max_capacity,
          std::string(what) + ": non-finite or negative rate");
  const std::vector<double> load = link_loads(s, flows, y);
  std::vector<double> util(load.size());
  for (std::size_t l = 0; l < load.size(); ++l) {
    const double c = s.links[l].estimate.capacity_bps;
    util[l] = load[l] > 0.0 ? load[l] / c : 0.0;
    check(util[l] <= 1.0 + tol,
          std::string(what) + ": link " + std::to_string(l) +
              " loaded beyond its capacity");
  }
  for (const auto& [i, j] : pairs)
    check(util[static_cast<std::size_t>(i)] +
                  util[static_cast<std::size_t>(j)] <=
              1.0 + tol,
          std::string(what) + ": conflicting links " + std::to_string(i) +
              " and " + std::to_string(j) + " overloaded together");
}

bool objectives_agree(double a, double b, double rel) {
  return std::abs(a - b) <= rel * std::max(1.0, std::abs(b));
}

}  // namespace ledger
