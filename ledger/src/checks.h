#pragma once
// Correctness checks that do not trust the library: conflict constraints
// are re-derived here from a snapshot's raw fields (its LIR table or its
// neighbor set), and link loads from the flows' node paths.

#include <utility>
#include <vector>

#include "core/rate_plan.h"
#include "core/snapshot.h"

namespace ledger {

/// Pairs (i, j), i < j, of links that may not transmit together.
using ConflictPairs = std::vector<std::pair<int, int>>;

/// Binary-LIR conflicts: LIR below the snapshot's threshold in either
/// direction of the pair.
[[nodiscard]] ConflictPairs lir_conflicts(const meshopt::MeasurementSnapshot& s);

/// Two-hop conflicts: two links conflict when an endpoint of one equals,
/// or is a recorded neighbor of, an endpoint of the other.
[[nodiscard]] ConflictPairs two_hop_conflicts(
    const meshopt::MeasurementSnapshot& s);

/// Per-link load (bits/s): the sum of y over the flows whose node path
/// crosses the link. Hops with no matching snapshot link are ignored,
/// as the planner ignores them.
[[nodiscard]] std::vector<double> link_loads(
    const meshopt::MeasurementSnapshot& s,
    const std::vector<meshopt::FlowSpec>& flows, const std::vector<double>& y);

/// Check load_i/c_i <= 1 on every link and load_i/c_i + load_j/c_j <= 1 on
/// every conflict pair, to `tol`. Throws CheckFailure naming `what`.
void check_pairwise_feasible(const meshopt::MeasurementSnapshot& s,
                             const ConflictPairs& pairs,
                             const std::vector<meshopt::FlowSpec>& flows,
                             const std::vector<double>& y, double tol,
                             const char* what);

/// |a - b| <= rel * max(1, |b|): the form the plan-tier tests pin their
/// fast-versus-exact objective gap in.
[[nodiscard]] bool objectives_agree(double a, double b, double rel);

}  // namespace ledger
