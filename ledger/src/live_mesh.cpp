// live_mesh: the paper's online loop on the 18-node synthetic testbed.
//
// Four multi-hop UDP CBR flows, routed by ETT over the deployment's true
// link qualities, are shaped by a MeshController running guarded
// proportional-fair rounds on the exact tier. One round is one probing
// window with the data traffic on the air, made of the split public calls
//   sim         MeshController::start_probing + Workbench::run_for(window)
//   estimation  MeshController::sense_snapshot (loss estimator + Eq. 6)
//   core        MeshController::guarded_step (validate, model, plan,
//               guardrail, apply)
// The deployment layout and the flows are fixed; the seed drives the
// simulation's random streams (MAC back-off, channel errors) and the
// controller's. The timed phase runs in episodes of kEpisodeRounds rounds,
// each on a fresh world seeded from the seed and the episode index.

#include <array>
#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "checks.h"
#include "core/controller.h"
#include "harness.h"
#include "obs/obs.h"
#include "probe/live_source.h"
#include "routing/ett.h"
#include "scenario/testbed.h"
#include "transport/udp.h"
#include "util/rng.h"

namespace ledger {
namespace {

using namespace meshopt;

constexpr std::uint64_t kLayoutSeed = 9;  ///< testbed deployment
constexpr Rate kDataRate = Rate::kR11Mbps;
constexpr int kPayloadBytes = 1470;
constexpr double kInitialRateBps = 100e3;  ///< CBR rate before the first plan
/// Rounds per episode (one hour of simulated time). The library's memory
/// grows with every probing window (CHANGES.md, FOUND), so a run on one
/// world would report a peak RSS set by how many rounds the host managed
/// in the run; episodes on fresh worlds keep it independent of run length.
constexpr std::uint64_t kEpisodeRounds = 240;

/// Flow endpoints. ETT routes them over 2-3 hops on the kLayoutSeed
/// deployment (14-15-7-9, 1-15-14-2, 6-14-11, 10-15-1-8), with no
/// directed link shared between flows. Most route sets on this deployment
/// drive proportional-fair Frank-Wolfe to its iteration cap now and then
/// (CHANGES.md, FOUND); this one converges in under 30 iterations.
constexpr std::array<std::pair<NodeId, NodeId>, 4> kFlowEnds = {
    {{14, 9}, {1, 2}, {6, 11}, {10, 8}}};

ControllerConfig controller_config() {
  ControllerConfig cfg;
  cfg.probe_period_s = 0.25;
  cfg.probe_window = 60;  // 15 s of simulated time per round
  cfg.optimizer.objective = Objective::kProportionalFair;
  cfg.plan_tier = PlanTier::kExact;
  return cfg;
}

/// ETT shortest paths over the deployment's true link qualities (the
/// paper initializes routes with ETT and keeps them fixed).
std::vector<std::vector<NodeId>> ett_routes(Workbench& wb, const Testbed& tb) {
  TopologyDb db;
  const ErrorModel& err = wb.channel().error_model();
  for (const LinkRef& l : tb.usable_links(kDataRate)) {
    LinkState ls;
    ls.src = l.src;
    ls.dst = l.dst;
    ls.rate = kDataRate;
    ls.p_fwd = err.per(l.src, l.dst, kDataRate, FrameType::kData);
    ls.p_rev = err.per(l.dst, l.src, Rate::kR1Mbps, FrameType::kAck);
    db.update_link(ls);
  }
  std::vector<std::vector<NodeId>> routes;
  for (const auto& [src, dst] : kFlowEnds) {
    routes.push_back(db.shortest_path(src, dst));
    const std::size_t hops = routes.back().size() - 1;
    check(routes.back().size() >= 3 && hops <= 3,
          "ETT route " + std::to_string(src) + "->" + std::to_string(dst) +
              " is not a 2-3 hop path");
  }
  return routes;
}

/// One simulated deployment with its controller and traffic sources.
class LiveWorld {
 public:
  explicit LiveWorld(std::uint64_t seed)
      : wb_(RngStream::mix(seed, 0x6c697665)),
        tb_(wb_, TestbedConfig{.seed = kLayoutSeed}),
        ctl_(wb_.net(), controller_config(), seed) {
    const auto routes = ett_routes(wb_, tb_);
    for (std::size_t i = 0; i < routes.size(); ++i) {
      const auto& path = routes[i];
      const int flow = wb_.net().open_flow(path.front(), path.back(),
                                           Protocol::kUdp, kPayloadBytes);
      wb_.net().set_path_routes(path, kDataRate);
      sources_.push_back(std::make_unique<UdpSource>(
          wb_.net(), flow, UdpMode::kCbr, kInitialRateBps,
          RngStream(seed, "cbr-" + std::to_string(i))));
      sources_.back()->start();
      ManagedFlow mf;
      mf.flow_id = flow;
      mf.path = path;
      mf.rate = kDataRate;
      UdpSource* src = sources_.back().get();
      mf.apply_rate = [src](double x_bps) { src->set_rate_bps(x_bps); };
      ctl_.manage_flow(std::move(mf));
    }
  }

  Workbench& wb() { return wb_; }
  MeshController& ctl() { return ctl_; }
  const std::vector<std::unique_ptr<UdpSource>>& sources() const {
    return sources_;
  }

 private:
  Workbench wb_;
  Testbed tb_;
  MeshController ctl_;
  std::vector<std::unique_ptr<UdpSource>> sources_;
};

/// Everything one round produced, for the checks.
struct LiveRound {
  MeasurementSnapshot snapshot;  ///< what the round planned on
  RoundResult result;
  std::vector<double> rate_in_window;  ///< CBR rate during the window
  std::vector<double> delivered_bps;   ///< goodput over the window
  std::uint64_t events = 0;            ///< simulator events in the round
  double sim_ms = 0.0, total_ms = 0.0;
};

/// One control round through the split public calls. With a span log the
/// calls are wrapped in layer spans.
LiveRound live_round(LiveWorld& w, SpanLog* spans) {
  LiveRound r;
  Network& net = w.wb().net();
  MeshController& ctl = w.ctl();
  std::vector<std::uint64_t> bytes0;
  for (const auto& src : w.sources()) {
    r.rate_in_window.push_back(src->rate_bps());
    bytes0.push_back(net.flow(src->flow_id()).delivered_payload_bytes);
  }
  const std::uint64_t events0 = w.wb().sim().executed_events();

  const auto t0 = Clock::now();
  {
    ScopedSpan round(spans, "round", "live.round");
    const auto ts = Clock::now();
    {
      ScopedSpan s(spans, "sim", "sim.window", round.id());
      ctl.start_probing();
      w.wb().run_for(ctl.probing_window_seconds());
    }
    const auto te = Clock::now();
    {
      ScopedSpan s(spans, "estimation", "estimation.sense", round.id());
      r.snapshot = ctl.sense_snapshot();
    }
    {
      ScopedSpan s(spans, "core", "core.step", round.id());
      r.result = ctl.guarded_step(r.snapshot);
    }
    r.sim_ms = ms_between(ts, te);
  }
  r.total_ms = ms_between(t0, Clock::now());

  r.events = w.wb().sim().executed_events() - events0;
  const double window_s = ctl.probing_window_seconds();
  for (std::size_t i = 0; i < w.sources().size(); ++i) {
    const auto& rec = net.flow(w.sources()[i]->flow_id());
    r.delivered_bps.push_back(
        8.0 * static_cast<double>(rec.delivered_payload_bytes - bytes0[i]) /
        window_s);
  }
  return r;
}

/// Operation failures of one round: a round that is not ok and HEALTHY,
/// or whose plan stopped at the Frank-Wolfe iteration cap, failed.
bool round_failed(const RoundResult& rr, const ControllerConfig& cfg) {
  return !rr.ok || rr.health != HealthState::kHealthy ||
         rr.optimizer_iterations >= cfg.optimizer.fw_iterations;
}

/// Output checks of one round (plan feasibility and goodput).
void check_live_round(const LiveRound& r, const std::vector<FlowSpec>& flows,
                      double window_s) {
  if (!r.result.ok) return;  // counted as a failed operation instead
  check_pairwise_feasible(r.snapshot, two_hop_conflicts(r.snapshot), flows,
                          r.result.y, 1e-6, "live plan");
  // A CBR source cannot deliver more than it sends: goodput over the
  // window stays at or below the rate programmed for the window, up to
  // the packets already queued along the path when it began.
  const double slack_bps = 64.0 * 8.0 * kPayloadBytes / window_s;
  for (std::size_t i = 0; i < r.delivered_bps.size(); ++i)
    check(r.delivered_bps[i] <= r.rate_in_window[i] * (1.0 + 1e-3) + slack_bps,
          "flow " + std::to_string(i) + " delivered " +
              std::to_string(r.delivered_bps[i]) + " b/s above its input " +
              std::to_string(r.rate_in_window[i]) + " b/s");
}

/// The split-call round and MeshController::guarded_round over a
/// LiveSource are the same loop: same seeds, same plans, bit for bit.
void check_split_matches_guarded_round(std::uint64_t seed, int rounds) {
  LiveWorld split(seed);
  LiveWorld whole(seed);
  LiveSource source(whole.wb(), whole.ctl());
  for (int i = 0; i < rounds; ++i) {
    const RoundResult a = live_round(split, nullptr).result;
    const RoundResult b = whole.ctl().guarded_round(source);
    check(a.ok == b.ok && a.health == b.health && a.y == b.y && a.x == b.x &&
              a.extreme_points == b.extreme_points &&
              a.optimizer_iterations == b.optimizer_iterations,
          "split-call round " + std::to_string(i) +
              " differs from guarded_round over a LiveSource");
  }
}

}  // namespace

Outcome run_live_mesh(const RunConfig& cfg, SpanLog* spans) {
  if (spans != nullptr) spans->set_workload("live_mesh");
  const ControllerConfig ccfg = controller_config();
  auto world = std::make_unique<LiveWorld>(cfg.seed);
  std::vector<FlowSpec> flows = world->ctl().flow_specs();
  const double window_s = world->ctl().probing_window_seconds();

  Outcome out;
  const auto account = [&](const LiveRound& r) {
    ++out.attempted;
    if (round_failed(r.result, ccfg)) {
      ++out.failed;
      std::fprintf(stderr,
                   "live_mesh: round %llu failed (ok %d, health %s, "
                   "%d Frank-Wolfe iterations)\n",
                   static_cast<unsigned long long>(out.attempted - 1),
                   r.result.ok, to_string(r.result.health),
                   r.result.optimizer_iterations);
    }
    check_live_round(r, flows, window_s);
  };

  // Warm-up: one round, so the estimator, planner cache and shapers are
  // live before timing.
  account(live_round(*world, nullptr));
  const auto phase_start = Clock::now();
  const double setup_s = ms_between(cfg.process_start, phase_start) / 1e3;

  Phase phase;
  // Traced run only: every other round carries a library TraceRecorder.
  TraceRecorder recorder;
  std::vector<double> events, ns_per_event, fw_iterations, traced_ms;
  for (std::uint64_t i = 0;; ++i) {
    if (i > 0 && i % kEpisodeRounds == 0) {
      // A new episode: a fresh deployment session and its warm round,
      // both outside the timed rounds.
      world.reset();
      world = std::make_unique<LiveWorld>(
          RngStream::mix(cfg.seed, i / kEpisodeRounds));
      flows = world->ctl().flow_specs();
      account(live_round(*world, nullptr));
    }
    const bool obs_round = spans != nullptr && i % 2 == 1;
    if (obs_round) {
      world->ctl().set_observer(&recorder);
      const int id = spans->begin("obs", "obs.live_round_traced");
      LiveRound r = live_round(*world, nullptr);
      traced_ms.push_back(spans->end(id));
      world->ctl().set_observer(nullptr);
      account(r);
    } else {
      LiveRound r = live_round(*world, spans);
      phase.add(r.total_ms, 1);
      events.push_back(static_cast<double>(r.events));
      ns_per_event.push_back(r.sim_ms * 1e6 / static_cast<double>(r.events));
      fw_iterations.push_back(r.result.optimizer_iterations);
      account(r);
    }
    if (ms_between(phase_start, Clock::now()) / 1e3 >= cfg.seconds &&
        (spans == nullptr || !traced_ms.empty()))
      break;
  }

  check_split_matches_guarded_round(cfg.seed, 3);

  if (spans == nullptr) {
    out.metrics = end_to_end(setup_s, phase);
    return out;
  }
  out.metrics = {
      {"sim.window_ms", median(spans->durations_ms("sim.window")), "ms"},
      {"sim.events_per_round", median(events), "count"},
      {"sim.ns_per_event", median(ns_per_event), "ns"},
      {"estimation.ms", median(spans->durations_ms("estimation.sense")), "ms"},
      {"core.step_ms", median(spans->durations_ms("core.step")), "ms"},
      {"opt.live_fw_iterations", median(fw_iterations), "count"},
      {"obs.live_round_ms", median(spans->durations_ms("live.round")), "ms"},
      {"obs.live_round_traced_ms", median(traced_ms), "ms"},
  };
  return out;
}

}  // namespace ledger
