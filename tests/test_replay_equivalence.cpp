// Differential (adversarial) suite for the incremental ReplayEngine: on
// hundreds of randomized (instance, schedule, scenario) triples — across
// algorithms, ε values, communication models, topologies and scenario
// distributions — every field of the engine's CrashResult must be
// *byte-identical* to the naive simulate_crashes path: per-task/per-replica
// finish times (exact doubles, no tolerance), success flags, delivered
// message counts, order-relaxation accounting. The campaign executor's
// summaries equal the simulate_crashes oracle's because of this property.
#include "sim/replay_engine.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "algo/caft.hpp"
#include "algo/ftbar.hpp"
#include "algo/ftsa.hpp"
#include "algo/heft.hpp"
#include "campaign/campaign.hpp"
#include "campaign/scenario_sampler.hpp"
#include "dag/generators.hpp"
#include "helpers.hpp"
#include "platform/cost_synthesis.hpp"
#include "sim/crash_sim.hpp"

namespace caft {
namespace {

using test::Scenario;

/// Exact, field-by-field comparison. Doubles compare with ==: the engines
/// must perform identical IEEE arithmetic, not merely agree approximately.
void expect_identical(const CrashResult& naive, const CrashResult& incr,
                      const std::string& context) {
  SCOPED_TRACE(context);
  EXPECT_EQ(naive.success, incr.success);
  EXPECT_EQ(naive.latency, incr.latency);
  EXPECT_EQ(naive.delivered_messages, incr.delivered_messages);
  EXPECT_EQ(naive.order_relaxations, incr.order_relaxations);
  EXPECT_EQ(naive.order_deadlock, incr.order_deadlock);
  ASSERT_EQ(naive.completed.size(), incr.completed.size());
  ASSERT_EQ(naive.finish.size(), incr.finish.size());
  for (std::size_t t = 0; t < naive.completed.size(); ++t) {
    ASSERT_EQ(naive.completed[t].size(), incr.completed[t].size());
    ASSERT_EQ(naive.finish[t].size(), incr.finish[t].size());
    for (std::size_t r = 0; r < naive.completed[t].size(); ++r) {
      EXPECT_EQ(naive.completed[t][r], incr.completed[t][r])
          << "task " << t << " replica " << r;
      EXPECT_EQ(naive.finish[t][r], incr.finish[t][r])
          << "task " << t << " replica " << r;
    }
  }
}

/// Replays `scenario` through both paths and asserts identity. Returns the
/// number of triples exercised (always 1; keeps call sites countable).
std::size_t check_triple(const Schedule& schedule, const CostModel& costs,
                         const ReplayEngine& engine,
                         ReplayEngine::Scratch& scratch,
                         const CrashScenario& scenario,
                         const std::string& context) {
  const CrashResult naive = simulate_crashes(schedule, costs, scenario);
  const CrashResult incr = engine.replay(scenario, scratch);
  expect_identical(naive, incr, context);
  return 1;
}

Schedule schedule_with(const std::string& algo, const Scenario& s,
                       std::size_t eps, CommModelKind model) {
  const SchedulerOptions base{eps, model};
  if (algo == "caft") {
    CaftOptions options;
    options.base = base;
    return caft_schedule(s.graph, *s.platform, *s.costs, options);
  }
  if (algo == "ftsa") return ftsa_schedule(s.graph, *s.platform, *s.costs, base);
  if (algo == "ftbar") {
    FtbarOptions options;
    options.base = base;
    return ftbar_schedule(s.graph, *s.platform, *s.costs, options);
  }
  return heft_schedule(s.graph, *s.platform, *s.costs, model);  // eps = 0
}

// ------------------------------------------------------- the big sweep

TEST(ReplayEquivalence, RandomTriplesAcrossAlgorithmsAndSamplers) {
  // 6 instances x 4 schedules x 11 scenarios = 264 triples, all checked
  // byte-for-byte. One Scratch is reused throughout, so scratch reuse is
  // exercised across schedules too.
  std::size_t triples = 0;
  ReplayEngine::Scratch scratch;
  const std::vector<std::uint64_t> seeds = {11, 23, 37, 51, 73, 97};
  for (const std::uint64_t seed : seeds) {
    RandomDagParams dag;
    dag.min_tasks = 15;
    dag.max_tasks = 35;
    const Scenario s = test::random_setup(seed, 8, seed % 2 == 0 ? 1.0 : 5.0,
                                          dag);
    struct Config {
      const char* algo;
      std::size_t eps;
      CommModelKind model;
    };
    const std::vector<Config> configs = {
        {"caft", 1, CommModelKind::kOnePort},
        {"ftsa", 2, CommModelKind::kOnePort},
        {"ftbar", 1, CommModelKind::kOnePort},
        {"heft", 0, CommModelKind::kMacroDataflow},
    };
    for (const Config& config : configs) {
      const Schedule schedule =
          schedule_with(config.algo, s, config.eps, config.model);
      const ReplayEngine engine(schedule, *s.costs);
      const double horizon = schedule.horizon();

      std::vector<std::unique_ptr<ScenarioSampler>> samplers;
      samplers.push_back(std::make_unique<UniformKSampler>(8, config.eps));
      samplers.push_back(
          std::make_unique<UniformKSampler>(8, config.eps + 2));
      samplers.push_back(std::make_unique<CrashWindowSampler>(
          8, 2, 0.0, horizon * 1.1));
      samplers.push_back(std::make_unique<ExponentialLifetimeSampler>(
          8, 2.0 / horizon, horizon));
      samplers.push_back(std::make_unique<CorrelatedGroupSampler>(
          8, 3, 0.4, 0.0, horizon * 0.5));
      Rng rng(seed * 1000 + config.eps);
      for (const auto& sampler : samplers) {
        for (int draw = 0; draw < 2; ++draw) {
          const CrashScenario scenario = sampler->sample(rng);
          triples += check_triple(
              schedule, *s.costs, engine, scratch, scenario,
              std::string(config.algo) + " seed " + std::to_string(seed) +
                  " sampler " + sampler->name() + " draw " +
                  std::to_string(draw));
        }
      }
      // The fault-free scenario replays from the final snapshot alone.
      triples += check_triple(schedule, *s.costs, engine, scratch,
                              CrashScenario::none(8),
                              std::string(config.algo) + " fault-free");
    }
  }
  EXPECT_GE(triples, 200u);
}

TEST(ReplayEquivalence, TemplateOnlyEngineOnRandomTriples) {
  // max_snapshots = 0 records no fault-free timeline: every replay starts
  // from the pristine state — dead-from-start masks through the closure,
  // θ draws through the event loop — and must still match the naive path
  // bit for bit, through a reused Scratch and through the one-shot
  // overload the experiment runner uses.
  ReplayEngineOptions template_only;
  template_only.max_snapshots = 0;
  std::size_t triples = 0;
  ReplayEngine::Scratch scratch;
  for (const std::uint64_t seed : {11ull, 37ull, 72ull}) {
    RandomDagParams dag;
    dag.min_tasks = 15;
    dag.max_tasks = 35;
    const Scenario s = test::random_setup(seed, 8, seed % 2 == 0 ? 1.0 : 5.0,
                                          dag);
    for (const char* algo : {"caft", "ftsa", "ftbar", "heft"}) {
      const std::size_t eps = std::string(algo) == "heft" ? 0 : 2;
      const Schedule schedule = schedule_with(
          algo, s, eps,
          eps == 0 ? CommModelKind::kMacroDataflow : CommModelKind::kOnePort);
      const ReplayEngine engine(schedule, *s.costs, template_only);
      EXPECT_EQ(engine.event_count(), 0u);
      EXPECT_EQ(engine.snapshot_count(), 0u);
      const double horizon = schedule.horizon();
      const std::string context =
          std::string(algo) + " seed " + std::to_string(seed);

      const UniformKSampler dead(8, eps + 1);
      const CrashWindowSampler window(8, 2, 0.0, horizon * 1.1);
      Rng rng(seed * 7 + eps);
      for (int draw = 0; draw < 4; ++draw) {
        triples += check_triple(schedule, *s.costs, engine, scratch,
                                dead.sample(rng),
                                context + " dead draw " + std::to_string(draw));
        triples += check_triple(schedule, *s.costs, engine, scratch,
                                window.sample(rng),
                                context + " theta draw " + std::to_string(draw));
      }
      triples += check_triple(schedule, *s.costs, engine, scratch,
                              CrashScenario::none(8), context + " crash-free");
      const CrashScenario one_shot = dead.sample(rng);
      expect_identical(simulate_crashes(schedule, *s.costs, one_shot),
                       engine.replay(one_shot), context + " one-shot");
    }
  }
  EXPECT_GE(triples, 100u);
}

// ------------------------------------------- targeted boundary scenarios

TEST(ReplayEquivalence, ZeroCrashMatchesCommittedTimetable) {
  const Scenario s = test::random_setup(5, 6, 1.0);
  const Schedule schedule = schedule_with("caft", s, 1, CommModelKind::kOnePort);
  const ReplayEngine engine(schedule, *s.costs);
  const CrashResult result = engine.replay(CrashScenario::none(6));
  ASSERT_TRUE(result.success);
  EXPECT_EQ(result.latency, schedule.zero_crash_latency());
  for (const TaskId t : s.graph.all_tasks())
    for (ReplicaIndex r = 0; r < 2; ++r)
      EXPECT_NEAR(result.finish[t.index()][r], schedule.replica(t, r).finish,
                  1e-9);
}

TEST(ReplayEquivalence, AllProcessorsDead) {
  const Scenario s = test::random_setup(9, 5, 1.0);
  const Schedule schedule = schedule_with("ftsa", s, 1, CommModelKind::kOnePort);
  const ReplayEngine engine(schedule, *s.costs);
  ReplayEngine::Scratch scratch;
  std::vector<ProcId> all;
  for (std::size_t p = 0; p < 5; ++p)
    all.push_back(ProcId(static_cast<ProcId::value_type>(p)));
  check_triple(schedule, *s.costs, engine, scratch,
               CrashScenario::at_zero(5, all), "all dead");
}

TEST(ReplayEquivalence, ThetaExactlyAtReplicaFinishBoundary) {
  // Crash times equal to committed finish instants probe the strict ">"
  // in the crash-at-θ rule and the "<=" in snapshot validity: work
  // completing exactly at θ survives in both engines.
  const Scenario s = test::random_setup(13, 6, 1.0);
  const Schedule schedule = schedule_with("caft", s, 1, CommModelKind::kOnePort);
  const ReplayEngine engine(schedule, *s.costs);
  ReplayEngine::Scratch scratch;
  std::size_t checked = 0;
  for (const TaskId t : s.graph.all_tasks()) {
    if (t.index() % 3 != 0) continue;  // keep the test quick
    for (ReplicaIndex r = 0; r < 2; ++r) {
      const ReplicaAssignment& a = schedule.replica(t, r);
      CrashScenario scenario = CrashScenario::none(6);
      scenario.set_crash_time(a.proc, a.finish);
      checked += check_triple(schedule, *s.costs, engine, scratch, scenario,
                              "theta at finish of task " +
                                  std::to_string(t.index()) + " replica " +
                                  std::to_string(r));
    }
  }
  EXPECT_GT(checked, 0u);
}

TEST(ReplayEquivalence, ThetaSweepAcrossSnapshotBoundaries) {
  // A fine θ sweep for one crashing processor crosses every stored
  // snapshot's validity boundary at least once.
  const Scenario s = test::random_setup(29, 6, 5.0);
  const Schedule schedule = schedule_with("ftsa", s, 1, CommModelKind::kOnePort);
  const ReplayEngine engine(schedule, *s.costs);
  ASSERT_GT(engine.snapshot_count(), 1u);
  ReplayEngine::Scratch scratch;
  const double horizon = schedule.horizon();
  for (int step = 0; step <= 40; ++step) {
    const double theta = horizon * static_cast<double>(step) / 40.0;
    CrashScenario scenario = CrashScenario::none(6);
    scenario.set_crash_time(ProcId(2), theta);
    check_triple(schedule, *s.costs, engine, scratch, scenario,
                 "theta sweep step " + std::to_string(step));
  }
}

TEST(ReplayEquivalence, CutPlacementNeverChangesAReplay) {
  // Every fault-free commit is a cut: a crash of p at θ restores the
  // prefix before the first commit of p's ops that finishes after θ. Each
  // fault-free finish f of p's ops is therefore a cut's validity edge: at
  // θ = f the op survives (<=), at the next double below f it dies (>).
  // Both sides of every edge go through the recording engine and a
  // template-only engine, bit-identical to simulate_crashes — on a
  // one-port clique, on a one-port ring (kept link resources, so restored
  // link heads and clocks matter) and under macro-dataflow (hand-offs
  // pending at the cut). Exec finishes come from the oracle's fault-free
  // replay, message finishes from the committed timetable.
  struct Case {
    std::string name;
    Scenario scenario;
    CommModelKind model;
  };
  std::vector<Case> cases;
  cases.push_back({"clique oneport", test::random_setup(41, 8, 1.0),
                   CommModelKind::kOnePort});
  cases.push_back({"ring oneport",
                   test::topology_setup(42, Topology::ring(8), 1.0),
                   CommModelKind::kOnePort});
  cases.push_back({"clique macro", test::random_setup(43, 8, 1.0),
                   CommModelKind::kMacroDataflow});
  for (const Case& c : cases) {
    const Scenario& s = c.scenario;
    const Schedule schedule = schedule_with("caft", s, 2, c.model);
    ReplayEngineOptions template_only;
    template_only.max_snapshots = 0;
    const ReplayEngine engines[] = {
        ReplayEngine(schedule, *s.costs),
        ReplayEngine(schedule, *s.costs, template_only)};
    const char* const labels[] = {"recording", "template"};
    ASSERT_GT(engines[0].event_count(), 0u) << c.name;
    EXPECT_EQ(engines[0].snapshot_count(), engines[0].event_count())
        << c.name;
    ReplayEngine::Scratch scratches[2];

    // The processor hosting the most replicas, and its ops' finishes.
    std::vector<std::size_t> hosted(8, 0);
    for (const TaskId t : s.graph.all_tasks())
      for (ReplicaIndex r = 0; r < schedule.total_replicas(t); ++r)
        ++hosted[schedule.replica(t, r).proc.index()];
    const auto proc = static_cast<ProcId::value_type>(
        std::max_element(hosted.begin(), hosted.end()) - hosted.begin());
    const CrashResult fault_free =
        simulate_crashes(schedule, *s.costs, CrashScenario::none(8));
    std::vector<double> finishes;
    for (const TaskId t : s.graph.all_tasks())
      for (ReplicaIndex r = 0; r < schedule.total_replicas(t); ++r)
        if (schedule.replica(t, r).proc == ProcId(proc))
          finishes.push_back(fault_free.finish[t.index()][r]);
    if (c.model == CommModelKind::kOnePort)
      for (const CommAssignment& comm : schedule.comms()) {
        if (comm.intra()) continue;
        if (comm.src_proc == ProcId(proc))
          finishes.push_back(comm.times.segments.front().finish);
        if (comm.dst_proc == ProcId(proc))
          finishes.push_back(comm.times.arrival);
      }
    std::sort(finishes.begin(), finishes.end());
    finishes.erase(std::unique(finishes.begin(), finishes.end()),
                   finishes.end());
    ASSERT_GT(finishes.size(), 1u) << c.name;

    for (std::size_t i = 0; i < finishes.size(); ++i)
      for (const bool below : {false, true}) {
        CrashScenario scenario = CrashScenario::none(8);
        scenario.set_crash_time(
            ProcId(proc),
            below ? std::nextafter(finishes[i], 0.0) : finishes[i]);
        const CrashResult naive =
            simulate_crashes(schedule, *s.costs, scenario);
        for (std::size_t e = 0; e < 2; ++e)
          expect_identical(naive, engines[e].replay(scenario, scratches[e]),
                           c.name + " " + labels[e] +
                               (below ? " below" : " at") + " finish " +
                               std::to_string(i));
      }
    // The recording engine did restore: it re-simulated less than from
    // t = 0.
    EXPECT_LT(scratches[0].commits(), scratches[1].commits()) << c.name;
  }
}

TEST(ReplayEquivalence, SparseTopologyWithRouters) {
  // Star topology: multi-hop routes exercise segment ops and router kill
  // lists (transit through a dead hub must vanish identically).
  Rng rng(21);
  RandomDagParams dp;
  dp.min_tasks = 20;
  dp.max_tasks = 30;
  const TaskGraph g = random_dag(dp, rng);
  auto platform = std::make_unique<Platform>(Topology::star(6));
  CostSynthesisParams cp;
  cp.granularity = 1.0;
  auto costs =
      std::make_unique<CostModel>(synthesize_costs(g, *platform, cp, rng));
  CaftOptions options;
  options.base = SchedulerOptions{1, CommModelKind::kOnePort};
  const Schedule schedule = caft_schedule(g, *platform, *costs, options);
  const ReplayEngine engine(schedule, *costs);
  ReplayEngine::Scratch scratch;
  // Kill each processor alone (including the hub, proc 0), then pairs.
  for (std::size_t p = 0; p < 6; ++p)
    check_triple(schedule, *costs, engine, scratch,
                 CrashScenario::at_zero(
                     6, {ProcId(static_cast<ProcId::value_type>(p))}),
                 "star single crash p" + std::to_string(p));
  for (std::size_t p = 1; p < 6; ++p)
    check_triple(
        schedule, *costs, engine, scratch,
        CrashScenario::at_zero(
            6, {ProcId(0), ProcId(static_cast<ProcId::value_type>(p))}),
        "star hub plus p" + std::to_string(p));
}

/// Hand-posted one-port chain B -> C -> A on star(5) (hub P0), two
/// replicas per task, with A^0 committed on P0 *before* B^0, although the
/// chain B^0 -> C^0 can also feed A^0 (late). Fault-free, A^0 runs off the
/// early chain B^1 (P1) -> C^1 (P3). Once P1 is lost, A^0 waits for C^0,
/// which waits for B^0, which waits behind A^0: only the order-relaxation
/// fallback completes the replay. No random CAFT, FTSA or FTBAR schedule
/// tried has reached the fallback, so this case is what makes relaxations
/// reachable below. Its
/// leaf-to-leaf messages forward through the hub, so the hub's links
/// 0->3 and 0->4 carry segments (kept resources) while every other link
/// carries first-hop wires only (dropped).
struct StarRelaxationCase {
  TaskGraph graph = chain(3, 5.0);
  Platform platform{Topology::star(5)};
  CostModel costs = uniform_costs(graph, platform, 10.0, 1.0);
  Schedule schedule{graph, platform, 1, CommModelKind::kOnePort};

  StarRelaxationCase() {
    const std::vector<TaskId> t = graph.all_tasks();  // B, C, A
    schedule.set_replica(t[0], 0, {ProcId(0), 33.0, 43.0});  // B^0
    schedule.set_replica(t[0], 1, {ProcId(1), 0.0, 10.0});   // B^1
    schedule.set_replica(t[1], 0, {ProcId(2), 44.0, 54.0});  // C^0
    schedule.set_replica(t[1], 1, {ProcId(3), 12.0, 22.0});  // C^1
    schedule.set_replica(t[2], 0, {ProcId(0), 23.0, 33.0});  // A^0
    schedule.set_replica(t[2], 1, {ProcId(4), 25.0, 35.0});  // A^1
    // One time unit per hop, back to back from `sent`; the reception
    // overlaps the last hop.
    const auto comm = [&](EdgeIndex edge, ReplicaRef from, ReplicaRef to,
                          double sent) {
      CommAssignment c;
      c.edge = edge;
      c.from = from;
      c.to = to;
      c.src_proc = schedule.replica(from.task, from.replica).proc;
      c.dst_proc = schedule.replica(to.task, to.replica).proc;
      c.volume = 1.0;
      double at = sent;
      for (const LinkId link :
           platform.topology().route(c.src_proc, c.dst_proc)) {
        c.times.segments.push_back({link, at, at + 1.0});
        at += 1.0;
      }
      c.times.link_start = sent;
      c.times.link_finish = at;
      c.times.send_finish = sent + 1.0;
      c.times.recv_start = at - 1.0;
      c.times.arrival = at;
      schedule.add_comm(c);
    };
    comm(0, {t[0], 1}, {t[1], 1}, 10.0);  // B^1 -> C^1 via the hub
    comm(1, {t[1], 1}, {t[2], 0}, 22.0);  // C^1 -> A^0
    comm(1, {t[1], 1}, {t[2], 1}, 23.0);  // C^1 -> A^1 via the hub
    comm(0, {t[0], 0}, {t[1], 0}, 43.0);  // B^0 -> C^0
    comm(1, {t[1], 0}, {t[2], 0}, 54.0);  // C^0 -> A^0 (late)
    comm(1, {t[1], 0}, {t[2], 1}, 55.0);  // C^0 -> A^1 via the hub
  }
};

TEST(ReplayEquivalence, KeptAndDroppedLinksOnSparseTopologies) {
  // The kernel keeps a link as a resource only when it carries forwarded
  // segments; a link holding first-hop wires alone is dropped, its wires
  // then holding their send port only. Every topology here mixes both
  // kinds: on a ring every link forwards, on a star only the hub's links
  // do, and a mesh or a random graph has some of each. Randomized θ draws,
  // dead-from-start draws and mixes of the two on CAFT, FTSA and FTBAR
  // one-port schedules — plus a macro-dataflow schedule, which has no link
  // resource at all — must match simulate_crashes bit for bit, and some
  // draw must take the order-relaxation fallback.
  Rng topology_rng(2024);
  struct Case {
    std::string name;
    Topology topology;
  };
  std::vector<Case> cases;
  cases.push_back({"ring(8)", Topology::ring(8)});
  cases.push_back({"star(8)", Topology::star(8)});
  cases.push_back({"mesh(2,4)", Topology::mesh(2, 4)});
  cases.push_back(
      {"random_connected(8)", Topology::random_connected(8, 3.0, topology_rng)});
  struct Config {
    const char* algo;
    std::size_t eps;
    CommModelKind model;
  };
  const std::vector<Config> configs = {
      {"caft", 1, CommModelKind::kOnePort},
      {"ftsa", 2, CommModelKind::kOnePort},
      {"ftbar", 1, CommModelKind::kOnePort},
      {"caft", 2, CommModelKind::kMacroDataflow},
  };
  ReplayEngine::Scratch scratch;
  std::size_t triples = 0;
  std::size_t relaxed = 0;
  std::uint64_t seed = 300;
  for (const Case& c : cases) {
    Rng rng(++seed);
    RandomDagParams dp;
    dp.min_tasks = 20;
    dp.max_tasks = 35;
    Scenario s;
    s.graph = random_dag(dp, rng);
    s.platform = std::make_unique<Platform>(c.topology);
    CostSynthesisParams cp;
    cp.granularity = 1.0;
    s.costs = std::make_unique<CostModel>(
        synthesize_costs(s.graph, *s.platform, cp, rng));
    for (const Config& config : configs) {
      // One macro-dataflow case is enough: it exercises no link at all.
      if (config.model == CommModelKind::kMacroDataflow && c.name != "ring(8)")
        continue;
      const Schedule schedule =
          schedule_with(config.algo, s, config.eps, config.model);
      const ReplayEngine engine(schedule, *s.costs);
      const double horizon = schedule.horizon();
      const CrashWindowSampler theta(8, config.eps + 1, 0.0, horizon);
      const UniformKSampler dead(8, config.eps + 1);
      for (int draw = 0; draw < 8; ++draw) {
        const std::string context = c.name + " " + config.algo +
                                    (config.model == CommModelKind::kOnePort
                                         ? " oneport"
                                         : " macro") +
                                    " draw " + std::to_string(draw);
        // θ alone, dead-from-start alone, and one dead processor plus the
        // θ-crashes of another draw.
        const CrashScenario at_theta = theta.sample(rng);
        const CrashScenario at_zero = dead.sample(rng);
        CrashScenario mixed = theta.sample(rng);
        mixed.set_crash_time(
            ProcId(static_cast<ProcId::value_type>(rng.uniform_int(0, 7))),
            0.0);
        for (const CrashScenario* scenario :
             {&at_theta, &at_zero, static_cast<const CrashScenario*>(&mixed)}) {
          const CrashResult naive =
              simulate_crashes(schedule, *s.costs, *scenario);
          expect_identical(naive, engine.replay(*scenario, scratch), context);
          relaxed += naive.order_relaxations > 0 ? 1 : 0;
          ++triples;
        }
      }
    }
  }
  EXPECT_EQ(triples, 4u * 3u * 8u * 3u + 8u * 3u);

  const StarRelaxationCase star;
  ASSERT_TRUE(star.schedule.complete());
  const ReplayEngine engine(star.schedule, star.costs);
  const CrashWindowSampler theta(5, 2, 0.0, star.schedule.horizon());
  const UniformKSampler dead(5, 1);
  Rng rng(313);
  for (int draw = 0; draw < 24; ++draw) {
    for (const CrashScenario& scenario : {theta.sample(rng), dead.sample(rng)}) {
      const CrashResult naive =
          simulate_crashes(star.schedule, star.costs, scenario);
      expect_identical(naive, engine.replay(scenario, scratch),
                       "star relaxation case draw " + std::to_string(draw));
      relaxed += naive.order_relaxations > 0 ? 1 : 0;
    }
  }
  EXPECT_GT(relaxed, 0u) << "no draw reached the order-relaxation fallback";
}

TEST(ReplayEquivalence, RepeatsThroughOneScratchStayIdentical) {
  // One Scratch alternating between two engines must give the same result
  // on every round: nothing of one replay leaks into the next.
  const Scenario s1 = test::random_setup(31, 6, 1.0);
  const Scenario s2 = test::random_setup(32, 6, 1.0);
  const Schedule sched1 = schedule_with("caft", s1, 1, CommModelKind::kOnePort);
  const Schedule sched2 = schedule_with("caft", s2, 1, CommModelKind::kOnePort);
  const ReplayEngine engine1(sched1, *s1.costs);
  const ReplayEngine engine2(sched2, *s2.costs);
  ReplayEngine::Scratch scratch;
  const CrashScenario crash = CrashScenario::at_zero(6, {ProcId(3)});
  for (int round = 0; round < 3; ++round) {
    check_triple(sched1, *s1.costs, engine1, scratch, crash,
                 "round " + std::to_string(round) + " engine1");
    check_triple(sched2, *s2.costs, engine2, scratch, crash,
                 "round " + std::to_string(round) + " engine2");
  }
}

// ------------------------------------------------ campaign-level identity

TEST(ReplayEquivalence, CampaignSummariesMatchOracle) {
  // Whole campaigns on the engine (with its record cache and batching)
  // against the simulate_crashes oracle, at several thread counts.
  const Scenario s = test::random_setup(17, 8, 1.0);
  const Schedule schedule = schedule_with("caft", s, 1, CommModelKind::kOnePort);
  const UniformKSampler uniform(8, 1);
  const CrashWindowSampler window(8, 2, 0.0, schedule.horizon());
  for (const ScenarioSampler* sampler :
       std::vector<const ScenarioSampler*>{&uniform, &window}) {
    CampaignOptions options;
    options.replays = 600;
    const CampaignSummary oracle =
        test::oracle_campaign(schedule, *s.costs, *sampler, options);
    for (const std::size_t threads : {2u, 3u}) {
      options.threads = threads;
      test::expect_summaries_identical(
          run_campaign(schedule, *s.costs, *sampler, options), oracle,
          sampler->name() + " threads " + std::to_string(threads));
    }
  }
}

TEST(ReplayEquivalence, EngineRejectsMismatchedScenario) {
  const Scenario s = test::random_setup(3, 5, 1.0);
  const Schedule schedule = schedule_with("heft", s, 0, CommModelKind::kOnePort);
  const ReplayEngine engine(schedule, *s.costs);
  EXPECT_THROW((void)engine.replay(CrashScenario::none(4)), CheckError);
}

TEST(ReplayEquivalence, FirstCrashHelper) {
  CrashScenario scenario = CrashScenario::none(4);
  EXPECT_TRUE(std::isinf(ReplayEngine::first_crash(scenario)));
  scenario.set_crash_time(ProcId(2), 7.5);
  EXPECT_EQ(ReplayEngine::first_crash(scenario), 7.5);
  scenario.set_crash_time(ProcId(0), 3.25);
  EXPECT_EQ(ReplayEngine::first_crash(scenario), 3.25);
}

}  // namespace
}  // namespace caft
