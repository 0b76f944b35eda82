/// Crash replay: watch a fault-tolerant schedule absorb real failures.
///
/// Schedules a wavefront stencil with CAFT (via the SchedulerRegistry) at
/// eps = 2, then re-executes the committed schedule under increasingly
/// hostile conditions:
///   - no failures (the replay reproduces the committed timetable exactly);
///   - each single-processor crash;
///   - the adversarially worst pair of crashes (found exhaustively);
///   - a crash at mid-flight time (work finished before the crash survives).
/// Every replay goes through one ReplayEngine, which records the fault-free
/// timeline once: the mid-flight crash restores the latest fault-free cut it
/// allows instead of re-executing from t = 0. Gantt charts show which
/// replicas actually ran.
#include <cstdio>
#include <iostream>

#include "api/api.hpp"
#include "dag/generators.hpp"
#include "metrics/gantt.hpp"
#include "sim/replay_engine.hpp"
#include "sim/resilience.hpp"

int main() {
  using namespace caft;

  CostSynthesisParams params;
  params.granularity = 1.0;
  const ftsched::Instance instance(stencil(4, 5, 90.0), Platform(6), params,
                                   /*cost_seed=*/17, ftsched::RunOptions{2});

  const ftsched::ScheduleResult result =
      ftsched::SchedulerRegistry::global().make("caft")->schedule(instance);
  const Schedule& sched = result.schedule;
  std::printf("stencil 4x5 on m=6, eps=2: committed latency %.1f "
              "(upper bound %.1f), %zu messages\n\n",
              result.makespan, result.upper_bound, result.messages);

  GanttOptions gantt;
  gantt.width = 90;
  const ReplayEngine engine(sched, instance.costs());

  // 1. Clean replay.
  const CrashResult clean = engine.replay(CrashScenario::none(6));
  std::printf("clean replay: latency %.1f (committed %.1f) — the replay is "
              "exact\n",
              clean.latency, result.makespan);

  // 2. Every single crash.
  std::printf("\nsingle crashes:\n");
  for (const ProcId p : instance.platform().all_procs()) {
    const CrashResult crash = engine.replay(CrashScenario::at_zero(6, {p}));
    std::printf("  P%u down: %s, latency %8.1f (%+.1f%% vs 0-crash)\n",
                p.value(), crash.success ? "survived" : "FAILED",
                crash.latency,
                100.0 * (crash.latency / result.makespan - 1.0));
  }

  // 3. The adversarial pair.
  const ResilienceReport report =
      check_resilience_exhaustive(sched, instance.costs(), 2);
  std::printf("\nall %zu crash pairs survive: %s (worst latency %.1f)\n",
              report.scenarios_tested, report.resistant ? "yes" : "NO",
              report.worst_latency);

  // Find and render the worst surviving pair.
  double worst = 0.0;
  CrashScenario worst_scenario = CrashScenario::none(6);
  for (std::size_t a = 0; a < 6; ++a)
    for (std::size_t b = a + 1; b < 6; ++b) {
      const CrashScenario scenario = CrashScenario::at_zero(
          6, {ProcId(static_cast<ProcId::value_type>(a)),
              ProcId(static_cast<ProcId::value_type>(b))});
      const CrashResult crash = engine.replay(scenario);
      if (crash.success && crash.latency > worst) {
        worst = crash.latency;
        worst_scenario = scenario;
      }
    }
  const CrashResult worst_result = engine.replay(worst_scenario);
  std::printf("\nworst surviving pair (latency %.1f):\n", worst_result.latency);
  std::cout << render_crash_gantt(sched, worst_result, worst_scenario, gantt);

  // 4. Crash at mid-flight: results computed before the crash stay usable.
  CrashScenario midflight = CrashScenario::none(6);
  midflight.set_crash_time(ProcId(0), result.makespan / 2.0);
  const CrashResult mid = engine.replay(midflight);
  std::printf("\nP0 dies at t=%.1f (mid-flight): %s, latency %.1f\n",
              result.makespan / 2.0, mid.success ? "survived" : "FAILED",
              mid.latency);
  return report.resistant && clean.success ? 0 : 1;
}
