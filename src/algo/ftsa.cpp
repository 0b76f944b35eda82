#include "algo/ftsa.hpp"

#include <algorithm>
#include <limits>

#include "algo/priorities.hpp"
#include "common/check.hpp"
#include "obs/obs.hpp"

namespace caft {

Schedule ftsa_schedule(const TaskGraph& graph, const Platform& platform,
                       const CostModel& costs,
                       const SchedulerOptions& options) {
  CAFT_CHECK_MSG(options.eps + 1 <= platform.proc_count(),
                 "FTSA needs at least eps+1 processors");
  Schedule schedule(graph, platform, options.eps, options.model);
  const auto engine = make_engine(options.model, platform, costs);
  Placer placer(graph, costs, *engine, schedule);
  obs::Registry& registry = obs::Registry::global();
  obs::ScopedTimer priorities_timer(registry, "ftsa.priorities");
  PriorityTracker tracker(graph, costs);
  priorities_timer.stop();

  const std::size_t m = platform.proc_count();
  const std::size_t replicas = options.eps + 1;

  // One selector, plan buffer and candidate buffer serve every sweep.
  BestKSelector selector(replicas);
  std::vector<IncomingPlan> plans;
  std::vector<BestKSelector::Candidate> candidates;

  obs::ScopedTimer placement_timer(registry, "ftsa.placement");
  while (tracker.has_free_task()) {
    const TaskId t = tracker.pop_highest();

    // Simulate the mapping on every processor from the same engine state,
    // keeping only the ε+1 earliest-finishing processors (ties: lowest id)
    // in a bounded heap — O(m log(ε+1)) instead of a full m-wide sort.
    for (std::size_t pi = 0; pi < m; ++pi) {
      const auto p = ProcId(static_cast<ProcId::value_type>(pi));
      placer.receive_all_plans(t, p, plans);
      const TaskTimes times = placer.evaluate(t, p, plans);
      selector.offer(times.finish, p);
    }
    selector.take_sorted(candidates);

    double first_finish = std::numeric_limits<double>::infinity();
    for (ReplicaIndex r = 0; r < replicas; ++r) {
      const ProcId p = candidates[r].proc;
      // Rebuild the plan: sender placements did not change, but a fresh plan
      // keeps the commit code path identical to evaluation.
      placer.receive_all_plans(t, p, plans);
      const TaskTimes times = placer.commit(t, r, p, plans);
      first_finish = std::min(first_finish, times.finish);
    }
    tracker.mark_scheduled(t, first_finish);
  }
  placement_timer.stop();

  CAFT_CHECK(schedule.complete());
  return schedule;
}

}  // namespace caft
