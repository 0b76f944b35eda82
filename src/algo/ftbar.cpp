#include "algo/ftbar.hpp"

#include <algorithm>
#include <limits>

#include "algo/priorities.hpp"
#include "common/check.hpp"
#include "dag/analysis.hpp"
#include "obs/obs.hpp"

namespace caft {

namespace {

/// Attempts Minimize-Start-Time before committing replica `r` of `t` on `p`:
/// if duplicating the critical parent onto `p` strictly reduces t's start
/// time, commit the duplicate first and reroute the critical edge to it.
/// Returns the replica's committed times either way.
TaskTimes commit_with_mst(Placer& placer, const TaskGraph& graph, TaskId t,
                          ReplicaIndex r, ProcId p, bool enable_mst) {
  auto plans = placer.receive_all_plans(t, p);
  std::vector<double> arrivals;
  const TaskTimes base = placer.evaluate(t, p, plans, &arrivals);

  if (!enable_mst || plans.empty()) return placer.commit(t, r, p, plans);

  // Critical parent: the in-edge whose first arrival binds the start time.
  // Duplication can only help when that arrival is an inter-processor
  // transfer and actually dominates the processor-ready constraint.
  std::size_t critical = plans.size();
  double critical_arrival = 0.0;
  for (std::size_t i = 0; i < plans.size(); ++i) {
    if (arrivals[i] > critical_arrival) {
      critical_arrival = arrivals[i];
      critical = i;
    }
  }
  const bool inter_proc =
      critical < plans.size() && plans[critical].senders.size() >= 1 &&
      !std::any_of(plans[critical].senders.begin(),
                   plans[critical].senders.end(),
                   [&](const SenderOption& s) { return s.proc == p; });
  if (critical == plans.size() || !inter_proc ||
      critical_arrival <= base.start - 1e-12) {
    return placer.commit(t, r, p, plans);
  }

  const TaskId parent = graph.edge(plans[critical].edge).src;
  // Skip when the parent already runs on p (the plan would have used it).
  const std::size_t parent_total = placer.schedule().total_replicas(parent);
  for (ReplicaIndex pr = 0; pr < parent_total; ++pr)
    if (placer.schedule().replica(parent, pr).proc == p)
      return placer.commit(t, r, p, plans);

  // What-if: place the duplicate, then the task, on a scratch engine state.
  const auto dup_plans = placer.receive_all_plans(parent, p);
  auto rerouted = plans;
  double with_dup_start = 0.0;
  {
    const CommEngine::Trial trial(placer.engine());
    const TaskTimes dup_what_if = placer.tentative(parent, p, dup_plans);
    rerouted[critical].senders = {SenderOption{
        ReplicaRef{parent, 0}, p, dup_what_if.finish}};  // ref fixed on commit
    with_dup_start = placer.tentative(t, p, rerouted).start;
  }

  if (with_dup_start + 1e-12 >= base.start)
    return placer.commit(t, r, p, plans);

  ReplicaIndex dup_index = 0;
  const TaskTimes dup_times =
      placer.commit_duplicate(parent, p, dup_plans, dup_index);
  rerouted[critical].senders = {
      SenderOption{ReplicaRef{parent, dup_index}, p, dup_times.finish}};
  return placer.commit(t, r, p, rerouted);
}

}  // namespace

Schedule ftbar_schedule(const TaskGraph& graph, const Platform& platform,
                        const CostModel& costs, const FtbarOptions& options) {
  const std::size_t eps = options.base.eps;
  CAFT_CHECK_MSG(eps + 1 <= platform.proc_count(),
                 "FTBAR needs at least eps+1 processors");
  Schedule schedule(graph, platform, eps, options.base.model);
  const auto engine = make_engine(options.base.model, platform, costs);
  Placer placer(graph, costs, *engine, schedule);

  // s(t): the latest-start measure, a static bottom level over average
  // weights (Section 4.1's bottom-up term).
  obs::Registry& registry = obs::Registry::global();
  obs::ScopedTimer priorities_timer(registry, "ftbar.priorities");
  const DagWeights weights = costs.average_weights(graph);
  const std::vector<double> s = bottom_levels(graph, weights);
  priorities_timer.stop();

  // Free-set management (FTBAR scans *all* free tasks each step).
  std::vector<std::size_t> pending(graph.task_count());
  std::vector<TaskId> free_tasks;
  for (const TaskId t : graph.all_tasks()) {
    pending[t.index()] = graph.in_degree(t);
    if (pending[t.index()] == 0) free_tasks.push_back(t);
  }

  const std::size_t m = platform.proc_count();
  double schedule_length = 0.0;  // R^(n-1)
  std::size_t remaining = graph.task_count();

  obs::ScopedTimer placement_timer(registry, "ftbar.placement");
  while (remaining > 0) {
    CAFT_CHECK_MSG(!free_tasks.empty(), "free list exhausted with tasks left");

    // Step i: per free task, the ε+1 processors of minimum pressure.
    TaskId urgent_task = TaskId::invalid();
    double urgent_pressure = -std::numeric_limits<double>::infinity();
    std::vector<ProcId> urgent_procs;
    for (const TaskId t : free_tasks) {
      // Keep only the ε+1 minimum-pressure processors in a bounded heap
      // (ties: lowest id) — same kept set and order as the full sort.
      BestKSelector selector(eps + 1);
      for (std::size_t pi = 0; pi < m; ++pi) {
        const auto p = ProcId(static_cast<ProcId::value_type>(pi));
        const auto plans = placer.receive_all_plans(t, p);
        const TaskTimes times = placer.evaluate(t, p, plans);
        selector.offer(times.start + s[t.index()] - schedule_length, p);
      }
      const auto entries = selector.take_sorted();
      // Step ii: urgency of t = the largest pressure among its kept pairs.
      const double urgency = entries[eps].key;
      if (urgency > urgent_pressure ||
          (urgency == urgent_pressure &&
           (!urgent_task.valid() || t < urgent_task))) {
        urgent_pressure = urgency;
        urgent_task = t;
        urgent_procs.clear();
        for (std::size_t k = 0; k <= eps; ++k)
          urgent_procs.push_back(entries[k].proc);
      }
    }

    // Commit the most urgent task on its ε+1 processors.
    const TaskId t = urgent_task;
    for (ReplicaIndex r = 0; r <= static_cast<ReplicaIndex>(eps); ++r) {
      const TaskTimes times = commit_with_mst(placer, graph, t, r,
                                              urgent_procs[r],
                                              options.minimize_start_time);
      schedule_length = std::max(schedule_length, times.finish);
    }

    free_tasks.erase(std::find(free_tasks.begin(), free_tasks.end(), t));
    --remaining;
    for (const EdgeIndex e : graph.out_edges(t)) {
      const TaskId succ = graph.edge(e).dst;
      if (--pending[succ.index()] == 0) free_tasks.push_back(succ);
    }
  }
  placement_timer.stop();

  CAFT_CHECK(schedule.complete());
  return schedule;
}

}  // namespace caft
