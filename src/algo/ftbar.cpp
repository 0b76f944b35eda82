#include "algo/ftbar.hpp"

#include <algorithm>
#include <bit>
#include <limits>
#include <span>
#include <vector>

#include "algo/ftbar_internal.hpp"
#include "algo/priorities.hpp"
#include "common/check.hpp"
#include "dag/analysis.hpp"
#include "obs/obs.hpp"

namespace caft {

namespace {

/// Plan and arrival buffers of commit_with_mst, reused across commits.
struct MstScratch {
  std::vector<IncomingPlan> plans;
  std::vector<IncomingPlan> dup_plans;
  std::vector<IncomingPlan> rerouted;
  std::vector<double> arrivals;
};

/// Attempts Minimize-Start-Time before committing replica `r` of `t` on `p`:
/// if duplicating the critical parent onto `p` strictly reduces t's start
/// time, commit the duplicate first and reroute the critical edge to it.
/// Returns the replica's committed times either way.
TaskTimes commit_with_mst(Placer& placer, const TaskGraph& graph, TaskId t,
                          ReplicaIndex r, ProcId p, bool enable_mst,
                          MstScratch& scratch) {
  std::vector<IncomingPlan>& plans = scratch.plans;
  std::vector<double>& arrivals = scratch.arrivals;
  placer.receive_all_plans(t, p, plans);
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
  if ((placer.schedule().host_mask(parent) & Schedule::host_bit(p)) != 0)
    return placer.commit(t, r, p, plans);

  // What-if: place the duplicate, then the task, on a scratch engine state.
  std::vector<IncomingPlan>& dup_plans = scratch.dup_plans;
  std::vector<IncomingPlan>& rerouted = scratch.rerouted;
  placer.receive_all_plans(parent, p, dup_plans);
  rerouted = plans;
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

/// The start time of every free (task, processor) pair, kept across steps
/// under the reuse rule of ftbar.hpp.
class StartCache {
 public:
  StartCache(const Platform& platform, std::size_t task_count)
      : topology_(&platform.topology()),
        m_(platform.proc_count()),
        start_(task_count * m_, 0.0),
        valid_(task_count, 0),
        senders_(task_count, 0),
        route_dirty_to_(m_, 0),
        link_written_(topology_->link_count(), 0) {}

  /// `u` just became free: no entry is valid yet, and its remote senders
  /// are the primaries of its predecessors.
  void admit(TaskId u, SupportMask senders) {
    valid_[u.index()] = 0;
    senders_[u.index()] = senders;
  }

  [[nodiscard]] bool valid(TaskId u, ProcId p) const {
    return (valid_[u.index()] & support_of(p)) != 0;
  }
  [[nodiscard]] double start(TaskId u, ProcId p) const {
    return start_[u.index() * m_ + p.index()];
  }
  void store(TaskId u, ProcId p, double start) {
    start_[u.index() * m_ + p.index()] = start;
    valid_[u.index()] |= support_of(p);
  }

  /// Drops the entries of `free_tasks` that the step could have changed.
  /// The step placed its replicas (and any duplicates) on `targets` and
  /// appended comms [first_comm, end) to `schedule`.
  void invalidate(const Schedule& schedule, std::size_t first_comm,
                  SupportMask targets, std::span<const TaskId> free_tasks) {
    ++step_;
    SupportMask dirty_send = 0;
    bool wrote_links = false;
    const auto& comms = schedule.comms();
    for (std::size_t c = first_comm; c < comms.size(); ++c) {
      const CommAssignment& comm = comms[c];
      if (comm.src_proc == comm.dst_proc) continue;  // touches no clock
      dirty_send |= support_of(comm.src_proc);
      for (const LinkOccupancy& segment : schedule.hops(comm)) {
        link_written_[segment.link.index()] = step_;
        wrote_links = true;
      }
    }

    SupportMask live_senders = 0;  // senders(u) of tasks that keep entries
    for (const TaskId u : free_tasks) {
      SupportMask& valid = valid_[u.index()];
      if ((senders_[u.index()] & dirty_send) != 0) {
        valid = 0;
      } else {
        valid &= ~targets;
        live_senders |= senders_[u.index()];
      }
    }
    if (!wrote_links) return;

    // route_dirty_to_[p]: the live senders s whose route(s, p) crosses a
    // link the step wrote. Targets are already dropped, so skip them.
    for (std::size_t pi = 0; pi < m_; ++pi) {
      const auto p = ProcId(static_cast<ProcId::value_type>(pi));
      SupportMask dirty = 0;
      if ((targets & support_of(p)) == 0) {
        for (SupportMask rest = live_senders; rest != 0; rest &= rest - 1) {
          const auto s = ProcId(
              static_cast<ProcId::value_type>(std::countr_zero(rest)));
          for (const LinkId l : topology_->route(s, p)) {
            if (link_written_[l.index()] == step_) {
              dirty |= support_of(s);
              break;
            }
          }
        }
      }
      route_dirty_to_[pi] = dirty;
    }
    for (const TaskId u : free_tasks) {
      SupportMask& valid = valid_[u.index()];
      for (SupportMask rest = valid; rest != 0; rest &= rest - 1) {
        const auto p = static_cast<std::size_t>(std::countr_zero(rest));
        if ((senders_[u.index()] & route_dirty_to_[p]) != 0)
          valid &= ~(SupportMask{1} << p);
      }
    }
  }

 private:
  const Topology* topology_;
  std::size_t m_;
  std::vector<double> start_;         ///< task-major, m per task
  std::vector<SupportMask> valid_;    ///< per task: processors with a start
  std::vector<SupportMask> senders_;  ///< per task: senders(u)
  std::vector<SupportMask> route_dirty_to_;  ///< per destination, this step
  std::vector<std::uint64_t> link_written_;  ///< last step that wrote a link
  std::uint64_t step_ = 0;
};

/// senders(u): the processors of the primaries of u's predecessors.
SupportMask remote_senders(const Schedule& schedule, TaskId u) {
  const TaskGraph& graph = schedule.graph();
  SupportMask senders = 0;
  for (const EdgeIndex e : graph.in_edges(u))
    for (const ReplicaAssignment& a : schedule.primaries(graph.edge(e).src))
      senders |= support_of(a.proc);
  return senders;
}

Schedule run_ftbar(const TaskGraph& graph, const Platform& platform,
                   const CostModel& costs, const FtbarOptions& options,
                   bool check_reuse, internal::FtbarReuseStats* stats) {
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
  StartCache cache(platform, graph.task_count());
  std::vector<std::size_t> pending(graph.task_count());
  std::vector<TaskId> free_tasks;
  for (const TaskId t : graph.all_tasks()) {
    pending[t.index()] = graph.in_degree(t);
    if (pending[t.index()] == 0) {
      free_tasks.push_back(t);
      cache.admit(t, 0);
    }
  }

  const std::size_t m = platform.proc_count();
  double schedule_length = 0.0;  // R^(n-1)
  std::size_t remaining = graph.task_count();
  internal::FtbarReuseStats counts;

  // Buffers reused by every step.
  BestKSelector selector(eps + 1);
  std::vector<BestKSelector::Candidate> entries;
  std::vector<ProcId> urgent_procs;
  std::vector<IncomingPlan> plans;
  MstScratch mst_scratch;

  obs::ScopedTimer placement_timer(registry, "ftbar.placement");
  while (remaining > 0) {
    CAFT_CHECK_MSG(!free_tasks.empty(), "free list exhausted with tasks left");

    // Step i: per free task, the ε+1 processors of minimum pressure.
    TaskId urgent_task = TaskId::invalid();
    double urgent_pressure = -std::numeric_limits<double>::infinity();
    for (const TaskId t : free_tasks) {
      // Keep only the ε+1 minimum-pressure processors in a bounded heap
      // (ties: lowest id) — same kept set and order as the full sort.
      for (std::size_t pi = 0; pi < m; ++pi) {
        const auto p = ProcId(static_cast<ProcId::value_type>(pi));
        double start = 0.0;
        if (cache.valid(t, p)) {
          start = cache.start(t, p);
          ++counts.reused;
          if (check_reuse) {
            placer.receive_all_plans(t, p, plans);
            const double fresh = placer.evaluate(t, p, plans).start;
            CAFT_CHECK_MSG(fresh == start,
                           "FTBAR reused a start time a commit changed");
          }
        } else {
          placer.receive_all_plans(t, p, plans);
          start = placer.evaluate(t, p, plans).start;
          cache.store(t, p, start);
          ++counts.computed;
        }
        selector.offer(start + s[t.index()] - schedule_length, p);
      }
      selector.take_sorted(entries);
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

    // Commit the most urgent task on its ε+1 processors. A
    // Minimize-Start-Time duplicate lands on its replica's processor, so
    // `targets` covers every processor that ran or received anything.
    const TaskId t = urgent_task;
    const std::size_t first_comm = schedule.comms().size();
    SupportMask targets = 0;
    for (ReplicaIndex r = 0; r <= static_cast<ReplicaIndex>(eps); ++r) {
      const TaskTimes times = commit_with_mst(placer, graph, t, r,
                                              urgent_procs[r],
                                              options.minimize_start_time,
                                              mst_scratch);
      schedule_length = std::max(schedule_length, times.finish);
      targets |= support_of(urgent_procs[r]);
    }

    free_tasks.erase(std::find(free_tasks.begin(), free_tasks.end(), t));
    --remaining;
    for (const EdgeIndex e : graph.out_edges(t)) {
      const TaskId succ = graph.edge(e).dst;
      if (--pending[succ.index()] == 0) {
        free_tasks.push_back(succ);
        cache.admit(succ, remote_senders(schedule, succ));
      }
    }
    cache.invalidate(schedule, first_comm, targets, free_tasks);
  }
  placement_timer.stop();

  if (registry.enabled()) {
    registry.counter("ftbar.evaluations.reused").add(counts.reused);
    registry.counter("ftbar.evaluations.computed").add(counts.computed);
  }
  if (stats != nullptr) *stats = counts;
  CAFT_CHECK(schedule.complete());
  return schedule;
}

}  // namespace

Schedule ftbar_schedule(const TaskGraph& graph, const Platform& platform,
                        const CostModel& costs, const FtbarOptions& options) {
  return run_ftbar(graph, platform, costs, options, /*check_reuse=*/false,
                   nullptr);
}

namespace internal {

Schedule ftbar_schedule_checked(const TaskGraph& graph,
                                const Platform& platform,
                                const CostModel& costs,
                                const FtbarOptions& options,
                                FtbarReuseStats* stats) {
  return run_ftbar(graph, platform, costs, options, /*check_reuse=*/true,
                   stats);
}

}  // namespace internal

}  // namespace caft
