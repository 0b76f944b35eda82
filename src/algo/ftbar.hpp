/// \file ftbar.hpp
/// FTBAR — Fault Tolerance Based Active Replication (Girault, Kalla,
/// Sighireanu, Sorel [10]; paper Section 4.1), adapted to the one-port model
/// per Section 4.3.
///
/// At each step n the *schedule pressure*
///
///   σ⁽ⁿ⁾(t_i, p_j) = S⁽ⁿ⁾(t_i, p_j) + s(t_i) − R⁽ⁿ⁻¹⁾
///
/// is computed for every free task / processor pair, where S is the earliest
/// start time of t_i on p_j under the engine's accounting (top-down), s(t_i)
/// the bottom level over average weights (the latest-start measure, bottom-
/// up) and R⁽ⁿ⁻¹⁾ the schedule length so far. Each free task keeps its
/// Npf+1 = ε+1 minimum-pressure processors; the task whose kept set contains
/// the *maximum* pressure (the most urgent pair) is scheduled on all ε+1 of
/// them, each replica receiving from every replica of every predecessor.
///
/// Committing a replica first runs Ahmad & Kwok's Minimize-Start-Time [1]:
/// if duplicating the replica's critical parent (the predecessor whose
/// earliest arrival binds the start time) onto the same processor strictly
/// reduces the start, the duplicate is committed too. The recursion is depth
/// bounded at one level, keeping the published O(P·N³) complexity.
///
/// Reuse across steps. Most pairs' start times do not change from one step
/// to the next, so the driver caches S(t_i, p_j) (the start only: pressure
/// is recomputed from it each step with the same arithmetic, so the
/// tie-breaks are unchanged) and evaluates a pair again only when the step
/// just committed could have changed it:
///
///  - What an evaluation reads. Evaluating (u, p) reads r(p), RF(p), and
///    for each remote sender s the send port SF(s) and the links of
///    route(s, p). Its remote senders are primaries of u's predecessors: a
///    duplicate only ever serves as the co-located copy on its own
///    processor. So senders(u), the processors of those primaries, is a
///    fixed mask once u is free.
///  - What a step dirties. From the replicas and comms the step appended:
///    `targets`, the processors that got a replica or a duplicate (every
///    exec and every reception of the step lands there); `dirty_send`, the
///    source processors of its inter-processor comms; and the links in
///    those comms' hops, which give route_dirty_to[p], the senders s
///    whose route(s, p) crosses a written link.
///  - When an entry is dropped: p ∈ targets; or senders(u) ∩ dirty_send ≠ ∅
///    (every entry of u); or senders(u) ∩ route_dirty_to[p] ≠ ∅.
///
/// Every clock an evaluation reads is then unchanged since the cached one,
/// the plan it builds is unchanged (a new co-located duplicate on p makes p
/// a target), and the placement is a pure function of both, so a reused
/// start equals a recomputed one bit for bit. ftbar_internal.hpp has a
/// checked entry point that recomputes every reused entry; with the obs
/// registry enabled, `ftbar.evaluations.reused` and
/// `ftbar.evaluations.computed` count the two kinds.
#pragma once

#include "algo/list_core.hpp"
#include "dag/task_graph.hpp"
#include "platform/cost_model.hpp"
#include "platform/platform.hpp"
#include "sched/schedule.hpp"

namespace caft {

/// Tuning knobs specific to FTBAR.
struct FtbarOptions {
  SchedulerOptions base;
  /// Enables the Minimize-Start-Time duplication pass (on in the paper).
  bool minimize_start_time = true;
};

/// Runs FTBAR; the result has ε+1 primary replicas per task (plus possible
/// duplicates from Minimize-Start-Time) and passes the validator.
[[nodiscard]] Schedule ftbar_schedule(const TaskGraph& graph,
                                      const Platform& platform,
                                      const CostModel& costs,
                                      const FtbarOptions& options);

}  // namespace caft
