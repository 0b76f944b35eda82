/// \file caft_internal.hpp
/// Implementation machinery shared by the sequential CAFT driver (caft.cpp)
/// and the batched CAFT-B driver (caft_batch.cpp). Not part of the public
/// API — include caft.hpp / caft_batch.hpp instead.
///
/// CaftMapper owns the engine, the schedule under construction, the support
/// masks and the priority tracker, and exposes a per-task placement state
/// machine: begin_task() opens the locked set P̄, advance() commits one
/// replica channel, peek_next_finish() evaluates what advance() would commit
/// — the hook the batched driver uses to pick the globally earliest-
/// finishing replica across a window of ready tasks, whose channel it then
/// keeps (keep_peek) and commits without a second search.
///
/// Channel construction generalizes Algorithm 5.2's singleton-processor
/// heads (see docs/architecture.md, "Modelling decisions"): an in-edge is
/// single-sourced by the *eligible* predecessor replica (support mask
/// disjoint from the locked set P̄) whose message would finish first on the
/// links — co-located replicas serve for free — and falls back to
/// receive-from-all only when no eligible sender exists ("greedily add
/// extra communications"). Locking the committed channel's full support
/// keeps the ε+1 supports pairwise disjoint, which is what makes
/// Proposition 5.2 hold transitively.
#pragma once

#include <cstdint>
#include <limits>
#include <memory>
#include <vector>

#include "algo/caft.hpp"
#include "algo/list_core.hpp"
#include "algo/priorities.hpp"

namespace caft::internal {

/// Mutable state while placing the ε+1 replicas of one task
/// (Algorithm 5.1 lines 10-20).
struct TaskStep {
  TaskId task;
  SupportMask locked = 0;  ///< the paper's P̄ (equation (7)), as a proc mask
  std::size_t committed = 0;
  double first_finish = std::numeric_limits<double>::infinity();
};

/// One candidate channel: the plan per in-edge plus bookkeeping.
/// build_channel() rewrites every field but `times`, which evaluate() sets.
struct ChannelCandidate {
  ProcId proc;
  TaskTimes times;
  std::vector<IncomingPlan> plans;
  SupportMask support = 0;
  std::size_t receive_all_edges = 0;  ///< edges that needed extra comms
  bool relaxed = false;  ///< built by the lock-exhausted pass
};

/// How many trial placements one CAFT run made and how many processors its
/// finish floor ruled out that would have been trial-placed (locked
/// processors count in neither).
struct CaftFloorStats {
  std::uint64_t evaluated = 0;
  std::uint64_t skipped = 0;
};

/// The CAFT placement engine; see file comment.
class CaftMapper {
 public:
  /// `floor_check`, when non-null, makes every channel search also
  /// trial-place the processors its floor skipped and CAFT_CHECK that none
  /// of them could have won (tests only; see caft_schedule_checked).
  CaftMapper(const TaskGraph& graph, const Platform& platform,
             const CostModel& costs, const CaftOptions& options,
             CaftRunStats* stats, CaftFloorStats* floor_check = nullptr);

  [[nodiscard]] PriorityTracker& tracker() { return tracker_; }

  /// Starts mapping `t` (all predecessors must be committed).
  [[nodiscard]] TaskStep begin_task(TaskId t) const;

  /// Finish time of the replica advance() would commit next.
  [[nodiscard]] double peek_next_finish(const TaskStep& step);

  /// Swaps the channel the last peek found into `out` (its old buffers
  /// become the mapper's search slot).
  void keep_peek(ChannelCandidate& out);

  /// Commits the next replica of `step`'s task.
  void advance(TaskStep& step);

  /// Commits `peeked`, a channel keep_peek() took from a peek of `step`.
  /// Nothing may have been committed since that peek: the engine and the
  /// schedule are then unchanged, so `peeked` is what advance(step) would
  /// find again.
  void advance(TaskStep& step, const ChannelCandidate& peeked);

  /// True once all ε+1 replicas are committed.
  [[nodiscard]] bool done(const TaskStep& step) const {
    return step.committed == replicas();
  }

  /// Releases the task's successors (call exactly once, after done()).
  void finish_task(const TaskStep& step);

  /// Moves the finished schedule out (call once, at the very end).
  [[nodiscard]] Schedule take_schedule();

 private:
  [[nodiscard]] std::size_t replicas() const { return options_->base.eps + 1; }
  [[nodiscard]] std::size_t proc_count() const {
    return schedule_.platform().proc_count();
  }

  /// Builds the channel targeting `p`; false iff `p` itself is locked.
  /// `relaxed` drops the lock constraints entirely (used when every
  /// processor is locked): all edges receive from every replica. The
  /// channel records which rule built it.
  /// `use_one_to_one` toggles single-sender selection (case (b)); the
  /// intra-processor rule (case (a)) applies either way.
  bool build_channel(const TaskStep& step, ProcId p, bool relaxed,
                     bool use_one_to_one, ChannelCandidate& out);

  /// Best channel over all processors under the lock; if no processor is
  /// available, retries with the relaxed rule. Always succeeds. The result
  /// lives in the mapper and stays valid until the next call.
  ///
  /// Processors are visited in ascending (finish floor, id) order, and a
  /// pass stops at the first floor that cannot beat the best channel so
  /// far. A replica on `p` starts no earlier than max(r(p), the latest
  /// in-edge's earliest predecessor finish), because every arrival is at or
  /// after its sender's finish; so its finish is at least that plus its
  /// exec time. Within a pass the winner is the least (finish, senders,
  /// proc), whatever the visit order, so the result is the full search's.
  const ChannelCandidate& best_candidate(const TaskStep& step);

  void commit_candidate(TaskStep& step, const ChannelCandidate& candidate);

  /// True iff an already-placed replica of `t` occupies `p`.
  [[nodiscard]] bool hosts_replica_of(TaskId t, std::size_t committed,
                                      ProcId p) const;

  /// One processor of best_candidate()'s visit order.
  struct ProcFloor {
    double floor;  ///< no replica of the task can finish on `proc` before it
    ProcId proc;
  };

  const TaskGraph& graph_;
  const CaftOptions* options_;
  CaftRunStats* stats_;
  CaftFloorStats* floor_check_;
  Schedule schedule_;
  std::unique_ptr<CommEngine> engine_;
  Placer placer_;
  SupportMap supports_;
  PriorityTracker tracker_;
  /// best_candidate()'s two slots, owned so a warm evaluation sweep (and
  /// so peek_next_finish) allocates nothing.
  ChannelCandidate best_;
  ChannelCandidate candidate_;
  std::vector<ProcFloor> order_;  ///< best_candidate()'s visit order
};

/// caft_schedule with every processor the floor skipped trial-placed as
/// well: a CheckError if its finish is below its floor or it would have
/// beaten the chosen channel. Returns the same schedule as caft_schedule;
/// `stats`, when non-null, receives the run's counts.
[[nodiscard]] Schedule caft_schedule_checked(const TaskGraph& graph,
                                             const Platform& platform,
                                             const CostModel& costs,
                                             const CaftOptions& options,
                                             CaftFloorStats* stats = nullptr);

}  // namespace caft::internal
