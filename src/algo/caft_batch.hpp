/// \file caft_batch.hpp
/// CAFT-B — the batched decision procedure the paper sketches as future work
/// (Section 7): "instead of considering a single task (the one with highest
/// priority) and assigning all its replicas to the currently best available
/// resources, why not consider say, 10 ready tasks, and assign all their
/// replicas in the same decision making procedure?"
///
/// Our interpretation (docs/architecture.md, "Modelling decisions"): a
/// window of up to `batch_size` ready tasks is opened by priority; the
/// replicas of all tasks in the window are committed one at a time, always
/// picking the (task, placement) pair with the globally earliest finish
/// time across the window.
/// Each task keeps its own CAFT state (locked set, B̄ heads, θ budget), so
/// the fault-tolerance construction is untouched — only the commit order
/// interleaves, which lets a lightly-loaded processor serve the batch's most
/// urgent replica instead of being monopolised by the first task popped.
/// batch_size = 1 is exactly CAFT.
#pragma once

#include "algo/caft.hpp"

namespace caft {

/// Tuning knobs of the batched variant.
struct CaftBatchOptions {
  CaftOptions caft;
  std::size_t batch_size = 10;  ///< the paper's "say, 10 ready tasks"
};

/// Runs CAFT-B; same guarantees as caft_schedule.
[[nodiscard]] Schedule caft_batch_schedule(const TaskGraph& graph,
                                           const Platform& platform,
                                           const CostModel& costs,
                                           const CaftBatchOptions& options,
                                           CaftRunStats* stats = nullptr);

}  // namespace caft
