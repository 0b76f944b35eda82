/// \file heft.hpp
/// HEFT — Heterogeneous Earliest Finish Time (Topcuoglu et al. [27]), the
/// reference fault-free list scheduler. The paper uses it as the fault-free
/// baseline everywhere: "the fault-free version of CAFT reduces to an
/// implementation of HEFT" (Section 6), and the overhead metric divides by
/// the fault-free CAFT latency CAFT*.
///
/// Two deliberate deviations from the 2002 paper, both documented in
/// docs/architecture.md, "Modelling decisions": tasks are ordered by tℓ + bℓ
/// (the priority all schedulers in this library share, per Section 5)
/// rather than upward rank alone, and placement appends to the processor's
/// timeline instead of using insertion slots — the one-port engine's free
/// times are monotone clocks, exactly the accounting equations (4)-(6)
/// define.
#pragma once

#include "algo/list_core.hpp"
#include "dag/task_graph.hpp"
#include "platform/cost_model.hpp"
#include "platform/platform.hpp"
#include "sched/schedule.hpp"

namespace caft {

/// Fault-free EFT list schedule (one replica per task, i.e. ε = 0).
[[nodiscard]] Schedule heft_schedule(const TaskGraph& graph,
                                     const Platform& platform,
                                     const CostModel& costs,
                                     CommModelKind model);

}  // namespace caft
