/// \file crash_sim.hpp
/// Fail-silent (fail-stop) crash re-execution of a committed schedule — the
/// machinery behind the paper's "With c Crash" measurements (Section 6):
/// "we have also compared the behavior of each algorithm when processors
/// crash down by computing the real execution time for a given schedule
/// rather than just bounds."
///
/// Semantics (documented in docs/architecture.md, "Modelling decisions"):
///  - the mapping and the per-resource *order* of operations (executions per
///    processor, emissions per send port, transits per link, receptions per
///    receive port) stay exactly as committed — a static schedule's runtime
///    replays its tables;
///  - a processor crashed from time 0 executes nothing, sends nothing, and
///    its inbound receptions vanish — but senders are fail-silent-blind, so
///    their emissions still occupy the sender port and the link;
///  - a replica whose predecessors' messages all died (starved) is skipped,
///    freeing its processor slot; everything it would have sent is skipped
///    too;
///  - a replica starts once, for every in-edge, at least one live message
///    has arrived (the earliest one that actually arrives, which under
///    crashes may be a later copy than the committed first — exactly the
///    phenomenon the paper analyses with its two-scenario example, where the
///    crash latency may *decrease* or *increase* relative to the 0-crash
///    estimate);
///  - crash-at-time-θ is supported as an extension: work completing at or
///    before θ survives, anything still in flight at θ is lost.
///
/// The simulator is a discrete-event replay: operations commit in global
/// simulated-time order (earliest candidate start first, committed order as
/// the tie-break), which reproduces the committed timetable bit-for-bit when
/// the crash set is empty (a property test asserts this).
#pragma once

#include <cstddef>
#include <limits>
#include <span>
#include <vector>

#include "common/ids.hpp"
#include "platform/cost_model.hpp"
#include "sched/schedule.hpp"

namespace caft {

/// Per-processor crash instants; +inf = the processor never fails.
/// All accessors CAFT_CHECK their ProcId against the scenario size, and
/// crash times must be non-negative and not NaN (enforced by the
/// constructor and set_crash_time alike).
class CrashScenario {
 public:
  /// All processors healthy.
  static CrashScenario none(std::size_t proc_count);
  /// The given processors are dead from t = 0.
  static CrashScenario at_zero(std::size_t proc_count,
                               const std::vector<ProcId>& failed);

  explicit CrashScenario(std::vector<double> crash_times);

  [[nodiscard]] std::size_t proc_count() const { return crash_time_.size(); }
  [[nodiscard]] double crash_time(ProcId p) const;
  /// Every processor's crash time, indexed by processor.
  [[nodiscard]] std::span<const double> crash_times() const {
    return crash_time_;
  }
  [[nodiscard]] bool dead_from_start(ProcId p) const {
    return crash_time(p) <= 0.0;
  }
  [[nodiscard]] std::size_t failed_count() const;

  void set_crash_time(ProcId p, double time);

 private:
  std::vector<double> crash_time_;
};

/// Outcome of one re-execution.
struct CrashResult {
  /// True iff every task has at least one completed replica.
  bool success = false;
  /// max over tasks of the earliest completed replica finish; +inf on
  /// failure.
  double latency = std::numeric_limits<double>::infinity();
  /// completed[t][r]: did replica r of task t run to completion?
  std::vector<std::vector<bool>> completed;
  /// finish[t][r]: completion time (only meaningful when completed).
  std::vector<std::vector<double>> finish;
  /// Inter-processor messages actually delivered.
  std::size_t delivered_messages = 0;
  /// Number of operations that had to run out of their committed resource
  /// order to make progress. Rerouted inputs can create circular waits in
  /// the strict table order; the replay then lets any ready operation jump
  /// the queue (the resource clocks still enforce the one-port exclusivity).
  /// Always 0 when the crash set is empty.
  std::size_t order_relaxations = 0;
  /// True when even the relaxed order could make no progress and the
  /// remaining operations were declared lost (e.g. every processor dead).
  bool order_deadlock = false;
};

/// Re-executes `schedule` under `scenario`.
[[nodiscard]] CrashResult simulate_crashes(const Schedule& schedule,
                                           const CostModel& costs,
                                           const CrashScenario& scenario);

}  // namespace caft
