/// \file engine.hpp
/// Communication engines: the resource-accounting substrate the schedulers
/// place work on. Two implementations share this interface:
///
///  - MacroDataflowEngine — the traditional contention-free model (Section 2
///    of the paper): a message leaves as soon as its source task finishes and
///    arrives W time units later; ports and links are unlimited.
///  - OnePortEngine — the bi-directional one-port model (Sections 2/4.3):
///    per-processor sending/receiving serialization (inequalities (2), (3)),
///    per-link exclusivity (inequality (1)), with start/finish/arrival times
///    per equations (4) and (6).
///
/// Schedulers *tentatively* place a task on every candidate processor, read
/// the resulting finish time, and roll back (the paper: "the incoming
/// communications are removed from the links before the procedure is
/// repeated on the next processor"). Every clock write goes through
/// `CommEngine::write`, which journals the old value while a
/// `CommEngine::Trial` is open; closing the trial puts back exactly the
/// slots it touched, so an engine's rollback needs no code of its own.
/// A post's per-hop link occupancy goes to a sink the caller passes: a
/// commit hands its buffer in, a trial passes none and records nothing.
#pragma once

#include <cstddef>
#include <vector>

#include "common/check.hpp"
#include "common/ids.hpp"
#include "platform/cost_model.hpp"
#include "platform/platform.hpp"

namespace caft {

/// Occupancy of one link by one message (sparse routes have several).
struct LinkOccupancy {
  LinkId link;
  double start = 0.0;
  double finish = 0.0;
};

/// Timing of one posted communication. The send interval occupies the
/// sender's port, the receive interval the receiver's port; on a clique both
/// coincide with the single link's occupancy when nothing contends.
struct CommTimes {
  double link_start = 0.0;   ///< S(c, l): when the message enters its first link
  double link_finish = 0.0;  ///< F(c, l): when it leaves its last link
  double send_finish = 0.0;  ///< when the sender's port is released
  double recv_start = 0.0;   ///< when the receiver's port starts the reception
  double arrival = 0.0;      ///< A(c, P): when the receiver has fully received it
};

/// Timing of one posted task execution.
struct TaskTimes {
  double start = 0.0;
  double finish = 0.0;
};

/// Resource accounting interface shared by both platform models.
class CommEngine {
 public:
  CommEngine(const Platform& platform, const CostModel& costs);
  virtual ~CommEngine() = default;

  CommEngine(const CommEngine&) = delete;
  CommEngine& operator=(const CommEngine&) = delete;

  [[nodiscard]] const Platform& platform() const { return *platform_; }
  [[nodiscard]] const CostModel& costs() const { return *costs_; }
  [[nodiscard]] std::size_t proc_count() const { return platform_->proc_count(); }

  /// r(P): maximum finish time of the tasks already placed on P.
  [[nodiscard]] double proc_ready(ProcId p) const {
    CAFT_CHECK(p.index() < proc_ready_.size());
    return proc_ready_[p.index()];
  }

  /// Places a communication of `volume` data units from `from` to `to` whose
  /// payload becomes available at the sender at `data_ready` (the source
  /// task's finish time). Mutates the engine state. `from == to` is the
  /// intra-processor case: free and instantaneous (arrival = data_ready).
  /// The one-port engine appends the message's per-hop link occupancy, in
  /// route order, to `hops` when it is non-null; intra-processor hand-offs
  /// and the macro-dataflow model (no link exclusivity) append nothing.
  virtual CommTimes post_comm(ProcId from, ProcId to, double volume,
                              double data_ready,
                              std::vector<LinkOccupancy>* hops = nullptr) = 0;

  /// Finish time on the link(s) that `post_comm` would produce, *without*
  /// mutating state — the sort key of Algorithm 5.2 line 3.
  [[nodiscard]] virtual double peek_link_finish(ProcId from, ProcId to,
                                                double volume,
                                                double data_ready) const = 0;

  /// Executes a task on `p`, not before `earliest_start`, for `exec_time`.
  /// Processors run one task at a time: start = max(earliest_start, r(P)).
  TaskTimes post_exec(ProcId p, double earliest_start, double exec_time);

  /// Scope of a trial placement: every clock written while it is open is
  /// put back, in reverse order, when it closes. Trials nest; they must
  /// close in the reverse order they opened.
  class Trial {
   public:
    explicit Trial(CommEngine& engine)
        : engine_(&engine), mark_(engine.journal_.size()) {
      ++engine.open_trials_;
    }
    ~Trial() {
      auto& journal = engine_->journal_;
      for (std::size_t i = journal.size(); i > mark_; --i)
        *journal[i - 1].slot = journal[i - 1].old_value;
      journal.resize(mark_);
      --engine_->open_trials_;
    }
    Trial(const Trial&) = delete;
    Trial& operator=(const Trial&) = delete;

   private:
    CommEngine* engine_;
    std::size_t mark_;  ///< journal length when the trial opened
  };

 protected:
  /// Sets `clocks[i] = value`, journaling the old value while a Trial is
  /// open. The only way engines mutate their clocks; clock vectors are
  /// sized in the constructor and never reallocate, so journaled slot
  /// pointers stay valid.
  void write(std::vector<double>& clocks, std::size_t i, double value) {
    double& slot = clocks[i];
    if (open_trials_ > 0) journal_.push_back({&slot, slot});
    slot = value;
  }

  const Platform* platform_;
  const CostModel* costs_;
  std::vector<double> proc_ready_;

 private:
  struct JournalEntry {
    double* slot;
    double old_value;
  };
  std::vector<JournalEntry> journal_;
  std::size_t open_trials_ = 0;
};

}  // namespace caft
