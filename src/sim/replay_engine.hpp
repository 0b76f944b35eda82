/// \file replay_engine.hpp
/// Incremental, prefix-cached crash replay — the campaign hot path.
///
/// `simulate_crashes` (sim/crash_sim.hpp) rebuilds the full replay machine
/// and re-executes the committed schedule from t = 0 for every scenario. A
/// Monte-Carlo campaign replays the *same* schedule millions of times, and
/// every scenario whose earliest crash happens at time θ shares an identical
/// fault-free prefix with every other scenario up to θ. ReplayEngine
/// exploits both redundancies:
///
///  1. **Immutable template.** The operation graph (executions, wire/segment
///     chains, receptions, hand-offs), the per-resource committed queues and
///     the per-replica input maps depend only on the schedule — they are
///     built once, in flat CSR-style arrays, and shared read-only by every
///     replay (and every worker thread).
///  2. **Fault-free cuts.** The fault-free timeline is simulated once at
///     construction and kept flat: each op's commit index, start and finish,
///     and per queue the prefix-max clock of its ops' finishes. The state
///     after the first c commits derives from it: an op is done iff its
///     index is below c; a queue's head counts its ops below c (commits
///     rise along every queue: binary search) and its clock is their max
///     finish; the ready hand-offs are the pending ones whose source is
///     below c. Every commit count is a cut. A crash at θ_p first changes
///     the fault-free run at the earliest commit of an op of p finishing
///     after θ_p; p owns exactly the ops of its exec, send and receive
///     queues, so three binary searches over their clocks find it. Every
///     commit before the earliest such commit over the crashing processors
///     replays *identically*, so `replay` lays that prefix (the final state
///     when no op is late) over the pristine state: O(k log N) to pick for
///     k crashing processors, O(ops) to restore, O(ops) memory.
///     Scenarios with a processor dead from the start (the paper's model)
///     fall back to the pristine state — they still reuse the template:
///     each dead processor's precomputed kill list is pre-killed and one
///     worklist closure (`propagate`, the same one every mid-replay θ death
///     runs) settles the consequences, instead of the naive fixpoint scan.
///     A template-only engine (`max_snapshots = 0`) skips the recording and
///     starts every scenario from the pristine state: the cheap form for
///     one-shot replays and for crash-set enumeration (exp/runner,
///     sim/resilience).
///  3. **Canonical scenarios.** When every crash time is 0 or +inf (the
///     paper's "k processors dead from t = 0" model), the outcome is a pure
///     function of the dead-processor set — and a uniform-k campaign draws
///     from a scenario space of only C(m, k) masks. `canonicalize` maps a
///     scenario to the crash-time vector that decides its outcome, so a
///     caller can key a result cache on it: this is prefix caching taken to
///     its limit — at θ = 0 the shared prefix is empty, but the branch space
///     itself is finite. The campaign executor keeps one such cache
///     (campaign/campaign.hpp, RecordCache).
///  4. **θ-quantization.** With a positive `theta_bucket_width`,
///     `canonicalize` also covers crash-at-θ scenarios: every finite
///     positive crash time snaps to the midpoint of its bucket, and the
///     caller replays that *representative* scenario instead of the draw,
///     turning a continuous θ space into a finite, cacheable one (a
///     deliberate, width-bounded approximation — see the quantization
///     contract below).
///
/// Event selection: every commit takes the earliest-ready runnable op, the
/// lowest op id breaking ties — the naive replay's rule. The Scratch caches
/// one candidate per resource (the (ready, op) of its runnable queue head)
/// in the leaves of a tournament tree whose root is the resource winner,
/// and each resource's head op beside its cursor, so a leaf reads its head
/// without a hop through the queue. A commit or a θ-death wave recomputes
/// only the resources it can affect, each walking toward the root until a
/// node comes out unchanged; a commit's prerequisite dependents count only
/// where they head their queue, since a leaf reads nothing but its queue
/// head. Resource-free hand-offs wait in a min-heap under the same order,
/// pushed when their source exec commits. A commit thus costs O(changed
/// resources × log R) instead of a scan over every resource and pending
/// hand-off.
///
/// Exec readiness is counted, not scanned. Per input slot the Scratch
/// keeps the earliest finish among the slot's done inputs (its arrival,
/// +inf while none is done), and per exec the number of its slots still
/// waiting at +inf. Both change only when an input commits (or when a
/// replay restores a cut), so an exec is runnable iff its count is zero,
/// and its ready time is the max over its slots' cached arrivals — the
/// same min/max the naive per-slot scan computes, bit for bit. A commit
/// marks the exec it feeds only when that slot's arrival dropped and no
/// slot is left waiting; otherwise the exec's candidate cannot have moved.
/// The loop reads one packed 40-byte record per op (duration, resources,
/// prerequisite, dependents, slots, owner, kind) instead of a dozen
/// parallel arrays, and a done op's start and finish sit side by side.
///
/// The leaves are the 3m processor resources (exec, send port, receive
/// port) and only those links that carry a forwarded segment (on a ring
/// every link, on a star the hub-to-leaf links). A link whose queue holds
/// nothing but first-hop wires of one sender port — every link of the
/// paper's clique, and every link under the macro-dataflow model, whose
/// queues are empty — is dropped from the kernel, and its wires hold their
/// send port alone. This is exact: both queues are sorted by the same
/// committed order, so the link's queue is a subsequence of the port's,
/// and a head cursor sits on the first pending op of its queue; a wire
/// heading the port therefore heads the link. The link's clock takes the
/// max of finishes the port's clock also takes, and only the port's is
/// ever set to +inf by a crash, so max(port, link) equals the port's clock
/// bit for bit, order relaxations included.
///
/// Determinism contract: for every (schedule, scenario) pair, `replay`
/// returns a CrashResult **bit-for-bit identical** to
/// `simulate_crashes(schedule, costs, scenario)` — same event choices, same
/// IEEE arithmetic, same relaxation/deadlock accounting. The differential
/// suite tests/test_replay_equivalence.cpp asserts this over randomized
/// (instance, schedule, scenario) triples, and the campaign tests compare
/// whole campaigns against a simulate_crashes oracle.
///
/// Quantization contract: with `theta_bucket_width > 0`, `canonicalize`
/// classifies a scenario containing finite positive crash times as
/// kQuantized and fills in its representative (each such time snapped to
/// the midpoint of its bucket; dead-from-start and never-failing processors
/// are untouched). Replaying the representative is exact for
/// the representative and off by at most width/2 per crash time for the
/// original draw — still a deterministic pure function of the scenario, so
/// summaries remain independent of thread count and cache state. Scenarios
/// whose times are all 0/+inf are always exact. Width 0 classifies every
/// finite positive time as unique: such a draw is replayed as drawn,
/// bit-exact against the naive simulator.
///
/// Thread safety: `replay` and `canonicalize` are const and touch only the
/// template and the caller's Scratch/buffer, so one engine may serve any
/// number of threads as long as each thread owns its Scratch.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "platform/cost_model.hpp"
#include "sched/schedule.hpp"
#include "sim/crash_sim.hpp"

namespace caft {

/// Tuning knobs; the defaults suit campaign workloads.
struct ReplayEngineOptions {
  /// 0 means *template only*, for callers that replay a schedule once or
  /// enumerate dead-from-start masks: the constructor builds the op
  /// template and records no fault-free timeline, so the fault-free pass
  /// does not run, `event_count()` and `snapshot_count()` are 0, and every
  /// replay starts from the pristine state (through the dead-set closure
  /// where it applies). The constructor's fault-free deadlock check is
  /// skipped with the recording: a schedule that deadlocks fault-free then
  /// yields `order_deadlock` in its CrashResult, exactly as
  /// simulate_crashes does.
  ///
  /// Any other value records the timeline, every commit of which is a cut
  /// (header, "Fault-free cuts"); the value itself is not read. It keeps
  /// its name and type only because perfbench sets it (ROADMAP.md item 1).
  std::size_t max_snapshots = 64;
  /// Not read: every fault-free commit is a cut. Declared only because
  /// perfbench sets it; ROADMAP.md item 1 deletes it.
  std::vector<double> snapshot_times;
  /// θ-bucket width of `canonicalize`; 0 disables quantization (crash-at-θ
  /// scenarios then stay unique). See the quantization contract in the
  /// file header.
  double theta_bucket_width = 0.0;
};

/// Prefix-cached replay engine bound to one committed schedule.
class ReplayEngine {
 private:
  /// One selectable event: an op and the earliest time it may start.
  /// (kInf, none) marks "nothing runnable" and loses to every real event.
  struct Candidate {
    double ready;
    std::uint32_t op;
    /// The event order: earlier ready time first, lower op id on ties.
    /// Ready times are never NaN, so this is a total order. Both sides are
    /// always evaluated, so a tournament match compiles without a branch on
    /// the data.
    [[nodiscard]] bool before(const Candidate& other) const {
      return (ready < other.ready) | ((ready == other.ready) & (op < other.op));
    }
    /// Heap comparator that puts the earliest event on top.
    [[nodiscard]] static bool after(const Candidate& a, const Candidate& b) {
      return b.before(a);
    }
    [[nodiscard]] bool operator==(const Candidate& other) const {
      return ready == other.ready && op == other.op;
    }
  };

  /// A committed op's times.
  struct Times {
    double start;
    double finish;
  };

  /// Everything the commit loop reads of one op, packed into one record
  /// (header, "Event selection"). kNone (0xffffffff) marks an absent
  /// resource, prerequisite or slot. The two ranges are CSR-style: each
  /// ends where the next record's begins (ops_ ends with a sentinel).
  struct HotOp {
    double duration;
    std::uint32_t res_a;
    std::uint32_t res_b;
    std::uint32_t prereq;
    std::int32_t owner;  ///< proc whose crash kills the op, or -1
    /// Prerequisite dependents: dep_ops_[dep_begin .. next dep_begin).
    std::uint32_t dep_begin;
    /// The disjunctive input slot this op terminates a comm into.
    std::uint32_t feed_slot;
    /// An exec's own input slots [slot_begin, next slot_begin); every
    /// other op's range is empty.
    std::uint32_t slot_begin;
    std::uint8_t kind;
    std::uint8_t prereq_is_start;
  };
  static_assert(sizeof(HotOp) == 40, "one packed record per op");

 public:
  /// Builds the template and, unless `options.max_snapshots` is 0 (template
  /// only), records the fault-free timeline; that recording throws
  /// CheckError on a schedule whose fault-free replay deadlocks. `schedule`
  /// and `costs` must outlive the engine.
  ReplayEngine(const Schedule& schedule, const CostModel& costs,
               ReplayEngineOptions options = {});

  ReplayEngine(const ReplayEngine&) = delete;
  ReplayEngine& operator=(const ReplayEngine&) = delete;

  /// Per-thread mutable replay state. Reusing one Scratch across replays
  /// avoids all per-replay allocation; contents are opaque. A Scratch may
  /// move between engines: every replay resizes and resets the state it
  /// reads, so one Scratch serves replays of different schedules in turn
  /// (only its buffers' capacity carries over).
  class Scratch {
   public:
    Scratch() = default;

    /// Kernel counters since construction: events selected (commits and
    /// θ-deaths); full candidate refreshes — one per replay, plus one after
    /// each order relaxation; and targeted leaf refreshes — one per marked
    /// resource whose candidate is recomputed between two full refreshes.
    [[nodiscard]] std::uint64_t commits() const { return commit_count; }
    [[nodiscard]] std::uint64_t full_refreshes() const {
      return refresh_count;
    }
    [[nodiscard]] std::uint64_t leaf_refreshes() const {
      return leaf_refresh_count;
    }

   private:
    friend class ReplayEngine;
    std::vector<std::uint8_t> state;
    /// Per op; only read for ops in the done state.
    std::vector<Times> times;
    /// Per resource: the position of its head in the flat queue array, and
    /// the head op itself (kNone once the queue is exhausted).
    std::vector<std::uint32_t> cursor;
    std::vector<std::uint32_t> head_op;
    std::vector<double> free_at;
    /// Per input slot: the earliest finish among its done inputs, +inf
    /// while none is done.
    std::vector<double> arrival;
    /// Per exec op: how many of its slots still have no done input.
    std::vector<std::uint32_t> waiting;
    std::vector<std::uint32_t> dead_inputs;
    std::vector<std::uint32_t> worklist;
    /// Tournament tree over the per-resource candidate cache, heap layout:
    /// leaf R + r holds resource r's candidate (its runnable queue head, or
    /// (kInf, none)), node i the winner of nodes 2i and 2i + 1, node 1 the
    /// overall winner (node 0 is unused). Targeted invalidation keeps it
    /// current; see commit_next and propagate.
    std::vector<Candidate> tree;
    /// Runnable hand-offs, a min-heap in event order; settled entries are
    /// popped lazily when they reach the top.
    std::vector<Candidate> ready_handoffs;
    std::vector<std::uint32_t> dirty_resources;
    std::vector<std::uint8_t> dirty_flag;
    bool all_dirty = true;
    std::uint64_t commit_count = 0;
    std::uint64_t refresh_count = 0;
    std::uint64_t leaf_refresh_count = 0;
    std::size_t order_relaxations = 0;
    bool order_deadlock = false;
    bool died = false;
    /// Home of the most recent result (replay returns a reference into
    /// this, never a copy); each replay refills it in place.
    CrashResult result;
  };

  /// Re-executes the schedule under `scenario`; equivalent to
  /// simulate_crashes bit for bit. Allocates a throw-away Scratch.
  [[nodiscard]] CrashResult replay(const CrashScenario& scenario) const;

  /// Same, reusing the caller's Scratch (the campaign hot path). The
  /// returned reference lives inside `scratch` and stays valid until the
  /// next replay call with the same Scratch.
  const CrashResult& replay(const CrashScenario& scenario,
                            Scratch& scratch) const;

  /// How `canonicalize` classified a scenario.
  enum class Canonical {
    kExact,      ///< every crash time is 0 or +inf: the dead set decides
    kQuantized,  ///< finite positive times snapped to their bucket midpoints
    kUnique,     ///< a finite positive time stays raw: no equivalent draws
  };
  /// Writes the canonical form of `crash_times` (one per processor) into
  /// `times`: 0 for t <= 0, +inf for never, and — when theta_bucket_width
  /// > 0 — the bucket midpoint of every finite positive time. Draws with
  /// equal canonical vectors replay to equal results, provided a
  /// kQuantized draw is replayed as its representative (`times` itself)
  /// and a kExact draw as drawn. A
  /// kUnique draw — a raw finite time, or one whose bucket index would
  /// reach 2^32 − 1 — has no canonical form and is replayed as drawn;
  /// `times` is then unspecified. The crash times are checked as the
  /// CrashScenario constructor checks them: a NaN or negative time throws
  /// CheckError. Allocation-free: the campaign's per-draw path.
  [[nodiscard]] Canonical canonicalize(std::span<const double> crash_times,
                                       std::span<double> times) const;

  [[nodiscard]] const ReplayEngineOptions& options() const {
    return options_;
  }

  /// Events (op commits) on the fault-free timeline; 0 for a template-only
  /// engine.
  [[nodiscard]] std::size_t event_count() const { return commit_count_; }
  /// Fault-free cuts a replay may restore from: every commit is one, so
  /// this equals `event_count()`.
  [[nodiscard]] std::size_t snapshot_count() const { return event_count(); }
  [[nodiscard]] const Schedule& schedule() const { return *schedule_; }

  /// Earliest crash instant of `scenario` (+inf when nothing ever fails) —
  /// the key the campaign executor orders a wave's replays by.
  [[nodiscard]] static double first_crash(const CrashScenario& scenario);
  /// The same on raw crash times.
  [[nodiscard]] static double first_crash(std::span<const double> crash_times);

 private:
  void build_template();
  void record_fault_free();

  void reset_pristine(Scratch& s) const;
  /// Lays the first `commits` fault-free commits over the pristine state.
  void restore_cut(Scratch& s, std::size_t commits) const;
  /// The longest fault-free prefix, in commits, that a scenario with these
  /// crash times replays unchanged; 0 ("from t = 0") when a processor is
  /// dead from the start or the engine is template-only.
  [[nodiscard]] std::size_t pick_cut(std::span<const double> crash) const;
  /// How many of resource `res`'s queue ops are among the first `commits`
  /// fault-free commits: its head cursor at that cut.
  [[nodiscard]] std::uint32_t done_in_queue(std::size_t res,
                                            std::size_t commits) const;

  /// Counts a done input of `slot` finishing at `finish` (header, "Event
  /// selection"); true iff the slot's arrival dropped.
  bool arrive(Scratch& s, std::uint32_t slot, double finish) const;
  void kill(Scratch& s, std::uint32_t op) const;
  /// Worklist closure over the killed ops: the one dead-set closure, for
  /// dead-from-start processors and θ-deaths alike.
  void propagate(Scratch& s) const;
  /// Advances one resource's head cursor past settled ops.
  void advance_resource(Scratch& s, std::uint32_t res) const;
  /// One resource's candidate: its queue head with the head's ready time
  /// when that op is pending, heads all its queues and is runnable;
  /// (kInf, none) otherwise.
  [[nodiscard]] Candidate head_candidate(const Scratch& s,
                                         std::uint32_t res) const;
  /// Recomputes one resource's leaf and replays the matches above it,
  /// stopping at the first node whose winner is unchanged.
  void update_leaf(Scratch& s, std::uint32_t res) const;
  /// Recomputes every leaf and rebuilds the tree bottom-up: O(R).
  void rebuild_tree(Scratch& s) const;
  void mark_dirty(Scratch& s, std::uint32_t res) const;
  /// True iff `op` is the head of resource `res`'s queue.
  [[nodiscard]] bool heads(const Scratch& s, std::uint32_t res,
                           std::uint32_t op) const;
  [[nodiscard]] bool at_heads(const Scratch& s, std::uint32_t op) const;
  [[nodiscard]] bool runnable(const Scratch& s, std::uint32_t op,
                              double& ready) const;
  /// One event under `crash` (one time per processor, sized and checked
  /// by the caller).
  bool commit_next(Scratch& s, std::span<const double> crash,
                   std::uint32_t* committed) const;
  /// Writes the outcome into `s.result`, reusing its buffers.
  void collect(Scratch& s) const;

  const Schedule* schedule_;
  std::size_t m_ = 0;
  std::size_t op_count_ = 0;
  std::size_t resource_count_ = 0;

  // --- immutable per-op template (see build_template).
  std::vector<HotOp> ops_;  ///< size op_count_+1: the last is a sentinel
  std::vector<std::uint8_t> counts_message_;  ///< read by collect only

  /// Committed per-resource queues (same order as the naive replay),
  /// flattened CSR-style: queue_ops_[queue_begin_[r] .. queue_begin_[r+1]).
  /// Scratch cursors index this flat array.
  std::vector<std::uint32_t> queue_begin_;  ///< size resource_count_+1
  std::vector<std::uint32_t> queue_ops_;

  /// Exec ops are the first ids, in (task, replica) order: replica r of
  /// task t is op exec_op_begin_[t] + r.
  std::vector<std::uint32_t> exec_op_begin_;  ///< size task_count+1

  // Disjunctive exec inputs, flattened: exec op -> its HotOp slot range of
  // global in-edge slots; slot -> terminating op ids feeding it, and the
  // exec it feeds.
  std::vector<std::uint32_t> slot_input_begin_;  ///< size slot_count+1
  std::vector<std::uint32_t> slot_inputs_;
  std::vector<std::uint32_t> slot_exec_;

  /// Prerequisite dependents, indexed by each HotOp's dep range.
  std::vector<std::uint32_t> dep_ops_;

  /// kill_ops_[kill_begin_[p]..kill_begin_[p+1]): ops dead when processor p
  /// is dead from the start (mirrors the naive kill_dead_processors rules);
  /// `replay` pre-kills them and `propagate` closes over the rest.
  std::vector<std::uint32_t> kill_begin_;
  std::vector<std::uint32_t> kill_ops_;
  std::vector<std::uint32_t> handoff_ops_;  ///< in id order

  // --- fault-free timeline (empty for a template-only engine).
  std::size_t commit_count_ = 0;
  std::vector<std::uint32_t> commit_at_;  ///< op -> fault-free commit index
  std::vector<Times> ff_times_;
  /// queue_clock_[queue_begin_[r] + r + d]: resource r's clock once its
  /// first d queue ops are done (the largest of their fault-free finishes).
  std::vector<double> queue_clock_;
  ReplayEngineOptions options_;
};

}  // namespace caft
