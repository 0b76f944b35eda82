#include "sim/replay_engine.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <utility>

#include "common/check.hpp"

namespace caft {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr std::uint32_t kNone32 = 0xffffffffu;

// Op kinds/states; values mirror the naive replay's enums.
constexpr std::uint8_t kExec = 0;
constexpr std::uint8_t kWire = 1;
constexpr std::uint8_t kSegment = 2;
constexpr std::uint8_t kReception = 3;
constexpr std::uint8_t kHandoff = 4;

constexpr std::uint8_t kPending = 0;
constexpr std::uint8_t kDone = 1;
constexpr std::uint8_t kDead = 2;

/// Turns per-bucket counts kept at [b + 1] into CSR begin offsets.
void counts_to_offsets(std::vector<std::uint32_t>& v) {
  std::partial_sum(v.begin(), v.end(), v.begin());
}

}  // namespace

double ReplayEngine::first_crash(const CrashScenario& scenario) {
  return first_crash(scenario.crash_times());
}

double ReplayEngine::first_crash(std::span<const double> crash_times) {
  double earliest = kInf;
  for (const double t : crash_times) earliest = std::min(earliest, t);
  return earliest;
}

ReplayEngine::ReplayEngine(const Schedule& schedule, const CostModel& costs,
                           ReplayEngineOptions options)
    : schedule_(&schedule), options_(std::move(options)) {
  (void)costs;  // durations come from the committed schedule, as in the
                // naive replay; the parameter keeps the two call shapes
                // symmetric.
  CAFT_CHECK_MSG(schedule.complete(), "schedule is incomplete");
  CAFT_CHECK_MSG(options_.theta_bucket_width >= 0.0 &&
                     !std::isnan(options_.theta_bucket_width),
                 "theta bucket width must be non-negative");
  build_template();
  if (options_.max_snapshots > 0) record_fault_free();
}

void ReplayEngine::build_template() {
  const TaskGraph& g = schedule_->graph();
  m_ = schedule_->platform().proc_count();
  resource_count_ = 3 * m_ + schedule_->platform().topology().link_count();
  const bool macro = schedule_->model() == CommModelKind::kMacroDataflow;

  const auto res_id = [](std::size_t res) {
    return static_cast<std::uint32_t>(res);
  };
  const auto exec_res = [&](ProcId p) { return res_id(p.index()); };
  const auto send_res = [&](ProcId p) { return res_id(m_ + p.index()); };
  const auto recv_res = [&](ProcId p) { return res_id(2 * m_ + p.index()); };
  const auto link_res = [&](LinkId l) { return res_id(3 * m_ + l.index()); };

  // Build in exactly the order the naive replay does, so op ids (the
  // deterministic tie-break of the event loop) coincide. Execution ops come
  // first, in (task, replica) order: replica r of task t is op
  // exec_op_begin_[t] + r.
  exec_op_begin_.assign(g.task_count() + 1, 0);
  for (const TaskId t : g.all_tasks())
    exec_op_begin_[t.index() + 1] =
        static_cast<std::uint32_t>(schedule_->total_replicas(t));
  counts_to_offsets(exec_op_begin_);
  const auto exec_op = [&](std::size_t task, ReplicaIndex r) {
    return static_cast<std::uint32_t>(exec_op_begin_[task] + r);
  };
  // Every per-op array is sized once: the execs, then per comm a hand-off,
  // or a wire, one op per further segment and a reception.
  std::size_t ops = exec_op_begin_[g.task_count()];
  for (const CommAssignment& c : schedule_->comms())
    ops += c.intra() || macro ? 1 : c.hops.count + 1;
  ops_.reserve(ops + 1);
  counts_message_.reserve(ops);
  std::vector<double> start;  // each op's fault-free start: its queue key
  start.reserve(ops);
  handoff_ops_.reserve(schedule_->comms().size());

  const auto push_op = [&](std::uint8_t kind, double begin, double end,
                           std::uint32_t res_a, std::uint32_t res_b,
                           std::uint32_t prereq, bool prereq_start,
                           std::int32_t owner) -> std::uint32_t {
    const auto id = static_cast<std::uint32_t>(ops_.size());
    // Dependents and slots are filled in below, once every op exists.
    ops_.push_back({end - begin, res_a, res_b, prereq, owner, 0, kNone32, 0,
                    kind, static_cast<std::uint8_t>(prereq_start ? 1 : 0)});
    counts_message_.push_back(0);
    start.push_back(begin);
    return id;
  };

  for (const TaskId t : g.all_tasks()) {
    const std::size_t total = schedule_->total_replicas(t);
    for (ReplicaIndex r = 0; r < total; ++r) {
      const ReplicaAssignment& a = schedule_->replica(t, r);
      push_op(kExec, a.start, a.finish, exec_res(a.proc), kNone32, kNone32,
              false, static_cast<std::int32_t>(a.proc.index()));
    }
  }

  // Communication chains; comm_to_op maps each comm to its terminating op.
  std::vector<std::uint32_t> comm_to_op(schedule_->comms().size(), kNone32);
  for (std::size_t ci = 0; ci < schedule_->comms().size(); ++ci) {
    const CommAssignment& c = schedule_->comms()[ci];
    const std::uint32_t source_exec =
        exec_op(c.from.task.index(), c.from.replica);

    if (c.intra() || macro) {
      const std::uint32_t id =
          push_op(kHandoff, c.times.link_start, c.times.arrival, kNone32,
                  kNone32, source_exec, false, -1);
      counts_message_[id] = c.intra() ? 0 : 1;
      comm_to_op[ci] = id;
      handoff_ops_.push_back(id);
      continue;
    }

    // One-port chain: wire, optional extra segments, reception.
    const auto hops = schedule_->hops(c);
    CAFT_CHECK_MSG(!hops.empty(),
                   "one-port inter-processor comm without segments");
    std::uint32_t prev = kNone32;
    for (std::size_t si = 0; si < hops.size(); ++si) {
      const LinkOccupancy& seg = hops[si];
      std::uint32_t id;
      if (si == 0) {
        // A wire dies with its *sender*; forwarding through a dead router
        // (non-final hop toward the link's far end) is handled by the kill
        // lists below.
        id = push_op(kWire, seg.start, seg.finish, send_res(c.src_proc),
                     link_res(seg.link), source_exec, false,
                     static_cast<std::int32_t>(c.src_proc.index()));
      } else {
        id = push_op(kSegment, seg.start, seg.finish, link_res(seg.link),
                     kNone32, prev, false, -1);
      }
      prev = id;
    }
    const std::uint32_t recv =
        push_op(kReception, c.times.recv_start, c.times.arrival,
                recv_res(c.dst_proc), kNone32, prev,
                /*prereq_start=*/true,
                static_cast<std::int32_t>(c.dst_proc.index()));
    counts_message_[recv] = 1;
    comm_to_op[ci] = recv;
  }

  op_count_ = ops_.size();
  ops_.push_back({0.0, kNone32, kNone32, kNone32, -1, 0, kNone32, 0, kExec, 0});

  // Resource queues in committed order, flattened into one CSR array; a
  // wire queues on its sender and its first link. The naive replay sorts all
  // entries at once by start, then by a sequence number that grows with the
  // op id: within a resource that is the unique (start, op id) order, so
  // sorting each bucket alone yields the same queues. Buckets fill in op-id
  // order; comms are recorded in commit order and the one-port engine only
  // appends to a port or link, so a port or link queue nearly always arrives
  // sorted and is only checked. Exec ops are numbered in task order, not
  // commit order, so it is the exec queues that usually need the sort.
  queue_begin_.assign(resource_count_ + 1, 0);
  for (std::uint32_t op = 0; op < op_count_; ++op)
    for (const std::uint32_t res : {ops_[op].res_a, ops_[op].res_b})
      if (res != kNone32) ++queue_begin_[res + 1];
  counts_to_offsets(queue_begin_);
  queue_ops_.resize(queue_begin_.back());
  std::vector<std::uint32_t> cursor(queue_begin_.begin(),
                                    queue_begin_.end() - 1);
  for (std::uint32_t op = 0; op < op_count_; ++op)
    for (const std::uint32_t res : {ops_[op].res_a, ops_[op].res_b})
      if (res != kNone32) queue_ops_[cursor[res]++] = op;
  const auto committed_before = [&](std::uint32_t a, std::uint32_t b) {
    return start[a] != start[b] ? start[a] < start[b] : a < b;
  };
  for (std::size_t r = 0; r < resource_count_; ++r) {
    const auto first = queue_ops_.begin() + queue_begin_[r];
    const auto last = queue_ops_.begin() + queue_begin_[r + 1];
    if (!std::is_sorted(first, last, committed_before))
      std::sort(first, last, committed_before);
  }

  // Disjunctive input slots: one per (exec op, in-edge), in exec-op order,
  // each listing the terminating ops of its comms in comm order. Count,
  // then fill; each op feeds one slot.
  // Every record after the last exec begins at the end of the slots, so
  // each exec's range ends where the next record's begins.
  const std::uint32_t execs = exec_op_begin_.back();
  std::uint32_t slot_count = 0;
  for (const TaskId t : g.all_tasks())
    for (ReplicaIndex r = 0; r < schedule_->total_replicas(t); ++r) {
      ops_[exec_op(t.index(), r)].slot_begin = slot_count;
      slot_count += static_cast<std::uint32_t>(g.in_edges(t).size());
    }
  for (std::uint32_t op = execs; op <= op_count_; ++op)
    ops_[op].slot_begin = slot_count;
  slot_exec_.resize(slot_count);
  for (std::uint32_t e = 0; e < execs; ++e)
    std::fill(slot_exec_.begin() + ops_[e].slot_begin,
              slot_exec_.begin() + ops_[e + 1].slot_begin, e);
  // Each edge's position among its target's in-edges: a comm's slot offset.
  std::vector<std::uint32_t> in_position(g.edge_count());
  for (const TaskId t : g.all_tasks()) {
    const auto in = g.in_edges(t);
    for (std::size_t i = 0; i < in.size(); ++i)
      in_position[in[i]] = static_cast<std::uint32_t>(i);
  }
  const auto slot_of = [&](const CommAssignment& c) {
    CAFT_CHECK(g.edge(c.edge).dst == c.to.task);
    return ops_[exec_op(c.to.task.index(), c.to.replica)].slot_begin +
           in_position[c.edge];
  };
  slot_input_begin_.assign(slot_count + 1, 0);
  for (const CommAssignment& c : schedule_->comms())
    ++slot_input_begin_[slot_of(c) + 1];
  counts_to_offsets(slot_input_begin_);
  slot_inputs_.resize(slot_input_begin_.back());
  std::vector<std::uint32_t> slot_cursor(slot_input_begin_.begin(),
                                         slot_input_begin_.end() - 1);
  for (std::size_t ci = 0; ci < schedule_->comms().size(); ++ci) {
    const CommAssignment& c = schedule_->comms()[ci];
    const std::uint32_t slot = slot_of(c);
    slot_inputs_[slot_cursor[slot]++] = comm_to_op[ci];
    ops_[comm_to_op[ci]].feed_slot = slot;
  }

  // Prerequisite dependents (reverse of prereq), CSR: count per op, sum
  // the counts into end offsets, then fill each range from its end, last
  // dependent first, which leaves every dep_begin at its range's begin.
  for (std::uint32_t op = 0; op < op_count_; ++op)
    if (ops_[op].prereq != kNone32) ++ops_[ops_[op].prereq].dep_begin;
  for (std::uint32_t op = 1; op <= op_count_; ++op)
    ops_[op].dep_begin += ops_[op - 1].dep_begin;
  dep_ops_.resize(ops_[op_count_].dep_begin);
  for (std::uint32_t op = op_count_; op-- > 0;)
    if (ops_[op].prereq != kNone32)
      dep_ops_[--ops_[ops_[op].prereq].dep_begin] = op;

  // Per-processor kill lists, count then fill: the ops that die when p is
  // dead from the start, as in the naive kill_dead_processors (a list's
  // order is free: the closure over it is a least fixpoint).
  const Topology& topology = schedule_->platform().topology();
  const auto link_of = [&](std::size_t res) -> const LinkDef& {
    return topology.link(
        LinkId(static_cast<LinkId::value_type>(res - 3 * m_)));
  };
  // A wire or segment that forwards to a further segment (its one
  // dependent) also dies with the router it forwards to.
  const auto forwards = [&](const HotOp& o) {
    return ops_[dep_ops_[o.dep_begin]].kind == kSegment;
  };
  const auto for_each_kill = [&](auto&& visit) {
    for (std::uint32_t op = 0; op < op_count_; ++op) {
      const HotOp& o = ops_[op];
      switch (o.kind) {
        case kExec:
          visit(static_cast<std::size_t>(o.owner), op);
          break;
        case kWire:
          visit(o.res_a - m_, op);  // dies with its sender port
          if (forwards(o)) visit(link_of(o.res_b).to.index(), op);
          break;
        case kSegment:
          visit(link_of(o.res_a).from.index(), op);
          if (forwards(o)) visit(link_of(o.res_a).to.index(), op);
          break;
        case kReception:
          visit(o.res_a - 2 * m_, op);
          break;
        default:
          break;  // hand-offs die only via propagation
      }
    }
  };
  kill_begin_.assign(m_ + 1, 0);
  for_each_kill([&](std::size_t p, std::uint32_t) { ++kill_begin_[p + 1]; });
  counts_to_offsets(kill_begin_);
  kill_ops_.resize(kill_begin_[m_]);
  std::vector<std::uint32_t> kill_cursor(kill_begin_.begin(),
                                         kill_begin_.end() - 1);
  for_each_kill([&](std::size_t p, std::uint32_t op) {
    kill_ops_[kill_cursor[p]++] = op;
  });

  // Drop the links that can never bind (header, "Event selection"): a link
  // whose queue holds only first-hop wires of one sender port, or nothing.
  // The kill lists above have read the link ids; the kept links are
  // renumbered after the 3m processor resources, which keep their ids.
  std::vector<std::uint32_t> renumber(resource_count_, kNone32);
  std::uint32_t kept = 0;
  for (std::uint32_t res = 0; res < resource_count_; ++res) {
    bool redundant = res >= 3 * m_;
    for (std::uint32_t i = queue_begin_[res];
         redundant && i < queue_begin_[res + 1]; ++i) {
      const HotOp& o = ops_[queue_ops_[i]];
      redundant = o.kind == kWire && o.res_b == res &&
                  o.res_a == ops_[queue_ops_[queue_begin_[res]]].res_a;
    }
    if (!redundant) renumber[res] = kept++;
  }
  // Kept queues move down in place: a queue never moves past its old start.
  std::uint32_t out = 0;
  for (std::uint32_t res = 0; res < resource_count_; ++res) {
    if (renumber[res] == kNone32) continue;
    const std::uint32_t first = queue_begin_[res];
    const std::uint32_t last = queue_begin_[res + 1];
    queue_begin_[renumber[res]] = out;
    for (std::uint32_t i = first; i < last; ++i)
      queue_ops_[out++] = queue_ops_[i];
  }
  queue_begin_[kept] = out;
  queue_begin_.resize(kept + 1);
  queue_ops_.resize(out);
  for (HotOp& o : ops_) {
    // A segment's link carries that segment, so it is never dropped; a
    // wire's link may be, and the wire then holds its send port alone.
    if (o.res_a != kNone32) o.res_a = renumber[o.res_a];
    if (o.res_b != kNone32) o.res_b = renumber[o.res_b];
  }
  resource_count_ = kept;
}

void ReplayEngine::reset_pristine(Scratch& s) const {
  s.state.assign(op_count_, kPending);
  // Times need no clearing: they are only ever read for ops in the kDone
  // state, which always receive fresh values at their commit.
  s.times.resize(op_count_);
  s.cursor.assign(queue_begin_.begin(), queue_begin_.end() - 1);
  s.head_op.resize(resource_count_);
  for (std::uint32_t res = 0; res < resource_count_; ++res)
    s.head_op[res] = queue_begin_[res] < queue_begin_[res + 1]
                         ? queue_ops_[queue_begin_[res]]
                         : kNone32;
  s.free_at.assign(resource_count_, 0.0);
  s.ready_handoffs.clear();  // no source exec has committed yet
  const std::size_t slots = slot_exec_.size();
  s.arrival.assign(slots, kInf);
  s.waiting.resize(exec_op_begin_.back());
  for (std::uint32_t e = 0; e < s.waiting.size(); ++e)
    s.waiting[e] = ops_[e + 1].slot_begin - ops_[e].slot_begin;
  s.dead_inputs.assign(slots, 0);
  s.worklist.clear();
  s.tree.resize(2 * resource_count_);
  s.dirty_flag.assign(resource_count_, 0);
  s.dirty_resources.clear();
  s.all_dirty = true;
  s.order_relaxations = 0;
  s.order_deadlock = false;
  s.died = false;
}

void ReplayEngine::restore_cut(Scratch& s, std::size_t commits) const {
  // Header, "Fault-free cuts"; no op is dead anywhere on the prefix.
  reset_pristine(s);
  for (std::uint32_t op = 0; op < op_count_; ++op)
    s.state[op] = commit_at_[op] < commits ? kDone : kPending;
  std::copy(ff_times_.begin(), ff_times_.end(), s.times.begin());
  // Every done input counts as its commit counted it; the min over a
  // slot's inputs does not depend on the order they are met in.
  for (std::uint32_t slot = 0; slot < slot_exec_.size(); ++slot)
    for (std::uint32_t i = slot_input_begin_[slot];
         i < slot_input_begin_[slot + 1]; ++i)
      if (s.state[slot_inputs_[i]] == kDone)
        (void)arrive(s, slot, ff_times_[slot_inputs_[i]].finish);
  // Hand-offs hold no resource: no queue head rediscovers them. Each waits
  // on the ready heap, keyed as its source's commit pushed it.
  for (const std::uint32_t op : handoff_ops_) {
    const std::uint32_t source = ops_[op].prereq;
    if (s.state[op] == kPending && s.state[source] == kDone)
      s.ready_handoffs.push_back({ff_times_[source].finish, op});
  }
  std::make_heap(s.ready_handoffs.begin(), s.ready_handoffs.end(),
                 Candidate::after);
  for (std::uint32_t res = 0; res < resource_count_; ++res) {
    const std::uint32_t cursor = queue_begin_[res] + done_in_queue(res, commits);
    s.cursor[res] = cursor;
    s.head_op[res] =
        cursor < queue_begin_[res + 1] ? queue_ops_[cursor] : kNone32;
    s.free_at[res] = queue_clock_[cursor + res];
  }
}

std::uint32_t ReplayEngine::done_in_queue(std::size_t res,
                                          std::size_t commits) const {
  const auto first = queue_ops_.begin() + queue_begin_[res];
  return static_cast<std::uint32_t>(
      std::partition_point(first, queue_ops_.begin() + queue_begin_[res + 1],
                           [&](std::uint32_t op) {
                             return commit_at_[op] < commits;
                           }) -
      first);
}

std::size_t ReplayEngine::pick_cut(std::span<const double> crash) const {
  // A processor dead (or dying) at t <= 0 invalidates the whole prefix: the
  // naive replay pre-kills its ops before the first event.
  for (const double t : crash)
    if (t <= 0.0) return 0;
  // The first commit a crash changes is the earliest one of an op whose
  // owner dies before it finishes. Processor p owns exactly the ops of its
  // exec, send and receive queues, and commits rise along each queue, so
  // the first op whose prefix-max clock exceeds θ_p is that queue's
  // earliest such commit.
  std::size_t cut = commit_count_;
  for (std::size_t p = 0; p < m_ && cut > 0; ++p) {
    const double theta = crash[p];
    if (theta == kInf) continue;
    for (const std::size_t res : {p, m_ + p, 2 * m_ + p}) {
      const std::uint32_t first = queue_begin_[res];
      const std::uint32_t size = queue_begin_[res + 1] - first;
      const double* clock = queue_clock_.data() + first + res + 1;
      const auto late = static_cast<std::uint32_t>(
          std::partition_point(clock, clock + size,
                               [theta](double c) { return c <= theta; }) -
          clock);
      if (late < size)
        cut = std::min<std::size_t>(cut, commit_at_[queue_ops_[first + late]]);
    }
  }
  return cut;
}

bool ReplayEngine::arrive(Scratch& s, std::uint32_t slot,
                          double finish) const {
  // The naive scan's `first = min(first, finish)` over done inputs, kept
  // as it goes; a slot waits while its arrival is +inf.
  double& arrival = s.arrival[slot];
  if (!(finish < arrival)) return false;
  if (arrival == kInf) --s.waiting[slot_exec_[slot]];
  arrival = finish;
  return true;
}

void ReplayEngine::kill(Scratch& s, std::uint32_t op) const {
  s.state[op] = kDead;
  s.worklist.push_back(op);
}

void ReplayEngine::propagate(Scratch& s) const {
  // Worklist closure of the naive propagate_dead fixpoint: a dead
  // prerequisite kills its dependents; an exec dies when some in-edge has
  // every input dead. The resulting state set is the same least fixpoint
  // the naive full-scan loop computes. It serves both kinds of death: the
  // dead-from-start kill lists `replay` pre-kills from the pristine state
  // (where all_dirty is still set, so the marking below is a no-op and the
  // first commit rebuilds the tree), and every θ-death wave.
  //
  // Targeted invalidation. Between steps every tree leaf holds its
  // resource's current candidate, or (kInf, none) while that candidate is
  // a wire whose other resource's leaf holds the same current (ready, op)
  // (commit_next relies on this when a wire newly heads its send port), so
  // the root is the true winner either way. A resource's candidate reads
  // its head op h: h's state, at_heads(h), h's prerequisite state and
  // times, h's slot counts and arrivals when h is an exec, and the clocks
  // of h's resources. A death wave (the θ-killed op, its processor's
  // clocks set to +inf, everything that dies below) changes these only
  //  * on the resources of a killed op: its state, and the head cursors
  //    (only killed ops' resources are advanced);
  //  * on the dead processor's three resources: their clocks (commit_next
  //    marks them before calling here);
  //  * on the other resource of the final head h of any resource above:
  //    at_heads(h) reads that resource's head, and h's ready time its
  //    clock.
  // Nothing else moves: a killed op was pending, so no slot's arrival or
  // waiting count changes (the whole slot dying kills its exec); a dead
  // prerequisite kills its pending dependent; no done op's times change;
  // and a hand-off dies only through its source exec, before it was ever
  // runnable, so the ready heap stays exact. Every leaf whose value may
  // change is therefore recomputed, and a (kInf, none) leaf left alone
  // keeps a correct partner: had the partner changed, it would have been
  // recomputed too.
  while (!s.worklist.empty()) {
    const std::uint32_t op = s.worklist.back();
    s.worklist.pop_back();
    const HotOp& o = ops_[op];
    for (std::uint32_t i = o.dep_begin; i < ops_[op + 1].dep_begin; ++i) {
      const std::uint32_t d = dep_ops_[i];
      if (s.state[d] == kPending) kill(s, d);
    }
    if (o.feed_slot != kNone32) {
      const std::uint32_t slot = o.feed_slot;
      const std::uint32_t total =
          slot_input_begin_[slot + 1] - slot_input_begin_[slot];
      if (++s.dead_inputs[slot] == total) {
        const std::uint32_t e = slot_exec_[slot];
        if (s.state[e] == kPending) kill(s, e);
      }
    }
    // A settled op at a queue head unblocks whatever sits behind it.
    if (o.res_a != kNone32) {
      advance_resource(s, o.res_a);
      mark_dirty(s, o.res_a);
    }
    if (o.res_b != kNone32) {
      advance_resource(s, o.res_b);
      mark_dirty(s, o.res_b);
    }
  }
  // The third rule. Partners added here need no pass of their own: neither
  // their head nor their clock moved (else the loop above marked them).
  const std::size_t touched = s.dirty_resources.size();
  for (std::size_t i = 0; i < touched; ++i) {
    const std::uint32_t res = s.dirty_resources[i];
    const std::uint32_t h = s.head_op[res];
    if (h == kNone32) continue;
    const HotOp& o = ops_[h];
    const std::uint32_t other = o.res_a == res ? o.res_b : o.res_a;
    if (other != kNone32) mark_dirty(s, other);
  }
}

void ReplayEngine::advance_resource(Scratch& s, std::uint32_t res) const {
  const std::uint32_t end = queue_begin_[res + 1];
  std::uint32_t at = s.cursor[res];
  while (at < end && s.state[queue_ops_[at]] != kPending) ++at;
  s.cursor[res] = at;
  s.head_op[res] = at < end ? queue_ops_[at] : kNone32;
}

bool ReplayEngine::heads(const Scratch& s, std::uint32_t res,
                         std::uint32_t op) const {
  return s.head_op[res] == op;
}

bool ReplayEngine::at_heads(const Scratch& s, std::uint32_t op) const {
  const HotOp& o = ops_[op];
  if (o.res_a != kNone32 && !heads(s, o.res_a, op)) return false;
  return o.res_b == kNone32 || heads(s, o.res_b, op);
}

bool ReplayEngine::runnable(const Scratch& s, std::uint32_t op,
                            double& ready) const {
  const HotOp& o = ops_[op];
  ready = 0.0;
  if (o.prereq != kNone32) {
    if (s.state[o.prereq] != kDone) return false;
    ready = o.prereq_is_start ? s.times[o.prereq].start
                              : s.times[o.prereq].finish;
  }
  if (o.kind == kExec) {
    if (s.waiting[op] != 0) return false;  // an edge has no live input yet
    for (std::uint32_t slot = o.slot_begin; slot < ops_[op + 1].slot_begin;
         ++slot)
      ready = std::max(ready, s.arrival[slot]);
  }
  if (o.res_a != kNone32) ready = std::max(ready, s.free_at[o.res_a]);
  if (o.res_b != kNone32) ready = std::max(ready, s.free_at[o.res_b]);
  return true;
}

ReplayEngine::Candidate ReplayEngine::head_candidate(const Scratch& s,
                                                     std::uint32_t res) const {
  // Exactly what the naive per-commit consider() computes for this
  // resource's queue head; (kInf, kNone32) can never win a selection.
  Candidate candidate{kInf, kNone32};
  const std::uint32_t op = s.head_op[res];
  double ready = 0.0;
  if (op != kNone32 && s.state[op] == kPending && at_heads(s, op) &&
      runnable(s, op, ready))
    candidate = {ready, op};
  return candidate;
}

void ReplayEngine::update_leaf(Scratch& s, std::uint32_t res) const {
  ++s.leaf_refresh_count;
  std::size_t node = resource_count_ + res;
  const Candidate leaf = head_candidate(s, res);
  if (leaf == s.tree[node]) return;
  s.tree[node] = leaf;
  // Replay the matches on the path to the root; a node whose winner comes
  // out unchanged leaves every node above it unchanged too.
  for (node /= 2; node != 0; node /= 2) {
    const Candidate* pair = &s.tree[2 * node];
    const Candidate winner = pair[pair[1].before(pair[0]) ? 1 : 0];
    if (winner == s.tree[node]) return;
    s.tree[node] = winner;
  }
}

void ReplayEngine::rebuild_tree(Scratch& s) const {
  const std::size_t leaves = resource_count_;
  for (std::uint32_t res = 0; res < leaves; ++res)
    s.tree[leaves + res] = head_candidate(s, res);
  for (std::size_t node = leaves - 1; node != 0; --node) {
    const Candidate& left = s.tree[2 * node];
    const Candidate& right = s.tree[2 * node + 1];
    s.tree[node] = right.before(left) ? right : left;
  }
  ++s.refresh_count;
}

void ReplayEngine::mark_dirty(Scratch& s, std::uint32_t res) const {
  if (s.all_dirty || s.dirty_flag[res] != 0) return;
  s.dirty_flag[res] = 1;
  s.dirty_resources.push_back(res);
}

bool ReplayEngine::commit_next(Scratch& s, std::span<const double> crash,
                               std::uint32_t* committed) const {
  s.died = false;
  // Discrete-event step, exactly the naive selection: among the queue-head
  // operations (plus resource-free hand-offs) whose prerequisites are met,
  // commit the one with the earliest candidate start; lowest op id breaks
  // ties. Instead of re-deriving every head's readiness each step, the
  // Scratch keeps the per-resource candidates in a tournament tree and
  // refreshes only the leaves of the resources the previous step could
  // have affected; the root is then the best queue head and the top of the
  // ready heap the best hand-off. Candidate values come from the same
  // at_heads/runnable code and compete under the naive order
  // (Candidate::before), so the selected (ready, op) — tie-breaks, ±inf
  // conventions and IEEE arithmetic included — is bit-identical to the
  // full rescan.
  if (s.all_dirty) {
    rebuild_tree(s);
    s.all_dirty = false;
    s.dirty_resources.clear();
    std::fill(s.dirty_flag.begin(), s.dirty_flag.end(), 0);
  } else {
    for (const std::uint32_t res : s.dirty_resources) {
      s.dirty_flag[res] = 0;
      update_leaf(s, res);
    }
    s.dirty_resources.clear();
  }

  Candidate pick = s.tree[1];
  std::vector<Candidate>& heap = s.ready_handoffs;
  while (!heap.empty() && s.state[heap.front().op] != kPending) {
    std::pop_heap(heap.begin(), heap.end(), Candidate::after);
    heap.pop_back();
  }
  if (!heap.empty() && heap.front().before(pick)) pick = heap.front();

  if (pick.op == kNone32) {
    // Strict committed order stuck (circular wait through rerouted inputs —
    // possible only under crashes): any prerequisite-ready op may jump the
    // queue; the resource clocks still serialize everything.
    for (std::uint32_t op = 0; op < op_count_; ++op) {
      if (s.state[op] != kPending) continue;
      Candidate candidate{0.0, op};
      if (runnable(s, op, candidate.ready) && candidate.before(pick))
        pick = candidate;
    }
    if (pick.op != kNone32) {
      ++s.order_relaxations;
      // A queue-jumping commit moves resource clocks under ops that never
      // headed a queue — no targeted invalidation covers that, so refresh
      // everything next step (relaxations are rare: zero fault-free).
      s.all_dirty = true;
    }
  }
  const std::uint32_t best = pick.op;
  const double best_start = pick.ready;
  if (best == kNone32) {
    // Nothing can ever run again: remaining pending work is lost.
    for (std::uint32_t op = 0; op < op_count_; ++op)
      if (s.state[op] == kPending) {
        s.order_deadlock = true;
        break;
      }
    if (s.order_deadlock)
      for (std::uint32_t op = 0; op < op_count_; ++op)
        if (s.state[op] == kPending) s.state[op] = kDead;
    return false;
  }

  ++s.commit_count;
  const HotOp& o = ops_[best];
  const double finish = best_start + o.duration;
  s.times[best] = {best_start, finish};
  if (committed != nullptr) *committed = best;

  // Crash-at-θ: work in flight when the owner dies is lost, and the owner's
  // resources are gone for good.
  const std::int32_t owner = o.owner;
  if (owner >= 0 && finish > crash[static_cast<std::size_t>(owner)]) {
    kill(s, best);
    s.died = true;
    const auto p = static_cast<std::size_t>(owner);
    s.free_at[p] = kInf;           // exec resource
    s.free_at[m_ + p] = kInf;      // send port
    s.free_at[2 * m_ + p] = kInf;  // receive port
    // The caller runs propagate(), which advances and marks this op's
    // resources and those of everything that dies with it; the clocks that
    // just moved are marked here (the argument is in propagate).
    mark_dirty(s, static_cast<std::uint32_t>(p));
    mark_dirty(s, static_cast<std::uint32_t>(m_ + p));
    mark_dirty(s, static_cast<std::uint32_t>(2 * m_ + p));
    return true;
  }

  s.state[best] = kDone;
  for (const std::uint32_t res : {o.res_a, o.res_b}) {
    if (res == kNone32) continue;
    s.free_at[res] = std::max(s.free_at[res], finish);
    advance_resource(s, res);
    mark_dirty(s, res);
  }
  // Targeted invalidation — the commit can only change the candidacy of:
  // ops behind it on its own resources (heads and clocks moved, covered
  // above); its prerequisite dependents (now satisfiable); and the exec one
  // of whose input slots it feeds, and that only when the slot's arrival
  // dropped and no slot of the exec is left waiting (else the exec's
  // runnable() answer and ready time stand). A leaf reads only its queue
  // head, so a dependent or fed exec marks a resource only where it heads
  // the queue; one further back is read when the ops ahead of it settle,
  // and those mark the resource.
  // A wire that now heads best's queue may head its other queue too; that
  // leaf keeps (kInf, none), which is harmless because the refreshed leaf
  // of best's resource carries the same (ready, op) (see the invariant in
  // propagate). A hand-off dependent holds no resource and its only
  // prerequisite is this op, so from now on it is runnable at ready time
  // `finish`, for good: it goes on the ready heap.
  for (std::uint32_t i = o.dep_begin; i < ops_[best + 1].dep_begin; ++i) {
    const std::uint32_t d = dep_ops_[i];
    const HotOp& dep = ops_[d];
    if (dep.kind == kHandoff) {
      s.ready_handoffs.push_back({finish, d});
      std::push_heap(s.ready_handoffs.begin(), s.ready_handoffs.end(),
                     Candidate::after);
      continue;
    }
    if (dep.res_a != kNone32 && heads(s, dep.res_a, d))
      mark_dirty(s, dep.res_a);
    if (dep.res_b != kNone32 && heads(s, dep.res_b, d))
      mark_dirty(s, dep.res_b);
  }
  if (o.feed_slot != kNone32 && arrive(s, o.feed_slot, finish)) {
    const std::uint32_t e = slot_exec_[o.feed_slot];
    const std::uint32_t res = ops_[e].res_a;
    if (s.waiting[e] == 0 && heads(s, res, e)) mark_dirty(s, res);
  }
  return true;
}

void ReplayEngine::collect(Scratch& s) const {
  // Fills the Scratch-owned result in place: every buffer keeps its
  // capacity from the previous replay, so a warm replay allocates nothing.
  const std::size_t tasks = exec_op_begin_.size() - 1;
  CrashResult& result = s.result;
  result.order_deadlock = s.order_deadlock;
  result.order_relaxations = s.order_relaxations;
  result.completed.resize(tasks);
  result.finish.resize(tasks);
  result.success = true;
  double latency = 0.0;
  for (std::size_t t = 0; t < tasks; ++t) {
    const std::uint32_t begin = exec_op_begin_[t];
    const std::size_t total = exec_op_begin_[t + 1] - begin;
    std::vector<bool>& completed = result.completed[t];
    std::vector<double>& finish = result.finish[t];
    completed.assign(total, false);
    finish.assign(total, kInf);
    double first = kInf;
    for (std::size_t r = 0; r < total; ++r) {
      const std::uint32_t op = begin + static_cast<std::uint32_t>(r);
      if (s.state[op] == kDone) {
        completed[r] = true;
        finish[r] = s.times[op].finish;
        first = std::min(first, s.times[op].finish);
      }
    }
    if (first == kInf) {
      result.success = false;
    } else {
      latency = std::max(latency, first);
    }
  }
  result.latency = result.success ? latency : kInf;

  std::size_t delivered = 0;
  for (std::uint32_t op = 0; op < op_count_; ++op)
    if (counts_message_[op] != 0 && s.state[op] == kDone) ++delivered;
  result.delivered_messages = delivered;
}

void ReplayEngine::record_fault_free() {
  const std::vector<double> never(m_, kInf);
  Scratch s;
  reset_pristine(s);
  // The one fault-free pass: every op commits once; record its index.
  commit_at_.resize(op_count_);
  std::uint32_t committed = kNone32;
  while (commit_next(s, never, &committed))
    commit_at_[committed] = static_cast<std::uint32_t>(commit_count_++);
  CAFT_CHECK_MSG(!s.order_deadlock,
                 "fault-free replay of a complete schedule deadlocked");
  if (commit_count_ == 0) return;
  ff_times_ = std::move(s.times);

  // No order relaxation runs fault-free, so commits rise along every queue
  // and the done ops at any cut are a prefix of each queue (done_in_queue),
  // whose clock is their max finish.
  queue_clock_.assign(queue_ops_.size() + resource_count_, 0.0);
  for (std::uint32_t res = 0; res < resource_count_; ++res)
    for (std::uint32_t i = queue_begin_[res]; i < queue_begin_[res + 1]; ++i) {
      CAFT_CHECK(i == queue_begin_[res] ||
                 commit_at_[queue_ops_[i - 1]] < commit_at_[queue_ops_[i]]);
      queue_clock_[i + res + 1] =
          std::max(queue_clock_[i + res], ff_times_[queue_ops_[i]].finish);
    }
}

CrashResult ReplayEngine::replay(const CrashScenario& scenario) const {
  Scratch scratch;
  (void)replay(scenario, scratch);
  return std::move(scratch.result);
}

const CrashResult& ReplayEngine::replay(const CrashScenario& scenario,
                                        Scratch& scratch) const {
  CAFT_CHECK_MSG(scenario.proc_count() == m_,
                 "scenario size does not match the platform");
  // The scenario checked its times when they were set; from here the
  // kernel reads them unchecked.
  const std::span<const double> crash = scenario.crash_times();
  const std::size_t cut = pick_cut(crash);
  if (cut == 0) {
    reset_pristine(scratch);
    // Dead-from-start closure: pre-kill each dead processor's ops from the
    // kill lists (the naive kill_dead_processors) and close over the
    // consequences with the worklist (its propagate_dead fixpoint).
    for (std::size_t p = 0; p < m_; ++p) {
      if (crash[p] > 0.0) continue;
      for (std::uint32_t i = kill_begin_[p]; i < kill_begin_[p + 1]; ++i)
        if (scratch.state[kill_ops_[i]] == kPending)
          kill(scratch, kill_ops_[i]);
    }
    propagate(scratch);
  } else {
    restore_cut(scratch, cut);
  }
  while (commit_next(scratch, crash, nullptr))
    if (scratch.died) propagate(scratch);
  collect(scratch);
  return scratch.result;
}

ReplayEngine::Canonical ReplayEngine::canonicalize(
    std::span<const double> crash_times, std::span<double> times) const {
  CAFT_CHECK_MSG(crash_times.size() == m_ && times.size() == m_,
                 "scenario size does not match the platform");
  const double width = options_.theta_bucket_width;
  const bool quantize = width > 0.0;
  Canonical kind = Canonical::kExact;
  for (std::size_t p = 0; p < m_; ++p) {
    const double t = crash_times[p];
    if (!(t > 0.0 && t < kInf)) {
      CAFT_CHECK_MSG(!std::isnan(t), "crash time must not be NaN");
      CAFT_CHECK_MSG(t >= 0.0, "crash time must be non-negative");
      // Dead from the start (+0.0 for either zero) or never.
      times[p] = t == 0.0 ? 0.0 : kInf;
    } else if (kind != Canonical::kUnique) {
      // A finite positive crash time rules out the dead-set form; it stays
      // canonical only via a θ bucket whose index fits 32 bits. A kUnique
      // draw still has its remaining times checked.
      const double bucket = quantize ? std::floor(t / width) : kInf;
      if (bucket < 4294967295.0) {
        times[p] = (bucket + 0.5) * width;  // bucket midpoint
        kind = Canonical::kQuantized;
      } else {
        kind = Canonical::kUnique;
      }
    }
  }
  return kind;
}

}  // namespace caft
