#include "sim/crash_sim.hpp"

#include <algorithm>
#include <cmath>
#include <deque>

#include "common/check.hpp"

namespace caft {

CrashScenario CrashScenario::none(std::size_t proc_count) {
  return CrashScenario(std::vector<double>(
      proc_count, std::numeric_limits<double>::infinity()));
}

CrashScenario CrashScenario::at_zero(std::size_t proc_count,
                                     const std::vector<ProcId>& failed) {
  CrashScenario scenario = none(proc_count);
  for (const ProcId p : failed) scenario.set_crash_time(p, 0.0);
  return scenario;
}

CrashScenario::CrashScenario(std::vector<double> crash_times)
    : crash_time_(std::move(crash_times)) {
  for (const double t : crash_time_) {
    CAFT_CHECK_MSG(!std::isnan(t), "crash time must not be NaN");
    CAFT_CHECK_MSG(t >= 0.0, "crash time must be non-negative");
  }
}

double CrashScenario::crash_time(ProcId p) const {
  CAFT_CHECK_MSG(p.index() < crash_time_.size(),
                 "processor id out of range for this scenario");
  return crash_time_[p.index()];
}

void CrashScenario::set_crash_time(ProcId p, double time) {
  CAFT_CHECK_MSG(p.index() < crash_time_.size(),
                 "processor id out of range for this scenario");
  CAFT_CHECK_MSG(!std::isnan(time), "crash time must not be NaN");
  CAFT_CHECK_MSG(time >= 0.0, "crash time must be non-negative");
  crash_time_[p.index()] = time;
}

std::size_t CrashScenario::failed_count() const {
  return static_cast<std::size_t>(
      std::count_if(crash_time_.begin(), crash_time_.end(), [](double t) {
        return t < std::numeric_limits<double>::infinity();
      }));
}

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr std::size_t kNone = static_cast<std::size_t>(-1);

enum class OpKind : std::uint8_t {
  kExec,       ///< replica execution on its processor
  kWire,       ///< first hop: holds the sender port and the first link
  kSegment,    ///< later hop of a multi-link route: holds one link
  kReception,  ///< reception at the destination's receive port
  kHandoff,    ///< intra-processor hand-off or macro-dataflow transfer
};

enum class OpState : std::uint8_t { kPending, kDone, kDead };

struct Op {
  OpKind kind;
  OpState state = OpState::kPending;
  double duration = 0.0;
  double start = 0.0;
  double finish = 0.0;

  // Resources this op holds (kNone if unused). res_b only for kWire.
  std::size_t res_a = kNone;
  std::size_t res_b = kNone;

  // Conjunctive prerequisite: finish-of (kPrevFinish) or start-of
  // (kPrevStart, used by receptions overlapping the last wire segment).
  std::size_t prereq = kNone;
  bool prereq_is_start = false;

  // kExec bookkeeping.
  TaskId task;
  ReplicaIndex replica = 0;
  ProcId proc;

  // kReception / kHandoff: which comm this op terminates.
  std::size_t comm_index = kNone;

  // kWire / kSegment: true when this hop delivers onto the destination
  // processor (a blind send into a dead receiver still happens; forwarding
  // through a dead router does not).
  bool final_hop = false;
};

/// The replay machine; see the header for the semantics.
class Replay {
 public:
  Replay(const Schedule& schedule, const CostModel& costs,
         const CrashScenario& scenario)
      : schedule_(schedule), costs_(costs), scenario_(scenario) {
    build_ops();
    kill_dead_processors();
  }

  CrashResult run() {
    propagate_dead();
    // propagate_dead is only needed again when a commit kills an op
    // (crash-at-θ); commit_next reports that through died_.
    while (commit_next())
      if (died_) propagate_dead();
    return collect();
  }

 private:
  // Resource id layout: execs [0, m), send ports [m, 2m), receive ports
  // [2m, 3m), links [3m, 3m + L).
  std::size_t exec_res(ProcId p) const { return p.index(); }
  std::size_t send_res(ProcId p) const { return m_ + p.index(); }
  std::size_t recv_res(ProcId p) const { return 2 * m_ + p.index(); }
  std::size_t link_res(LinkId l) const { return 3 * m_ + l.index(); }

  void build_ops();
  void kill_dead_processors();
  void propagate_dead();
  void advance_heads();
  bool commit_next();
  CrashResult collect();

  /// True iff op's prerequisites (conjunctive + disjunctive inputs for
  /// execs) are satisfied; fills the earliest allowed start.
  bool runnable(std::size_t op, double& ready) const;

  /// True iff `op` is at the head of every resource queue it needs.
  bool at_heads(std::size_t op) const;

  const Schedule& schedule_;
  const CostModel& costs_;
  const CrashScenario& scenario_;
  std::size_t m_ = 0;

  std::vector<Op> ops_;
  /// exec_op_[task][replica] = op id.
  std::vector<std::vector<std::size_t>> exec_op_;
  /// Per exec op: for each in-edge, the terminating (reception/hand-off) op
  /// ids feeding it.
  std::vector<std::vector<std::vector<std::size_t>>> exec_inputs_;

  /// Per resource: op ids in committed order + a head cursor + a free time.
  std::vector<std::vector<std::size_t>> queue_;
  std::vector<std::size_t> head_;
  std::vector<double> free_;

  /// Resource-free ops (intra hand-offs / macro-dataflow transfers) that are
  /// still pending — they are always eligible, so they get their own list.
  std::vector<std::size_t> handoffs_;

  bool order_deadlock_ = false;
  std::size_t order_relaxations_ = 0;
  bool died_ = false;  ///< did the last commit_next kill an op (crash-at-θ)?
};

void Replay::build_ops() {
  const TaskGraph& g = schedule_.graph();
  m_ = schedule_.platform().proc_count();
  const std::size_t link_count = schedule_.platform().topology().link_count();
  queue_.assign(3 * m_ + link_count, {});
  head_.assign(queue_.size(), 0);
  free_.assign(queue_.size(), 0.0);

  struct Keyed {
    double key;
    std::size_t seq;
    std::size_t op;
    std::size_t res;
  };
  std::vector<Keyed> keyed;

  // Execution ops.
  exec_op_.assign(g.task_count(), {});
  std::size_t seq = 0;
  for (const TaskId t : g.all_tasks()) {
    const std::size_t total = schedule_.total_replicas(t);
    exec_op_[t.index()].resize(total);
    for (ReplicaIndex r = 0; r < total; ++r) {
      const ReplicaAssignment& a = schedule_.replica(t, r);
      Op op;
      op.kind = OpKind::kExec;
      op.duration = a.finish - a.start;
      op.task = t;
      op.replica = r;
      op.proc = a.proc;
      op.res_a = exec_res(a.proc);
      exec_op_[t.index()][r] = ops_.size();
      keyed.push_back({a.start, seq++, ops_.size(), op.res_a});
      ops_.push_back(op);
    }
  }

  // Communication chains.
  for (std::size_t ci = 0; ci < schedule_.comms().size(); ++ci) {
    const CommAssignment& c = schedule_.comms()[ci];
    const std::size_t source_exec =
        exec_op_[c.from.task.index()][c.from.replica];

    if (c.intra() || schedule_.model() == CommModelKind::kMacroDataflow) {
      Op op;
      op.kind = OpKind::kHandoff;
      op.duration = c.times.arrival - c.times.link_start;
      op.prereq = source_exec;
      op.comm_index = ci;
      op.task = c.to.task;
      op.replica = c.to.replica;
      handoffs_.push_back(ops_.size());
      ops_.push_back(op);
      continue;
    }

    // One-port chain: wire, optional extra segments, reception.
    const auto hops = schedule_.hops(c);
    CAFT_CHECK_MSG(!hops.empty(),
                   "one-port inter-processor comm without segments");
    std::size_t prev = kNone;
    for (std::size_t si = 0; si < hops.size(); ++si) {
      const LinkOccupancy& seg = hops[si];
      Op op;
      op.kind = si == 0 ? OpKind::kWire : OpKind::kSegment;
      op.final_hop = si + 1 == hops.size();
      op.duration = seg.finish - seg.start;
      op.prereq = si == 0 ? source_exec : prev;
      if (si == 0) {
        op.res_a = send_res(c.src_proc);
        op.res_b = link_res(seg.link);
        keyed.push_back({seg.start, seq++, ops_.size(), op.res_a});
        keyed.push_back({seg.start, seq, ops_.size(), op.res_b});
      } else {
        op.res_a = link_res(seg.link);
        keyed.push_back({seg.start, seq++, ops_.size(), op.res_a});
      }
      prev = ops_.size();
      ops_.push_back(op);
    }
    Op recv;
    recv.kind = OpKind::kReception;
    recv.duration = c.times.arrival - c.times.recv_start;
    recv.prereq = prev;
    recv.prereq_is_start = true;  // reception overlaps the last hop
    recv.res_a = recv_res(c.dst_proc);
    recv.comm_index = ci;
    recv.task = c.to.task;
    recv.replica = c.to.replica;
    keyed.push_back({c.times.recv_start, seq++, ops_.size(), recv.res_a});
    ops_.push_back(recv);
  }

  // Resource queues in committed order.
  std::sort(keyed.begin(), keyed.end(), [](const Keyed& a, const Keyed& b) {
    if (a.key != b.key) return a.key < b.key;
    return a.seq < b.seq;
  });
  for (const Keyed& k : keyed) queue_[k.res].push_back(k.op);

  // Input map: per exec op, the terminating (reception/hand-off) ops per
  // in-edge, in comm order. Terminating ops carry their comm index, so
  // invert that first.
  exec_inputs_.assign(ops_.size(), {});
  std::vector<std::size_t> comm_to_op(schedule_.comms().size(), kNone);
  for (std::size_t oi = 0; oi < ops_.size(); ++oi)
    if (ops_[oi].comm_index != kNone) comm_to_op[ops_[oi].comm_index] = oi;
  for (const TaskId t : g.all_tasks()) {
    const std::size_t total = schedule_.total_replicas(t);
    for (ReplicaIndex r = 0; r < total; ++r)
      exec_inputs_[exec_op_[t.index()][r]].assign(g.in_edges(t).size(), {});
  }
  for (std::size_t ci = 0; ci < schedule_.comms().size(); ++ci) {
    const CommAssignment& c = schedule_.comms()[ci];
    const std::size_t pos = g.in_position(c.edge);
    CAFT_CHECK(pos < g.in_degree(c.to.task) &&
               g.in_edges(c.to.task)[pos] == c.edge);
    CAFT_CHECK(comm_to_op[ci] != kNone);
    exec_inputs_[exec_op_[c.to.task.index()][c.to.replica]][pos].push_back(
        comm_to_op[ci]);
  }
}

void Replay::kill_dead_processors() {
  const Topology& topology = schedule_.platform().topology();
  const auto link_of = [&](std::size_t res) -> const LinkDef& {
    return topology.link(LinkId(static_cast<LinkId::value_type>(res - 3 * m_)));
  };
  for (std::size_t oi = 0; oi < ops_.size(); ++oi) {
    Op& op = ops_[oi];
    switch (op.kind) {
      case OpKind::kExec:
        if (scenario_.dead_from_start(op.proc)) op.state = OpState::kDead;
        break;
      case OpKind::kWire: {
        const std::size_t port = op.res_a - m_;
        if (scenario_.dead_from_start(
                ProcId(static_cast<ProcId::value_type>(port))))
          op.state = OpState::kDead;
        // A blind send into a dead *destination* still occupies the sender
        // port and the link (fail-silent senders do not detect the loss),
        // but a hop that needs a dead *router* to forward never happens.
        else if (!op.final_hop &&
                 scenario_.dead_from_start(link_of(op.res_b).to))
          op.state = OpState::kDead;
        break;
      }
      case OpKind::kSegment:
        // Transit originating at a dead router is impossible; so is transit
        // toward one (sparse-topology extension; a clique never has
        // segments beyond the first).
        if (scenario_.dead_from_start(link_of(op.res_a).from) ||
            (!op.final_hop &&
             scenario_.dead_from_start(link_of(op.res_a).to)))
          op.state = OpState::kDead;
        break;
      case OpKind::kReception: {
        const std::size_t port = op.res_a - 2 * m_;
        if (scenario_.dead_from_start(
                ProcId(static_cast<ProcId::value_type>(port))))
          op.state = OpState::kDead;
        break;
      }
      case OpKind::kHandoff:
        break;  // dies only via prerequisite propagation
    }
  }
}

void Replay::propagate_dead() {
  // Conjunctive prerequisites: dead prereq kills the dependent. Disjunctive
  // exec inputs: an exec dies when one of its in-edges has only dead inputs.
  bool changed = true;
  while (changed) {
    changed = false;
    for (std::size_t oi = 0; oi < ops_.size(); ++oi) {
      Op& op = ops_[oi];
      if (op.state != OpState::kPending) continue;
      if (op.prereq != kNone && ops_[op.prereq].state == OpState::kDead) {
        op.state = OpState::kDead;
        changed = true;
        continue;
      }
      if (op.kind == OpKind::kExec) {
        for (const auto& edge_inputs : exec_inputs_[oi]) {
          const bool all_dead =
              !edge_inputs.empty() &&
              std::all_of(edge_inputs.begin(), edge_inputs.end(),
                          [&](std::size_t in_op) {
                            return ops_[in_op].state == OpState::kDead;
                          });
          if (all_dead) {
            op.state = OpState::kDead;
            changed = true;
            break;
          }
        }
      }
    }
  }
  advance_heads();
}

void Replay::advance_heads() {
  // The head cursor points at the first still-pending op of each queue;
  // settled ops (done — possibly out of order — or dead) never block it.
  for (std::size_t res = 0; res < queue_.size(); ++res)
    while (head_[res] < queue_[res].size() &&
           ops_[queue_[res][head_[res]]].state != OpState::kPending)
      ++head_[res];
}

bool Replay::at_heads(std::size_t op) const {
  const Op& o = ops_[op];
  if (o.res_a != kNone &&
      (head_[o.res_a] >= queue_[o.res_a].size() ||
       queue_[o.res_a][head_[o.res_a]] != op))
    return false;
  if (o.res_b != kNone &&
      (head_[o.res_b] >= queue_[o.res_b].size() ||
       queue_[o.res_b][head_[o.res_b]] != op))
    return false;
  return true;
}

bool Replay::runnable(std::size_t op, double& ready) const {
  const Op& o = ops_[op];
  ready = 0.0;
  if (o.prereq != kNone) {
    if (ops_[o.prereq].state != OpState::kDone) return false;
    ready = o.prereq_is_start ? ops_[o.prereq].start : ops_[o.prereq].finish;
  }
  if (o.kind == OpKind::kExec) {
    for (const auto& edge_inputs : exec_inputs_[op]) {
      double first = kInf;
      for (const std::size_t in_op : edge_inputs)
        if (ops_[in_op].state == OpState::kDone)
          first = std::min(first, ops_[in_op].finish);
      if (first == kInf) return false;  // no live input yet for this edge
      ready = std::max(ready, first);
    }
  }
  if (o.res_a != kNone) ready = std::max(ready, free_[o.res_a]);
  if (o.res_b != kNone) ready = std::max(ready, free_[o.res_b]);
  return true;
}

bool Replay::commit_next() {
  died_ = false;
  // Discrete-event step: among the queue-head operations (plus resource-free
  // hand-offs) whose prerequisites are met, commit the one with the earliest
  // candidate start; lowest op id (committed sequence) breaks ties. Only
  // heads can run, so the scan is O(resources + pending hand-offs).
  std::size_t best = kNone;
  double best_start = kInf;
  const auto consider = [&](std::size_t oi) {
    const Op& o = ops_[oi];
    if (o.state != OpState::kPending) return;
    if (!at_heads(oi)) return;  // a wire must head *both* of its queues
    double ready = 0.0;
    if (!runnable(oi, ready)) return;
    if (ready < best_start || (ready == best_start && oi < best)) {
      best_start = ready;
      best = oi;
    }
  };
  for (std::size_t res = 0; res < queue_.size(); ++res)
    if (head_[res] < queue_[res].size()) consider(queue_[res][head_[res]]);
  for (std::size_t hi = 0; hi < handoffs_.size();) {
    if (ops_[handoffs_[hi]].state != OpState::kPending) {
      handoffs_[hi] = handoffs_.back();  // drop settled hand-offs
      handoffs_.pop_back();
      continue;
    }
    consider(handoffs_[hi]);
    ++hi;
  }
  if (best == kNone) {
    // The strict committed order is stuck (a circular wait through rerouted
    // inputs — possible only under crashes). Relax it: any prerequisite-
    // ready pending op may run out of order; the resource clocks still
    // serialize everything, so the one-port constraints hold.
    for (std::size_t oi = 0; oi < ops_.size(); ++oi) {
      const Op& o = ops_[oi];
      if (o.state != OpState::kPending) continue;
      double ready = 0.0;
      if (!runnable(oi, ready)) continue;
      if (ready < best_start || (ready == best_start && oi < best)) {
        best_start = ready;
        best = oi;
      }
    }
    if (best != kNone) ++order_relaxations_;
  }
  if (best == kNone) {
    // Nothing can ever run again: the remaining pending work is lost.
    for (const Op& o : ops_)
      if (o.state == OpState::kPending) {
        order_deadlock_ = true;
        break;
      }
    if (order_deadlock_)
      for (Op& o : ops_)
        if (o.state == OpState::kPending) o.state = OpState::kDead;
    return false;
  }

  Op& o = ops_[best];
  o.start = best_start;
  o.finish = best_start + o.duration;

  // Crash-at-θ: work still in flight when the processor dies is lost, and
  // the processor's resources are gone for good.
  ProcId owner = ProcId::invalid();
  if (o.kind == OpKind::kExec) owner = o.proc;
  if (o.kind == OpKind::kWire)
    owner = ProcId(static_cast<ProcId::value_type>(o.res_a - m_));
  if (o.kind == OpKind::kReception)
    owner = ProcId(static_cast<ProcId::value_type>(o.res_a - 2 * m_));
  if (owner.valid() && o.finish > scenario_.crash_time(owner)) {
    o.state = OpState::kDead;
    died_ = true;
    free_[exec_res(owner)] = kInf;
    free_[send_res(owner)] = kInf;
    free_[recv_res(owner)] = kInf;
    advance_heads();
    return true;
  }

  o.state = OpState::kDone;
  if (o.res_a != kNone) free_[o.res_a] = std::max(free_[o.res_a], o.finish);
  if (o.res_b != kNone) free_[o.res_b] = std::max(free_[o.res_b], o.finish);
  advance_heads();
  return true;
}

CrashResult Replay::collect() {
  const TaskGraph& g = schedule_.graph();
  CrashResult result;
  result.order_deadlock = order_deadlock_;
  result.order_relaxations = order_relaxations_;
  result.completed.resize(g.task_count());
  result.finish.resize(g.task_count());
  result.success = true;
  double latency = 0.0;
  for (const TaskId t : g.all_tasks()) {
    const std::size_t total = schedule_.total_replicas(t);
    result.completed[t.index()].assign(total, false);
    result.finish[t.index()].assign(total, kInf);
    double first = kInf;
    for (ReplicaIndex r = 0; r < total; ++r) {
      const Op& op = ops_[exec_op_[t.index()][r]];
      if (op.state == OpState::kDone) {
        result.completed[t.index()][r] = true;
        result.finish[t.index()][r] = op.finish;
        first = std::min(first, op.finish);
      }
    }
    if (first == kInf) {
      result.success = false;
    } else {
      latency = std::max(latency, first);
    }
  }
  result.latency = result.success ? latency : kInf;

  for (const Op& op : ops_)
    if (op.comm_index != kNone && op.state == OpState::kDone &&
        !schedule_.comms()[op.comm_index].intra())
      ++result.delivered_messages;
  return result;
}

}  // namespace

CrashResult simulate_crashes(const Schedule& schedule, const CostModel& costs,
                             const CrashScenario& scenario) {
  CAFT_CHECK_MSG(scenario.proc_count() == schedule.platform().proc_count(),
                 "scenario size does not match the platform");
  CAFT_CHECK_MSG(schedule.complete(), "schedule is incomplete");
  Replay replay(schedule, costs, scenario);
  return replay.run();
}

}  // namespace caft
