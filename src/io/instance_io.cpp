#include "io/instance_io.hpp"

#include <fstream>
#include <iomanip>
#include <sstream>
#include <string>

#include "common/check.hpp"

namespace caft {

namespace {

constexpr const char* kMagic = "caft-instance";
constexpr const char* kVersion = "v1";

/// Full round-trip precision for doubles.
std::ostream& full(std::ostream& os) {
  return os << std::setprecision(17);
}

std::string keyword(std::istream& is) {
  std::string word;
  CAFT_CHECK_MSG(static_cast<bool>(is >> word), "unexpected end of instance");
  return word;
}

void expect(std::istream& is, const std::string& expected) {
  const std::string got = keyword(is);
  CAFT_CHECK_MSG(got == expected,
                 "malformed instance: expected '" + expected + "', got '" +
                     got + "'");
}

template <typename T>
T number(std::istream& is) {
  T value{};
  CAFT_CHECK_MSG(static_cast<bool>(is >> value), "malformed number");
  return value;
}

std::string rest_of_line(std::istream& is) {
  std::string line;
  std::getline(is, line);
  // Drop the single separating space the writer emits.
  if (!line.empty() && line.front() == ' ') line.erase(0, 1);
  return line;
}

}  // namespace

void save_instance(std::ostream& os, const TaskGraph& graph,
                   const Platform& platform, const CostModel& costs,
                   const Schedule* schedule) {
  CAFT_CHECK_MSG(costs.task_count() == graph.task_count(),
                 "cost model does not match the graph");
  full(os) << kMagic << ' ' << kVersion << '\n';

  os << "graph " << graph.task_count() << ' ' << graph.edge_count() << '\n';
  for (const TaskId t : graph.all_tasks())
    os << "task " << t.value() << ' ' << graph.name(t) << '\n';
  for (const Edge& e : graph.edges())
    os << "edge " << e.src.value() << ' ' << e.dst.value() << ' ' << e.volume
       << '\n';

  // Cables: add_bidirectional emits link pairs (2k, 2k+1), so the even
  // links enumerate the cables in construction order.
  const Topology& topology = platform.topology();
  CAFT_CHECK_MSG(topology.link_count() % 2 == 0,
                 "topology links must come in bidirectional pairs");
  os << "platform " << platform.proc_count() << ' '
     << topology.link_count() / 2 << '\n';
  for (std::size_t l = 0; l < topology.link_count(); l += 2) {
    const LinkDef& def = topology.link(LinkId(static_cast<LinkId::value_type>(l)));
    os << "cable " << def.from.value() << ' ' << def.to.value() << '\n';
  }

  for (const TaskId t : graph.all_tasks())
    for (const ProcId p : platform.all_procs())
      os << "exec " << t.value() << ' ' << p.value() << ' ' << costs.exec(t, p)
         << '\n';
  for (std::size_t l = 0; l < topology.link_count(); ++l)
    os << "delay " << l << ' '
       << costs.unit_delay(LinkId(static_cast<LinkId::value_type>(l))) << '\n';

  if (schedule != nullptr) {
    CAFT_CHECK_MSG(schedule->complete(), "only complete schedules serialize");
    std::size_t duplicates = 0;
    for (const TaskId t : graph.all_tasks())
      duplicates += schedule->duplicates(t).size();
    os << "schedule " << schedule->eps() << ' '
       << (schedule->model() == CommModelKind::kOnePort ? "oneport" : "macro")
       << ' ' << duplicates << '\n';
    for (const TaskId t : graph.all_tasks())
      for (ReplicaIndex r = 0;
           r < static_cast<ReplicaIndex>(schedule->primary_count()); ++r) {
        const ReplicaAssignment& a = schedule->replica(t, r);
        os << "replica " << t.value() << ' ' << r << ' ' << a.proc.value()
           << ' ' << a.start << ' ' << a.finish << '\n';
      }
    for (const TaskId t : graph.all_tasks())
      for (const ReplicaAssignment& a : schedule->duplicates(t))
        os << "duplicate " << t.value() << ' ' << a.proc.value() << ' '
           << a.start << ' ' << a.finish << '\n';
    for (const CommAssignment& c : schedule->comms()) {
      os << "comm " << c.edge << ' ' << c.from.replica << ' ' << c.to.replica
         << ' ' << c.src_proc.value() << ' ' << c.dst_proc.value() << ' '
         << c.volume << ' ' << c.times.link_start << ' ' << c.times.link_finish
         << ' ' << c.times.send_finish << ' ' << c.times.recv_start << ' '
         << c.times.arrival << ' ' << c.hops.count;
      for (const LinkOccupancy& seg : schedule->hops(c))
        os << ' ' << seg.link.value() << ' ' << seg.start << ' ' << seg.finish;
      os << '\n';
    }
  }
  os << "end\n";
}

InstanceBundle load_instance(std::istream& is) {
  expect(is, kMagic);
  expect(is, kVersion);

  // Every count below is the file's claim, not a budget: containers grow
  // as their lines arrive, so a short file fails on its missing content
  // instead of on an allocation of the declared size.
  InstanceBundle bundle;

  expect(is, "graph");
  const auto task_count = number<std::size_t>(is);
  const auto edge_count = number<std::size_t>(is);
  bundle.graph = std::make_unique<TaskGraph>();
  for (std::size_t i = 0; i < task_count; ++i) {
    expect(is, "task");
    const auto id = number<std::uint32_t>(is);
    CAFT_CHECK_MSG(id == i, "task ids must be dense and ordered");
    bundle.graph->add_task(rest_of_line(is));
  }
  for (std::size_t i = 0; i < edge_count; ++i) {
    expect(is, "edge");
    const auto src = number<std::uint32_t>(is);
    const auto dst = number<std::uint32_t>(is);
    const auto volume = number<double>(is);
    bundle.graph->add_edge(TaskId(src), TaskId(dst), volume);
  }

  expect(is, "platform");
  const auto proc_count = number<std::size_t>(is);
  // The topology builds m x m route tables: cap m before it does.
  CAFT_CHECK_MSG(proc_count <= kMaxProcessors,
                 "platforms are capped at " + std::to_string(kMaxProcessors) +
                     " processors; got m=" + std::to_string(proc_count));
  const auto cable_count = number<std::size_t>(is);
  std::vector<std::pair<std::size_t, std::size_t>> cables;
  for (std::size_t i = 0; i < cable_count; ++i) {
    expect(is, "cable");
    const auto a = number<std::size_t>(is);
    const auto b = number<std::size_t>(is);
    cables.emplace_back(a, b);
  }
  bundle.platform =
      std::make_unique<Platform>(Topology::custom(proc_count, cables));

  bundle.costs = std::make_unique<CostModel>(task_count, *bundle.platform);
  for (std::size_t i = 0; i < task_count * proc_count; ++i) {
    expect(is, "exec");
    const auto t = number<std::uint32_t>(is);
    const auto p = number<std::uint32_t>(is);
    const auto time = number<double>(is);
    bundle.costs->set_exec(TaskId(t), ProcId(p), time);
  }
  for (std::size_t i = 0; i < cable_count * 2; ++i) {
    expect(is, "delay");
    const auto l = number<std::uint32_t>(is);
    const auto delay = number<double>(is);
    bundle.costs->set_unit_delay(LinkId(l), delay);
  }

  std::string word = keyword(is);
  if (word == "schedule") {
    const auto eps = number<std::size_t>(is);
    const std::string model_word = keyword(is);
    CAFT_CHECK_MSG(model_word == "oneport" || model_word == "macro",
                   "unknown schedule model '" + model_word + "'");
    const CommModelKind model = model_word == "oneport"
                                    ? CommModelKind::kOnePort
                                    : CommModelKind::kMacroDataflow;
    const auto duplicate_count = number<std::size_t>(is);
    bundle.schedule = std::make_unique<Schedule>(*bundle.graph,
                                                 *bundle.platform, eps, model);
    for (std::size_t i = 0; i < task_count * (eps + 1); ++i) {
      expect(is, "replica");
      const auto t = number<std::uint32_t>(is);
      const auto r = number<ReplicaIndex>(is);
      const auto p = number<std::uint32_t>(is);
      const auto start = number<double>(is);
      const auto finish = number<double>(is);
      bundle.schedule->set_replica(TaskId(t), r,
                                   ReplicaAssignment{ProcId(p), start, finish});
    }
    for (std::size_t i = 0; i < duplicate_count; ++i) {
      expect(is, "duplicate");
      const auto t = number<std::uint32_t>(is);
      const auto p = number<std::uint32_t>(is);
      const auto start = number<double>(is);
      const auto finish = number<double>(is);
      bundle.schedule->add_duplicate(TaskId(t),
                                     ReplicaAssignment{ProcId(p), start, finish});
    }
    std::vector<LinkOccupancy> hops;  // one comm's segments, reused
    while ((word = keyword(is)) == "comm") {
      CommAssignment c;
      c.edge = number<EdgeIndex>(is);
      const Edge& e = bundle.graph->edge(c.edge);
      c.from.task = e.src;
      c.to.task = e.dst;
      c.from.replica = number<ReplicaIndex>(is);
      c.to.replica = number<ReplicaIndex>(is);
      c.src_proc = ProcId(number<std::uint32_t>(is));
      c.dst_proc = ProcId(number<std::uint32_t>(is));
      c.volume = number<double>(is);
      c.times.link_start = number<double>(is);
      c.times.link_finish = number<double>(is);
      c.times.send_finish = number<double>(is);
      c.times.recv_start = number<double>(is);
      c.times.arrival = number<double>(is);
      const auto segments = number<std::size_t>(is);
      hops.clear();
      for (std::size_t s = 0; s < segments; ++s) {
        LinkOccupancy seg;
        seg.link = LinkId(number<std::uint32_t>(is));
        seg.start = number<double>(is);
        seg.finish = number<double>(is);
        hops.push_back(seg);
      }
      bundle.schedule->add_comm(c, hops);
    }
  }
  CAFT_CHECK_MSG(word == "end", "malformed instance: missing 'end'");
  return bundle;
}

void save_instance_file(const std::string& path, const TaskGraph& graph,
                        const Platform& platform, const CostModel& costs,
                        const Schedule* schedule) {
  std::ofstream os(path);
  CAFT_CHECK_MSG(static_cast<bool>(os), "cannot open '" + path + "' for writing");
  save_instance(os, graph, platform, costs, schedule);
  CAFT_CHECK_MSG(static_cast<bool>(os), "write to '" + path + "' failed");
}

InstanceBundle load_instance_file(const std::string& path) {
  std::ifstream is(path);
  CAFT_CHECK_MSG(static_cast<bool>(is), "cannot open '" + path + "'");
  return load_instance(is);
}

}  // namespace caft
