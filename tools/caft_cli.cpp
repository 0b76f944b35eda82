/// caft_cli — command-line front end to the library, built entirely on the
/// ftsched:: facade (api/api.hpp): algorithms are resolved by name through
/// the SchedulerRegistry, so `--algo` accepts exactly the registered names
/// and new algorithms appear here with zero CLI changes.
///
/// Subcommands:
///   generate    build an instance (graph + platform + costs) and save it
///   schedule    run a registered scheduler on an instance; save/export
///   replay      re-execute a scheduled instance under a crash set
///   resilience  exhaustive ε-subset survival check of a scheduled instance
///   figure      reproduce one of the paper's figures (1-6)
///   algos       list the registered algorithms and their capabilities
///
/// Examples:
///   caft_cli generate --family random --procs 10 --granularity 0.5
///       --seed 42 --out instance.txt                        (one line)
///   caft_cli schedule --in instance.txt --algo caft --eps 2
///       --out scheduled.txt --dot s.dot --trace t.json --gantt
///   caft_cli schedule --in instance.txt --algo caft --support direct
///   caft_cli replay --in scheduled.txt --crash 0,3 --gantt
///   caft_cli resilience --in scheduled.txt
///   caft_cli figure 1 --reps 10
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "api/api.hpp"
#include "common/build_info.hpp"
#include "common/cli_args.hpp"
#include "dag/generators.hpp"
#include "exp/config.hpp"
#include "exp/report.hpp"
#include "exp/runner.hpp"
#include "io/dot_export.hpp"
#include "io/trace_export.hpp"
#include "metrics/gantt.hpp"
#include "metrics/metrics.hpp"
#include "platform/cost_synthesis.hpp"
#include "sim/replay_engine.hpp"
#include "sim/resilience.hpp"

namespace {

using namespace caft;

using Args = CliArgs;

int usage() {
  std::fprintf(stderr,
               "usage: caft_cli <generate|schedule|replay|resilience|figure|"
               "algos> [options]\n(see the header of tools/caft_cli.cpp for "
               "examples)\n");
  return 2;
}

TaskGraph build_graph(const std::string& family, std::size_t size, Rng& rng) {
  if (family == "random") return random_dag(RandomDagParams{}, rng);
  if (family == "chain") return chain(size ? size : 20, 100.0);
  if (family == "fork") return fork(size ? size : 12, 100.0);
  if (family == "join") return join(size ? size : 12, 100.0);
  if (family == "forkjoin") return fork_join(size ? size : 10, 100.0);
  if (family == "outforest") return random_out_forest(size ? size : 50, 3, rng);
  if (family == "gauss") return gaussian_elimination(size ? size : 8, 100.0);
  if (family == "cholesky") return cholesky(size ? size : 6, 100.0);
  if (family == "fft") return fft(size ? size : 4, 100.0);
  if (family == "stencil") return stencil(size ? size : 5, size ? size : 5, 100.0);
  throw CheckError("unknown graph family '" + family + "'");
}

int cmd_generate(const Args& args) {
  Rng rng(args.get_size("seed", 42));
  const std::string family = args.get("family", "random");
  const std::size_t size = args.get_size("size", 0);
  const std::size_t m = args.get_size("procs", 10);
  const std::string topo =
      args.get_choice("topology", "clique", {"clique", "ring", "star"});
  CostSynthesisParams params;
  params.granularity = args.get_double("granularity", 1.0);
  const std::string out = args.get("out", "instance.txt");
  args.reject_unread();

  TaskGraph graph = build_graph(family, size, rng);
  Platform platform(m);
  if (topo == "ring")
    platform = Platform(Topology::ring(m));
  else if (topo == "star")
    platform = Platform(Topology::star(m));
  const ftsched::Instance instance(std::move(graph), std::move(platform),
                                   params, rng);
  instance.save(out);
  std::printf("wrote %s: %zu tasks, %zu edges, m=%zu, g=%.2f\n", out.c_str(),
              instance.graph().task_count(), instance.graph().edge_count(), m,
              instance.costs().granularity(instance.graph()));
  return 0;
}

int cmd_schedule(const Args& args) {
  ftsched::Instance instance = ftsched::Instance::load(
      args.get("in", "instance.txt"));
  const std::string algo = args.get("algo", "caft");
  instance.set_eps(args.get_size("eps", 1));
  instance.options().model = args.get_choice("model", "oneport",
                                             {"oneport", "macro"}) == "macro"
                                 ? CommModelKind::kMacroDataflow
                                 : CommModelKind::kOnePort;

  ftsched::ScheduleRequest request;
  request.batch_size = args.get_size("batch", 10);
  request.support_mode = args.get_choice("support", "transitive",
                                         {"transitive", "direct"}) == "direct"
                             ? CaftSupportMode::kDirect
                             : CaftSupportMode::kTransitive;
  const std::string out = args.get("out");
  const std::string dot = args.get("dot");
  const std::string trace = args.get("trace");
  const bool gantt = args.has("gantt");
  args.reject_unread();
  // The registry is the single dispatch point: unknown names fail with
  // "unknown algo 'x'; known: <names>".
  const ftsched::ScheduleResult result =
      ftsched::SchedulerRegistry::global().make(algo)->schedule(instance,
                                                                request);

  std::printf("%s: latency %.2f (normalized %.2f), upper bound %.2f, "
              "%zu messages, valid=%s\n",
              algo.c_str(), result.makespan,
              normalized_latency(result.makespan, instance.graph(),
                                 instance.costs()),
              result.upper_bound, result.messages,
              result.validation.ok() ? "yes" : "NO");
  if (!result.validation.ok())
    std::fprintf(stderr, "%s\n", result.validation.summary().c_str());

  if (!out.empty()) instance.save(out, &result.schedule);
  if (!dot.empty()) std::ofstream(dot) << to_dot(result.schedule);
  if (!trace.empty())
    std::ofstream(trace) << to_chrome_trace(result.schedule);
  if (gantt) std::cout << render_gantt(result.schedule);
  return result.ok() ? 0 : 1;
}

/// `--crash 0,3`: distinct processor ids of an `m`-processor platform.
std::vector<ProcId> parse_crash_list(const std::string& spec, std::size_t m) {
  std::vector<ProcId> procs;
  for (std::size_t at = 0; !spec.empty() && at <= spec.size();) {
    const std::size_t comma = std::min(spec.find(',', at), spec.size());
    const std::string token = spec.substr(at, comma - at);
    const std::size_t id = Args::parse_count("crash", token);
    CAFT_CHECK_MSG(id < m, "--crash: no processor " + token + " (m = " +
                               std::to_string(m) + ")");
    const ProcId p(static_cast<ProcId::value_type>(id));
    CAFT_CHECK_MSG(std::find(procs.begin(), procs.end(), p) == procs.end(),
                   "--crash: processor " + token + " named twice");
    procs.push_back(p);
    at = comma + 1;
  }
  return procs;
}

int cmd_replay(const Args& args) {
  const ftsched::Instance instance = ftsched::Instance::load(
      args.get("in", "scheduled.txt"));
  const Schedule* schedule = instance.loaded_schedule();
  CAFT_CHECK_MSG(schedule != nullptr, "instance has no schedule; run "
                                      "'caft_cli schedule --out ...' first");
  const auto failed =
      parse_crash_list(args.get("crash", ""), instance.proc_count());
  const std::string trace = args.get("trace");
  const bool gantt = args.has("gantt");
  args.reject_unread();
  const CrashScenario scenario =
      CrashScenario::at_zero(instance.proc_count(), failed);
  ReplayEngineOptions one_shot;
  one_shot.max_snapshots = 0;  // a single replay: template only
  const CrashResult result =
      ReplayEngine(*schedule, instance.costs(), one_shot).replay(scenario);
  std::printf("crash set of %zu processor(s): %s, latency %.2f "
              "(0-crash estimate %.2f), %zu messages delivered\n",
              failed.size(), result.success ? "survived" : "FAILED",
              result.latency, schedule->zero_crash_latency(),
              result.delivered_messages);
  if (gantt) std::cout << render_crash_gantt(*schedule, result, scenario);
  if (!trace.empty())
    std::ofstream(trace) << to_chrome_trace(*schedule, result, scenario);
  return result.success ? 0 : 1;
}

int cmd_resilience(const Args& args) {
  const ftsched::Instance instance = ftsched::Instance::load(
      args.get("in", "scheduled.txt"));
  const Schedule* schedule = instance.loaded_schedule();
  CAFT_CHECK_MSG(schedule != nullptr, "instance has no schedule");
  const std::size_t failures = args.get_size("failures", schedule->eps());
  args.reject_unread();
  const ResilienceReport report =
      check_resilience_exhaustive(*schedule, instance.costs(), failures);
  std::printf("%zu crash subsets of size %zu: %zu failed -> %s\n",
              report.scenarios_tested, failures, report.failures,
              report.resistant ? "RESISTANT" : "NOT RESISTANT");
  if (!report.witness.empty()) {
    std::printf("witness:");
    for (const ProcId p : report.witness) std::printf(" P%u", p.value());
    std::printf("\n");
  }
  if (report.resistant)
    std::printf("re-executed latency: best %.2f, worst %.2f\n",
                report.best_latency, report.worst_latency);
  return report.resistant ? 0 : 1;
}

int cmd_figure(const Args& args) {
  CAFT_CHECK_MSG(!args.positional().empty(), "figure number required (1-6)");
  const std::string& number = args.positional().front();
  const int figure = number.size() == 1 ? number[0] - '0' : 0;
  ExperimentConfig config;
  switch (figure) {
    case 1: config = figure1(); break;
    case 2: config = figure2(); break;
    case 3: config = figure3(); break;
    case 4: config = figure4(); break;
    case 5: config = figure5(); break;
    case 6: config = figure6(); break;
    default: throw CheckError("figure number must be 1-6: '" + number + "'");
  }
  config.graphs_per_point = args.get_size("reps", 10);
  const bool csv = args.has("csv");
  args.reject_unread();
  const auto points = run_experiment(config);
  report_figure(std::cout, config, points, csv ? config.name : "");
  return 0;
}

int cmd_algos(const Args& args) {
  args.reject_unread();
  ftsched::SchedulerRegistry::global().for_each(
      [](const ftsched::Scheduler& scheduler) {
        const ftsched::SchedulerCapabilities caps = scheduler.capabilities();
        std::printf("%-12s eps=%-3s contention-aware=%-3s duplicates=%s\n",
                    scheduler.name().c_str(),
                    caps.supports_eps ? "yes" : "no",
                    caps.contention_aware ? "yes" : "no",
                    caps.emits_duplicates ? "yes" : "no");
      });
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string command = argv[1];
  if (command == "--version" || command == "version") {
    std::printf("%s\n", caft::version_line().c_str());
    return 0;
  }
  const Args args(argc, argv, 2);
  try {
    if (command == "generate") return cmd_generate(args);
    if (command == "schedule") return cmd_schedule(args);
    if (command == "replay") return cmd_replay(args);
    if (command == "resilience") return cmd_resilience(args);
    if (command == "figure") return cmd_figure(args);
    if (command == "algos") return cmd_algos(args);
    return usage();
  } catch (const std::exception& error) {
    std::fprintf(stderr, "error: %s\n", error.what());
    return 1;
  }
}
