#include "layers.hpp"

#include <algorithm>
#include <iterator>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "campaign/campaign.hpp"
#include "campaign/stats.hpp"
#include "obs/obs.hpp"
#include "server/content_cache.hpp"
#include "server/server.hpp"
#include "server/server_wire.hpp"
#include "server/socket.hpp"
#include "sim/crash_sim.hpp"
#include "sim/replay_engine.hpp"

namespace perfbench {

namespace {

/// Calls `body` up to `max_reps` times (at least once), stopping early once
/// `budget_s` has elapsed; returns each call's duration in seconds.
template <typename Body>
std::vector<double> repeat(std::size_t max_reps, double budget_s,
                           Body&& body) {
  std::vector<double> durations;
  const Clock::time_point begin = Clock::now();
  for (std::size_t rep = 0; rep < max_reps; ++rep) {
    if (rep > 0 && seconds_since(begin) >= budget_s) break;
    const Stopwatch call;
    body(rep);
    durations.push_back(call.seconds());
  }
  return durations;
}

/// Draws `count` scenarios the way a campaign does: one split stream each.
std::vector<caft::CrashScenario> draw(const caft::ScenarioSampler& sampler,
                                      std::uint64_t seed, std::size_t count) {
  caft::Rng master(seed);
  std::vector<caft::CrashScenario> scenarios;
  scenarios.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    caft::Rng stream = master.split();
    scenarios.push_back(sampler.sample(stream));
  }
  return scenarios;
}

/// Per-call mean, in `scale` units per second, of a timed loop over
/// `items` that stops once `budget_s` has elapsed.
template <typename Body>
double mean_per_call(std::size_t items, double budget_s, double scale,
                     Body&& body) {
  const Stopwatch watch;
  std::size_t done = 0;
  while (done < items && (done == 0 || watch.wall_s() < budget_s))
    body(done++);
  return watch.seconds() / static_cast<double>(done) * scale;
}

double cache_counter(const char* name) {
  return static_cast<double>(
      obs::Registry::global().snapshot().counter_value(name));
}

struct ScheduleProbe {
  const char* algorithm;
  const char* span;
  const char* metric;
};
constexpr ScheduleProbe kSchedulers[] = {
    {"caft", "algo.caft.schedule", "algo.caft.schedule_ms"},
    {"ftsa", "algo.ftsa.schedule", "algo.ftsa.schedule_ms"},
    {"ftbar", "algo.ftbar.schedule", "algo.ftbar.schedule_ms"},
    {"heft", "algo.heft.schedule", "algo.heft.schedule_ms"},
};

}  // namespace

void measure_layers(const Options& options, const LayerSubject& subject,
                    const TracedLegs& legs, MetricSet& metrics,
                    Gates& gates) {
  const ftsched::Instance& instance = *subject.instance;
  const ftsched::CampaignSpec& spec = subject.spec;
  const std::size_t procs = instance.proc_count();
  const caft::CostModel& costs = instance.costs();

  // --- dag: generate one more instance of the workload's family.
  const std::vector<double> dag_s = repeat(5, 2.0, [&](std::size_t rep) {
    const Span span("dag.instance");
    (void)subject.make_instance(mix_seed(options.seed, 7000 + rep));
  });
  metrics.set("dag.instance_ms", median(dag_s) * 1e3, "ms");

  // --- algo: Scheduler::schedule through the registry.
  std::unique_ptr<ftsched::ScheduleResult> caft_result;
  for (const ScheduleProbe& probe : kSchedulers) {
    const std::shared_ptr<const ftsched::Scheduler> scheduler =
        ftsched::SchedulerRegistry::global().make(probe.algorithm);
    const std::vector<double> took = repeat(3, 3.0, [&](std::size_t) {
      const Span span(probe.span);
      ftsched::ScheduleResult result =
          scheduler->schedule(instance, spec.request);
      if (std::string(probe.algorithm) == "caft")
        caft_result = std::make_unique<ftsched::ScheduleResult>(
            std::move(result));
    });
    metrics.set(probe.metric, median(took) * 1e3, "ms");
  }
  const caft::Schedule& schedule = caft_result->schedule;

  // --- sim: engine build, θ kernel, oracle, dead-mask kernel.
  std::unique_ptr<caft::ReplayEngine> engine;
  const std::vector<double> build_s = repeat(5, 2.0, [&](std::size_t) {
    const Span span("sim.engine_build");
    engine = std::make_unique<caft::ReplayEngine>(schedule, costs);
  });
  const double engine_build_ms = median(build_s) * 1e3;
  metrics.set("sim.engine_build_ms", engine_build_ms, "ms");

  // θ kernel on an engine with the snapshot placement a campaign gives it
  // (the sampler's first-crash quantiles), so its per-replay cost is the
  // one crash-window campaigns pay.
  const auto theta_sampler = ftsched::SamplerSpec::window(
                                 2, 0.0, schedule.horizon() / 2.0)
                                 .build(procs);
  caft::ReplayEngineOptions theta_options;
  theta_options.snapshot_times = theta_sampler->first_crash_quantiles(
      theta_options.max_snapshots, schedule.horizon());
  const caft::ReplayEngine theta_engine(schedule, costs, theta_options);
  // Waves of 64 fresh scenarios, each replayed in the order a campaign wave
  // executes them (by earliest crash), until the budget is spent.
  const std::vector<caft::CrashScenario> theta =
      draw(*theta_sampler, mix_seed(options.seed, 8000), 64);
  caft::ReplayEngine::Scratch scratch;
  double theta_us = 0.0;
  {
    const Span span("sim.replay.theta");
    const Stopwatch watch;
    std::size_t replays = 0;
    for (std::uint64_t wave = 0; wave == 0 || watch.wall_s() < 1.5; ++wave) {
      std::vector<caft::CrashScenario> batch =
          wave == 0 ? theta
                    : draw(*theta_sampler, mix_seed(options.seed, 8100 + wave),
                           theta.size());
      std::stable_sort(batch.begin(), batch.end(),
                       [](const caft::CrashScenario& a,
                          const caft::CrashScenario& b) {
                         return caft::ReplayEngine::first_crash(a) <
                                caft::ReplayEngine::first_crash(b);
                       });
      for (const caft::CrashScenario& scenario : batch)
        (void)theta_engine.replay(scenario, scratch);
      replays += batch.size();
    }
    theta_us = watch.seconds() / static_cast<double>(replays) * 1e6;
  }
  metrics.set("sim.replay_us.theta", theta_us, "us");
  metrics.set("sim.events", static_cast<double>(engine->event_count()),
              "count");
  metrics.set("sim.snapshots", static_cast<double>(engine->snapshot_count()),
              "count");

  double oracle_total_s = 0.0;
  std::size_t oracle_calls = 0;
  {
    const Span span("sim.oracle");
    const Clock::time_point begin = Clock::now();
    for (std::size_t i = 0; i < theta.size(); ++i) {
      if (i > 0 && seconds_since(begin) >= 1.5) break;
      const Clock::time_point call = Clock::now();
      const caft::CrashResult oracle =
          caft::simulate_crashes(schedule, costs, theta[i]);
      oracle_total_s += seconds_since(call);
      ++oracle_calls;
      if (i < 8)
        gates.check(same_result(theta_engine.replay(theta[i], scratch),
                                oracle),
                    "ReplayEngine::replay matches simulate_crashes");
    }
  }
  metrics.set("sim.oracle_us",
              oracle_total_s / static_cast<double>(oracle_calls) * 1e6, "us");

  const auto dead_sampler =
      ftsched::SamplerSpec::uniform_k(subject.dead_k).build(procs);
  const std::vector<caft::CrashScenario> dead =
      draw(*dead_sampler, mix_seed(options.seed, 8001), 300);
  std::vector<caft::ReplayRecord> records;
  double dead_us = 0.0;
  {
    const Span span("sim.replay.dead_mask");
    // A reused Scratch memoises each dead mask, so a mask it has already
    // seen starts a fresh Scratch: every timed replay misses the memo.
    auto dead_scratch = std::make_unique<caft::ReplayEngine::Scratch>();
    std::set<std::uint64_t> seen;
    dead_us = mean_per_call(dead.size(), 1.0, 1e6, [&](std::size_t i) {
      std::uint64_t mask = 0;
      for (std::size_t p = 0; p < procs; ++p)
        if (dead[i].dead_from_start(
                caft::ProcId(static_cast<caft::ProcId::value_type>(p))))
          mask |= std::uint64_t{1} << p;
      if (!seen.insert(mask).second) {
        dead_scratch = std::make_unique<caft::ReplayEngine::Scratch>();
        seen = {mask};
      }
      const caft::CrashResult& result = engine->replay(dead[i], *dead_scratch);
      caft::ReplayRecord record;
      record.success = result.success;
      record.order_deadlock = result.order_deadlock;
      record.latency = result.latency;
      record.delivered_messages = result.delivered_messages;
      record.order_relaxations = result.order_relaxations;
      record.failed_count = dead[i].failed_count();
      records.push_back(record);
    });
  }
  metrics.set("sim.replay_us.dead_mask", dead_us, "us");

  // --- campaign: sampling and fold per replay, then whole campaigns at 1
  // and N threads; self time is wall time minus those children.
  const auto sampler = spec.sampler.build(procs);
  double sample_ns = 0.0;
  {
    const Span span("campaign.sample");
    caft::Rng master(mix_seed(options.seed, 8002));
    std::size_t sink = 0;
    sample_ns = mean_per_call(20000, 1.0, 1e9, [&](std::size_t) {
      caft::Rng stream = master.split();
      sink += sampler->sample(stream).failed_count();
    });
    gates.check(sink > 0, "sampler draws crashes");
  }
  metrics.set("campaign.sample_ns", sample_ns, "ns");

  double fold_ns = 0.0;
  {
    const Span span("campaign.fold");
    caft::CampaignAccumulator accumulator(schedule.eps(), spec.quantiles);
    fold_ns = mean_per_call(20000, 1.0, 1e9, [&](std::size_t i) {
      caft::fold_replay_record(accumulator, records[i % records.size()]);
    });
    gates.check(accumulator.summary().replays > 0, "fold counts replays");
  }
  metrics.set("campaign.fold_ns", fold_ns, "ns");

  const bool dead_from_start =
      spec.sampler.kind == ftsched::SamplerSpec::Kind::kUniformK;
  const double kernel_us = dead_from_start ? dead_us : theta_us;
  struct CampaignProbe {
    double wall_s = 0.0;
    caft::CampaignTelemetry telemetry;
  };
  const auto campaign_probe = [&](std::size_t threads) {
    ftsched::SessionOptions session_options;
    session_options.threads = threads;
    const ftsched::Session session(session_options);
    CampaignProbe probe;
    const std::vector<double> walls = repeat(5, 3.0, [&](std::size_t) {
      const Span span("campaign.evaluate_schedule");
      const ftsched::CampaignRun run =
          session.evaluate_schedule(instance, *caft_result, spec);
      probe.telemetry = run.telemetry;
      gates.check(run.summary.successes_within_eps ==
                      run.summary.replays_within_eps,
                  "Proposition 5.2 on every campaign");
    });
    probe.wall_s = median(walls);
    return probe;
  };
  const CampaignProbe one = campaign_probe(1);
  const CampaignProbe many = campaign_probe(options.threads);
  const double replays = static_cast<double>(one.telemetry.replays);
  const double kernel_replays =
      dead_from_start ? static_cast<double>(one.telemetry.memo_lookups -
                                            one.telemetry.memo_hits)
                      : replays;
  const double serial_children_s =
      replays * (sample_ns + fold_ns) * 1e-9 + engine_build_ms * 1e-3;
  const double kernel_s = kernel_replays * kernel_us * 1e-6;
  const double self_1t_s = one.wall_s - serial_children_s - kernel_s;
  const double self_nt_s =
      many.wall_s - serial_children_s -
      kernel_s / static_cast<double>(
                     std::max<std::size_t>(1, many.telemetry.workers));
  metrics.set("campaign.self_ns_per_replay_1t", self_1t_s / replays * 1e9,
              "ns");
  metrics.set("campaign.self_ns_per_replay", self_nt_s / replays * 1e9, "ns");
  metrics.set("campaign.lookups_per_replay",
              static_cast<double>(one.telemetry.memo_lookups) / replays,
              "ratio");
  metrics.set("campaign.waves", static_cast<double>(one.telemetry.blocks),
              "count");
  metrics.set("accounted.kernel_share_1t", kernel_s / one.wall_s, "ratio");
  metrics.set("accounted.campaign_share_1t",
              (self_1t_s + replays * (sample_ns + fold_ns) * 1e-9) /
                  one.wall_s,
              "ratio");

  // --- server: wire codecs, content cache, in-memory serve, socket.
  const double hits_before = cache_counter("server.cache.hit");
  const double misses_before = cache_counter("server.cache.miss");
  const std::string bytes = instance_bytes(instance);
  ftsched::server::CampaignRequest request;
  request.spec = spec;
  request.instance_bytes = bytes;
  std::string request_text;
  {
    std::ostringstream out;
    ftsched::server::write_campaign_request(out, request);
    request_text = out.str();
  }
  const std::vector<double> read_request_s = repeat(200, 0.5, [&](std::size_t) {
    const Span span("server.read_request");
    std::istringstream in(request_text);
    (void)ftsched::server::read_campaign_request(in);
  });
  metrics.set("server.read_request_us", median(read_request_s) * 1e6, "us");

  ftsched::CampaignReport reference;
  {
    std::istringstream in(bytes);
    const ftsched::Instance loaded = ftsched::Instance::load(in);
    ftsched::SessionOptions session_options;
    session_options.threads = 1;
    reference = ftsched::Session(session_options).evaluate(loaded, spec);
  }
  const std::string reference_text = report_bytes(reference);
  const std::vector<double> write_report_s = repeat(200, 0.5, [&](std::size_t) {
    const Span span("server.write_report");
    std::ostringstream out;
    ftsched::server::write_campaign_report(out, reference);
  });
  metrics.set("server.write_report_us", median(write_report_s) * 1e6, "us");
  const std::vector<double> read_response_s =
      repeat(200, 0.5, [&](std::size_t) {
        const Span span("server.read_response");
        std::istringstream in(reference_text);
        (void)ftsched::server::read_server_response(in);
      });
  metrics.set("server.read_response_us", median(read_response_s) * 1e6, "us");

  std::unique_ptr<ftsched::server::ContentCache> cache;
  const auto lookup_all = [&](ftsched::server::ContentCache& target) {
    std::uint64_t hash = 0;
    const auto cached = target.instance(bytes, &hash);
    for (const std::string& algorithm : spec.algorithms) {
      const auto scheduled =
          target.schedule(cached, hash, algorithm, spec.request);
      const double width =
          spec.exact
              ? 0.0
              : spec.theta_bucket_width(scheduled->result.schedule.horizon());
      (void)target.replay_template(scheduled, width, spec.exact);
    }
  };
  const std::vector<double> miss_s = repeat(3, 3.0, [&](std::size_t) {
    cache = std::make_unique<ftsched::server::ContentCache>(64);
    const Span span("server.cache.miss");
    lookup_all(*cache);
  });
  metrics.set("server.cache.miss_ms", median(miss_s) * 1e3, "ms");
  const std::vector<double> hit_s = repeat(200, 0.5, [&](std::size_t) {
    const Span span("server.cache.hit");
    lookup_all(*cache);
  });
  metrics.set("server.cache.hit_us", median(hit_s) * 1e6, "us");

  ftsched::server::ServerOptions server_options;
  server_options.session.threads = 1;
  const auto serve = [&](ftsched::server::CampaignServer& server) {
    std::istringstream in(request_text);
    std::ostringstream out;
    server.serve(in, out);
    gates.check(out.str() == reference_text,
                "served report byte-identical to in-process "
                "Session::evaluate");
  };
  const std::vector<double> cold_s = repeat(2, 4.0, [&](std::size_t) {
    ftsched::server::CampaignServer server(server_options);
    const Span span("server.serve.cold");
    serve(server);
  });
  metrics.set("server.serve_ms.cold", median(cold_s) * 1e3, "ms");
  ftsched::server::CampaignServer server(server_options);
  serve(server);
  const std::vector<double> warm_s = repeat(5, 3.0, [&](std::size_t) {
    const Span span("server.serve.warm");
    serve(server);
  });
  const double serve_warm_ms = median(warm_s) * 1e3;
  metrics.set("server.serve_ms.warm", serve_warm_ms, "ms");

  double warm_request_ms = legs.warm_request_p50_ms;
  if (warm_request_ms < 0.0) {
    server.start();
    const std::uint16_t port = server.port();
    const std::vector<double> socket_s = repeat(5, 3.0, [&](std::size_t rep) {
      const Span span("service.request", 1 + rep);
      const auto stream = ftsched::server::connect_to("127.0.0.1", port);
      ftsched::server::write_campaign_request(*stream, request);
      stream->flush();
      const std::string response(std::istreambuf_iterator<char>(*stream),
                                 std::istreambuf_iterator<char>{});
      gates.check(response == reference_text,
                  "socket report byte-identical to in-process "
                  "Session::evaluate");
    });
    server.stop();
    warm_request_ms = median(socket_s) * 1e3;
  }
  metrics.set("server.wait_ms", warm_request_ms - serve_warm_ms, "ms");

  double hits = legs.cache_hits;
  double misses = legs.cache_misses;
  if (hits + misses == 0.0) {
    hits = cache_counter("server.cache.hit") - hits_before;
    misses = cache_counter("server.cache.miss") - misses_before;
  }
  metrics.set("server.cache.hit_ratio",
              hits + misses > 0.0 ? hits / (hits + misses) : 0.0, "ratio");
}

}  // namespace perfbench
