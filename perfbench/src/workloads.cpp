#include "workloads.hpp"

#include <algorithm>
#include <cstdlib>
#include <iterator>
#include <map>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include "dag/generators.hpp"
#include "exp/config.hpp"
#include "exp/runner.hpp"
#include "server/server.hpp"
#include "server/server_wire.hpp"
#include "server/socket.hpp"
#include "sim/crash_sim.hpp"
#include "sim/replay_engine.hpp"

namespace perfbench {

namespace {

// Sizes of one operation per workload. Chosen so a 1-thread leg of a few
// seconds completes tens of operations and the N-thread leg at least a
// hundred wherever an operation is cheap enough (see perfbench/README.md).
constexpr std::size_t kUniformPool = 4;  ///< instances ops cycle through
constexpr std::size_t kUniformReplays = 200000;  ///< per algorithm per op
constexpr std::size_t kWindowPool = 8;
constexpr std::size_t kWindowTasks = 300;
constexpr std::size_t kWindowReplays = 64;
constexpr std::size_t kWindowSpotChecks = 6;
constexpr std::size_t kFigureGraphs = 4;  ///< graphs per run_experiment op
constexpr std::size_t kFigureProbeReplays = 32;
constexpr std::size_t kServiceReplays = 2000;  ///< per algorithm per request
constexpr std::size_t kServicePool = 8;        ///< warm instances
constexpr std::size_t kServiceCache = 96;  ///< entries; warm pool stays resident
constexpr std::size_t kServiceColdEvery = 5;   ///< 1 in 5 requests is cold

/// Paper-protocol random instance (Section 6: 80-120 tasks by default).
ftsched::Instance paper_instance(std::uint64_t seed, std::size_t tasks_lo,
                                 std::size_t tasks_hi, std::size_t procs,
                                 std::size_t eps, double granularity = 1.0) {
  caft::Rng rng(seed);
  caft::RandomDagParams dag;
  dag.min_tasks = tasks_lo;
  dag.max_tasks = tasks_hi;
  caft::TaskGraph graph = caft::random_dag(dag, rng);
  caft::CostSynthesisParams costs;
  costs.granularity = granularity;
  return ftsched::Instance(std::move(graph), caft::Platform(procs), costs, rng,
                           ftsched::RunOptions{eps});
}

ftsched::CampaignSpec campaign_spec(std::vector<std::string> algorithms,
                                    ftsched::SamplerSpec sampler,
                                    std::size_t replays, std::size_t eps) {
  ftsched::CampaignSpec spec;
  spec.algorithms = std::move(algorithms);
  spec.sampler = sampler;
  spec.replays = replays;
  spec.request.eps = eps;
  return spec;
}

std::vector<ftsched::ScheduleResult> schedule_all(
    const ftsched::Instance& instance, const ftsched::CampaignSpec& spec) {
  std::vector<ftsched::ScheduleResult> results;
  for (const std::string& algorithm : spec.algorithms)
    results.push_back(ftsched::SchedulerRegistry::global()
                          .make(algorithm)
                          ->schedule(instance, spec.request));
  return results;
}

// ------------------------------------------------------ campaign workloads

/// Shared shape of uniform-k and crash-window: a pool of instances
/// scheduled at set-up; op k campaigns pool entry k mod P, one
/// Session::evaluate_schedule per algorithm with an op-specific campaign
/// seed. Legs differ only in Session::threads.
class CampaignWorkload : public Workload {
 public:
  CampaignWorkload(const Options& options, std::size_t pool_size)
      : options_(options), pool_size_(pool_size) {}

  bool pooled() const override { return true; }

  OpSample op(std::size_t threads, std::size_t leg, std::size_t client,
              std::size_t k) override {
    (void)leg;
    (void)client;
    const Entry& entry = pool_[k % pool_.size()];
    ftsched::CampaignSpec spec = entry.spec;
    spec.seed = mix_seed(options_.seed, 1000 + k);
    ftsched::SessionOptions session_options;
    session_options.threads = threads;
    const ftsched::Session session(session_options);

    Span span("campaign.op");
    const Clock::time_point begin = Clock::now();
    ftsched::CampaignReport report;
    for (const ftsched::ScheduleResult& schedule : entry.schedules) {
      const Span call("session.evaluate_schedule");
      report.runs.push_back(
          session.evaluate_schedule(*entry.instance, schedule, spec));
    }
    OpSample sample;
    sample.latency_ms = seconds_since(begin) * 1e3;
    for (const ftsched::CampaignRun& run : report.runs)
      sample.replays += run.summary.replays;
    sample.instances = 1;
    sample.input = k % pool_.size();
    sample.ok = within_eps_all_succeed(report);
    sample.output = report_bytes(report);
    return sample;
  }

  void check(Gates& gates, const LegResult& one,
             const LegResult& many) override {
    gates.check(one.failed == 0 && many.failed == 0,
                "Proposition 5.2 on every campaign");
    gates.check(count_output_mismatches(one, many) == 0,
                "reports byte-identical between the 1-thread and N-thread "
                "legs");
  }

  LayerSubject subject() const override {
    LayerSubject subject;
    subject.instance = pool_.front().instance.get();
    subject.spec = pool_.front().spec;
    subject.spec.seed = mix_seed(options_.seed, 999);
    subject.make_instance = make_instance_;
    return subject;
  }

 protected:
  struct Entry {
    std::unique_ptr<ftsched::Instance> instance;
    std::vector<ftsched::ScheduleResult> schedules;  ///< spec.algorithms order
    ftsched::CampaignSpec spec;
  };

  /// Fills the pool; `spec_for` derives each entry's spec from its
  /// schedules (a crash window depends on the schedule's horizon).
  void build(const ftsched::CampaignSpec& base,
             const std::function<ftsched::CampaignSpec(const Entry&)>&
                 spec_for) {
    pool_.clear();
    for (std::size_t i = 0; i < pool_size_; ++i) {
      Entry entry;
      entry.instance = std::make_unique<ftsched::Instance>(
          make_instance_(mix_seed(options_.seed, 10 + i)));
      entry.schedules = schedule_all(*entry.instance, base);
      entry.spec = base;
      entry.spec = spec_for(entry);
      pool_.push_back(std::move(entry));
    }
  }

  const Options& options_;
  const std::size_t pool_size_;
  std::function<ftsched::Instance(std::uint64_t)> make_instance_;
  std::vector<Entry> pool_;
};

/// The paper's crash model: k = 2 of m = 10 processors dead from t = 0,
/// ε = 2, CAFT / FTSA / FTBAR on paper-protocol DAGs. Only C(10, 2) = 45
/// masks exist, so the executor's sort/group and the fold dominate.
class UniformKWorkload final : public CampaignWorkload {
 public:
  explicit UniformKWorkload(const Options& options)
      : CampaignWorkload(options, kUniformPool) {
    make_instance_ = [](std::uint64_t seed) {
      return paper_instance(seed, 80, 120, 10, 2);
    };
  }

  void setup() override {
    build(campaign_spec({"caft", "ftsa", "ftbar"},
                        ftsched::SamplerSpec::uniform_k(2), kUniformReplays,
                        2),
          [](const Entry& entry) { return entry.spec; });
  }

  void check(Gates& gates, const LegResult& one,
             const LegResult& many) override {
    CampaignWorkload::check(gates, one, many);
    // The ops campaign pre-built schedules; Session::evaluate schedules
    // itself. Both must print the same report.
    if (one.outputs.empty() || one.outputs[0].empty()) {
      gates.check(false, "the 1-thread leg completed an op");
      return;
    }
    const Entry& entry = pool_.front();
    ftsched::CampaignSpec spec = entry.spec;
    spec.seed = mix_seed(options_.seed, 1000);
    ftsched::SessionOptions session_options;
    session_options.threads = 1;
    const ftsched::CampaignReport report =
        ftsched::Session(session_options).evaluate(*entry.instance, spec);
    gates.check(report_bytes(report) == one.outputs[0][0],
                "Session::evaluate matches evaluate_schedule of the same "
                "schedules");
  }
};

/// Continuous crash-at-θ: k = 2 of m = 20 processors crash at θ ~ U[0,
/// horizon/2] on 300-task CAFT schedules. No two scenarios repeat, so the
/// replay kernel does nearly all the work.
class CrashWindowWorkload final : public CampaignWorkload {
 public:
  explicit CrashWindowWorkload(const Options& options)
      : CampaignWorkload(options, kWindowPool) {
    make_instance_ = [](std::uint64_t seed) {
      return paper_instance(seed, kWindowTasks, kWindowTasks, 20, 2);
    };
  }

  void setup() override {
    build(campaign_spec({"caft"}, ftsched::SamplerSpec::uniform_k(2),
                        kWindowReplays, 2),
          [](const Entry& entry) {
            ftsched::CampaignSpec spec = entry.spec;
            spec.sampler = ftsched::SamplerSpec::window(
                2, 0.0, entry.schedules.front().schedule.horizon() / 2.0);
            return spec;
          });
  }

  void check(Gates& gates, const LegResult& one,
             const LegResult& many) override {
    CampaignWorkload::check(gates, one, many);
    // Spot-check the incremental kernel against the from-scratch oracle
    // on scenarios of this workload's distribution.
    const Entry& entry = pool_.front();
    const caft::Schedule& schedule = entry.schedules.front().schedule;
    const caft::CostModel& costs = entry.instance->costs();
    const caft::ReplayEngine engine(schedule, costs);
    caft::ReplayEngine::Scratch scratch;
    const auto sampler = entry.spec.sampler.build(entry.instance->proc_count());
    caft::Rng master(mix_seed(options_.seed, 77));
    for (std::size_t i = 0; i < kWindowSpotChecks; ++i) {
      caft::Rng stream = master.split();
      const caft::CrashScenario scenario = sampler->sample(stream);
      gates.check(same_result(engine.replay(scenario, scratch),
                              caft::simulate_crashes(schedule, costs,
                                                     scenario)),
                  "ReplayEngine::replay matches simulate_crashes");
    }
  }
};

// ------------------------------------------------------------ paper-figure

/// The paper's own experiment: run_experiment on Figure 3's protocol
/// (granularity sweep A, m = 20, ε = 5, 3 crashes). Each op is one
/// granularity point of kFigureGraphs fresh graphs; legs set the
/// experiment's thread count.
class PaperFigureWorkload final : public Workload {
 public:
  explicit PaperFigureWorkload(const Options& options) : options_(options) {}

  void setup() override {
    base_ = caft::figure3();
    base_.graphs_per_point = kFigureGraphs;
    // Warm-up: one point at full width, so lazy registry and allocator
    // set-up is paid here and not by the first measured op.
    prepare_leg(options_.threads);
    caft::ExperimentConfig warm = base_;
    warm.granularities = {base_.granularities.front()};
    warm.seed = mix_seed(options_.seed, 2);
    (void)caft::run_experiment(warm);
    subject_instance_ = std::make_unique<ftsched::Instance>(
        make_instance(mix_seed(options_.seed, 3)));
  }

  /// Inputs are the sweep's granularity points, whose costs differ.
  bool pooled() const override { return true; }

  void prepare_leg(std::size_t threads) override {
    // run_experiment sizes its pool from CAFT_THREADS; legs run one at a
    // time, so no other thread reads the environment meanwhile.
    ::setenv("CAFT_THREADS", std::to_string(threads).c_str(), 1);
  }

  OpSample op(std::size_t threads, std::size_t leg, std::size_t client,
              std::size_t k) override {
    (void)threads;
    (void)leg;
    (void)client;
    caft::ExperimentConfig config = base_;
    // Every run walks the sweep in the same order: the granularity changes
    // an op's cost, the seed only its graphs.
    config.granularities = {
        base_.granularities[k % base_.granularities.size()]};
    config.seed = mix_seed(options_.seed, 2000 + k);

    Span span("experiment.op");
    const Clock::time_point begin = Clock::now();
    std::vector<caft::PointAverages> points;
    {
      const Span call("exp.run_experiment");
      points = caft::run_experiment(config);
    }
    OpSample sample;
    sample.latency_ms = seconds_since(begin) * 1e3;
    sample.instances = config.graphs_per_point * points.size();
    sample.input = k % base_.granularities.size();
    sample.replays = sample.instances * config.algorithms.size();
    std::ostringstream out;
    out << std::hexfloat;
    for (const caft::PointAverages& point : points) {
      if (point.crash_failures != 0) sample.ok = false;
      out << point.granularity << ' ' << point.ff_caft << ' '
          << point.ff_ftbar << ' ' << point.crash_failures << '\n';
      for (const auto& [name, a] : point.algos)
        out << name << ' ' << a.latency0 << ' ' << a.latency_ub << ' '
            << a.latency_crash << ' ' << a.overhead0 << ' '
            << a.overhead_crash << ' ' << a.messages << ' '
            << a.messages_per_edge << '\n';
    }
    sample.output = out.str();
    return sample;
  }

  void check(Gates& gates, const LegResult& one,
             const LegResult& many) override {
    gates.check(one.failed == 0 && many.failed == 0,
                "crash_failures == 0 on every figure point");
    gates.check(count_output_mismatches(one, many) == 0,
                "figure points bit-identical between the 1-thread and "
                "N-thread legs");
  }

  LayerSubject subject() const override {
    LayerSubject subject;
    subject.instance = subject_instance_.get();
    // Figure 3 has C(20, 3) = 1140 dead masks and ~6 ms kernel replays,
    // so the campaign and server probes stay small here.
    subject.spec = campaign_spec({"caft"}, ftsched::SamplerSpec::uniform_k(3),
                                 kFigureProbeReplays, base_.eps);
    subject.spec.seed = mix_seed(options_.seed, 999);
    subject.dead_k = base_.crashes;
    subject.make_instance = [this](std::uint64_t seed) {
      return make_instance(seed);
    };
    return subject;
  }

 private:
  /// One instance of the figure's protocol at granularity 1.
  [[nodiscard]] ftsched::Instance make_instance(std::uint64_t seed) const {
    return paper_instance(seed, base_.dag.min_tasks, base_.dag.max_tasks,
                          base_.proc_count, base_.eps);
  }

  const Options& options_;
  caft::ExperimentConfig base_;
  std::unique_ptr<ftsched::Instance> subject_instance_;
};

// ------------------------------------------------------------- service-mix

/// CampaignServer under a closed loop of clients, one connection per
/// request (as campaign_client does). max_inflight < N, so requests queue;
/// queue_limit >= N, so a healthy run is never refused. Most requests reuse
/// a pre-warmed pool instance; one in kServiceColdEvery carries a
/// never-seen one (parse + 3 schedules + 3 template builds).
class ServiceMixWorkload final : public Workload {
 public:
  explicit ServiceMixWorkload(const Options& options) : options_(options) {}

  ~ServiceMixWorkload() override {
    if (server_ != nullptr) server_->stop();
  }
  ServiceMixWorkload(const ServiceMixWorkload&) = delete;
  ServiceMixWorkload& operator=(const ServiceMixWorkload&) = delete;

  void setup() override {
    if (server_ != nullptr) server_->stop();
    server_.reset();
    {
      const std::lock_guard<std::mutex> guard(log_lock_);
      instances_.clear();
      responses_.clear();
    }
    ftsched::server::ServerOptions server_options;
    server_options.max_inflight = std::max<std::size_t>(1, options_.threads - 1);
    server_options.queue_limit = options_.threads;
    server_options.cache_capacity = kServiceCache;
    server_options.session.threads = 1;
    server_ = std::make_unique<ftsched::server::CampaignServer>(server_options);
    server_->start();
    port_ = server_->port();
    for (std::size_t i = 0; i < kServicePool; ++i) {
      const std::string bytes =
          instance_bytes(make_instance(mix_seed(options_.seed, 3000 + i)));
      remember(i, bytes);
      const std::string response = request(i, bytes);
      if (response.rfind("caft-campaign-report v1\n", 0) != 0)
        throw std::runtime_error("service-mix: warm-up request failed");
    }
  }

  std::size_t clients(std::size_t threads) const override { return threads; }

  OpSample op(std::size_t threads, std::size_t leg, std::size_t client,
              std::size_t k) override {
    (void)threads;
    const std::size_t phase = mix_seed(options_.seed, 5000 + client) %
                              kServiceColdEvery;
    const bool cold = (k + phase) % kServiceColdEvery == 0;
    std::uint64_t key = 0;
    std::string bytes;
    if (cold) {
      // Unique per (leg, client, k): never seen by this server before.
      key = 1'000'000 * (leg + 1) + 10'000 * client + k;
      bytes = instance_bytes(make_instance(mix_seed(options_.seed, key)));
      remember(key, bytes);
    } else {
      key = mix_seed(options_.seed, 6000 + 7919 * leg + 104729 * client + k) %
            kServicePool;
      const std::lock_guard<std::mutex> guard(log_lock_);
      bytes = instances_.at(key);
    }

    OpSample sample;
    sample.cold = cold;
    sample.instances = 1;
    const Clock::time_point begin = Clock::now();
    std::string response;
    {
      const Span span("service.request", request_id_for(leg, client, k));
      response = request(key, bytes);
    }
    sample.latency_ms = seconds_since(begin) * 1e3;
    sample.ok = response.rfind("caft-campaign-report v1\n", 0) == 0;
    if (sample.ok) sample.replays = 3 * kServiceReplays;
    {
      const std::lock_guard<std::mutex> guard(log_lock_);
      responses_.emplace_back(key, std::move(response));
    }
    return sample;
  }

  void check(Gates& gates, const LegResult& one,
             const LegResult& many) override {
    gates.check(one.failed == 0 && many.failed == 0,
                "every request answered with a report (no busy or error)");
    // Reference: serialize an in-process Session::evaluate of the same
    // instance bytes and spec, computed once per distinct instance.
    std::vector<std::pair<std::uint64_t, std::string>> work(instances_.begin(),
                                                            instances_.end());
    std::vector<std::string> references(work.size());
    std::vector<char> prop52(work.size(), 0);
    std::vector<std::thread> pool;
    const std::size_t workers = std::min(options_.threads, work.size());
    for (std::size_t w = 0; w < workers; ++w)
      pool.emplace_back([&, w] {
        for (std::size_t i = w; i < work.size(); i += workers) {
          std::istringstream in(work[i].second);
          const ftsched::Instance instance = ftsched::Instance::load(in);
          ftsched::SessionOptions session_options;
          session_options.threads = 1;
          const ftsched::CampaignReport report =
              ftsched::Session(session_options)
                  .evaluate(instance, spec_for(work[i].first));
          references[i] = report_bytes(report);
          prop52[i] = within_eps_all_succeed(report) ? 1 : 0;
        }
      });
    for (std::thread& thread : pool) thread.join();
    std::map<std::uint64_t, std::size_t> index;
    for (std::size_t i = 0; i < work.size(); ++i) {
      index[work[i].first] = i;
      gates.check(prop52[i] != 0, "Proposition 5.2 on every campaign");
    }
    for (const auto& [key, response] : responses_) {
      const auto it = index.find(key);
      gates.check(it != index.end() && references[it->second] == response,
                  "server report byte-identical to in-process "
                  "Session::evaluate");
    }
  }

  LayerSubject subject() const override {
    LayerSubject subject;
    std::istringstream in(instances_.at(0));
    subject_instance_ =
        std::make_unique<ftsched::Instance>(ftsched::Instance::load(in));
    subject.instance = subject_instance_.get();
    subject.spec = spec_for(0);
    subject.make_instance = [this](std::uint64_t seed) {
      return make_instance(seed);
    };
    return subject;
  }

 private:
  [[nodiscard]] static ftsched::Instance make_instance(std::uint64_t seed) {
    return paper_instance(seed, 80, 120, 10, 2);
  }

  /// Spec of every request on instance `key`: a uniform-k campaign whose
  /// seed is a function of the instance, so references are per instance.
  [[nodiscard]] ftsched::CampaignSpec spec_for(std::uint64_t key) const {
    ftsched::CampaignSpec spec =
        campaign_spec({"caft", "ftsa", "ftbar"},
                      ftsched::SamplerSpec::uniform_k(2), kServiceReplays, 2);
    spec.seed = mix_seed(options_.seed, 4000 + key);
    return spec;
  }

  [[nodiscard]] static std::uint64_t request_id_for(std::size_t leg,
                                                    std::size_t client,
                                                    std::size_t k) {
    return 1 + (leg << 40) + (static_cast<std::uint64_t>(client) << 32) + k;
  }

  void remember(std::uint64_t key, const std::string& bytes) {
    const std::lock_guard<std::mutex> guard(log_lock_);
    instances_.emplace(key, bytes);
  }

  /// One request over its own connection; returns the raw response bytes.
  [[nodiscard]] std::string request(std::uint64_t key,
                                    const std::string& bytes) const {
    ftsched::server::CampaignRequest campaign_request;
    campaign_request.spec = spec_for(key);
    campaign_request.instance_bytes = bytes;
    const std::unique_ptr<ftsched::server::SocketStream> stream =
        ftsched::server::connect_to("127.0.0.1", port_);
    ftsched::server::write_campaign_request(*stream, campaign_request);
    stream->flush();
    return std::string(std::istreambuf_iterator<char>(*stream),
                       std::istreambuf_iterator<char>());
  }

  const Options& options_;
  std::unique_ptr<ftsched::server::CampaignServer> server_;
  std::uint16_t port_ = 0;
  mutable std::unique_ptr<ftsched::Instance> subject_instance_;
  std::mutex log_lock_;
  std::map<std::uint64_t, std::string> instances_;  ///< key -> bytes
  std::vector<std::pair<std::uint64_t, std::string>> responses_;
};

}  // namespace

std::string report_bytes(const ftsched::CampaignReport& report) {
  std::ostringstream out;
  ftsched::server::write_campaign_report(out, report);
  return out.str();
}

bool within_eps_all_succeed(const ftsched::CampaignReport& report) {
  for (const ftsched::CampaignRun& run : report.runs)
    if (run.summary.successes_within_eps != run.summary.replays_within_eps)
      return false;
  return true;
}

bool same_result(const caft::CrashResult& a, const caft::CrashResult& b) {
  return a.success == b.success && a.latency == b.latency &&
         a.completed == b.completed && a.finish == b.finish &&
         a.delivered_messages == b.delivered_messages &&
         a.order_relaxations == b.order_relaxations &&
         a.order_deadlock == b.order_deadlock;
}

std::string instance_bytes(const ftsched::Instance& instance) {
  std::ostringstream out;
  instance.save(out);
  return out.str();
}

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        const Options& options) {
  if (name == "uniform-k") return std::make_unique<UniformKWorkload>(options);
  if (name == "crash-window")
    return std::make_unique<CrashWindowWorkload>(options);
  if (name == "paper-figure")
    return std::make_unique<PaperFigureWorkload>(options);
  if (name == "service-mix")
    return std::make_unique<ServiceMixWorkload>(options);
  return nullptr;
}

}  // namespace perfbench
