#include "api/instance.hpp"

#include <utility>

#include "common/check.hpp"

namespace ftsched {

namespace {

std::unique_ptr<caft::InstanceBundle> make_bundle(
    caft::TaskGraph graph, std::unique_ptr<caft::Platform> platform,
    std::unique_ptr<caft::CostModel> costs,
    std::unique_ptr<caft::Schedule> schedule) {
  CAFT_CHECK_MSG(platform != nullptr && costs != nullptr,
                 "instance needs a platform and a cost model");
  CAFT_CHECK_MSG(&costs->platform() == platform.get(),
                 "cost model was built against a different platform object");
  auto bundle = std::make_unique<caft::InstanceBundle>();
  bundle->graph = std::make_unique<caft::TaskGraph>(std::move(graph));
  bundle->platform = std::move(platform);
  bundle->costs = std::move(costs);
  bundle->schedule = std::move(schedule);
  return bundle;
}

}  // namespace

Instance::Instance(std::unique_ptr<caft::InstanceBundle> bundle,
                   RunOptions options)
    : bundle_(std::move(bundle)), options_(options) {}

Instance::Instance(caft::TaskGraph graph,
                   std::unique_ptr<caft::Platform> platform,
                   std::unique_ptr<caft::CostModel> costs, RunOptions options,
                   std::unique_ptr<caft::Schedule> schedule)
    : Instance(make_bundle(std::move(graph), std::move(platform),
                           std::move(costs), std::move(schedule)),
               options) {}

namespace {

std::unique_ptr<caft::InstanceBundle> synthesize_bundle(
    caft::TaskGraph graph, caft::Platform platform,
    const caft::CostSynthesisParams& params, caft::Rng& rng) {
  auto bundle = std::make_unique<caft::InstanceBundle>();
  bundle->graph = std::make_unique<caft::TaskGraph>(std::move(graph));
  bundle->platform = std::make_unique<caft::Platform>(std::move(platform));
  // Costs are synthesized against the *stored* platform so the internal
  // pointer is stable for the lifetime of the instance.
  bundle->costs = std::make_unique<caft::CostModel>(
      synthesize_costs(*bundle->graph, *bundle->platform, params, rng));
  return bundle;
}

}  // namespace

Instance::Instance(caft::TaskGraph graph, caft::Platform platform,
                   const caft::CostSynthesisParams& params, caft::Rng& rng,
                   RunOptions options)
    : Instance(synthesize_bundle(std::move(graph), std::move(platform), params,
                                 rng),
               options) {}

Instance::Instance(caft::TaskGraph graph, caft::Platform platform,
                   const caft::CostSynthesisParams& params,
                   std::uint64_t cost_seed, RunOptions options)
    : options_(options) {
  caft::Rng rng(cost_seed);
  bundle_ = synthesize_bundle(std::move(graph), std::move(platform), params,
                              rng);
}

Instance Instance::load(const std::string& path, RunOptions options) {
  auto bundle = std::make_unique<caft::InstanceBundle>(
      caft::load_instance_file(path));
  if (bundle->schedule != nullptr) {
    options.eps = bundle->schedule->eps();
    options.model = bundle->schedule->model();
  }
  return Instance(std::move(bundle), options);
}

Instance Instance::load(std::istream& is, RunOptions options) {
  auto bundle =
      std::make_unique<caft::InstanceBundle>(caft::load_instance(is));
  if (bundle->schedule != nullptr) {
    options.eps = bundle->schedule->eps();
    options.model = bundle->schedule->model();
  }
  return Instance(std::move(bundle), options);
}

void Instance::save(const std::string& path,
                    const caft::Schedule* schedule) const {
  caft::save_instance_file(path, graph(), platform(), costs(), schedule);
}

void Instance::save(std::ostream& os, const caft::Schedule* schedule) const {
  caft::save_instance(os, graph(), platform(), costs(), schedule);
}

void Instance::validate(std::size_t eps) const {
  const std::size_t tasks = graph().task_count();
  const std::size_t m = proc_count();
  CAFT_CHECK_MSG(tasks > 0, "instance has no tasks");
  CAFT_CHECK_MSG(
      costs().task_count() == tasks,
      "cost model covers " + std::to_string(costs().task_count()) +
          " tasks but the graph has " + std::to_string(tasks) +
          " — the costs were synthesized for a different graph");
  CAFT_CHECK_MSG(costs().proc_count() == m,
                 "cost model covers " + std::to_string(costs().proc_count()) +
                     " processors but the platform has " + std::to_string(m));
  CAFT_CHECK_MSG(m <= caft::kMaxProcessors,
                 "platforms are capped at " +
                     std::to_string(caft::kMaxProcessors) +
                     " processors (support masks are 64-bit); got m=" +
                     std::to_string(m));
  CAFT_CHECK_MSG(eps < m,
                 "eps=" + std::to_string(eps) + " needs " +
                     std::to_string(eps + 1) +
                     " replicas per task on distinct processors, but the "
                     "platform has only m=" + std::to_string(m) +
                     " — eps must be < m");
}

}  // namespace ftsched
