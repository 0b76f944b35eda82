// Tests for the campaign server (src/server/): the wire documents, the
// admission controller, the content-addressed cache, and the headline
// guarantee — a server's report document is byte-identical to serializing
// an in-process Session::evaluate of the same (instance bytes, spec),
// cache hit or miss, alone or under concurrent mixed load. Cache behavior
// is asserted through the server.cache.* obs counters, never wall-clock.
//
// The `*Identity*` tests double as the `campaign_server_identity` ctest
// (see CMakeLists.txt).
#include "server/server.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "api/api.hpp"
#include "api/campaign_wire.hpp"
#include "helpers.hpp"
#include "obs/obs.hpp"
#include "server/server_wire.hpp"
#include "server/socket.hpp"

namespace ftsched {
namespace {

/// A randomized instance following the paper's protocol, adopted from the
/// shared test fixture (stable platform/costs addresses).
Instance random_instance(std::uint64_t seed, std::size_t procs, double g,
                         std::size_t eps) {
  caft::test::Scenario s = caft::test::random_setup(seed, procs, g);
  return Instance(std::move(s.graph), std::move(s.platform),
                  std::move(s.costs), RunOptions{eps});
}

std::string instance_bytes(const Instance& instance) {
  std::ostringstream bytes;
  instance.save(bytes);
  return bytes.str();
}

/// The spec every test starts from. ε rides the request (spec.request.eps)
/// — the server schedules the instance as its bytes describe it, and the
/// bytes carry no ε.
CampaignSpec base_spec() {
  CampaignSpec spec;
  spec.algorithms = {"caft", "ftsa"};
  spec.sampler = SamplerSpec::uniform_k(1);
  spec.replays = 300;
  spec.seed = 777;
  spec.request.eps = 1;
  return spec;
}

/// What the server must reproduce byte-for-byte: the serialized report of
/// a default in-process Session::evaluate over an instance loaded from the
/// same bytes.
std::string local_document(const std::string& bytes,
                           const CampaignSpec& spec) {
  std::istringstream in(bytes);
  const Instance instance = Instance::load(in);
  std::ostringstream out;
  server::write_campaign_report(out, Session{}.evaluate(instance, spec));
  return out.str();
}

/// One request through the stream-shaped protocol entry point.
std::string serve_once(server::CampaignServer& daemon,
                       const server::CampaignRequest& request) {
  std::ostringstream request_text;
  server::write_campaign_request(request_text, request);
  std::istringstream in(request_text.str());
  std::ostringstream out;
  daemon.serve(in, out);
  return out.str();
}

std::string serve_raw(server::CampaignServer& daemon,
                      const std::string& request_text) {
  std::istringstream in(request_text);
  std::ostringstream out;
  daemon.serve(in, out);
  return out.str();
}

// --- wire round-trips

TEST(CampaignServerWire, RequestRoundTripsThroughTheWire) {
  server::CampaignRequest request;
  request.spec = base_spec();
  request.spec.algorithms = {"caft", "heft"};
  request.spec.sampler = SamplerSpec::window(2, 10.0, 250.5);
  request.spec.replays = 1234;
  request.spec.seed = 99;
  request.spec.quantiles = {0.25, 0.75};
  request.spec.theta_buckets = 32;
  request.spec.exact = true;
  request.spec.target_ci_width = 0.125;
  request.spec.request.eps = 2;
  request.spec.request.one_to_one = false;
  request.progress = true;
  request.instance_bytes = "not parsed by the wire layer\njust carried\n";

  std::ostringstream out;
  server::write_campaign_request(out, request);
  std::istringstream in(out.str());
  const server::CampaignRequest parsed = server::read_campaign_request(in);

  EXPECT_EQ(parsed.spec.algorithms, request.spec.algorithms);
  EXPECT_EQ(parsed.spec.sampler.kind, request.spec.sampler.kind);
  EXPECT_EQ(parsed.spec.sampler.failures, request.spec.sampler.failures);
  EXPECT_EQ(parsed.spec.sampler.theta_hi, request.spec.sampler.theta_hi);
  EXPECT_EQ(parsed.spec.replays, request.spec.replays);
  EXPECT_EQ(parsed.spec.seed, request.spec.seed);
  EXPECT_EQ(parsed.spec.quantiles, request.spec.quantiles);
  EXPECT_EQ(parsed.spec.theta_buckets, request.spec.theta_buckets);
  EXPECT_EQ(parsed.spec.exact, request.spec.exact);
  EXPECT_EQ(parsed.spec.target_ci_width, request.spec.target_ci_width);
  EXPECT_EQ(parsed.spec.request.eps, request.spec.request.eps);
  EXPECT_EQ(parsed.spec.request.one_to_one, request.spec.request.one_to_one);
  EXPECT_EQ(parsed.progress, request.progress);
  EXPECT_EQ(parsed.instance_bytes, request.instance_bytes);

  // And the round-trip is a fixed point: re-serializing the parsed request
  // yields the same bytes (hexfloat doubles make this exact).
  std::ostringstream again;
  server::write_campaign_request(again, parsed);
  EXPECT_EQ(again.str(), out.str());
}

/// The CheckError message `read_campaign_request` throws on `text`, or ""
/// when it throws nothing (any other exception escapes and fails the test).
std::string request_error(const std::string& text) {
  std::istringstream in(text);
  try {
    (void)server::read_campaign_request(in);
  } catch (const caft::CheckError& error) {
    return error.what();
  }
  return "";
}

TEST(CampaignServerWire, DeclaredCountsAllocateNothingAheadOfThePayload) {
  // A request, work order or partial of a few dozen bytes may declare any
  // size; the reader must fail on what actually arrives instead of
  // allocating what was declared. The request and the work order read the
  // payload through one codec.
  EXPECT_NE(request_error("caft-campaign-request v1\n"
                          "instance-bytes 1099511627776\n0123456789")
                .find("truncated instance payload (got 10 of 1099511627776"),
            std::string::npos);
  std::istringstream order("caft-campaign-work v4\n"
                           "instance-bytes 1099511627776\n0123456789");
  try {
    (void)read_campaign_work_order(order);
    ADD_FAILURE() << "a short work-order payload was accepted";
  } catch (const caft::CheckError& error) {
    EXPECT_NE(std::string(error.what())
                  .find("truncated instance payload (got 10 of 1099511627776"),
              std::string::npos);
  }
  // A partial's records header may declare any count its block echoes;
  // the reader grows the record list as `r` lines arrive, so this one
  // fails on its first non-record line, not on a giant reservation.
  std::istringstream partial("caft-campaign-partial v1\n"
                             "algorithm caft\n"
                             "block 0 1099511627776\n"
                             "records 1099511627776\n"
                             "end\n");
  try {
    (void)read_campaign_partial(partial);
    ADD_FAILURE() << "a partial without its records was accepted";
  } catch (const caft::CheckError& error) {
    EXPECT_NE(std::string(error.what()).find("bad record line 'end'"),
              std::string::npos)
        << error.what();
  }
  EXPECT_NE(request_error("caft-campaign-request v1\n"
                          "quantiles 1000000000000 0.5\nend\n")
                .find("missing quantile"),
            std::string::npos);
  EXPECT_NE(request_error("caft-campaign-request v1\n"
                          "algorithms 1000000000000 caft\nend\n")
                .find("missing algorithm name"),
            std::string::npos);
}

TEST(CampaignServerWire, RequestRejectsMalformedSeeds) {
  server::CampaignRequest request;
  request.spec = base_spec();
  request.instance_bytes = "x\n";
  std::ostringstream out;
  server::write_campaign_request(out, request);
  const std::string good = out.str();
  ASSERT_EQ(request_error(good), "");
  for (const char* seed : {"12x", "-1", "18446744073709551616"}) {
    std::string doc = good;
    const std::size_t at = doc.find("seed ");
    doc.replace(at, doc.find('\n', at) - at, std::string("seed ") + seed);
    EXPECT_NE(request_error(doc).find("malformed seed"), std::string::npos)
        << seed;
  }
}

TEST(CampaignServerWire, ReportRoundTripsIntoAReadableDocument) {
  const Instance instance = random_instance(21, 6, 1.0, 1);
  CampaignSpec spec = base_spec();
  spec.replays = 120;
  const Session session;
  const CampaignReport report = session.evaluate(instance, spec);

  std::ostringstream out;
  server::write_campaign_report(out, report);
  std::istringstream in(out.str());
  const server::ReportDocument document = server::read_campaign_report(in);

  ASSERT_EQ(document.runs.size(), report.runs.size());
  for (std::size_t i = 0; i < report.runs.size(); ++i) {
    const CampaignRun& run = report.runs[i];
    const server::ReportRun& parsed = document.runs[i];
    EXPECT_EQ(parsed.algorithm, run.algorithm);
    EXPECT_EQ(parsed.eps, run.result.eps);
    EXPECT_EQ(parsed.makespan, run.result.makespan);
    EXPECT_EQ(parsed.upper_bound, run.result.upper_bound);
    EXPECT_EQ(parsed.messages, run.result.messages);
    EXPECT_EQ(parsed.message_volume, run.result.message_volume);
    EXPECT_EQ(parsed.theta_bucket_width, run.theta_bucket_width);
    EXPECT_EQ(parsed.summary.sampler, run.summary.sampler);
    EXPECT_EQ(parsed.summary.replays, run.summary.replays);
    EXPECT_EQ(parsed.summary.successes, run.summary.successes);
    EXPECT_EQ(parsed.summary.success_ci.low, run.summary.success_ci.low);
    EXPECT_EQ(parsed.summary.success_ci.high, run.summary.success_ci.high);
    EXPECT_EQ(parsed.summary.latency.count(), run.summary.latency.count());
    EXPECT_EQ(parsed.summary.latency.mean(), run.summary.latency.mean());
    EXPECT_EQ(parsed.summary.latency.m2(), run.summary.latency.m2());
    EXPECT_EQ(parsed.summary.delivered_messages.mean(),
              run.summary.delivered_messages.mean());
    ASSERT_EQ(parsed.summary.latency_quantiles.size(),
              run.summary.latency_quantiles.size());
    for (std::size_t q = 0; q < run.summary.latency_quantiles.size(); ++q) {
      EXPECT_EQ(parsed.summary.latency_quantiles[q].q,
                run.summary.latency_quantiles[q].q);
      EXPECT_EQ(parsed.summary.latency_quantiles[q].value,
                run.summary.latency_quantiles[q].value);
    }
  }
  // summary_rows parity: the client renders exactly what the local report
  // would have rendered.
  const auto local_rows = report.summary_rows();
  const auto wire_rows = document.summary_rows();
  ASSERT_EQ(wire_rows.size(), local_rows.size());
  for (std::size_t i = 0; i < local_rows.size(); ++i)
    EXPECT_EQ(wire_rows[i].first, local_rows[i].first);
}

TEST(CampaignServerWire, BusyAndErrorDocumentsRoundTrip) {
  std::ostringstream busy_out;
  server::write_campaign_busy(busy_out, server::BusyInfo{3, 7, 4, 8});
  std::istringstream busy_in(busy_out.str());
  const server::ServerResponse busy = server::read_server_response(busy_in);
  ASSERT_EQ(busy.kind, server::ServerResponse::Kind::kBusy);
  EXPECT_EQ(busy.busy.inflight, 3u);
  EXPECT_EQ(busy.busy.queued, 7u);
  EXPECT_EQ(busy.busy.max_inflight, 4u);
  EXPECT_EQ(busy.busy.queue_limit, 8u);

  std::ostringstream error_out;
  server::write_campaign_error(error_out, "multi\nline\nmessage");
  std::istringstream error_in(error_out.str());
  const server::ServerResponse error =
      server::read_server_response(error_in);
  ASSERT_EQ(error.kind, server::ServerResponse::Kind::kError);
  // Embedded newlines were flattened — the message rides one keyed line.
  EXPECT_EQ(error.error, "multi line message");
}

TEST(CampaignServerWire, ResponseReaderStripsAndReportsProgressLines) {
  std::ostringstream out;
  server::write_progress_line(out, server::ProgressLine{"caft", 64, 300, 60,
                                                        0.25});
  server::write_progress_line(out, server::ProgressLine{"caft", 128, 300,
                                                        120, 0.125});
  server::write_campaign_busy(out, server::BusyInfo{1, 0, 1, 0});
  std::istringstream in(out.str());
  std::vector<std::size_t> seen;
  const server::ServerResponse response = server::read_server_response(
      in, [&](const server::ProgressLine& line) {
        seen.push_back(line.done);
      });
  EXPECT_EQ(response.kind, server::ServerResponse::Kind::kBusy);
  ASSERT_EQ(response.progress.size(), 2u);
  EXPECT_EQ(response.progress[0].algorithm, "caft");
  EXPECT_EQ(response.progress[1].ci_width, 0.125);
  EXPECT_EQ(seen, (std::vector<std::size_t>{64, 128}));
}

// --- admission

TEST(Admission, ZeroInflightRejectsEverythingImmediately) {
  server::Admission admission(0, 8);
  const server::Admission::Ticket ticket = admission.acquire();
  EXPECT_FALSE(ticket.admitted);
  EXPECT_EQ(ticket.inflight, 0u);
  EXPECT_EQ(ticket.queued, 0u);
}

TEST(Admission, RejectsBeyondTheQueueLimitAndRecoversOnRelease) {
  server::Admission admission(1, 0);  // one slot, no queue
  const server::Admission::Ticket first = admission.acquire();
  ASSERT_TRUE(first.admitted);
  const server::Admission::Ticket second = admission.acquire();
  EXPECT_FALSE(second.admitted);  // slot busy, queue full (size 0)
  EXPECT_EQ(second.inflight, 1u);
  admission.release();
  const server::Admission::Ticket third = admission.acquire();
  EXPECT_TRUE(third.admitted);
  admission.release();
}

TEST(Admission, QueuedAcquirerProceedsWhenASlotFrees) {
  server::Admission admission(1, 1);
  const server::Admission::Ticket first = admission.acquire();
  ASSERT_TRUE(first.admitted);
  std::atomic<bool> second_admitted{false};
  std::thread waiter([&] {
    const server::Admission::Ticket second = admission.acquire();
    EXPECT_TRUE(second.admitted);
    second_admitted.store(true);
    admission.release();
  });
  admission.release();  // frees the slot; the queued waiter takes it
  waiter.join();
  EXPECT_TRUE(second_admitted.load());
}

// --- protocol behavior through serve()

TEST(CampaignServer, SaturatedServerAnswersWithABusyDocument) {
  server::ServerOptions options;
  options.max_inflight = 0;  // maintenance mode: deterministic rejection
  options.queue_limit = 5;
  server::CampaignServer daemon(options);

  const Instance instance = random_instance(31, 6, 1.0, 1);
  server::CampaignRequest request;
  request.spec = base_spec();
  request.instance_bytes = instance_bytes(instance);

  std::istringstream response_in(serve_once(daemon, request));
  const server::ServerResponse response =
      server::read_server_response(response_in);
  ASSERT_EQ(response.kind, server::ServerResponse::Kind::kBusy);
  EXPECT_EQ(response.busy.max_inflight, 0u);
  EXPECT_EQ(response.busy.queue_limit, 5u);
}

TEST(CampaignServer, VersionSkewBecomesAnErrorDocumentNamingV1) {
  server::CampaignServer daemon(server::ServerOptions{});
  const std::string response_text =
      serve_raw(daemon, "caft-campaign-request v2\nend\n");
  std::istringstream response_in(response_text);
  const server::ServerResponse response =
      server::read_server_response(response_in);
  ASSERT_EQ(response.kind, server::ServerResponse::Kind::kError);
  EXPECT_NE(response.error.find("caft-campaign-request v2"),
            std::string::npos);
  EXPECT_NE(response.error.find("speaks v1"), std::string::npos);
}

TEST(CampaignServer, BadRequestsBecomeErrorDocumentsNotDroppedStreams) {
  server::CampaignServer daemon(server::ServerOptions{});
  const Instance instance = random_instance(32, 6, 1.0, 1);

  // Unknown algorithm: the canonical registry error rides the document.
  server::CampaignRequest request;
  request.spec = base_spec();
  request.spec.algorithms = {"nonesuch"};
  request.instance_bytes = instance_bytes(instance);
  std::istringstream unknown_in(serve_once(daemon, request));
  const server::ServerResponse unknown =
      server::read_server_response(unknown_in);
  ASSERT_EQ(unknown.kind, server::ServerResponse::Kind::kError);
  EXPECT_NE(unknown.error.find("unknown algo 'nonesuch'"),
            std::string::npos);

  // Garbage instance bytes: the loader's error, still a document.
  request.spec = base_spec();
  request.instance_bytes = "this is not an instance file\n";
  std::istringstream garbage_in(serve_once(daemon, request));
  const server::ServerResponse garbage =
      server::read_server_response(garbage_in);
  EXPECT_EQ(garbage.kind, server::ServerResponse::Kind::kError);

  // Truncated request (no 'end'): a document too.
  std::istringstream truncated_in(
      serve_raw(daemon, "caft-campaign-request v1\nreplays 10\n"));
  const server::ServerResponse truncated =
      server::read_server_response(truncated_in);
  EXPECT_EQ(truncated.kind, server::ServerResponse::Kind::kError);
}

// --- the headline guarantee

TEST(CampaignServer, ReportIdentityColdAndWarmWithCacheHitsObserved) {
  obs::Registry& registry = obs::Registry::global();
  registry.set_enabled(true);

  server::ServerOptions options;
  options.cache_capacity = 64;
  server::CampaignServer daemon(options);

  const Instance instance = random_instance(33, 8, 1.0, 1);
  server::CampaignRequest request;
  request.spec = base_spec();
  request.instance_bytes = instance_bytes(instance);
  const std::string expected =
      local_document(request.instance_bytes, request.spec);

  const std::uint64_t hits_before =
      registry.snapshot().counter_value("server.cache.hit");
  const std::uint64_t misses_before =
      registry.snapshot().counter_value("server.cache.miss");

  // Cold: every artifact family misses, report already byte-identical.
  EXPECT_EQ(serve_once(daemon, request), expected);
  const std::uint64_t misses_cold =
      registry.snapshot().counter_value("server.cache.miss");
  EXPECT_GE(misses_cold - misses_before, 3u);  // instance + schedules

  // Warm: the same bytes hit every family, and the report must not move
  // by a single byte — the cache-hit path is observed via counters, never
  // wall-clock.
  EXPECT_EQ(serve_once(daemon, request), expected);
  const std::uint64_t hits_after =
      registry.snapshot().counter_value("server.cache.hit");
  const std::uint64_t misses_after =
      registry.snapshot().counter_value("server.cache.miss");
  EXPECT_GE(hits_after - hits_before, 3u);
  EXPECT_EQ(misses_after, misses_cold);  // warm run misses nothing

  registry.set_enabled(false);
}

// An exact request replays unbucketed, exactly as a request without buckets
// does, so it reuses that request's replay template: exact is keyed on the
// width it implies (0), not on the flag.
TEST(CampaignServer, ExactRequestHitsTheUnbucketedReplayTemplate) {
  obs::Registry& registry = obs::Registry::global();
  registry.set_enabled(true);
  server::CampaignServer daemon(server::ServerOptions{});

  const Instance instance = random_instance(35, 6, 1.0, 1);
  server::CampaignRequest request;
  request.spec = base_spec();
  request.spec.algorithms = {"caft"};
  request.spec.sampler = SamplerSpec::window(1, 0.0, 300.0);
  request.spec.theta_buckets = 0;
  request.spec.exact = false;
  request.instance_bytes = instance_bytes(instance);
  EXPECT_EQ(serve_once(daemon, request),
            local_document(request.instance_bytes, request.spec));
  const std::uint64_t misses =
      registry.snapshot().counter_value("server.cache.miss");

  request.spec.exact = true;
  EXPECT_EQ(serve_once(daemon, request),
            local_document(request.instance_bytes, request.spec));
  EXPECT_EQ(registry.snapshot().counter_value("server.cache.miss"), misses);
  registry.set_enabled(false);
}

TEST(CampaignServer, ReportIdentityWindowSamplerAndEarlyStopping) {
  server::CampaignServer daemon(server::ServerOptions{});

  const Instance instance = random_instance(44, 8, 1.0, 1);

  // Window sampler, full replay budget.
  server::CampaignRequest request;
  request.spec = base_spec();
  request.spec.sampler = SamplerSpec::window(2, 0.0, 500.0);
  request.instance_bytes = instance_bytes(instance);
  EXPECT_EQ(serve_once(daemon, request),
            local_document(request.instance_bytes, request.spec));

  // Early-stopped campaign: the stopping point is a function of the spec
  // alone, so the server (cold, then warm) still reproduces the local
  // document byte-for-byte.
  server::CampaignRequest stopped = request;
  stopped.spec.sampler = SamplerSpec::uniform_k(2);
  stopped.spec.replays = 4000;
  stopped.spec.target_ci_width = 0.2;
  const std::string expected =
      local_document(stopped.instance_bytes, stopped.spec);
  const std::string cold = serve_once(daemon, stopped);
  EXPECT_EQ(cold, expected);
  EXPECT_EQ(serve_once(daemon, stopped), expected);  // warm

  // The campaign genuinely stopped early (otherwise this tests nothing).
  std::istringstream parsed_in(cold);
  const server::ReportDocument parsed =
      server::read_campaign_report(parsed_in);
  ASSERT_FALSE(parsed.runs.empty());
  EXPECT_LT(parsed.runs.front().summary.replays, 4000u);
  EXPECT_GT(parsed.runs.front().summary.replays, 0u);
}

TEST(CampaignServer, ReportIdentityUnderConcurrentMixedLoadOverSockets) {
  server::ServerOptions options;
  options.max_inflight = 4;
  options.queue_limit = 8;
  server::CampaignServer daemon(options);
  daemon.start();
  const std::uint16_t port = daemon.port();

  const Instance uniform_instance = random_instance(55, 6, 1.0, 1);
  const Instance window_instance = random_instance(56, 6, 0.5, 1);

  server::CampaignRequest uniform_request;
  uniform_request.spec = base_spec();
  uniform_request.spec.replays = 200;
  uniform_request.instance_bytes = instance_bytes(uniform_instance);

  server::CampaignRequest window_request;
  window_request.spec = base_spec();
  window_request.spec.replays = 200;
  window_request.spec.sampler = SamplerSpec::window(2, 0.0, 400.0);
  window_request.instance_bytes = instance_bytes(window_instance);

  const std::string uniform_expected =
      local_document(uniform_request.instance_bytes, uniform_request.spec);
  const std::string window_expected =
      local_document(window_request.instance_bytes, window_request.spec);

  // Two clients ask for the same campaign (one will warm the other's
  // cache, in whichever order the threads land), a third asks for a
  // different instance+sampler concurrently. Every byte must match the
  // local documents regardless.
  const auto fetch = [port](const server::CampaignRequest& request) {
    const auto connection = server::connect_to("127.0.0.1", port);
    server::write_campaign_request(*connection, request);
    connection->flush();
    std::ostringstream response;
    response << connection->rdbuf();
    return response.str();
  };

  std::string first, second, third;
  std::thread a([&] { first = fetch(uniform_request); });
  std::thread b([&] { second = fetch(uniform_request); });
  std::thread c([&] { third = fetch(window_request); });
  a.join();
  b.join();
  c.join();
  daemon.stop();

  EXPECT_EQ(first, uniform_expected);
  EXPECT_EQ(second, uniform_expected);
  EXPECT_EQ(third, window_expected);
}

// --- cache eviction and lifecycle

TEST(CampaignServer, TinyCacheEvictsButNeverChangesAReport) {
  obs::Registry& registry = obs::Registry::global();
  registry.set_enabled(true);
  const std::uint64_t evictions_before =
      registry.snapshot().counter_value("server.cache.evict");

  server::ServerOptions options;
  options.cache_capacity = 1;  // pathological: every family fights for it
  server::CampaignServer daemon(options);

  const Instance first_instance = random_instance(61, 6, 1.0, 1);
  const Instance second_instance = random_instance(62, 6, 1.0, 1);
  server::CampaignRequest request;
  request.spec = base_spec();
  request.spec.replays = 120;
  request.spec.algorithms = {"caft"};

  request.instance_bytes = instance_bytes(first_instance);
  const std::string first_expected =
      local_document(request.instance_bytes, request.spec);
  server::CampaignRequest other = request;
  other.instance_bytes = instance_bytes(second_instance);
  const std::string second_expected =
      local_document(other.instance_bytes, other.spec);

  // Alternate the two campaigns so the single-entry cache thrashes.
  EXPECT_EQ(serve_once(daemon, request), first_expected);
  EXPECT_EQ(serve_once(daemon, other), second_expected);
  EXPECT_EQ(serve_once(daemon, request), first_expected);
  EXPECT_EQ(serve_once(daemon, other), second_expected);

  const std::uint64_t evictions_after =
      registry.snapshot().counter_value("server.cache.evict");
  EXPECT_GT(evictions_after, evictions_before);
  registry.set_enabled(false);
}

TEST(CampaignServer, StartStopDrainsAndRestarts) {
  server::ServerOptions options;
  server::CampaignServer daemon(options);
  daemon.start();
  EXPECT_NE(daemon.port(), 0u);  // ephemeral port resolved
  EXPECT_THROW(daemon.start(), caft::CheckError);  // already running

  // A full request/response cycle over a real socket, then a drain.
  const Instance instance = random_instance(71, 6, 1.0, 1);
  server::CampaignRequest request;
  request.spec = base_spec();
  request.spec.replays = 60;
  request.spec.algorithms = {"caft"};
  request.instance_bytes = instance_bytes(instance);
  {
    const auto connection = server::connect_to("127.0.0.1", daemon.port());
    server::write_campaign_request(*connection, request);
    connection->flush();
    const server::ServerResponse response =
        server::read_server_response(*connection);
    EXPECT_EQ(response.kind, server::ServerResponse::Kind::kReport);
  }
  daemon.stop();
  daemon.stop();  // idempotent

  // The server restarts cleanly after a drain (new ephemeral port).
  daemon.start();
  EXPECT_NE(daemon.port(), 0u);
  daemon.stop();
}

TEST(CampaignServer, SilentClientDoesNotBlockStop) {
  server::CampaignServer daemon(server::ServerOptions{});
  daemon.start();
  std::unique_ptr<server::SocketStream> silent =
      server::connect_to("127.0.0.1", daemon.port());

  // Connections are accepted in arrival order: once a later client has its
  // report, the silent one has been accepted and waits for its request.
  const Instance instance = random_instance(73, 6, 1.0, 1);
  server::CampaignRequest request;
  request.spec = base_spec();
  request.spec.replays = 20;
  request.spec.algorithms = {"caft"};
  request.instance_bytes = instance_bytes(instance);
  {
    const auto connection = server::connect_to("127.0.0.1", daemon.port());
    server::write_campaign_request(*connection, request);
    connection->flush();
    EXPECT_EQ(server::read_server_response(*connection).kind,
              server::ServerResponse::Kind::kReport);
  }

  std::future<void> stopped =
      std::async(std::launch::async, [&daemon] { daemon.stop(); });
  const bool prompt = stopped.wait_for(std::chrono::seconds(10)) ==
                      std::future_status::ready;
  // On failure, hang up so the drain completes and the test ends.
  if (!prompt) silent.reset();
  stopped.get();
  ASSERT_TRUE(prompt) << "stop() waited on a client that never sent a request";
  // The silent connection read end-of-file and got an error document.
  EXPECT_EQ(server::read_server_response(*silent).kind,
            server::ServerResponse::Kind::kError);
}

TEST(CampaignServer, RejectsSubprocessExecutionPolicy) {
  server::ServerOptions options;
  options.session.exec =
      ExecutionPolicy::subprocess("/does/not/matter", 2);
  EXPECT_THROW(server::CampaignServer{options}, caft::CheckError);
}

TEST(CampaignServer, StreamsProgressLinesBeforeTheReport) {
  server::CampaignServer daemon(server::ServerOptions{});

  const Instance instance = random_instance(81, 6, 1.0, 1);
  server::CampaignRequest request;
  request.spec = base_spec();
  request.spec.replays = 2 * caft::kCampaignWave + 100;  // three waves
  request.spec.algorithms = {"caft"};
  request.progress = true;
  request.instance_bytes = instance_bytes(instance);

  std::istringstream response_in(serve_once(daemon, request));
  const server::ServerResponse response =
      server::read_server_response(response_in);
  ASSERT_EQ(response.kind, server::ServerResponse::Kind::kReport);
  ASSERT_GE(response.progress.size(), 3u);
  EXPECT_EQ(response.progress.front().algorithm, "caft");
  EXPECT_EQ(response.progress.back().done, request.spec.replays);
  EXPECT_EQ(response.progress.back().total, request.spec.replays);

  // And the report itself is still byte-identical: strip the progress
  // lines (everything before the magic line) and compare.
  request.progress = false;
  const std::string with_progress = serve_once(daemon, request);
  const std::string expected =
      local_document(request.instance_bytes, request.spec);
  EXPECT_EQ(serve_once(daemon, request), expected);
  const std::size_t magic = with_progress.find("caft-campaign-report v1");
  ASSERT_NE(magic, std::string::npos);
  EXPECT_EQ(with_progress.substr(magic), expected);
}

}  // namespace
}  // namespace ftsched
