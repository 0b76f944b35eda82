// Tests for the campaign wire format (api/campaign_wire.hpp): bit-exact
// round-trip of work orders and partial results (hexfloat doubles, inf/nan,
// optional request overrides), and strict rejection of malformed or
// internally inconsistent documents — a poisoned worker must be *detected*,
// never folded.
#include "api/campaign_wire.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "common/check.hpp"

namespace ftsched {
namespace {

using caft::CheckError;
using caft::ReplayRecord;

CampaignWorkOrder sample_order() {
  CampaignWorkOrder order;
  // Raw bytes: a line keyed like a work-order line, and no final newline.
  order.instance_bytes = "caft-instance v1\nexec 0 0 12.5\nend\n  tail";
  order.algorithm = "caft-batch";
  order.first = 1024;
  order.count = 311;
  order.spec.algorithms = {"caft-batch"};
  order.spec.replays = 100000;
  order.spec.seed = 0xDEADBEEFCAFEF00DULL;
  order.spec.quantiles = {0.1, 0.5, 0.999};  // 0.1/0.999 are inexact in binary
  order.spec.theta_buckets = 64;
  order.spec.exact = false;
  order.spec.sampler = SamplerSpec::weibull(1.7, 940.25, 1e6);
  order.spec.request.eps = 3;
  order.spec.request.model = caft::CommModelKind::kMacroDataflow;
  order.spec.request.validate = false;
  order.spec.request.support_mode = caft::CaftSupportMode::kDirect;
  order.spec.request.one_to_one = false;
  order.spec.request.batch_size = 17;
  order.spec.request.minimize_start_time = false;
  order.threads = 3;
  order.expect_makespan = 123.4567891011;
  order.expect_horizon = 200.000000000001;
  return order;
}

std::string to_text(const CampaignWorkOrder& order) {
  std::ostringstream os;
  write_campaign_work_order(os, order);
  return os.str();
}

TEST(CampaignWire, WorkOrderRoundTripsBitExactly) {
  const CampaignWorkOrder order = sample_order();
  const std::string text = to_text(order);
  EXPECT_EQ(text.rfind("caft-campaign-work v4\n", 0), 0u);
  EXPECT_NE(text.find("\nexec 3\n"), std::string::npos);
  EXPECT_NE(text.find("\ninstance-bytes 41\n"), std::string::npos);
  std::istringstream is(text);
  const CampaignWorkOrder back = read_campaign_work_order(is);

  EXPECT_EQ(back.instance_bytes, order.instance_bytes);
  EXPECT_EQ(back.algorithm, order.algorithm);
  EXPECT_EQ(back.first, order.first);
  EXPECT_EQ(back.count, order.count);
  EXPECT_EQ(back.spec.replays, order.spec.replays);
  EXPECT_EQ(back.spec.seed, order.spec.seed);
  ASSERT_EQ(back.spec.quantiles.size(), order.spec.quantiles.size());
  for (std::size_t i = 0; i < order.spec.quantiles.size(); ++i)
    EXPECT_EQ(back.spec.quantiles[i], order.spec.quantiles[i]);  // bit-exact
  EXPECT_EQ(back.spec.theta_buckets, order.spec.theta_buckets);
  EXPECT_EQ(back.spec.exact, order.spec.exact);
  EXPECT_EQ(back.spec.sampler.kind, order.spec.sampler.kind);
  EXPECT_EQ(back.spec.sampler.failures, order.spec.sampler.failures);
  EXPECT_EQ(back.spec.sampler.rate, order.spec.sampler.rate);
  EXPECT_EQ(back.spec.sampler.shape, order.spec.sampler.shape);
  EXPECT_EQ(back.spec.sampler.scale, order.spec.sampler.scale);
  EXPECT_EQ(back.spec.sampler.horizon, order.spec.sampler.horizon);
  EXPECT_EQ(back.spec.sampler.theta_lo, order.spec.sampler.theta_lo);
  EXPECT_EQ(back.spec.sampler.theta_hi, order.spec.sampler.theta_hi);
  EXPECT_EQ(back.spec.sampler.group_size, order.spec.sampler.group_size);
  EXPECT_EQ(back.spec.sampler.group_prob, order.spec.sampler.group_prob);
  ASSERT_TRUE(back.spec.request.eps.has_value());
  EXPECT_EQ(*back.spec.request.eps, 3u);
  ASSERT_TRUE(back.spec.request.model.has_value());
  EXPECT_EQ(*back.spec.request.model, caft::CommModelKind::kMacroDataflow);
  EXPECT_EQ(back.spec.request.validate, false);
  EXPECT_EQ(back.spec.request.support_mode, caft::CaftSupportMode::kDirect);
  EXPECT_EQ(back.spec.request.one_to_one, false);
  EXPECT_EQ(back.spec.request.batch_size, 17u);
  EXPECT_EQ(back.spec.request.minimize_start_time, false);
  EXPECT_EQ(back.threads, order.threads);
  EXPECT_EQ(back.expect_makespan, order.expect_makespan);  // bit-exact
  EXPECT_EQ(back.expect_horizon, order.expect_horizon);
}

TEST(CampaignWire, WorkOrderRoundTripsInfinityAndUnsetOverrides) {
  CampaignWorkOrder order = sample_order();
  order.spec.sampler =
      SamplerSpec::exponential(0.001);  // horizon defaults to +inf
  order.spec.request.eps.reset();
  order.spec.request.model.reset();
  order.expect_makespan = std::numeric_limits<double>::quiet_NaN();
  order.expect_horizon = std::numeric_limits<double>::quiet_NaN();

  std::istringstream is(to_text(order));
  const CampaignWorkOrder back = read_campaign_work_order(is);
  EXPECT_TRUE(std::isinf(back.spec.sampler.horizon));
  EXPECT_GT(back.spec.sampler.horizon, 0.0);
  EXPECT_FALSE(back.spec.request.eps.has_value());
  EXPECT_FALSE(back.spec.request.model.has_value());
  EXPECT_TRUE(std::isnan(back.expect_makespan));
  EXPECT_TRUE(std::isnan(back.expect_horizon));
}

TEST(CampaignWire, WorkOrderRejectsMalformedDocuments) {
  const std::string good = to_text(sample_order());

  {  // wrong magic
    std::istringstream is("caft-campaign-partial v1\nend\n");
    EXPECT_THROW((void)read_campaign_work_order(is), CheckError);
  }
  {  // truncated (no end)
    std::istringstream is(good.substr(0, good.size() - 4));
    EXPECT_THROW((void)read_campaign_work_order(is), CheckError);
  }
  {  // unknown key
    std::string doc = good;
    doc.insert(doc.rfind("end\n"), "mystery 42\n");
    std::istringstream is(doc);
    EXPECT_THROW((void)read_campaign_work_order(is), CheckError);
  }
  {  // an essential line missing: no block
    CampaignWorkOrder order = sample_order();
    std::string doc = to_text(order);
    const std::size_t at = doc.find("block ");
    doc.erase(at, doc.find('\n', at) - at + 1);
    std::istringstream is(doc);
    EXPECT_THROW((void)read_campaign_work_order(is), CheckError);
  }
  {  // empty block
    CampaignWorkOrder order = sample_order();
    order.count = 0;
    std::istringstream is(to_text(order));
    EXPECT_THROW((void)read_campaign_work_order(is), CheckError);
  }
  {  // no instance: the payload line missing, empty, or cut short
    const std::size_t at = good.find("instance-bytes ");
    for (const std::string& tail :
         {std::string("end\n"), std::string("instance-bytes 0\nend\n"),
          std::string("instance-bytes 99\nend\n")}) {
      std::istringstream is(good.substr(0, at) + tail);
      EXPECT_THROW((void)read_campaign_work_order(is), CheckError) << tail;
    }
  }
  // Malformed seeds: junk, a sign, and one past 2^64 − 1 all throw
  // CheckError (never wrap, never std::out_of_range).
  for (const char* seed : {"12x", "-1", "18446744073709551616"}) {
    std::string doc = good;
    const std::size_t at = doc.find("seed ");
    doc.replace(at, doc.find('\n', at) - at, std::string("seed ") + seed);
    std::istringstream is(doc);
    EXPECT_THROW((void)read_campaign_work_order(is), CheckError) << seed;
  }
  {  // the largest seed still parses
    CampaignWorkOrder order = sample_order();
    order.spec.seed = 18446744073709551615ULL;
    std::istringstream is(to_text(order));
    EXPECT_EQ(read_campaign_work_order(is).spec.seed, order.spec.seed);
  }
}

TEST(CampaignWire, ReadersNameVersionSkewExplicitly) {
  // A document of another version is not "corruption": the reader must
  // tell the peer which version it speaks, so the peer is told to match
  // versions, not to debug bytes. Work orders are at v4; a v1 order (the
  // old `exec` line with engine/memo/snapshot fields), a v2 order (`exec
  // <threads> <block>`), a v3 order (`instance <path>` instead of the
  // instance bytes) and a future v5 are all skew.
  const std::string good = to_text(sample_order());
  for (const char* version : {"v1", "v2", "v3", "v5"}) {
    std::string skewed = good;
    skewed.replace(0, skewed.find('\n'),
                   std::string("caft-campaign-work ") + version);
    const std::string old_version = version;
    if (old_version != "v5") {
      const std::size_t at = skewed.find("instance-bytes ");
      skewed.replace(at, skewed.size() - at,
                     "instance /tmp/campaign-7/instance.txt\nend\n");
    }
    if (old_version == "v1")
      skewed.replace(skewed.find("exec 3"), 6,
                     "exec 3 incremental shared 512 32768 16 1");
    if (old_version == "v2")
      skewed.replace(skewed.find("exec 3"), 6, "exec 3 1024");
    std::istringstream is(skewed);
    try {
      (void)read_campaign_work_order(is);
      FAIL() << "expected CheckError for " << version;
    } catch (const CheckError& error) {
      const std::string what = error.what();
      EXPECT_NE(what.find("unsupported document version"), std::string::npos);
      EXPECT_NE(what.find(std::string("caft-campaign-work ") + version),
                std::string::npos);
      EXPECT_NE(what.find("this reader speaks v4"), std::string::npos);
    }
  }
  {  // a *wrong* magic still reads as corruption, not as version skew
    std::istringstream is("caft-campaign-partial v1\nend\n");
    try {
      (void)read_campaign_work_order(is);
      FAIL() << "expected CheckError";
    } catch (const CheckError& error) {
      const std::string what = error.what();
      EXPECT_NE(what.find("bad magic line"), std::string::npos);
      EXPECT_EQ(what.find("unsupported document version"), std::string::npos);
    }
  }
  // The shared helper behind every reader: exact match passes, any other
  // version of the *same* magic is skew, anything else is a bad magic.
  EXPECT_NO_THROW(wire::check_magic_line("caft-x v1", "caft-x"));
  EXPECT_THROW(wire::check_magic_line("caft-x v2", "caft-x"), CheckError);
  EXPECT_THROW(wire::check_magic_line("caft-x v10", "caft-x"), CheckError);
  EXPECT_THROW(wire::check_magic_line("caft-x v1 ", "caft-x"), CheckError);
  EXPECT_THROW(wire::check_magic_line("caft-y v1", "caft-x"), CheckError);
  EXPECT_NO_THROW(wire::check_magic_line("caft-x v2", "caft-x", 2));
  EXPECT_THROW(wire::check_magic_line("caft-x v1", "caft-x", 2), CheckError);
}

TEST(CampaignWire, PartialReaderRejectsVersionSkew) {
  CampaignPartialReader reader;
  const std::string doc = "caft-campaign-partial v2\nend\n";
  reader.feed(doc.data(), doc.size());
  EXPECT_TRUE(reader.failed());
  try {
    (void)reader.take();
    FAIL() << "expected CheckError";
  } catch (const CheckError& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("unsupported document version"), std::string::npos);
    EXPECT_NE(what.find("speaks v1"), std::string::npos);
  }
}

CampaignPartialResult sample_partial() {
  CampaignPartialResult partial;
  partial.algorithm = "ftsa";
  partial.first = 12;
  partial.count = 3;
  ReplayRecord success;
  success.success = true;
  success.latency = 417.123456789;
  success.delivered_messages = 90;
  success.order_relaxations = 2;
  success.failed_count = 1;
  ReplayRecord failure;
  failure.success = false;
  failure.order_deadlock = true;
  failure.latency = std::numeric_limits<double>::infinity();
  failure.delivered_messages = 4;
  failure.failed_count = 9;
  partial.records = {success, failure, success};
  partial.successes = 2;
  partial.telemetry.memo_lookups = 100;
  partial.telemetry.memo_hits = 61;
  partial.telemetry.memo_evictions = 3;
  partial.telemetry.memo_entries = 39;
  partial.telemetry.snapshots = 17;
  return partial;
}

/// The worker's layout: header and records first, counts/telemetry/timing
/// in the footer.
std::string to_text(const CampaignPartialResult& partial) {
  std::ostringstream os;
  write_campaign_partial_header(os, partial.algorithm, partial.first,
                                partial.count);
  write_campaign_partial_records(os, partial.records.data(),
                                 partial.records.size());
  write_campaign_partial_footer(os, partial.records.size(), partial.successes,
                                partial.telemetry, partial.timing);
  return os.str();
}

TEST(CampaignWire, PartialResultRoundTripsBitExactly) {
  const CampaignPartialResult partial = sample_partial();
  std::istringstream is(to_text(partial));
  const CampaignPartialResult back = read_campaign_partial(is);

  EXPECT_EQ(back.algorithm, partial.algorithm);
  EXPECT_EQ(back.first, partial.first);
  EXPECT_EQ(back.count, partial.count);
  EXPECT_EQ(back.successes, partial.successes);
  ASSERT_EQ(back.records.size(), partial.records.size());
  for (std::size_t i = 0; i < partial.records.size(); ++i) {
    EXPECT_EQ(back.records[i].success, partial.records[i].success);
    EXPECT_EQ(back.records[i].order_deadlock,
              partial.records[i].order_deadlock);
    EXPECT_EQ(back.records[i].latency, partial.records[i].latency);
    EXPECT_EQ(back.records[i].delivered_messages,
              partial.records[i].delivered_messages);
    EXPECT_EQ(back.records[i].order_relaxations,
              partial.records[i].order_relaxations);
    EXPECT_EQ(back.records[i].failed_count, partial.records[i].failed_count);
  }
  EXPECT_EQ(back.telemetry.memo_lookups, partial.telemetry.memo_lookups);
  EXPECT_EQ(back.telemetry.memo_hits, partial.telemetry.memo_hits);
  EXPECT_EQ(back.telemetry.memo_evictions,
            partial.telemetry.memo_evictions);
  EXPECT_EQ(back.telemetry.memo_entries, partial.telemetry.memo_entries);
  EXPECT_EQ(back.telemetry.snapshots, partial.telemetry.snapshots);
}

TEST(CampaignWire, PartialTimingLineIsOptionalAndRoundTripsBitExactly) {
  {  // absent on the wire -> absent after parsing (v1 workers stay foldable)
    const CampaignPartialResult partial = sample_partial();
    const std::string doc = to_text(partial);
    EXPECT_EQ(doc.find("timing "), std::string::npos);
    std::istringstream is(doc);
    EXPECT_FALSE(read_campaign_partial(is).timing.present);
  }
  {  // present -> hexfloat round-trip is bit-exact
    CampaignPartialResult partial = sample_partial();
    partial.timing.present = true;
    partial.timing.wall_seconds = 1.2345678901234567;
    partial.timing.schedule_seconds = 0.1;  // inexact in binary
    partial.timing.replay_seconds = 1.1345678901234567;
    const std::string doc = to_text(partial);
    EXPECT_NE(doc.find("timing "), std::string::npos);
    std::istringstream is(doc);
    const CampaignPartialResult back = read_campaign_partial(is);
    ASSERT_TRUE(back.timing.present);
    EXPECT_EQ(back.timing.wall_seconds, partial.timing.wall_seconds);
    EXPECT_EQ(back.timing.schedule_seconds, partial.timing.schedule_seconds);
    EXPECT_EQ(back.timing.replay_seconds, partial.timing.replay_seconds);
  }
  {  // a malformed timing line is rejected, not defaulted
    CampaignPartialResult partial = sample_partial();
    partial.timing.present = true;
    partial.timing.wall_seconds = 2.0;
    std::string doc = to_text(partial);
    const std::size_t at = doc.find("timing ");
    ASSERT_NE(at, std::string::npos);
    doc.replace(at, doc.find('\n', at) - at, "timing 0x1p+1 zz");
    std::istringstream is(doc);
    EXPECT_THROW((void)read_campaign_partial(is), CheckError);
  }
}

TEST(CampaignWire, PartialRejectsInconsistentDocuments) {
  {  // record list shorter than the block
    CampaignPartialResult partial = sample_partial();
    partial.count = 5;
    std::istringstream is(to_text(partial));
    EXPECT_THROW((void)read_campaign_partial(is), CheckError);
  }
  {  // counts line lies about successes
    std::string doc = to_text(sample_partial());
    const std::size_t at = doc.find("counts 3 2");
    ASSERT_NE(at, std::string::npos);
    doc.replace(at, 10, "counts 3 1");
    std::istringstream is(doc);
    EXPECT_THROW((void)read_campaign_partial(is), CheckError);
  }
  {  // truncated record list
    std::string doc = to_text(sample_partial());
    const std::size_t at = doc.rfind("r ");
    doc.erase(at);
    std::istringstream is(doc);
    EXPECT_THROW((void)read_campaign_partial(is), CheckError);
  }
  {  // garbage where a worker answer should be
    std::istringstream is("Segmentation fault (core dumped)\n");
    EXPECT_THROW((void)read_campaign_partial(is), CheckError);
  }
  {  // malformed latency
    std::string doc = to_text(sample_partial());
    const std::size_t at = doc.find("0x");
    ASSERT_NE(at, std::string::npos);
    doc.replace(at, 2, "zz");
    std::istringstream is(doc);
    EXPECT_THROW((void)read_campaign_partial(is), CheckError);
  }
}

TEST(CampaignWire, PartialRejectsCorruptBlockRanges) {
  {  // first + count overflows size_t — would wrap every range computation
    std::string doc = to_text(sample_partial());
    const std::size_t at = doc.find("block 12 3");
    ASSERT_NE(at, std::string::npos);
    doc.replace(at, 10,
                "block 18446744073709551615 2");  // SIZE_MAX + 2 wraps
    std::istringstream is(doc);
    EXPECT_THROW((void)read_campaign_partial(is), CheckError);
  }
  {  // records header disagrees with the echoed block count — must be
     // rejected *before* any records are accepted (a corrupt huge count
     // must never become a giant reserve, a short one a silent underfold)
    std::string doc = to_text(sample_partial());
    const std::size_t at = doc.find("records 3");
    ASSERT_NE(at, std::string::npos);
    doc.replace(at, 9, "records 2");
    std::istringstream is(doc);
    EXPECT_THROW((void)read_campaign_partial(is), CheckError);
  }
  {  // records header before any block range: nothing to validate against
    std::istringstream is(
        "caft-campaign-partial v1\nalgorithm caft\nrecords 1\n"
        "r 1 0 0x1p+0 1 0 0\nblock 0 1\ncounts 1 1\nend\n");
    EXPECT_THROW((void)read_campaign_partial(is), CheckError);
  }
}

TEST(CampaignWire, IncrementalReaderMatchesWholeDocumentReader) {
  CampaignPartialResult partial = sample_partial();
  partial.timing.present = true;
  partial.timing.wall_seconds = 0.25;
  partial.timing.schedule_seconds = 0.0625;
  partial.timing.replay_seconds = 0.1875;
  const std::string doc = to_text(partial);

  // Feed the document at every chunk size from 1 byte up — mid-line and
  // mid-token splits included — and require the identical parse.
  for (std::size_t chunk = 1; chunk <= doc.size(); ++chunk) {
    CampaignPartialReader reader;
    for (std::size_t at = 0; at < doc.size(); at += chunk)
      reader.feed(doc.data() + at, std::min(chunk, doc.size() - at));
    ASSERT_FALSE(reader.failed()) << "chunk size " << chunk;
    const CampaignPartialResult back = reader.take();
    ASSERT_EQ(back.records.size(), partial.records.size());
    EXPECT_EQ(back.first, partial.first);
    EXPECT_EQ(back.count, partial.count);
    EXPECT_EQ(back.successes, partial.successes);
    for (std::size_t i = 0; i < partial.records.size(); ++i)
      EXPECT_EQ(back.records[i].latency, partial.records[i].latency);
    EXPECT_TRUE(back.timing.present);
    EXPECT_EQ(back.timing.replay_seconds, partial.timing.replay_seconds);
  }
}

TEST(CampaignWire, IncrementalReaderAcceptsStreamedFooterLastLayout) {
  // The streaming worker writes header + records first, the mergeable fold
  // state last; the reader must parse that layout identically.
  const CampaignPartialResult partial = sample_partial();
  std::ostringstream os;
  write_campaign_partial_header(os, partial.algorithm, partial.first,
                                partial.count);
  write_campaign_partial_records(os, partial.records.data(), 2);
  write_campaign_partial_records(os, partial.records.data() + 2, 1);
  write_campaign_partial_footer(os, partial.records.size(),
                                partial.successes, partial.telemetry,
                                partial.timing);
  const std::string doc = os.str();
  EXPECT_LT(doc.find("records 3"), doc.find("counts 3"));

  std::istringstream is(doc);
  const CampaignPartialResult back = read_campaign_partial(is);
  EXPECT_EQ(back.algorithm, partial.algorithm);
  EXPECT_EQ(back.first, partial.first);
  EXPECT_EQ(back.count, partial.count);
  EXPECT_EQ(back.successes, partial.successes);
  ASSERT_EQ(back.records.size(), partial.records.size());
  for (std::size_t i = 0; i < partial.records.size(); ++i)
    EXPECT_EQ(back.records[i].latency, partial.records[i].latency);
  EXPECT_EQ(back.telemetry.memo_lookups, partial.telemetry.memo_lookups);
}

TEST(CampaignWire, PartialReaderAcceptsCountsFirstLayout) {
  // Line order outside the record list is free: a document with the fold
  // state before the records parses exactly like the worker's layout.
  const std::string counts_first =
      "caft-campaign-partial v1\n"
      "algorithm caft\n"
      "block 5 2\n"
      "counts 2 1\n"
      "telemetry 2 1 0 1 4\n"
      "timing 0x1p-1 0x1p-3 0x1.8p-2\n"
      "records 2\n"
      "r 1 0 0x1.4p+3 6 0 1\n"
      "r 0 0 inf 2 1 2\n"
      "end\n";
  std::istringstream is(counts_first);
  const CampaignPartialResult back = read_campaign_partial(is);
  EXPECT_EQ(back.algorithm, "caft");
  EXPECT_EQ(back.first, 5u);
  EXPECT_EQ(back.count, 2u);
  EXPECT_EQ(back.successes, 1u);
  ASSERT_EQ(back.records.size(), 2u);
  EXPECT_EQ(back.records[0].latency, 10.0);
  EXPECT_EQ(back.records[1].order_relaxations, 1u);
  EXPECT_EQ(back.telemetry.snapshots, 4u);
  ASSERT_TRUE(back.timing.present);
  EXPECT_EQ(back.timing.replay_seconds, 0.375);

  // The same content in the worker's records-first layout.
  std::istringstream streamed(to_text(back));
  const CampaignPartialResult again = read_campaign_partial(streamed);
  ASSERT_EQ(again.records.size(), 2u);
  EXPECT_EQ(again.records[0].latency, back.records[0].latency);
  EXPECT_EQ(again.successes, back.successes);
  EXPECT_EQ(again.telemetry.memo_hits, back.telemetry.memo_hits);
  EXPECT_EQ(again.timing.wall_seconds, back.timing.wall_seconds);
}

TEST(CampaignWire, WorkedExampleRoundTripsByteIdentically) {
  // The worked example of docs/wire-protocols.md, both documents: each
  // parses, and re-serializes to the same bytes.
  const std::string order_doc =
      "caft-campaign-work v4\n"
      "algorithm caft\n"
      "block 100 2\n"
      "replays 2000\n"
      "seed 42\n"
      "quantiles 2 0x1.999999999999ap-1 0x1.fd70a3d70a3d7p-1\n"
      "theta-buckets 0\n"
      "exact 0\n"
      "sampler uniform-k 1 0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x0p+0 0 "
      "0x0p+0\n"
      "request 1 oneport 1 transitive 1 16 0\n"
      "exec 1\n"
      "expect 0x1.9p+3 0x1.cp+3\n"
      "instance-bytes 114\n"
      "caft-instance v1\n"
      "graph 1 0\n"
      "task 0 t0\n"
      "platform 2 1\n"
      "cable 0 1\n"
      "exec 0 0 12.5\n"
      "exec 0 1 14\n"
      "delay 0 0.5\n"
      "delay 1 0.5\n"
      "end\n"
      "end\n";
  std::istringstream order_in(order_doc);
  EXPECT_EQ(to_text(read_campaign_work_order(order_in)), order_doc);

  const std::string partial_doc =
      "caft-campaign-partial v1\n"
      "algorithm caft\n"
      "block 100 2\n"
      "records 2\n"
      "r 1 0 0x1.cp+3 0 0 1\n"
      "r 1 0 0x1.cp+3 0 0 1\n"
      "counts 2 2\n"
      "telemetry 2 1 0 1 2\n"
      "timing 0x1.2p-4 0x1.8p-7 0x1.cp-5\n"
      "end\n";
  std::istringstream partial_in(partial_doc);
  EXPECT_EQ(to_text(read_campaign_partial(partial_in)), partial_doc);
}

TEST(CampaignWire, IncrementalReaderLatchesErrorsInsteadOfThrowing) {
  CampaignPartialReader reader;
  const std::string garbage = "Segmentation fault (core dumped)\n";
  reader.feed(garbage.data(), garbage.size());  // must not throw
  EXPECT_TRUE(reader.failed());
  // Further input after the latch is ignored, not parsed.
  const std::string more = "caft-campaign-partial v1\n";
  reader.feed(more.data(), more.size());
  EXPECT_THROW((void)reader.take(), CheckError);
}

TEST(CampaignWire, IncrementalReaderRejectsMidLineTruncation) {
  const std::string doc = to_text(sample_partial());
  const std::size_t cut = doc.rfind("r ") + 5;  // mid-record, no newline
  CampaignPartialReader reader;
  reader.feed(doc.data(), cut);
  EXPECT_THROW((void)reader.take(), CheckError);
}

}  // namespace
}  // namespace ftsched
