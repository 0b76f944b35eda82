#include "api/campaign_wire.hpp"

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <istream>
#include <limits>
#include <ostream>
#include <sstream>
#include <utility>

#include "common/check.hpp"

namespace ftsched {

namespace wire {

std::string format_double(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof buffer, "%a", value);
  return buffer;
}

double parse_double(const std::string& token, const char* what) {
  const char* text = token.c_str();
  char* end = nullptr;
  const double value = std::strtod(text, &end);
  CAFT_CHECK_MSG(end != text && *end == '\0',
                 std::string("campaign wire: malformed ") + what + " '" +
                     token + "'");
  return value;
}

std::uint64_t parse_u64(const std::string& token, const char* what) {
  const auto malformed = [&] {
    return caft::CheckError(std::string("campaign wire: malformed ") + what +
                            " '" + token + "'");
  };
  if (token.empty()) throw malformed();
  std::uint64_t value = 0;
  for (const char c : token) {
    if (c < '0' || c > '9') throw malformed();
    const auto digit = static_cast<std::uint64_t>(c - '0');
    if (value > (std::numeric_limits<std::uint64_t>::max() - digit) / 10)
      throw malformed();  // does not fit 64 bits
    value = value * 10 + digit;
  }
  return value;
}

std::size_t parse_size(const std::string& token, const char* what) {
  static_assert(sizeof(std::size_t) == sizeof(std::uint64_t));
  return static_cast<std::size_t>(parse_u64(token, what));
}

bool parse_bool(const std::string& token, const char* what) {
  CAFT_CHECK_MSG(token == "0" || token == "1",
                 std::string("campaign wire: malformed ") + what + " '" +
                     token + "' (expected 0|1)");
  return token == "1";
}

std::string next_token(std::istringstream& line, const char* what) {
  std::string token;
  CAFT_CHECK_MSG(static_cast<bool>(line >> token),
                 std::string("campaign wire: missing ") + what);
  return token;
}

void check_magic_line(const std::string& line, const char* magic,
                      int version) {
  std::string speaks = "v";
  speaks += std::to_string(version);
  const std::string expected = std::string(magic) + " " + speaks;
  if (line == expected) return;
  // Version skew before corruption: `<magic> v<anything-else>` is a
  // well-formed document from a writer of another protocol generation —
  // tell the peer which version this reader speaks instead of reporting a
  // parse failure.
  if (line.rfind(std::string(magic) + " v", 0) == 0)
    throw caft::CheckError(
        "campaign wire: unsupported document version '" + line +
        "' — this reader speaks " + speaks + " (expected '" + expected +
        "')");
  throw caft::CheckError("campaign wire: bad magic line '" + line +
                         "' (expected '" + expected + "')");
}

void expect_magic(std::istream& is, const char* magic, int version) {
  std::string line;
  CAFT_CHECK_MSG(static_cast<bool>(std::getline(is, line)),
                 "campaign wire: empty document");
  check_magic_line(line, magic, version);
}

}  // namespace wire

using namespace wire;

namespace {

/// Version of the work-order document (v2 dropped the engine/memo/snapshot
/// fields from `exec`, v3 its wave size). The partial-result document is
/// still v1.
constexpr int kWorkOrderVersion = 3;

const char* sampler_kind_name(SamplerSpec::Kind kind) {
  switch (kind) {
    case SamplerSpec::Kind::kUniformK:
      return "uniform-k";
    case SamplerSpec::Kind::kExponential:
      return "exponential";
    case SamplerSpec::Kind::kWeibull:
      return "weibull";
    case SamplerSpec::Kind::kWindow:
      return "window";
    case SamplerSpec::Kind::kGroups:
      return "groups";
  }
  throw caft::CheckError("campaign wire: unhandled sampler kind");
}

SamplerSpec::Kind sampler_kind_from(const std::string& name) {
  if (name == "uniform-k") return SamplerSpec::Kind::kUniformK;
  if (name == "exponential") return SamplerSpec::Kind::kExponential;
  if (name == "weibull") return SamplerSpec::Kind::kWeibull;
  if (name == "window") return SamplerSpec::Kind::kWindow;
  if (name == "groups") return SamplerSpec::Kind::kGroups;
  throw caft::CheckError("campaign wire: unknown sampler kind '" + name +
                         "'");
}

}  // namespace

namespace wire {

void write_sampler_line(std::ostream& os, const SamplerSpec& sampler) {
  os << "sampler " << sampler_kind_name(sampler.kind) << " "
     << sampler.failures << " " << format_double(sampler.rate) << " "
     << format_double(sampler.shape) << " " << format_double(sampler.scale)
     << " " << format_double(sampler.horizon) << " "
     << format_double(sampler.theta_lo) << " "
     << format_double(sampler.theta_hi) << " " << sampler.group_size << " "
     << format_double(sampler.group_prob) << "\n";
}

void write_request_line(std::ostream& os, const ScheduleRequest& request) {
  os << "request ";
  if (request.eps.has_value())
    os << *request.eps;
  else
    os << "-";
  os << " ";
  if (request.model.has_value())
    os << (*request.model == caft::CommModelKind::kOnePort ? "oneport"
                                                           : "macro");
  else
    os << "-";
  os << " " << (request.validate ? 1 : 0) << " "
     << (request.support_mode == caft::CaftSupportMode::kDirect
             ? "direct"
             : "transitive")
     << " " << (request.one_to_one ? 1 : 0) << " " << request.batch_size
     << " " << (request.minimize_start_time ? 1 : 0) << "\n";
}

namespace {

void read_sampler_line(std::istringstream& fields, SamplerSpec& sampler) {
  sampler.kind = sampler_kind_from(next_token(fields, "sampler kind"));
  sampler.failures =
      parse_size(next_token(fields, "sampler failures"), "failures");
  sampler.rate = parse_double(next_token(fields, "sampler rate"), "rate");
  sampler.shape = parse_double(next_token(fields, "sampler shape"), "shape");
  sampler.scale = parse_double(next_token(fields, "sampler scale"), "scale");
  sampler.horizon =
      parse_double(next_token(fields, "sampler horizon"), "horizon");
  sampler.theta_lo =
      parse_double(next_token(fields, "sampler theta-lo"), "theta-lo");
  sampler.theta_hi =
      parse_double(next_token(fields, "sampler theta-hi"), "theta-hi");
  sampler.group_size =
      parse_size(next_token(fields, "sampler group-size"), "group-size");
  sampler.group_prob =
      parse_double(next_token(fields, "sampler group-prob"), "group-prob");
}

void read_request_line(std::istringstream& fields, ScheduleRequest& request) {
  const std::string eps = next_token(fields, "request eps");
  if (eps == "-")
    request.eps.reset();
  else
    request.eps = parse_size(eps, "request eps");
  const std::string model = next_token(fields, "request model");
  if (model == "-") {
    request.model.reset();
  } else if (model == "oneport") {
    request.model = caft::CommModelKind::kOnePort;
  } else if (model == "macro") {
    request.model = caft::CommModelKind::kMacroDataflow;
  } else {
    throw caft::CheckError("campaign wire: unknown model '" + model + "'");
  }
  request.validate =
      parse_bool(next_token(fields, "request validate"), "validate");
  const std::string support = next_token(fields, "request support");
  CAFT_CHECK_MSG(support == "direct" || support == "transitive",
                 "campaign wire: unknown support mode '" + support + "'");
  request.support_mode = support == "direct"
                             ? caft::CaftSupportMode::kDirect
                             : caft::CaftSupportMode::kTransitive;
  request.one_to_one =
      parse_bool(next_token(fields, "request one-to-one"), "one-to-one");
  request.batch_size =
      parse_size(next_token(fields, "request batch-size"), "batch-size");
  request.minimize_start_time =
      parse_bool(next_token(fields, "request mst"), "mst");
}

}  // namespace

void write_spec_lines(std::ostream& os, const CampaignSpec& spec) {
  os << "replays " << spec.replays << "\n";
  os << "seed " << spec.seed << "\n";
  os << "quantiles " << spec.quantiles.size();
  for (const double q : spec.quantiles) os << " " << format_double(q);
  os << "\n";
  os << "theta-buckets " << spec.theta_buckets << "\n";
  os << "exact " << (spec.exact ? 1 : 0) << "\n";
}

bool read_spec_line(const std::string& key, std::istringstream& fields,
                    CampaignSpec& spec) {
  if (key == "replays") {
    spec.replays = parse_size(next_token(fields, "replays"), "replays");
  } else if (key == "seed") {
    spec.seed = parse_u64(next_token(fields, "seed"), "seed");
  } else if (key == "quantiles") {
    // The count is the peer's claim, not a budget: nothing is reserved,
    // and a missing token throws before the vector outgrows the line.
    const std::size_t n =
        parse_size(next_token(fields, "quantile count"), "quantile count");
    spec.quantiles.clear();
    for (std::size_t i = 0; i < n; ++i)
      spec.quantiles.push_back(
          parse_double(next_token(fields, "quantile"), "quantile"));
  } else if (key == "theta-buckets") {
    spec.theta_buckets =
        parse_size(next_token(fields, "theta-buckets"), "theta-buckets");
  } else if (key == "exact") {
    spec.exact = parse_bool(next_token(fields, "exact"), "exact");
  } else if (key == "sampler") {
    read_sampler_line(fields, spec.sampler);
  } else if (key == "request") {
    read_request_line(fields, spec.request);
  } else {
    return false;
  }
  return true;
}

}  // namespace wire

void write_campaign_work_order(std::ostream& os,
                               const CampaignWorkOrder& order) {
  os << "caft-campaign-work v" << kWorkOrderVersion << "\n";
  os << "instance " << order.instance_path << "\n";
  os << "algorithm " << order.algorithm << "\n";
  os << "block " << order.first << " " << order.count << "\n";
  write_spec_lines(os, order.spec);
  write_sampler_line(os, order.spec.sampler);
  write_request_line(os, order.spec.request);
  os << "exec " << order.threads << "\n";
  os << "expect " << format_double(order.expect_makespan) << " "
     << format_double(order.expect_horizon) << "\n";
  os << "end\n";
}

CampaignWorkOrder read_campaign_work_order(std::istream& is) {
  expect_magic(is, "caft-campaign-work", kWorkOrderVersion);
  CampaignWorkOrder order;
  order.spec.algorithms.clear();  // the order names exactly one algorithm
  bool saw_end = false;
  bool saw_instance = false, saw_algorithm = false, saw_block = false;
  std::string line;
  while (!saw_end && std::getline(is, line)) {
    if (line.empty()) continue;
    std::istringstream fields(line);
    std::string key;
    fields >> key;
    if (read_spec_line(key, fields, order.spec)) continue;
    if (key == "end") {
      saw_end = true;
    } else if (key == "instance") {
      std::string rest;
      std::getline(fields, rest);
      const std::size_t start = rest.find_first_not_of(' ');
      CAFT_CHECK_MSG(start != std::string::npos,
                     "campaign wire: empty instance path");
      order.instance_path = rest.substr(start);
      saw_instance = true;
    } else if (key == "algorithm") {
      order.algorithm = next_token(fields, "algorithm name");
      order.spec.algorithms = {order.algorithm};
      saw_algorithm = true;
    } else if (key == "block") {
      order.first = parse_size(next_token(fields, "block first"), "block first");
      order.count = parse_size(next_token(fields, "block count"), "block count");
      saw_block = true;
    } else if (key == "exec") {
      order.threads = parse_size(next_token(fields, "exec threads"), "threads");
    } else if (key == "expect") {
      order.expect_makespan =
          parse_double(next_token(fields, "expect makespan"), "makespan");
      order.expect_horizon =
          parse_double(next_token(fields, "expect horizon"), "horizon");
    } else {
      throw caft::CheckError("campaign wire: unknown work-order key '" + key +
                             "'");
    }
  }
  CAFT_CHECK_MSG(saw_end, "campaign wire: truncated work order (no 'end')");
  CAFT_CHECK_MSG(saw_instance, "campaign wire: work order names no instance");
  CAFT_CHECK_MSG(saw_algorithm,
                 "campaign wire: work order names no algorithm");
  CAFT_CHECK_MSG(saw_block, "campaign wire: work order has no block range");
  CAFT_CHECK_MSG(order.count > 0,
                 "campaign wire: work-order block is empty");
  return order;
}

namespace {

void write_record_line(std::ostream& os, const caft::ReplayRecord& record) {
  os << "r " << (record.success ? 1 : 0) << " "
     << (record.order_deadlock ? 1 : 0) << " "
     << format_double(record.latency) << " " << record.delivered_messages
     << " " << record.order_relaxations << " " << record.failed_count
     << "\n";
}

void write_counts_telemetry_timing(std::ostream& os, std::size_t records,
                                   std::size_t successes,
                                   const caft::CampaignTelemetry& telemetry,
                                   const WorkerTiming& timing) {
  os << "counts " << records << " " << successes << "\n";
  os << "telemetry " << telemetry.memo_lookups << " " << telemetry.memo_hits
     << " " << telemetry.memo_evictions << " " << telemetry.memo_entries
     << " " << telemetry.snapshots << "\n";
  if (timing.present) {
    os << "timing " << format_double(timing.wall_seconds) << " "
       << format_double(timing.schedule_seconds) << " "
       << format_double(timing.replay_seconds) << "\n";
  }
}

}  // namespace

void write_campaign_partial_header(std::ostream& os,
                                   const std::string& algorithm,
                                   std::size_t first, std::size_t count) {
  os << "caft-campaign-partial v1\n";
  os << "algorithm " << algorithm << "\n";
  os << "block " << first << " " << count << "\n";
  os << "records " << count << "\n";
}

void write_campaign_partial_records(std::ostream& os,
                                    const caft::ReplayRecord* records,
                                    std::size_t count) {
  for (std::size_t i = 0; i < count; ++i)
    write_record_line(os, records[i]);
}

void write_campaign_partial_footer(std::ostream& os, std::size_t records,
                                   std::size_t successes,
                                   const caft::CampaignTelemetry& telemetry,
                                   const WorkerTiming& timing) {
  write_counts_telemetry_timing(os, records, successes, telemetry, timing);
  os << "end\n";
}

void CampaignPartialReader::fail(const std::string& why) noexcept {
  if (error_.empty()) error_ = why;
  buffer_.clear();
  buffer_.shrink_to_fit();
}

void CampaignPartialReader::feed(const char* data, std::size_t size) noexcept {
  if (failed()) return;  // the poll loop keeps draining; we stop parsing
  std::size_t consumed = 0;
  while (consumed < size) {
    const void* newline =
        std::memchr(data + consumed, '\n', size - consumed);
    if (newline == nullptr) {
      buffer_.append(data + consumed, size - consumed);
      return;
    }
    const std::size_t line_end =
        static_cast<std::size_t>(static_cast<const char*>(newline) - data);
    buffer_.append(data + consumed, line_end - consumed);
    consumed = line_end + 1;
    try {
      consume_line(buffer_);
    } catch (const std::exception& parse_error) {
      fail(parse_error.what());
      return;
    }
    buffer_.clear();
  }
}

void CampaignPartialReader::consume_line(const std::string& line) {
  if (saw_end_) return;  // trailing output after 'end' is ignored
  if (!saw_magic_) {
    check_magic_line(line, "caft-campaign-partial");
    saw_magic_ = true;
    return;
  }
  // Inside the record list every line must be a record line — an empty or
  // foreign line there is corruption, not formatting slack.
  if (saw_records_ && partial_.records.size() < records_expected_) {
    std::istringstream record_fields(line);
    const std::string tag = next_token(record_fields, "record tag");
    CAFT_CHECK_MSG(tag == "r",
                   "campaign wire: bad record line '" + line + "'");
    caft::ReplayRecord record;
    record.success =
        parse_bool(next_token(record_fields, "record success"), "success");
    record.order_deadlock =
        parse_bool(next_token(record_fields, "record deadlock"), "deadlock");
    record.latency =
        parse_double(next_token(record_fields, "record latency"), "latency");
    record.delivered_messages =
        parse_size(next_token(record_fields, "record delivered"), "delivered");
    record.order_relaxations = parse_size(
        next_token(record_fields, "record relaxations"), "relaxations");
    record.failed_count =
        parse_size(next_token(record_fields, "record failed"), "failed");
    partial_.records.push_back(record);
    return;
  }
  if (line.empty()) return;
  std::istringstream fields(line);
  std::string key;
  fields >> key;
  if (key == "end") {
    saw_end_ = true;
  } else if (key == "algorithm") {
    partial_.algorithm = next_token(fields, "algorithm name");
  } else if (key == "block") {
    CAFT_CHECK_MSG(!saw_records_,
                   "campaign wire: block range after the record list");
    partial_.first =
        parse_size(next_token(fields, "block first"), "block first");
    partial_.count =
        parse_size(next_token(fields, "block count"), "block count");
    // A corrupt range whose end overflows size_t would wrap every
    // downstream [first, first + count) computation — reject it here, so
    // the coordinator retries the worker instead of folding a lie.
    CAFT_CHECK_MSG(partial_.count <=
                       std::numeric_limits<std::size_t>::max() -
                           partial_.first,
                   "campaign wire: block range [" +
                       std::to_string(partial_.first) + ", +" +
                       std::to_string(partial_.count) +
                       ") overflows size_t");
    saw_block_ = true;
  } else if (key == "counts") {
    declared_records_ =
        parse_size(next_token(fields, "counts replays"), "counts replays");
    declared_successes_ = parse_size(next_token(fields, "counts successes"),
                                     "counts successes");
    saw_counts_ = true;
  } else if (key == "telemetry") {
    partial_.telemetry.memo_lookups = parse_size(
        next_token(fields, "telemetry lookups"), "telemetry lookups");
    partial_.telemetry.memo_hits =
        parse_size(next_token(fields, "telemetry hits"), "telemetry hits");
    partial_.telemetry.memo_evictions = parse_size(
        next_token(fields, "telemetry evictions"), "telemetry evictions");
    partial_.telemetry.memo_entries = parse_size(
        next_token(fields, "telemetry entries"), "telemetry entries");
    partial_.telemetry.snapshots = parse_size(
        next_token(fields, "telemetry snapshots"), "telemetry snapshots");
  } else if (key == "timing") {
    // Optional since PR 6; a document without it parses fine.
    partial_.timing.wall_seconds =
        parse_double(next_token(fields, "timing wall"), "timing wall");
    partial_.timing.schedule_seconds = parse_double(
        next_token(fields, "timing schedule"), "timing schedule");
    partial_.timing.replay_seconds =
        parse_double(next_token(fields, "timing replay"), "timing replay");
    partial_.timing.present = true;
  } else if (key == "records") {
    CAFT_CHECK_MSG(!saw_records_, "campaign wire: duplicate records header");
    CAFT_CHECK_MSG(saw_block_,
                   "campaign wire: records header before the block range");
    records_expected_ =
        parse_size(next_token(fields, "record count"), "record count");
    // Validate the header against the echoed block *before* reserving —
    // a corrupt count must not become a giant allocation (or a silently
    // short block the fold would accept).
    CAFT_CHECK_MSG(records_expected_ == partial_.count,
                   "campaign wire: records header declares " +
                       std::to_string(records_expected_) +
                       " records for a block of " +
                       std::to_string(partial_.count));
    partial_.records.reserve(records_expected_);
    saw_records_ = true;
  } else {
    throw caft::CheckError("campaign wire: unknown partial key '" + key +
                           "'");
  }
}

CampaignPartialResult CampaignPartialReader::take() {
  if (failed()) throw caft::CheckError(error_);
  if (!buffer_.empty()) {
    // An unterminated trailing line: a mid-line truncation unless the
    // document already ended (then it is ignorable junk, e.g. a shell
    // wrapper's unterminated noise).
    CAFT_CHECK_MSG(saw_end_, "campaign wire: truncated partial (unterminated "
                             "line '" + buffer_ + "')");
  }
  CAFT_CHECK_MSG(saw_magic_, "campaign wire: empty document");
  CAFT_CHECK_MSG(saw_end_, "campaign wire: truncated partial (no 'end')");
  CAFT_CHECK_MSG(saw_block_, "campaign wire: partial has no block range");
  CAFT_CHECK_MSG(saw_counts_, "campaign wire: partial has no counts line");
  CAFT_CHECK_MSG(partial_.records.size() == partial_.count,
                 "campaign wire: partial carries " +
                     std::to_string(partial_.records.size()) +
                     " records for a block of " +
                     std::to_string(partial_.count));
  CAFT_CHECK_MSG(declared_records_ == partial_.records.size(),
                 "campaign wire: counts line disagrees with the record list");
  std::size_t successes = 0;
  for (const caft::ReplayRecord& record : partial_.records)
    if (record.success) ++successes;
  CAFT_CHECK_MSG(successes == declared_successes_,
                 "campaign wire: counts line declares " +
                     std::to_string(declared_successes_) +
                     " successes but the records fold to " +
                     std::to_string(successes));
  partial_.successes = successes;
  return std::move(partial_);
}

CampaignPartialResult read_campaign_partial(std::istream& is) {
  // One parser: the whole-document reader is the incremental reader fed in
  // chunks, so the strictness contract cannot drift between the two.
  CampaignPartialReader reader;
  char buffer[4096];
  while (true) {
    is.read(buffer, sizeof buffer);
    const std::streamsize n = is.gcount();
    if (n > 0) reader.feed(buffer, static_cast<std::size_t>(n));
    if (n < static_cast<std::streamsize>(sizeof buffer)) break;
  }
  return reader.take();
}

}  // namespace ftsched
