#include "api/campaign_wire.hpp"

#include <algorithm>
#include <array>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <streambuf>
#include <utility>

#include "common/check.hpp"

namespace ftsched {

namespace wire {

std::string format_double(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof buffer, "%a", value);
  return buffer;
}

double parse_double(std::string_view token, const char* what) {
  // The whitespace or NUL after the token stops strtod at the token's end
  // at the latest; an embedded NUL stops it short.
  char* end = nullptr;
  const double value = std::strtod(token.data(), &end);
  CAFT_CHECK_MSG(!token.empty() && end == token.data() + token.size(),
                 std::string("campaign wire: malformed ") + what + " " +
                     quote(token));
  return value;
}

std::uint64_t parse_u64(std::string_view token, const char* what) {
  bool ok = !token.empty();
  std::uint64_t value = 0;
  for (const char c : token) {
    // A non-digit wraps to a huge `digit`; so does nothing else.
    const auto digit = static_cast<std::uint64_t>(c - '0');
    ok = ok && digit <= 9 &&
         value <= (std::numeric_limits<std::uint64_t>::max() - digit) / 10;
    value = value * 10 + digit;
  }
  CAFT_CHECK_MSG(ok, std::string("campaign wire: malformed ") + what + " " +
                         quote(token));
  return value;
}

bool parse_bool(std::string_view token, const char* what) {
  CAFT_CHECK_MSG(token == "0" || token == "1",
                 std::string("campaign wire: malformed ") + what + " " +
                     quote(token) + " (expected 0|1)");
  return token == "1";
}

std::string quote(std::string_view text) {
  constexpr std::size_t kMaxQuoted = 64;
  std::string out = "'";
  for (const char c : text.substr(0, kMaxQuoted)) {
    const auto byte = static_cast<unsigned char>(c);
    if (byte >= 0x20 && byte < 0x7f && byte != '\\') {
      out.push_back(c);
    } else {
      char escaped[5];
      std::snprintf(escaped, sizeof escaped, "\\x%02x", byte);
      out += escaped;
    }
  }
  out.push_back('\'');
  if (text.size() > kMaxQuoted)
    out += "... (" + std::to_string(text.size()) + " bytes)";
  return out;
}

std::string_view Fields::next() {
  const auto space = [](char c) {
    return c == ' ' || (c >= '\t' && c <= '\r');
  };
  while (!rest.empty() && space(rest.front())) rest.remove_prefix(1);
  std::size_t end = 0;
  while (end < rest.size() && !space(rest[end])) ++end;
  const std::string_view token = rest.substr(0, end);
  rest.remove_prefix(end);
  return token;
}

std::string_view next_token(Fields& line, const char* what) {
  const std::string_view token = line.next();
  CAFT_CHECK_MSG(!token.empty(), std::string("campaign wire: missing ") + what);
  return token;
}

void check_magic_line(const std::string& line, const char* magic,
                      int version) {
  std::string speaks = "v";
  speaks += std::to_string(version);
  const std::string expected = std::string(magic) + " " + speaks;
  if (line == expected) return;
  // Version skew before corruption: `<magic> v<other>` comes from a writer
  // of another protocol generation.
  if (line.rfind(std::string(magic) + " v", 0) == 0)
    throw caft::CheckError("campaign wire: unsupported document version " +
                           quote(line) + " — this reader speaks " + speaks +
                           " (expected '" + expected + "')");
  throw caft::CheckError("campaign wire: bad magic line " + quote(line) +
                         " (expected '" + expected + "')");
}

void expect_magic(std::istream& is, const char* magic, int version) {
  LineReader in(is, magic);
  CAFT_CHECK_MSG(in.next_line(), "campaign wire: empty document");
  check_magic_line(in.line, magic, version);
}

void write_instance_bytes(std::ostream& os, const std::string& bytes) {
  os << "instance-bytes " << bytes.size() << "\n";
  os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

std::string read_instance_bytes(Fields& fields, std::istream& is,
                                const char* document) {
  const std::size_t n = parse_u64(next_token(fields, "instance byte count"),
                                  "instance byte count");
  CAFT_CHECK_MSG(n > 0, std::string("campaign wire: ") + document +
                            " has an empty instance");
  // n is the peer's claim, not a budget: the payload grows in bounded
  // chunks as it arrives, so memory tracks the bytes actually received.
  std::string payload;
  std::array<char, 16384> chunk;
  while (payload.size() < n) {
    const std::size_t want = std::min(chunk.size(), n - payload.size());
    is.read(chunk.data(), static_cast<std::streamsize>(want));
    const auto got = static_cast<std::size_t>(is.gcount());
    payload.append(chunk.data(), got);
    if (got < want) break;
  }
  CAFT_CHECK_MSG(payload.size() == n,
                 "campaign wire: truncated instance payload (got " +
                     std::to_string(payload.size()) + " of " +
                     std::to_string(n) + " bytes)");
  return payload;
}

// --- fields

void read_field(Fields& line, const char* what, Rest<std::string> field) {
  CAFT_CHECK_MSG(!line.rest.empty() && line.rest.front() == ' ',
                 std::string("campaign wire: missing ") + what);
  field.text = line.rest.substr(1);
  line.rest = {};
}

void end_of_line(Fields& line, std::string_view key) {
  const std::string_view extra = line.next();
  CAFT_CHECK_MSG(extra.empty(), "campaign wire: unexpected field " +
                                    quote(extra) + " on a '" +
                                    std::string(key) + "' line");
}

// --- framing

bool LineReader::next_line() {
  line.clear();
  if (!*is) return false;
  std::streambuf& buffer = *is->rdbuf();
  for (int c = buffer.sbumpc(); c != '\n'; c = buffer.sbumpc()) {
    if (c == std::char_traits<char>::eof()) {
      is->setstate(std::ios::eofbit);
      return !line.empty();
    }
    CAFT_CHECK_MSG(line.size() < kMaxLineBytes,
                   std::string("campaign wire: ") + document +
                       " line exceeds the " + std::to_string(kMaxLineBytes) +
                       "-byte line cap");
    line.push_back(static_cast<char>(c));
  }
  return true;
}

bool LineReader::next_keyed() {
  do {
    if (!next_line()) return false;
  } while (line.empty());
  fields = Fields{line};
  key = fields.next();
  return true;
}

bool BodyReader::take(const char* key, Occurs occurs) {
  const std::size_t index = index_++;
  CAFT_CHECK_MSG(index < 64, "campaign wire: a body declares at most 64 lines");
  const std::uint64_t bit = std::uint64_t{1} << index;
  if (fields_ == nullptr) {  // finish()
    CAFT_CHECK_MSG(occurs != Occurs::kOnce || (seen_ & bit) != 0,
                   std::string("campaign wire: ") + document_ + " has no '" +
                       key + "' line");
    return false;
  }
  if (matched_ || key_ != key) return false;
  matched_ = true;
  CAFT_CHECK_MSG(occurs == Occurs::kEach || (seen_ & bit) == 0,
                 std::string("campaign wire: duplicate '") + key +
                     "' line in the " + document_);
  seen_ |= bit;
  return true;
}

void BodyReader::instance_bytes(std::string& bytes) {
  if (!take("instance-bytes", Occurs::kOnce)) return;
  bytes = read_instance_bytes(*fields_, *in_->is, document_);
  end_of_line(*fields_, "instance-bytes");
}

// --- the spec lines

namespace {

using Kind = SamplerSpec::Kind;
const Name<Kind> kSamplerKinds[] = {
    {"uniform-k", Kind::kUniformK}, {"exponential", Kind::kExponential},
    {"weibull", Kind::kWeibull},    {"window", Kind::kWindow},
    {"groups", Kind::kGroups}};
const Name<std::optional<caft::CommModelKind>> kModels[] = {
    {"-", std::nullopt},
    {"oneport", caft::CommModelKind::kOnePort},
    {"macro", caft::CommModelKind::kMacroDataflow}};
const Name<caft::CaftSupportMode> kSupportModes[] = {
    {"direct", caft::CaftSupportMode::kDirect},
    {"transitive", caft::CaftSupportMode::kTransitive}};

template <class D, class Sampler>
void sampler_line(D& d, Sampler& s) {
  d.line("sampler", Named{s.kind, kSamplerKinds}, s.failures, s.rate,
         s.shape, s.scale, s.horizon, s.theta_lo, s.theta_hi, s.group_size,
         s.group_prob);
}

template <class D, class Request>
void request_line(D& d, Request& r) {
  d.line("request", r.eps, Named{r.model, kModels}, r.validate,
         Named{r.support_mode, kSupportModes}, r.one_to_one, r.batch_size,
         r.minimize_start_time);
}

}  // namespace

template <class D, class Spec>
void spec_lines(D& d, Spec& spec) {
  d.line("replays", spec.replays);
  d.line("seed", spec.seed);
  d.line("quantiles", spec.quantiles);
  d.line("theta-buckets", spec.theta_buckets);
  d.line("exact", spec.exact);
}

template <class D, class Spec>
void schedule_lines(D& d, Spec& spec) {
  sampler_line(d, spec.sampler);
  request_line(d, spec.request);
}

template void spec_lines(BodyWriter&, const CampaignSpec&);
template void spec_lines(BodyReader&, CampaignSpec&);
template void schedule_lines(BodyWriter&, const CampaignSpec&);
template void schedule_lines(BodyReader&, CampaignSpec&);

void write_request_line(std::ostream& os, const ScheduleRequest& request) {
  BodyWriter d(os);
  request_line(d, request);
}

}  // namespace wire

using namespace wire;

namespace {

/// Version of the work-order document (v2 dropped the engine/memo/snapshot
/// fields from `exec`, v3 its wave size, v4 carries the instance bytes
/// instead of a path). The partial-result document is still v1.
constexpr int kWorkOrderVersion = 4;

const auto work_order_body = [](auto& d, auto& order) {
  d.line("algorithm", order.algorithm);
  d.line("block", order.first, order.count);
  spec_lines(d, order.spec);
  schedule_lines(d, order.spec);
  d.line("exec", order.threads);
  d.line("expect", order.expect_makespan, order.expect_horizon);
  d.instance_bytes(order.instance_bytes);
};

const auto record_fields = [](auto& r) {
  return std::tie(r.success, r.order_deadlock, r.latency, r.delivered_messages,
                  r.order_relaxations, r.failed_count);
};

/// The partial's header lines; `records` is the `records` line's count.
const auto partial_head = [](auto& d, auto& algorithm, auto& first,
                             auto& count, auto& records) {
  d.line("algorithm", algorithm);
  d.line("block", first, count);
  d.line("records", records);
};

/// The partial's footer lines; (records, successes) are the `counts` line.
const auto partial_foot = [](auto& d, auto& records, auto& successes,
                             auto& telemetry, auto& timing) {
  d.line("counts", records, successes);
  d.line("telemetry", telemetry.memo_lookups, telemetry.memo_hits,
         telemetry.memo_evictions, telemetry.memo_entries,
         telemetry.snapshots);
  d.optional("timing", timing.present, timing.wall_seconds,
             timing.schedule_seconds, timing.replay_seconds);
};

}  // namespace

void write_campaign_work_order(std::ostream& os,
                               const CampaignWorkOrder& order) {
  write_document(os, "caft-campaign-work", kWorkOrderVersion,
                 [&](auto& d) { work_order_body(d, order); });
}

CampaignWorkOrder read_campaign_work_order(std::istream& is) {
  CampaignWorkOrder order;
  read_document(is, "caft-campaign-work", kWorkOrderVersion, "work order",
                [&](auto& d) { work_order_body(d, order); });
  order.spec.algorithms = {order.algorithm};
  CAFT_CHECK_MSG(order.count > 0,
                 "campaign wire: work-order block is empty");
  return order;
}

void write_campaign_partial_header(std::ostream& os,
                                   const std::string& algorithm,
                                   std::size_t first, std::size_t count) {
  os << "caft-campaign-partial v1\n";
  BodyWriter d(os);
  partial_head(d, algorithm, first, count, count);
}

void write_campaign_partial_records(std::ostream& os,
                                    const caft::ReplayRecord* records,
                                    std::size_t count) {
  BodyWriter d(os);
  d.each("r", std::span(records, count), record_fields);
}

void write_campaign_partial_footer(std::ostream& os, std::size_t records,
                                   std::size_t successes,
                                   const caft::CampaignTelemetry& telemetry,
                                   const WorkerTiming& timing) {
  BodyWriter d(os);
  partial_foot(d, records, successes, telemetry, timing);
  os << "end\n";
}

void CampaignPartialReader::body(BodyReader& d) {
  partial_head(d, partial_.algorithm, partial_.first, partial_.count,
               records_expected_);
  partial_foot(d, declared_records_, declared_successes_, partial_.telemetry,
               partial_.timing);
}

void CampaignPartialReader::fail(const std::string& why) noexcept {
  if (error_.empty()) error_ = why;
  buffer_.clear();
  buffer_.shrink_to_fit();
}

void CampaignPartialReader::feed(const char* data, std::size_t size) noexcept {
  // The poll loop keeps draining; after an error or the `end` line the
  // input is dropped unparsed.
  for (const char* end = data + size; data < end && !failed() && !saw_end_;) {
    const auto* newline =
        static_cast<const char*>(std::memchr(data, '\n', end - data));
    const char* stop = newline == nullptr ? end : newline;
    if (buffer_.size() + (stop - data) > kMaxLineBytes)
      return fail("campaign wire: partial line exceeds the " +
                  std::to_string(kMaxLineBytes) + "-byte line cap");
    buffer_.append(data, stop);
    if (newline == nullptr) return;
    data = newline + 1;
    try {
      consume_line(buffer_);
      buffer_.clear();
    } catch (const std::exception& parse_error) {
      fail(parse_error.what());
    }
  }
}

void CampaignPartialReader::consume_line(const std::string& line) {
  if (!saw_magic_) {
    check_magic_line(line, "caft-campaign-partial");
    saw_magic_ = true;
    return;
  }
  Fields fields{line};
  const std::string_view key = fields.next();
  // Inside the record list every line must be a record line — an empty or
  // foreign line there is corruption, not formatting slack.
  if (saw_records_ && partial_.records.size() < partial_.count) {
    CAFT_CHECK_MSG(key == "r", "campaign wire: bad record line " + quote(line));
    std::apply([&](auto&... f) { read_fields(fields, "r", f...); },
               record_fields(partial_.records.emplace_back()));
  } else if (key == "end") {
    end_of_line(fields, key);
    saw_end_ = true;
  } else if (!line.empty()) {
    CAFT_CHECK_MSG(key != "records" || saw_block_,
                   "campaign wire: records header before the block range");
    CAFT_CHECK_MSG(lines_.dispatch(key, fields,
                                   [this](BodyReader& d) { body(d); }),
                   "campaign wire: unknown partial key " + quote(key));
    // An overflowing range would wrap every [first, first + count); a
    // records header that disagrees with the block would be a short block
    // the fold accepts. Either count is a claim: records grow as they come.
    saw_block_ = saw_block_ || key == "block";
    CAFT_CHECK_MSG(partial_.count <= std::numeric_limits<std::size_t>::max() -
                                         partial_.first,
                   "campaign wire: block range [" +
                       std::to_string(partial_.first) + ", +" +
                       std::to_string(partial_.count) + ") overflows size_t");
    saw_records_ = saw_records_ || key == "records";
    CAFT_CHECK_MSG(!saw_records_ || records_expected_ == partial_.count,
                   "campaign wire: records header declares " +
                       std::to_string(records_expected_) +
                       " records for a block of " +
                       std::to_string(partial_.count));
  }
}

CampaignPartialResult CampaignPartialReader::take() {
  if (failed()) throw caft::CheckError(error_);
  // Input after `end` is never buffered: a partial line is a truncation.
  CAFT_CHECK_MSG(buffer_.empty(),
                 "campaign wire: truncated partial (unterminated line " +
                     quote(buffer_) + ")");
  CAFT_CHECK_MSG(saw_magic_, "campaign wire: empty document");
  CAFT_CHECK_MSG(saw_end_, "campaign wire: truncated partial (no 'end')");
  lines_.finish([this](BodyReader& d) { body(d); });
  std::size_t successes = 0;
  for (const caft::ReplayRecord& record : partial_.records)
    if (record.success) ++successes;
  CAFT_CHECK_MSG(partial_.records.size() == partial_.count &&
                     declared_records_ == partial_.count &&
                     declared_successes_ == successes,
                 "campaign wire: partial carries " +
                     std::to_string(partial_.records.size()) + " records (" +
                     std::to_string(successes) + " successes) for a block of " +
                     std::to_string(partial_.count) + "; its counts line says " +
                     std::to_string(declared_records_) + " (" +
                     std::to_string(declared_successes_) + ")");
  partial_.successes = successes;
  return std::move(partial_);
}

CampaignPartialResult read_campaign_partial(std::istream& is) {
  // One parser: the whole-document reader is the incremental reader fed in
  // chunks, so the strictness contract cannot drift between the two.
  CampaignPartialReader reader;
  char buffer[4096];
  while (is.read(buffer, sizeof buffer) || is.gcount() > 0)
    reader.feed(buffer, static_cast<std::size_t>(is.gcount()));
  return reader.take();
}

}  // namespace ftsched
