/// \file campaign_wire.hpp
/// Text wire format of the process-parallel campaign backend: the work
/// order a coordinator sends to one worker process and the partial result
/// the worker sends back (see api/session.hpp for the coordinator and
/// worker entry points).
///
/// Both documents are line-oriented, keyed by the first token of each line
/// — the same family as io/instance_io — and every double crosses the wire
/// as a C hexadecimal float literal ("0x1.8p+3", plus "inf"/"nan"), so
/// values round-trip *bit-exactly*: the coordinator's canonical-order fold
/// of worker records must be indistinguishable from an in-process fold.
///
/// Work order (one block of one campaign):
///   caft-campaign-work v3
///   instance <path>                      # instance reference (io format)
///   algorithm <registry-name>
///   block <first> <count>                # contiguous canonical replays
///   replays <n>  /  seed <u64>           # replays..request: the spec
///   quantiles <k> <q...>                 # lines, one codec shared with
///   theta-buckets <n>  /  exact <0|1>    # the server request (wire::)
///   sampler <kind> <failures> <rate> <shape> <scale> <horizon>
///           <theta-lo> <theta-hi> <group-size> <group-prob>
///   request <eps|-> <model|-> <validate> <support> <one-to-one>
///           <batch-size> <mst>           # "-" = no override
///   exec <threads>                       # summary-neutral worker knob
///   expect <makespan> <horizon>          # coordinator's schedule, hexfloat;
///                                        # the worker re-schedules and must
///                                        # reproduce both bit-for-bit
///   end
///
/// Partial result (the worker's answer):
///   caft-campaign-partial v1
///   algorithm <name>
///   block <first> <count>
///   counts <replays> <successes>         # the block's Wilson inputs —
///                                        # integrity check on the records
///   telemetry <lookups> <hits> <evictions> <entries> <snapshots>
///                                        # record cache: cacheable draws,
///                                        # draws served without a replay,
///                                        # cache clears, resident entries
///   timing <wall> <schedule> <replay>    # OPTIONAL, v1-compatible: the
///                                        # worker's own steady_clock
///                                        # seconds (hexfloat) — whole
///                                        # invocation, re-schedule phase,
///                                        # replay phase. Observability
///                                        # only; a reader accepts its
///                                        # absence (pre-PR-6 workers)
///                                        # and the fold ignores it.
///   records <count>
///   r <success> <deadlock> <latency> <delivered> <relaxations> <failed>
///   ...                                  # one line per replay, in
///                                        # canonical replay order
///   end
///
/// Line order outside the record list is free (the reader is keyed by the
/// first token); the worker exploits that by emitting the `records` list
/// first and the `counts`/`telemetry`/`timing` lines last, so record lines
/// can leave the process before the block finishes computing
/// (write_campaign_partial_header/records/footer below — the only writer).
///
/// Why per-replay records and not merged fold states: the summary's P²
/// quantile estimators and Welford moments are order-sensitive streaming
/// folds — merging two partial estimator states is not bit-identical to
/// streaming the observations in order. Shipping the fold *inputs* (one
/// compact record per replay) and re-folding them in canonical scenario
/// order at the coordinator is what makes subprocess summaries
/// byte-identical to single-process ones, for any worker count and any
/// block partition. The `counts` line carries the block-level fold state
/// that *is* mergeable (trial/success counts, i.e. the Wilson interval
/// inputs) and doubles as a corruption check: a reader rejects a document
/// whose records do not reproduce it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <limits>
#include <string>
#include <vector>

#include "api/session.hpp"
#include "campaign/campaign.hpp"

namespace ftsched {

/// The building blocks every `caft-*` campaign document shares — exposed so
/// new documents (the campaign server's request/report family lives in
/// src/server/server_wire.hpp) speak the same dialect instead of growing a
/// second, subtly different one. Everything throws caft::CheckError on
/// malformed input, like the readers built from them.
namespace wire {

/// Doubles cross campaign wires as C hexadecimal float literals
/// ("0x1.8p+3", plus "inf"/"nan"): bit-exact round-trip,
/// locale-independent, and strtod parses them back natively.
[[nodiscard]] std::string format_double(double value);
[[nodiscard]] double parse_double(const std::string& token, const char* what);
/// Strict non-negative decimal integer ("12x", "", "-3" and values past
/// 2^64 − 1 all throw).
[[nodiscard]] std::uint64_t parse_u64(const std::string& token,
                                      const char* what);
/// parse_u64 for counts and sizes.
[[nodiscard]] std::size_t parse_size(const std::string& token,
                                     const char* what);
/// Strict 0|1 flag.
[[nodiscard]] bool parse_bool(const std::string& token, const char* what);
/// Pulls the next whitespace token off `line`; throws when the line is
/// exhausted (every field of a keyed line is mandatory).
[[nodiscard]] std::string next_token(std::istringstream& line,
                                     const char* what);

/// Validates a document's first line against `<magic> v<version>`.
/// Version skew gets its own diagnostic: a matching magic at any other
/// version ("caft-campaign-work v1" to a v2 reader) names the version
/// mismatch and tells the peer which version this reader speaks, instead
/// of the generic bad-magic error a corrupt line earns — a peer of another
/// generation must be told to match versions, not to debug "corruption".
void check_magic_line(const std::string& line, const char* magic,
                      int version = 1);
/// Reads the magic line `<magic> v<version>` from `is` (check_magic_line
/// rules) and positions the stream after it.
void expect_magic(std::istream& is, const char* magic, int version = 1);

/// The CampaignSpec lines the work order and the server request share —
/// one codec, so the two documents cannot drift. write_spec_lines emits
///   replays <n> / seed <u64> / quantiles <k> <q...> / theta-buckets <n> /
///   exact <0|1>
/// in that order; each document then adds its own lines (the request's
/// `target-ci-width`) before the `sampler ...` line (kind + every
/// distribution parameter, doubles as hexfloat) and the `request ...` line
/// (ScheduleRequest with "-" for unset optionals).
void write_spec_lines(std::ostream& os, const CampaignSpec& spec);
void write_sampler_line(std::ostream& os, const SamplerSpec& sampler);
void write_request_line(std::ostream& os, const ScheduleRequest& request);
/// Parses one line of a spec document whose first token `key` has already
/// been pulled off `fields`: the lines write_spec_lines writes plus
/// `sampler` and `request`. Returns false, consuming nothing, for any
/// other key (the document's own lines); throws on a malformed line.
[[nodiscard]] bool read_spec_line(const std::string& key,
                                  std::istringstream& fields,
                                  CampaignSpec& spec);

}  // namespace wire

/// One unit of subprocess campaign work: replay the contiguous canonical
/// scenario block [first, first + count) of `spec`'s campaign against the
/// schedule `algorithm` produces on the referenced instance.
struct CampaignWorkOrder {
  std::string instance_path;  ///< io/instance_io file the worker loads
  std::string algorithm;      ///< registry name the worker re-schedules
  std::size_t first = 0;
  std::size_t count = 0;
  /// The declarative campaign (sampler, seed, quantiles, θ-quantization,
  /// request). The coordinator pins request.eps / request.model to the
  /// values its own scheduling run resolved, so the worker cannot drift.
  CampaignSpec spec;
  /// Summary-neutral execution knob the worker honours: its private
  /// thread budget.
  std::size_t threads = 1;
  /// Determinism pins: the coordinator's 0-crash makespan and horizon. A
  /// worker whose re-scheduled values differ bit-for-bit refuses to run
  /// (environment drift would silently corrupt the campaign). NaN = don't
  /// check (hand-written orders).
  double expect_makespan = std::numeric_limits<double>::quiet_NaN();
  double expect_horizon = std::numeric_limits<double>::quiet_NaN();
};

/// Worker-side wall-clock breakdown of one block (steady_clock seconds).
/// Observability only: never folded into the summary, and optional on the
/// wire so pre-existing partial documents stay readable.
struct WorkerTiming {
  bool present = false;           ///< the wire carried a timing line
  double wall_seconds = 0.0;      ///< whole worker invocation
  double schedule_seconds = 0.0;  ///< instance load + re-schedule + pins
  double replay_seconds = 0.0;    ///< run_campaign_block proper
};

/// One block's fold inputs plus its mergeable fold state and telemetry.
struct CampaignPartialResult {
  std::string algorithm;
  std::size_t first = 0;
  std::size_t count = 0;
  std::size_t successes = 0;  ///< Wilson inputs: (count, successes)
  std::vector<caft::ReplayRecord> records;  ///< canonical replay order
  caft::CampaignTelemetry telemetry;
  WorkerTiming timing;  ///< optional worker-side timings (observability)
};

void write_campaign_work_order(std::ostream& os,
                               const CampaignWorkOrder& order);
/// Parses a work order; throws caft::CheckError on malformed input.
[[nodiscard]] CampaignWorkOrder read_campaign_work_order(std::istream& is);

/// Parses a partial result; throws caft::CheckError on malformed input —
/// including a record list that disagrees with the `counts` line or the
/// `block` range, a block range whose `first + count` overflows, or a
/// `records` header that disagrees with the block's `count`.
[[nodiscard]] CampaignPartialResult read_campaign_partial(std::istream& is);

/// Chunked partial-result writer — the worker half of the streaming pipe.
/// A worker that replays a large block must not materialise every record
/// before the first byte of output; these three calls let it emit the
/// document incrementally:
///
///   write_campaign_partial_header(os, algorithm, first, count);
///   for each computed sub-block: write_campaign_partial_records(os, ...);
///   write_campaign_partial_footer(os, successes, telemetry, timing);
///
/// The header carries the `records <count>` line (count is the block size,
/// known up front); the mergeable fold state (`counts`) and telemetry land
/// in the footer, *after* the record lines — the reader is line-keyed and
/// validates the whole document at the end, so a counts-first document
/// parses identically.
void write_campaign_partial_header(std::ostream& os,
                                   const std::string& algorithm,
                                   std::size_t first, std::size_t count);
void write_campaign_partial_records(
    std::ostream& os, const caft::ReplayRecord* records, std::size_t count);
void write_campaign_partial_footer(std::ostream& os, std::size_t records,
                                   std::size_t successes,
                                   const caft::CampaignTelemetry& telemetry,
                                   const WorkerTiming& timing);

/// Incremental partial-result parser — the coordinator half of the
/// streaming pipe. Feed it raw stdout bytes as they arrive from the worker
/// (any chunking, including mid-line splits); it consumes complete lines
/// immediately, so the coordinator never holds a worker's full stdout
/// string next to the parsed records.
///
/// feed() never throws: a malformed document latches an error and further
/// input is ignored (the poll loop that delivers chunks must keep draining
/// the child regardless). finish() validates the complete document — the
/// same strictness contract as read_campaign_partial — and either returns
/// the parsed partial or throws caft::CheckError with the latched reason.
class CampaignPartialReader {
 public:
  /// Buffers `data` and consumes every complete line. Safe to call after
  /// an error (input is discarded).
  void feed(const char* data, std::size_t size) noexcept;

  /// True once a parse error has been latched; finish() will throw it.
  [[nodiscard]] bool failed() const { return !error_.empty(); }

  /// Validates end-of-stream (a trailing unterminated line, a missing
  /// `end`, count mismatches and every latched feed() error all throw) and
  /// returns the parsed partial. Call exactly once, after the last feed().
  [[nodiscard]] CampaignPartialResult take();

 private:
  void consume_line(const std::string& line);
  void fail(const std::string& why) noexcept;

  CampaignPartialResult partial_;
  std::string buffer_;          ///< bytes of the current (incomplete) line
  std::string error_;           ///< first latched parse error, empty = ok
  bool saw_magic_ = false;
  bool saw_end_ = false;
  bool saw_block_ = false;
  bool saw_counts_ = false;
  bool saw_records_ = false;
  std::size_t records_expected_ = 0;  ///< from the `records` header line
  std::size_t declared_records_ = 0;  ///< from the `counts` line
  std::size_t declared_successes_ = 0;
};

}  // namespace ftsched
