/// \file server_wire.hpp
/// Wire documents of the campaign server (src/server/server.hpp): the
/// request a client sends over one connection and the three answers a
/// server can stream back — progress lines followed by exactly one of a
/// report, a busy rejection, or an error document.
///
/// Same dialect as api/campaign_wire.hpp (the shared `ftsched::wire`
/// helpers): line-oriented keyed documents, `<magic> v1` first lines with
/// the version-skew diagnostic, every double as a C hexfloat literal, and
/// strict readers that throw caft::CheckError instead of guessing.
///
/// Request (`caft-campaign-request v1`):
///   algorithms <k> <name>...
///   replays <n>  /  seed <u64>           # the work order's spec lines
///   quantiles <k> <q...>                 # (wire::write_spec_lines)
///   theta-buckets <n>  /  exact <0|1>
///   target-ci-width <w>                  # hexfloat, 0 = run all replays
///   sampler ...  /  request ...          # the shared spec-line codecs
///   progress <0|1>                       # stream progress lines?
///   instance-bytes <n>                   # followed by exactly n raw bytes
///   <n bytes of io/instance_io text>     # of the archival instance format
///   end
/// The server content-addresses the campaign by the FNV-1a hash of those
/// instance bytes (common/hash.hpp) — two clients sending equal bytes share
/// every cached artifact.
///
/// Report (`caft-campaign-report v1`) — one `run`..`end-run` group per
/// algorithm, in request order:
///   runs <k>
///   run <algorithm>
///   sched <eps> <makespan> <upper-bound> <messages> <message-volume>
///   theta-width <w>
///   summary-sampler <name...>            # rest of line, spaces and all
///   summary-counts <replays> <successes> <within-replays>
///                  <within-successes> <max-failed> <relaxations> <deadlocks>
///   summary-ci <low> <high>
///   latency <count> <mean> <m2> <min> <max>      # complete Welford state
///   delivered <count> <mean> <m2> <min> <max>
///   quantile <q> <value>                 # one per estimated quantile
///   end-run
///   end
/// Deliberately NO telemetry and NO timings: the report is a pure function
/// of (instance bytes, spec), which is what makes the server's headline
/// guarantee testable — the document must be byte-identical to serializing
/// an in-process Session::evaluate of the same inputs, cache hit or miss.
///
/// Busy (`caft-campaign-busy v1`): the admission controller's rejection —
///   inflight <n>  /  queued <n>  /  max-inflight <n>  /  queue-limit <n>
///   end
///
/// Error (`caft-campaign-error v1`):
///   error <message...>                   # rest of line
///   end
///
/// Progress lines are NOT a document: with `progress 1` the server streams
///   progress <algorithm> <done> <total> <successes> <ci-width>
/// lines *before* the final document, one per folded wave. A reader strips
/// them until the first magic line (read_server_response below).
#pragma once

#include <cstddef>
#include <functional>
#include <iosfwd>
#include <string>
#include <vector>

#include "api/session.hpp"
#include "campaign/stats.hpp"

namespace ftsched {
namespace server {

/// One client request: a full CampaignSpec plus the instance *bytes* (the
/// server never touches the client's filesystem).
struct CampaignRequest {
  CampaignSpec spec;
  bool progress = false;        ///< stream progress lines before the report
  std::string instance_bytes;   ///< io/instance_io text, hashed for caching
};

void write_campaign_request(std::ostream& os, const CampaignRequest& request);
/// Parses a request; throws caft::CheckError on malformed input (including
/// a missing/short instance payload or an empty algorithm list).
[[nodiscard]] CampaignRequest read_campaign_request(std::istream& is);

/// The read-side shape of one report run. A plain struct (not CampaignRun):
/// ScheduleResult carries a Schedule wired to a live instance, which a
/// client reading a report does not have — it gets the scalar facts the
/// wire carries instead.
struct ReportRun {
  std::string algorithm;
  std::size_t eps = 0;
  double makespan = 0.0;
  double upper_bound = 0.0;
  std::size_t messages = 0;
  double message_volume = 0.0;
  double theta_bucket_width = 0.0;
  caft::CampaignSummary summary;
};

struct ReportDocument {
  std::vector<ReportRun> runs;

  /// (display label, summary) rows for campaign_table — the same shape
  /// CampaignReport::summary_rows() produces, so a client's table/CSV/JSON
  /// output is byte-identical to campaign_cli's.
  [[nodiscard]] std::vector<std::pair<std::string, caft::CampaignSummary>>
  summary_rows() const;
};

void write_campaign_report(std::ostream& os, const CampaignReport& report);
[[nodiscard]] ReportDocument read_campaign_report(std::istream& is);

/// The admission controller's state at rejection time.
struct BusyInfo {
  std::size_t inflight = 0;
  std::size_t queued = 0;
  std::size_t max_inflight = 0;
  std::size_t queue_limit = 0;
};

void write_campaign_busy(std::ostream& os, const BusyInfo& busy);
void write_campaign_error(std::ostream& os, const std::string& message);

/// One streamed progress line (see the file comment).
struct ProgressLine {
  std::string algorithm;
  std::size_t done = 0;
  std::size_t total = 0;
  std::size_t successes = 0;
  double ci_width = 1.0;
};

void write_progress_line(std::ostream& os, const ProgressLine& line);

/// Everything a server can answer with.
struct ServerResponse {
  enum class Kind { kReport, kBusy, kError };
  Kind kind = Kind::kError;
  ReportDocument report;          ///< kind == kReport
  BusyInfo busy;                  ///< kind == kBusy
  std::string error;              ///< kind == kError
  std::vector<ProgressLine> progress;  ///< lines streamed before the doc
};

/// Reads a full server response: progress lines (collected, and fed to
/// `on_progress` as they arrive — how a client shows live progress while
/// the document is still streaming) until the first magic line, then the
/// document that line opens. Throws caft::CheckError on anything
/// malformed — including version skew, with the shared "speaks v1"
/// diagnostic.
[[nodiscard]] ServerResponse read_server_response(
    std::istream& is,
    const std::function<void(const ProgressLine&)>& on_progress = {});

}  // namespace server
}  // namespace ftsched
