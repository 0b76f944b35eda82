/// \file server_wire.hpp
/// Wire documents of the campaign server (src/server/server.hpp): the
/// request (`caft-campaign-request v1`) a client sends over one connection
/// and what the server streams back — progress lines, then exactly one of
/// a report (`caft-campaign-report v1`), a busy rejection
/// (`caft-campaign-busy v1`) or an error (`caft-campaign-error v1`).
/// Same line codec as api/campaign_wire.hpp; docs/wire-protocols.md is the
/// normative layout. The report carries no telemetry and no timings: it is
/// a pure function of (instance bytes, spec), byte-identical to serializing
/// an in-process Session::evaluate of the same inputs, cache hit or miss.
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

/// One report run as the wire carries it. A plain struct (not CampaignRun):
/// ScheduleResult carries a Schedule wired to a live instance, which a
/// client reading a report does not have — it gets the scalar facts the
/// wire carries instead. The report writer goes through it too, so a
/// parsed ReportDocument writes back to the same bytes.
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
void write_campaign_report(std::ostream& os, const ReportDocument& report);
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
/// `on_progress` as they arrive) up to the first magic line, then the
/// document that line opens. Throws caft::CheckError on anything malformed.
[[nodiscard]] ServerResponse read_server_response(
    std::istream& is,
    const std::function<void(const ProgressLine&)>& on_progress = {});

}  // namespace server
}  // namespace ftsched
