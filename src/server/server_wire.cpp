#include "server/server_wire.hpp"

#include <span>
#include <tuple>
#include <utility>

#include "api/campaign_wire.hpp"
#include "common/check.hpp"

namespace ftsched {
namespace server {

using namespace wire;

namespace {

/// The magic lines of the server's answers, in ServerResponse::Kind order.
constexpr const char* kAnswers[] = {
    "caft-campaign-report", "caft-campaign-busy", "caft-campaign-error"};

const auto request_body = [](auto& d, auto& request) {
  d.line("algorithms", Field{request.spec.algorithms, "algorithm name"});
  spec_lines(d, request.spec);
  d.line("target-ci-width", request.spec.target_ci_width);
  schedule_lines(d, request.spec);
  d.line("progress", request.progress);
  d.instance_bytes(request.instance_bytes);
};

const auto run_body = [](auto& d, auto& run) {
  auto& s = run.summary;
  d.line("sched", run.eps, run.makespan, run.upper_bound, run.messages,
         run.message_volume);
  d.line("theta-width", run.theta_bucket_width);
  d.line("summary-sampler", Rest{s.sampler});
  d.line("summary-counts", s.replays, s.successes, s.replays_within_eps,
         s.successes_within_eps, s.max_failed, s.order_relaxations,
         s.order_deadlocks);
  d.line("summary-ci", s.success_ci.low, s.success_ci.high);
  d.line("latency", s.latency);
  d.line("delivered", s.delivered_messages);
  d.each("quantile", s.latency_quantiles,
         [](auto& q) { return std::tie(q.q, q.value); });
};

/// `runs` is the `runs` line's count.
const auto report_body = [](auto& d, auto& report, auto& runs) {
  d.line("runs", runs);
  d.group(
      "run", "end-run", report.runs,
      [](auto& run) { return std::tie(run.algorithm); }, run_body);
};

const auto busy_body = [](auto& d, auto& busy) {
  d.line("inflight", busy.inflight);
  d.line("queued", busy.queued);
  d.line("max-inflight", busy.max_inflight);
  d.line("queue-limit", busy.queue_limit);
};

const auto error_body = [](auto& d, auto& message) {
  d.line("error", Rest{message});
};

const auto progress_fields = [](auto& line) {
  return std::tie(line.algorithm, line.done, line.total, line.successes,
                  line.ci_width);
};

/// The report body after its magic line; throws unless the `runs` count
/// matches the groups.
ReportDocument read_report_body(LineReader& in) {
  ReportDocument report;
  std::size_t runs = 0;
  (void)read_body(in, {"end"},
                  [&](auto& d) { report_body(d, report, runs); });
  CAFT_CHECK_MSG(runs == report.runs.size(),
                 "campaign wire: report declares " + std::to_string(runs) +
                     " runs but carries " +
                     std::to_string(report.runs.size()));
  return report;
}

}  // namespace

void write_campaign_request(std::ostream& os,
                            const CampaignRequest& request) {
  write_document(os, "caft-campaign-request", 1,
                 [&](auto& d) { request_body(d, request); });
}

CampaignRequest read_campaign_request(std::istream& is) {
  CampaignRequest request;
  read_document(is, "caft-campaign-request", 1, "request",
                [&](auto& d) { request_body(d, request); });
  CAFT_CHECK_MSG(!request.spec.algorithms.empty(),
                 "campaign wire: request names no algorithms");
  return request;
}

std::vector<std::pair<std::string, caft::CampaignSummary>>
ReportDocument::summary_rows() const {
  std::vector<std::pair<std::string, caft::CampaignSummary>> rows;
  rows.reserve(runs.size());
  for (const ReportRun& run : runs)
    rows.emplace_back(display_name(run.algorithm), run.summary);
  return rows;
}

void write_campaign_report(std::ostream& os, const CampaignReport& report) {
  ReportDocument document;
  document.runs.reserve(report.runs.size());
  for (const CampaignRun& run : report.runs)
    document.runs.push_back(ReportRun{
        run.algorithm, run.result.eps, run.result.makespan,
        run.result.upper_bound, run.result.messages,
        run.result.message_volume, run.theta_bucket_width, run.summary});
  write_campaign_report(os, document);
}

void write_campaign_report(std::ostream& os, const ReportDocument& report) {
  std::size_t runs = report.runs.size();
  write_document(os, kAnswers[0], 1,
                 [&](auto& d) { report_body(d, report, runs); });
}

ReportDocument read_campaign_report(std::istream& is) {
  expect_magic(is, kAnswers[0]);
  LineReader in(is, "report");
  return read_report_body(in);
}

void write_campaign_busy(std::ostream& os, const BusyInfo& busy) {
  write_document(os, kAnswers[1], 1, [&](auto& d) { busy_body(d, busy); });
}

void write_campaign_error(std::ostream& os, const std::string& message) {
  // The message rides one keyed line; strip embedded newlines so a
  // multi-line exception cannot smuggle bogus document lines.
  std::string flat = message;
  for (char& c : flat)
    if (c == '\n' || c == '\r') c = ' ';
  write_document(os, kAnswers[2], 1, [&](auto& d) { error_body(d, flat); });
}

void write_progress_line(std::ostream& os, const ProgressLine& line) {
  BodyWriter(os).each("progress", std::span(&line, 1), progress_fields);
}

ServerResponse read_server_response(
    std::istream& is,
    const std::function<void(const ProgressLine&)>& on_progress) {
  ServerResponse response;
  // Progress lines stream ahead of the document; the first magic line ends
  // them and opens the document, whose version it must match.
  LineReader in(is, "server response");
  const std::size_t kind = read_lines(
      in, {kAnswers[0], kAnswers[1], kAnswers[2]}, [&](auto& d) {
        if (d.each("progress", response.progress, progress_fields) &&
            on_progress)
          on_progress(response.progress.back());
      });
  check_magic_line(in.line, kAnswers[kind]);
  response.kind = static_cast<ServerResponse::Kind>(kind);
  LineReader body(is, kAnswers[kind]);
  if (response.kind == ServerResponse::Kind::kReport)
    response.report = read_report_body(body);
  else if (response.kind == ServerResponse::Kind::kBusy)
    (void)read_body(body, {"end"},
                    [&](auto& d) { busy_body(d, response.busy); });
  else
    (void)read_body(body, {"end"},
                    [&](auto& d) { error_body(d, response.error); });
  return response;
}

}  // namespace server
}  // namespace ftsched
