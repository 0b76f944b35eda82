#include "server/server_wire.hpp"

#include <algorithm>
#include <array>
#include <istream>
#include <ostream>
#include <sstream>
#include <utility>

#include "api/campaign_wire.hpp"
#include "common/check.hpp"

namespace ftsched {
namespace server {

using namespace wire;

void write_campaign_request(std::ostream& os,
                            const CampaignRequest& request) {
  const CampaignSpec& spec = request.spec;
  os << "caft-campaign-request v1\n";
  os << "algorithms " << spec.algorithms.size();
  for (const std::string& algorithm : spec.algorithms)
    os << " " << algorithm;
  os << "\n";
  write_spec_lines(os, spec);
  os << "target-ci-width " << format_double(spec.target_ci_width) << "\n";
  write_sampler_line(os, spec.sampler);
  write_request_line(os, spec.request);
  os << "progress " << (request.progress ? 1 : 0) << "\n";
  os << "instance-bytes " << request.instance_bytes.size() << "\n";
  os.write(request.instance_bytes.data(),
           static_cast<std::streamsize>(request.instance_bytes.size()));
  os << "end\n";
}

CampaignRequest read_campaign_request(std::istream& is) {
  expect_magic(is, "caft-campaign-request");
  CampaignRequest request;
  request.spec.algorithms.clear();
  bool saw_end = false;
  bool saw_algorithms = false;
  bool saw_instance = false;
  std::string line;
  while (!saw_end && std::getline(is, line)) {
    if (line.empty()) continue;
    std::istringstream fields(line);
    std::string key;
    fields >> key;
    if (read_spec_line(key, fields, request.spec)) continue;
    if (key == "end") {
      saw_end = true;
    } else if (key == "algorithms") {
      const std::size_t n = parse_size(
          next_token(fields, "algorithm count"), "algorithm count");
      request.spec.algorithms.clear();
      for (std::size_t i = 0; i < n; ++i)
        request.spec.algorithms.push_back(
            next_token(fields, "algorithm name"));
      saw_algorithms = true;
    } else if (key == "target-ci-width") {
      request.spec.target_ci_width = parse_double(
          next_token(fields, "target-ci-width"), "target-ci-width");
    } else if (key == "progress") {
      request.progress =
          parse_bool(next_token(fields, "progress"), "progress");
    } else if (key == "instance-bytes") {
      const std::size_t n = parse_size(
          next_token(fields, "instance byte count"), "instance byte count");
      CAFT_CHECK_MSG(n > 0, "campaign wire: request has an empty instance");
      // n is the peer's claim, not a budget: the payload is appended in
      // bounded chunks as it arrives, so memory tracks the bytes actually
      // received. (Counts elsewhere in a request need no such care: each
      // item is a token on one line, and a missing token throws.)
      std::string& payload = request.instance_bytes;
      payload.clear();
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
      saw_instance = true;
    } else {
      throw caft::CheckError("campaign wire: unknown request key '" + key +
                             "'");
    }
  }
  CAFT_CHECK_MSG(saw_end, "campaign wire: truncated request (no 'end')");
  CAFT_CHECK_MSG(saw_algorithms && !request.spec.algorithms.empty(),
                 "campaign wire: request names no algorithms");
  CAFT_CHECK_MSG(saw_instance,
                 "campaign wire: request carries no instance bytes");
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

namespace {

void write_moments_line(std::ostream& os, const char* label,
                        const caft::StreamingMoments& moments) {
  os << label << " " << moments.count() << " "
     << format_double(moments.count() == 0 ? 0.0 : moments.mean()) << " "
     << format_double(moments.m2()) << " " << format_double(moments.min())
     << " " << format_double(moments.max()) << "\n";
}

caft::StreamingMoments read_moments_line(std::istringstream& fields,
                                         const char* what) {
  const std::size_t count = parse_size(next_token(fields, what), what);
  const double mean = parse_double(next_token(fields, what), what);
  const double m2 = parse_double(next_token(fields, what), what);
  const double min = parse_double(next_token(fields, what), what);
  const double max = parse_double(next_token(fields, what), what);
  return caft::StreamingMoments::restore(count, mean, m2, min, max);
}

}  // namespace

void write_campaign_report(std::ostream& os, const CampaignReport& report) {
  os << "caft-campaign-report v1\n";
  os << "runs " << report.runs.size() << "\n";
  for (const CampaignRun& run : report.runs) {
    const caft::CampaignSummary& s = run.summary;
    os << "run " << run.algorithm << "\n";
    os << "sched " << run.result.eps << " "
       << format_double(run.result.makespan) << " "
       << format_double(run.result.upper_bound) << " "
       << run.result.messages << " "
       << format_double(run.result.message_volume) << "\n";
    os << "theta-width " << format_double(run.theta_bucket_width) << "\n";
    os << "summary-sampler " << s.sampler << "\n";
    os << "summary-counts " << s.replays << " " << s.successes << " "
       << s.replays_within_eps << " " << s.successes_within_eps << " "
       << s.max_failed << " " << s.order_relaxations << " "
       << s.order_deadlocks << "\n";
    os << "summary-ci " << format_double(s.success_ci.low) << " "
       << format_double(s.success_ci.high) << "\n";
    write_moments_line(os, "latency", s.latency);
    write_moments_line(os, "delivered", s.delivered_messages);
    for (const caft::QuantileEstimate& quantile : s.latency_quantiles)
      os << "quantile " << format_double(quantile.q) << " "
         << format_double(quantile.value) << "\n";
    os << "end-run\n";
  }
  os << "end\n";
}

namespace {

/// Parses the `run`..`end-run` group whose `run` line is already consumed.
ReportRun read_report_run(std::istream& is, std::string algorithm) {
  ReportRun run;
  run.algorithm = std::move(algorithm);
  bool saw_end_run = false;
  std::string line;
  while (!saw_end_run && std::getline(is, line)) {
    if (line.empty()) continue;
    std::istringstream fields(line);
    std::string key;
    fields >> key;
    if (key == "end-run") {
      saw_end_run = true;
    } else if (key == "sched") {
      run.eps = parse_size(next_token(fields, "sched eps"), "sched eps");
      run.makespan =
          parse_double(next_token(fields, "sched makespan"), "makespan");
      run.upper_bound = parse_double(next_token(fields, "sched upper-bound"),
                                     "upper-bound");
      run.messages =
          parse_size(next_token(fields, "sched messages"), "messages");
      run.message_volume = parse_double(
          next_token(fields, "sched message-volume"), "message-volume");
    } else if (key == "theta-width") {
      run.theta_bucket_width =
          parse_double(next_token(fields, "theta-width"), "theta-width");
    } else if (key == "summary-sampler") {
      std::string rest;
      std::getline(fields, rest);
      const std::size_t start = rest.find_first_not_of(' ');
      CAFT_CHECK_MSG(start != std::string::npos,
                     "campaign wire: empty summary sampler name");
      run.summary.sampler = rest.substr(start);
    } else if (key == "summary-counts") {
      caft::CampaignSummary& s = run.summary;
      s.replays = parse_size(next_token(fields, "summary replays"),
                             "summary replays");
      s.successes = parse_size(next_token(fields, "summary successes"),
                               "summary successes");
      s.replays_within_eps = parse_size(
          next_token(fields, "summary within-replays"), "within-replays");
      s.successes_within_eps = parse_size(
          next_token(fields, "summary within-successes"), "within-successes");
      s.max_failed =
          parse_size(next_token(fields, "summary max-failed"), "max-failed");
      s.order_relaxations = parse_size(
          next_token(fields, "summary relaxations"), "relaxations");
      s.order_deadlocks =
          parse_size(next_token(fields, "summary deadlocks"), "deadlocks");
    } else if (key == "summary-ci") {
      run.summary.success_ci.low =
          parse_double(next_token(fields, "ci low"), "ci low");
      run.summary.success_ci.high =
          parse_double(next_token(fields, "ci high"), "ci high");
    } else if (key == "latency") {
      run.summary.latency = read_moments_line(fields, "latency moments");
    } else if (key == "delivered") {
      run.summary.delivered_messages =
          read_moments_line(fields, "delivered moments");
    } else if (key == "quantile") {
      caft::QuantileEstimate quantile;
      quantile.q = parse_double(next_token(fields, "quantile q"), "q");
      quantile.value =
          parse_double(next_token(fields, "quantile value"), "value");
      run.summary.latency_quantiles.push_back(quantile);
    } else {
      throw caft::CheckError("campaign wire: unknown report key '" + key +
                             "'");
    }
  }
  CAFT_CHECK_MSG(saw_end_run,
                 "campaign wire: truncated report run (no 'end-run')");
  return run;
}

/// Shared by read_campaign_report (after expect_magic) and
/// read_server_response (after dispatching the already-read magic line).
ReportDocument read_report_body(std::istream& is) {
  ReportDocument document;
  std::size_t declared_runs = 0;
  bool saw_runs = false;
  bool saw_end = false;
  std::string line;
  while (!saw_end && std::getline(is, line)) {
    if (line.empty()) continue;
    std::istringstream fields(line);
    std::string key;
    fields >> key;
    if (key == "end") {
      saw_end = true;
    } else if (key == "runs") {
      declared_runs =
          parse_size(next_token(fields, "run count"), "run count");
      saw_runs = true;
    } else if (key == "run") {
      document.runs.push_back(
          read_report_run(is, next_token(fields, "run algorithm")));
    } else {
      throw caft::CheckError("campaign wire: unknown report key '" + key +
                             "'");
    }
  }
  CAFT_CHECK_MSG(saw_end, "campaign wire: truncated report (no 'end')");
  CAFT_CHECK_MSG(saw_runs && declared_runs == document.runs.size(),
                 "campaign wire: report declares " +
                     std::to_string(declared_runs) + " runs but carries " +
                     std::to_string(document.runs.size()));
  return document;
}

}  // namespace

ReportDocument read_campaign_report(std::istream& is) {
  expect_magic(is, "caft-campaign-report");
  return read_report_body(is);
}

void write_campaign_busy(std::ostream& os, const BusyInfo& busy) {
  os << "caft-campaign-busy v1\n";
  os << "inflight " << busy.inflight << "\n";
  os << "queued " << busy.queued << "\n";
  os << "max-inflight " << busy.max_inflight << "\n";
  os << "queue-limit " << busy.queue_limit << "\n";
  os << "end\n";
}

void write_campaign_error(std::ostream& os, const std::string& message) {
  // The message rides one keyed line; strip embedded newlines so a
  // multi-line exception cannot smuggle bogus document lines.
  std::string flat = message;
  for (char& c : flat)
    if (c == '\n' || c == '\r') c = ' ';
  os << "caft-campaign-error v1\n";
  os << "error " << flat << "\n";
  os << "end\n";
}

void write_progress_line(std::ostream& os, const ProgressLine& line) {
  os << "progress " << line.algorithm << " " << line.done << " "
     << line.total << " " << line.successes << " "
     << format_double(line.ci_width) << "\n";
}

namespace {

BusyInfo read_busy_body(std::istream& is) {
  BusyInfo busy;
  bool saw_end = false;
  std::string line;
  while (!saw_end && std::getline(is, line)) {
    if (line.empty()) continue;
    std::istringstream fields(line);
    std::string key;
    fields >> key;
    if (key == "end") {
      saw_end = true;
    } else if (key == "inflight") {
      busy.inflight = parse_size(next_token(fields, "inflight"), "inflight");
    } else if (key == "queued") {
      busy.queued = parse_size(next_token(fields, "queued"), "queued");
    } else if (key == "max-inflight") {
      busy.max_inflight =
          parse_size(next_token(fields, "max-inflight"), "max-inflight");
    } else if (key == "queue-limit") {
      busy.queue_limit =
          parse_size(next_token(fields, "queue-limit"), "queue-limit");
    } else {
      throw caft::CheckError("campaign wire: unknown busy key '" + key + "'");
    }
  }
  CAFT_CHECK_MSG(saw_end, "campaign wire: truncated busy document");
  return busy;
}

std::string read_error_body(std::istream& is) {
  std::string message;
  bool saw_end = false;
  bool saw_error = false;
  std::string line;
  while (!saw_end && std::getline(is, line)) {
    if (line.empty()) continue;
    std::istringstream fields(line);
    std::string key;
    fields >> key;
    if (key == "end") {
      saw_end = true;
    } else if (key == "error") {
      std::string rest;
      std::getline(fields, rest);
      const std::size_t start = rest.find_first_not_of(' ');
      message = start == std::string::npos ? "" : rest.substr(start);
      saw_error = true;
    } else {
      throw caft::CheckError("campaign wire: unknown error key '" + key +
                             "'");
    }
  }
  CAFT_CHECK_MSG(saw_end && saw_error,
                 "campaign wire: truncated error document");
  return message;
}

}  // namespace

ServerResponse read_server_response(
    std::istream& is,
    const std::function<void(const ProgressLine&)>& on_progress) {
  ServerResponse response;
  std::string line;
  while (std::getline(is, line)) {
    if (line.empty()) continue;
    if (line.rfind("progress ", 0) == 0) {
      std::istringstream fields(line);
      std::string key;
      fields >> key;
      ProgressLine progress;
      progress.algorithm = next_token(fields, "progress algorithm");
      progress.done =
          parse_size(next_token(fields, "progress done"), "done");
      progress.total =
          parse_size(next_token(fields, "progress total"), "total");
      progress.successes =
          parse_size(next_token(fields, "progress successes"), "successes");
      progress.ci_width =
          parse_double(next_token(fields, "progress ci-width"), "ci-width");
      if (on_progress) on_progress(progress);
      response.progress.push_back(std::move(progress));
      continue;
    }
    // The first non-progress line opens the document; dispatch on it. The
    // check_magic_line call inside each branch yields the shared
    // version-skew diagnostic for a v2 line of a known magic.
    if (line.rfind("caft-campaign-report", 0) == 0) {
      check_magic_line(line, "caft-campaign-report");
      response.kind = ServerResponse::Kind::kReport;
      response.report = read_report_body(is);
      return response;
    }
    if (line.rfind("caft-campaign-busy", 0) == 0) {
      check_magic_line(line, "caft-campaign-busy");
      response.kind = ServerResponse::Kind::kBusy;
      response.busy = read_busy_body(is);
      return response;
    }
    if (line.rfind("caft-campaign-error", 0) == 0) {
      check_magic_line(line, "caft-campaign-error");
      response.kind = ServerResponse::Kind::kError;
      response.error = read_error_body(is);
      return response;
    }
    throw caft::CheckError("campaign wire: unexpected server line '" + line +
                           "'");
  }
  throw caft::CheckError("campaign wire: empty server response");
}

}  // namespace server
}  // namespace ftsched
