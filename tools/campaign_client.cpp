/// campaign_client — the client side of the campaign server: read an
/// instance file, ship its bytes plus a campaign spec to a running
/// campaign_server, and render the streamed-back report exactly as
/// campaign_cli renders a local one (same table, same --csv/--json
/// artifacts, byte-for-byte — the server's identity guarantee makes the
/// two interchangeable).
///
/// Usage:
///   campaign_client --in FILE [--connect ADDR] [--port N] [--eps N]
///                   [spec flags: --algos --sampler --k --rate --shape
///                    --scale --horizon --theta-lo --theta-hi --group-size
///                    --group-prob --replays --seed --theta-buckets
///                    --exact --target-ci-width]
///                   [--progress] [--csv PREFIX] [--json PREFIX]
///
///   --in FILE       instance file (io/instance_io text); its *bytes* go
///                   over the wire — the server never sees the path
///   --connect ADDR  server address, IPv4 dotted quad (default 127.0.0.1)
///   --port N        server port (required; no default on purpose — a
///                   client should fail loudly rather than guess)
///   --eps N         ε pinned into the request (default 1). Pinning
///                   matters: the server schedules the instance as its
///                   bytes describe it, so ε must ride the spec — exactly
///                   like `campaign_cli --in FILE --eps N` applies it.
///   --progress      server streams per-wave progress lines; printed live
///                   on stderr (stdout stays byte-stable)
///
/// Exit codes: 0 report received, 1 error (connection, protocol, server
/// error document), 3 server busy (the admission controller rejected —
/// retry later; the busy document's state is printed to stderr).
#include <cstdio>
#include <exception>
#include <fstream>
#include <sstream>
#include <string>

#include "campaign_spec_cli.hpp"
#include "common/build_info.hpp"
#include "common/cli_args.hpp"
#include "server/server_wire.hpp"
#include "server/socket.hpp"

int main(int argc, char** argv) {
  const caft::CliArgs args(argc, argv);
  if (args.has("help")) {
    std::printf("see the header of tools/campaign_client.cpp for usage\n");
    return 0;
  }
  if (args.has("version")) {
    std::printf("%s\n", caft::version_line().c_str());
    return 0;
  }
  try {
    CAFT_CHECK_MSG(args.has("in"), "--in FILE is required (the instance to "
                                   "campaign)");
    CAFT_CHECK_MSG(args.has("port"), "--port N is required (the "
                                     "campaign_server port)");
    const std::string address = caft::CliArgs::check_listen_address(
        "connect", args.get("connect", "127.0.0.1"));
    const std::uint16_t port =
        caft::CliArgs::check_port("port", args.get("port"));

    const std::string instance_path = args.get("in");
    std::ifstream in(instance_path, std::ios::binary);
    CAFT_CHECK_MSG(in.good(),
                   "--in: cannot read '" + instance_path + "'");
    std::ostringstream bytes;
    bytes << in.rdbuf();

    const std::size_t eps = args.get_size("eps", 1);
    ftsched::server::CampaignRequest request;
    request.spec = ftsched::tools::build_campaign_spec(args, eps);
    // The server schedules from the instance *bytes*, which carry no ε of
    // their own — pin it into the request so the server resolves exactly
    // what `campaign_cli --in FILE --eps N` resolves locally.
    request.spec.request.eps = eps;
    request.progress = args.has("progress");
    request.instance_bytes = bytes.str();
    const std::string csv = args.get("csv"), json = args.get("json");
    args.reject_unread();

    const auto connection = ftsched::server::connect_to(address, port);
    ftsched::server::write_campaign_request(*connection, request);
    connection->flush();

    const ftsched::server::ServerResponse response =
        ftsched::server::read_server_response(
            *connection,
            [](const ftsched::server::ProgressLine& line) {
              std::fprintf(stderr, "%s: %zu/%zu replays, %zu ok, ci %.4f\n",
                           ftsched::display_name(line.algorithm).c_str(),
                           line.done, line.total, line.successes,
                           line.ci_width);
            });

    using Kind = ftsched::server::ServerResponse::Kind;
    if (response.kind == Kind::kBusy) {
      std::fprintf(stderr,
                   "server busy: %zu in flight (max %zu), %zu queued "
                   "(limit %zu) — retry later\n",
                   response.busy.inflight, response.busy.max_inflight,
                   response.busy.queued, response.busy.queue_limit);
      return 3;
    }
    if (response.kind == Kind::kError) {
      std::fprintf(stderr, "server error: %s\n", response.error.c_str());
      return 1;
    }

    CAFT_CHECK_MSG(!response.report.runs.empty(),
                   "server report names no runs");
    // The summary's sampler string is the same name campaign_cli derives
    // locally, so the table title — and with it the CSV/JSON artifacts —
    // match byte-for-byte.
    const caft::Table table = caft::campaign_table(
        "fault-injection campaign — " +
            response.report.runs.front().summary.sampler,
        response.report.summary_rows());
    return ftsched::tools::write_table_outputs(csv, json, table);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "error: %s\n", error.what());
    return 1;
  }
}
