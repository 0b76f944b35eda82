/// \file server.hpp
/// `ftsched::server::CampaignServer` — campaigns as a service: a
/// long-running daemon that wraps one in-process `ftsched::Session` behind
/// the line protocol of server_wire.hpp and amortizes instance loads,
/// schedules and replay-engine templates across requests through the
/// content-addressed ContentCache.
///
/// The headline guarantee is *byte identity*: the report document a server
/// streams back is byte-for-byte what serializing an in-process
/// `Session::evaluate` of the same (instance bytes, spec) produces — cache
/// hit or miss, cold or warm, alone or under concurrent mixed load. It
/// holds because every cached artifact is content-addressed (nothing about
/// request order or client identity reaches a key), the replay template is
/// speed-only by the engine's purity contract, and --target-ci-width early
/// stopping cuts at a point that is a deterministic function of the spec
/// (the stop rule is checked every caft::kCampaignWave replays).
/// tests/test_campaign_server.cpp and the CI smoke legs enforce it.
///
/// Admission control: at most `max_inflight` requests evaluate at once;
/// up to `queue_limit` more wait; anyone beyond that gets an immediate
/// `caft-campaign-busy` document with the controller's state — a client
/// can tell "try later" from "dead server" without timeouts.
///
/// Observability (inert when the obs registry is disabled, like the rest
/// of the library): server.cache.{hit,miss,evict},
/// server.requests.{accepted,rejected}, and the server.queue.depth gauge.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>

#include "api/session.hpp"
#include "obs/obs.hpp"
#include "server/content_cache.hpp"
#include "server/server_wire.hpp"
#include "server/socket.hpp"

namespace ftsched {
namespace server {

struct ServerOptions {
  /// Interface to bind (IPv4 dotted quad; see CliArgs::check_listen_address).
  std::string listen_address = "127.0.0.1";
  /// TCP port; 0 binds an ephemeral port — read it back via port().
  std::uint16_t port = 0;
  /// ContentCache entry budget (0 = caching off, every request cold).
  std::size_t cache_capacity = 64;
  /// Concurrent evaluations; 0 rejects every request (drain/maintenance
  /// mode, and how tests exercise the busy document deterministically).
  std::size_t max_inflight = 2;
  /// Requests allowed to wait for a slot before rejection.
  std::size_t queue_limit = 8;
  /// Execution policy of the wrapped Session. Must be in-process
  /// (ExecutionPolicy::Mode::kInProcess) — the replay template cache has
  /// nowhere to go in a worker process. Checked at construction.
  SessionOptions session;
};

/// Counting semaphore with a bounded wait queue and a legible rejection.
/// Thread-safe; one instance per server.
class Admission {
 public:
  Admission(std::size_t max_inflight, std::size_t queue_limit);

  /// What acquire() decided, plus the state a busy document reports.
  struct Ticket {
    bool admitted = false;
    std::size_t inflight = 0;  ///< running requests at decision time
    std::size_t queued = 0;    ///< waiting requests at decision time
  };

  /// Blocks while a queue slot is free, rejects immediately otherwise
  /// (and always, when max_inflight is 0). An admitted ticket must be
  /// paired with exactly one release().
  [[nodiscard]] Ticket acquire();
  void release();

  [[nodiscard]] std::size_t max_inflight() const { return max_inflight_; }
  [[nodiscard]] std::size_t queue_limit() const { return queue_limit_; }

 private:
  const std::size_t max_inflight_;
  const std::size_t queue_limit_;
  std::mutex lock_;
  std::condition_variable free_slot_;
  std::size_t inflight_ = 0;
  std::size_t waiting_ = 0;
  obs::Counter accepted_;
  obs::Counter rejected_;
  obs::Gauge queue_depth_;
};

class CampaignServer {
 public:
  /// Validates the options (in-process execution only); does not bind —
  /// construction is cheap and serve() works without any socket.
  explicit CampaignServer(ServerOptions options);
  /// stop()s if still running.
  ~CampaignServer();
  CampaignServer(const CampaignServer&) = delete;
  CampaignServer& operator=(const CampaignServer&) = delete;

  /// Handles ONE request: reads a request document from `in`, writes
  /// progress lines (if asked) and exactly one response document to `out`.
  /// Any failure — malformed request, version skew, unknown algorithm,
  /// unparseable instance, spec validation — becomes a
  /// `caft-campaign-error` document, never a dropped connection. This is
  /// the whole per-connection behavior, exposed stream-shaped so protocol
  /// tests run without sockets.
  void serve(std::istream& in, std::ostream& out);

  /// Binds listen_address:port and starts the accept loop (one detached
  /// thread per connection, each running serve()). Throws caft::CheckError
  /// when the bind fails or the server already runs.
  void start();
  /// The bound port (after start(); the ephemeral one when port was 0).
  [[nodiscard]] std::uint16_t port() const;
  /// Graceful drain: stops accepting and shuts the read side of every open
  /// connection — one still waiting for its request reads end-of-file and
  /// gets an error document, so a silent client cannot hold the drain
  /// open; an admitted request still writes its report — then blocks until
  /// every connection finishes. Idempotent.
  void stop();

  [[nodiscard]] const ServerOptions& options() const { return options_; }

 private:
  /// The admitted path of serve(): resolve cached artifacts, campaign
  /// every algorithm, stream the report.
  void handle(const CampaignRequest& request, std::ostream& out);
  void accept_loop();

  ServerOptions options_;
  ContentCache cache_;
  Admission admission_;

  std::unique_ptr<ListenSocket> listener_;
  std::thread accept_thread_;
  std::atomic<bool> stopping_{false};

  /// Open-connection drain state: the accept loop increments under the
  /// lock before detaching a connection thread; the thread decrements
  /// (and notifies) as its very last action, so stop() waiting for 0
  /// cannot miss a thread that still touches `this`.
  std::mutex connections_lock_;
  std::condition_variable connections_done_;
  std::size_t open_connections_ = 0;
  /// The streams of those connections, for stop() to shut down. A
  /// connection thread removes its stream (under the lock) before it
  /// destroys it, so every pointer here is live.
  std::set<SocketStream*> open_streams_;
};

}  // namespace server
}  // namespace ftsched
