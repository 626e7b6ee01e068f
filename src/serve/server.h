// POSIX-socket query server over a QueryService.
//
// Dependency-free TCP serving: an accept thread plus one handler thread
// per connection (serving-scale fan-in is bounded by `max_connections`).
// Each connection reads length-prefixed wire frames (common/framing.h),
// dispatches complete frames through QueryService::Handle, and writes the
// response frame back. Frame-level failures (bad magic/version, oversized
// declaration, CRC mismatch) get a typed kError reply and a disconnect —
// after a framing error the byte stream cannot be trusted to resync.
//
// Shutdown: RequestStop() is async-signal-safe (one write to a self-pipe),
// so InstallStopSignalHandlers wires SIGTERM/SIGINT straight to it. The
// drain sequence is: stop accepting; flip the service into draining mode
// (new work is refused with kShuttingDown); shut down connection sockets
// for reading so blocked handlers wake at EOF — a handler that registers
// after that pass sees the stop flag and shuts its own socket down. Handler
// threads run detached and count themselves out of a latch as they finish
// writing their in-flight response (so a long-lived server reclaims thread
// resources as connections close, not at shutdown); Wait() blocks until
// the latch reaches zero, then the batcher joins via the service's
// destructor order.

#ifndef NEUTRAJ_SERVE_SERVER_H_
#define NEUTRAJ_SERVE_SERVER_H_

#include <atomic>
#include <cstdint>
#include <set>
#include <string>
#include <thread>

#include "common/sync.h"
#include "serve/service.h"

namespace neutraj::serve {

struct ServerOptions {
  std::string host = "127.0.0.1";  ///< Bind address.
  uint16_t port = 0;               ///< 0 = pick an ephemeral port.
  size_t max_connections = 64;     ///< Concurrent connection cap.
  /// Cap on an inbound frame's declared payload size. Values above
  /// kWireMaxPayload — the protocol-wide encoder limit, which replies are
  /// also held to — are clamped, so a default-configured Client can decode
  /// everything any server sends.
  size_t max_frame_payload = kWireMaxPayload;
  /// Per-connection idle/read timeout in milliseconds (SO_RCVTIMEO on the
  /// handler socket). A connection that sends nothing for this long is
  /// closed, so stalled or half-dead peers cannot pin handler slots against
  /// max_connections forever. 0 disables the timeout (block indefinitely).
  uint32_t idle_timeout_ms = 0;
};

/// A long-lived loopback/TCP server bound to one QueryService.
class Server {
 public:
  /// `service` must outlive the server.
  Server(QueryService* service, const ServerOptions& opts);

  /// Stops and joins if still running.
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds, listens, and launches the accept thread. Throws
  /// std::runtime_error on socket/bind failure.
  void Start();

  /// The bound port (resolves port 0 after Start()).
  uint16_t port() const { return port_; }

  /// Async-signal-safe stop trigger; returns immediately.
  void RequestStop();

  /// Blocks until a requested stop has fully drained: no accepts, all
  /// connection threads joined, all in-flight responses written.
  void Wait() NEUTRAJ_EXCLUDES(wait_mu_, conn_mu_);

  /// RequestStop() + Wait().
  void Stop() NEUTRAJ_EXCLUDES(wait_mu_, conn_mu_);

  bool running() const { return running_.load(); }

  /// Connections accepted over the server's lifetime.
  uint64_t connections_accepted() const { return accepted_.load(); }

 private:
  void AcceptLoop() NEUTRAJ_EXCLUDES(conn_mu_);
  void ConnectionLoop(int fd) NEUTRAJ_EXCLUDES(conn_mu_);

  QueryService* service_;
  ServerOptions opts_;

  int listen_fd_ = -1;
  int stop_pipe_[2] = {-1, -1};  ///< [read, write]; write end is the trigger.
  uint16_t port_ = 0;

  std::atomic<bool> running_{false};
  std::atomic<bool> stop_requested_{false};
  std::atomic<uint64_t> accepted_{0};

  std::thread accept_thread_;
  /// Serializes Wait()/Stop() joins; ranked below conn_mu_ because Wait()
  /// blocks on the handler latch while holding it.
  Mutex wait_mu_{lock_rank::kServerWait};

  // Connection bookkeeping, all guarded by conn_mu_. Handler threads run
  // detached; live_handlers_ is the completion latch Wait() blocks on, and
  // live fds are tracked so a drain can shutdown(SHUT_RD) blocked readers
  // awake. A handler that registers its fd after the drain's SHUT_RD pass
  // detects stop_requested_ under conn_mu_ and shuts itself down.
  Mutex conn_mu_{lock_rank::kConn};
  CondVar conn_cv_;
  size_t live_handlers_ NEUTRAJ_GUARDED_BY(conn_mu_) = 0;
  std::set<int> conn_fds_ NEUTRAJ_GUARDED_BY(conn_mu_);
};

/// Routes SIGTERM and SIGINT to server->RequestStop(). One server per
/// process; passing nullptr restores the default disposition.
void InstallStopSignalHandlers(Server* server);

}  // namespace neutraj::serve

#endif  // NEUTRAJ_SERVE_SERVER_H_
