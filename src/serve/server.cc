#include "serve/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <cerrno>
#include <csignal>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/string_util.h"

namespace neutraj::serve {

namespace {

/// Writes the whole buffer, retrying on EINTR and short writes.
/// MSG_NOSIGNAL: a peer that hung up yields an error, not SIGPIPE.
bool SendAll(int fd, const std::string& bytes) {
  size_t sent = 0;
  while (sent < bytes.size()) {
    const ssize_t n =
        ::send(fd, bytes.data() + sent, bytes.size() - sent, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    sent += static_cast<size_t>(n);
  }
  return true;
}

/// Encodes one reply frame. A reply whose payload exceeds the wire limit
/// (a handler bug — request-side caps keep every legitimate reply under
/// it) degrades to a kInternal error frame and flags the connection for
/// disconnect; letting std::length_error escape here would unwind a
/// detached handler thread and terminate the whole process.
std::string EncodeReplyFrame(const WireFrame& reply, bool* oversize) {
  try {
    return EncodeWireFrame(reply.type, reply.payload);
  } catch (const std::length_error&) {
    *oversize = true;
    const ErrorReply err{ErrorCode::kInternal,
                         "reply exceeds the wire frame payload limit"};
    return EncodeWireFrame(static_cast<uint16_t>(MsgType::kError),
                           SerializeError(err));
  }
}

/// The one server the process-wide stop signals are routed to.
std::atomic<Server*> g_signal_server{nullptr};

void StopSignalHandler(int /*signum*/) {
  Server* s = g_signal_server.load();
  if (s != nullptr) s->RequestStop();  // One self-pipe write; signal-safe.
}

}  // namespace

Server::Server(QueryService* service, const ServerOptions& opts)
    : service_(service), opts_(opts) {
  if (service == nullptr) {
    throw std::invalid_argument("Server: null QueryService");
  }
  // Replies are encoded under the protocol-wide kWireMaxPayload, so an
  // inbound cap above it could only admit frames whose replies the peer
  // cannot be guaranteed to accept; clamp rather than reject.
  if (opts_.max_frame_payload > kWireMaxPayload) {
    opts_.max_frame_payload = kWireMaxPayload;
  }
  // Forward tracing knobs only when the caller set any: a default-options
  // server leaves the service's tracer alone (tests may have configured it
  // directly), and client-forced traces work without any configuration.
  if (opts_.trace.sample_every != 0 || !opts_.trace.slow_log_path.empty()) {
    service_->ConfigureTracing(opts_.trace);
  }
}

Server::~Server() {
  if (running_.load() || accept_thread_.joinable()) Stop();
  for (int fd : {stop_pipe_[0], stop_pipe_[1], listen_fd_}) {
    if (fd >= 0) ::close(fd);
  }
}

void Server::Start() {
  if (accept_thread_.joinable()) {
    throw std::logic_error("Server::Start: already started");
  }
  if (::pipe(stop_pipe_) != 0) {
    throw std::runtime_error(std::string("Server: pipe failed: ") +
                             ErrnoMessage(errno));
  }

  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    throw std::runtime_error(std::string("Server: socket failed: ") +
                             ErrnoMessage(errno));
  }
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(opts_.port);
  if (::inet_pton(AF_INET, opts_.host.c_str(), &addr.sin_addr) != 1) {
    throw std::runtime_error("Server: bad bind address '" + opts_.host + "'");
  }
  if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) != 0) {
    throw std::runtime_error("Server: cannot bind " + opts_.host + ":" +
                             std::to_string(opts_.port) + ": " +
                             ErrnoMessage(errno));
  }
  if (::listen(listen_fd_, 128) != 0) {
    throw std::runtime_error(std::string("Server: listen failed: ") +
                             ErrnoMessage(errno));
  }

  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &len) !=
      0) {
    throw std::runtime_error(std::string("Server: getsockname failed: ") +
                             ErrnoMessage(errno));
  }
  port_ = ntohs(bound.sin_port);

  running_.store(true);
  accept_thread_ = std::thread([this] { AcceptLoop(); });
}

void Server::RequestStop() {
  stop_requested_.store(true);
  if (stop_pipe_[1] >= 0) {
    // A single byte wakes the accept loop's poll; result deliberately
    // ignored — the pipe being full already means a wake-up is pending.
    [[maybe_unused]] const ssize_t n = ::write(stop_pipe_[1], "x", 1);
  }
}

void Server::Wait() {
  MutexLock lock(wait_mu_);
  if (accept_thread_.joinable()) accept_thread_.join();
  // The accept loop has exited and no new handlers can be spawned.
  // Handlers run detached and wake from blocked reads via the SHUT_RD
  // issued during the accept loop teardown (or their own late-registration
  // check); each counts itself out of the latch after writing its
  // in-flight response.
  {
    MutexLock conn_lock(conn_mu_);
    while (live_handlers_ != 0) conn_cv_.Wait(conn_mu_);
  }
  running_.store(false);
}

void Server::Stop() {
  RequestStop();
  Wait();
}

void Server::AcceptLoop() {
  while (!stop_requested_.load()) {
    pollfd fds[2];
    fds[0] = {listen_fd_, POLLIN, 0};
    fds[1] = {stop_pipe_[0], POLLIN, 0};
    const int rc = ::poll(fds, 2, -1);
    if (rc < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if ((fds[1].revents & POLLIN) != 0 || stop_requested_.load()) break;
    if ((fds[0].revents & POLLIN) == 0) continue;

    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR || errno == ECONNABORTED) continue;
      break;
    }
    ++accepted_;
    {
      MutexLock lock(conn_mu_);
      if (live_handlers_ >= opts_.max_connections) {
        // Over the connection cap: close immediately — the client sees EOF
        // and can retry — rather than spawn unbounded handler threads.
        ::close(fd);
        continue;
      }
      ++live_handlers_;
    }
    try {
      std::thread([this, fd] { ConnectionLoop(fd); }).detach();
    } catch (const std::system_error&) {
      // Thread creation failed (resource exhaustion): shed this connection
      // and keep serving the ones already up.
      ::close(fd);
      MutexLock lock(conn_mu_);
      --live_handlers_;
    }
  }

  // Drain: stop accepting, refuse new work, wake blocked readers. The flag
  // store is authoritative even when the loop broke on a poll/accept error,
  // and it is what a handler still between spawn and fd registration checks
  // to shut itself down after missing this SHUT_RD pass.
  stop_requested_.store(true);
  ::close(listen_fd_);
  listen_fd_ = -1;
  service_->SetDraining(true);
  MutexLock lock(conn_mu_);
  for (int fd : conn_fds_) ::shutdown(fd, SHUT_RD);
}

void Server::ConnectionLoop(int fd) {
  if (opts_.idle_timeout_ms > 0) {
    timeval tv{};
    tv.tv_sec = opts_.idle_timeout_ms / 1000;
    tv.tv_usec = static_cast<suseconds_t>(opts_.idle_timeout_ms % 1000) * 1000;
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  }
  {
    MutexLock lock(conn_mu_);
    conn_fds_.insert(fd);
    // Registration can lose the race with the drain's SHUT_RD pass (spawn
    // happens-before the pass, insertion after). The pass could not see
    // this fd, so wake the reads below ourselves or the drain waits on a
    // recv() nothing will interrupt.
    if (stop_requested_.load()) ::shutdown(fd, SHUT_RD);
  }

  std::string buf;
  size_t offset = 0;
  char chunk[64 * 1024];
  bool open = true;
  while (open) {
    // Drain every complete frame already buffered before reading more.
    // Encode requests in the burst are collected and dispatched to the
    // micro-batcher as ONE group before any frame is answered, so a
    // pipelined client fills a batch from a single connection; replies
    // keep request order and go out as one write.
    struct Slot {
      bool is_encode = false;
      size_t encode_index = 0;  ///< Into the group, when is_encode.
      WireFrame request;        ///< Deferred to Handle(), when !is_encode.
      /// Live trace of a sampled request; the reply span and Finish happen
      /// here, after the socket write.
      std::shared_ptr<obs::RequestTrace> trace;
      double reply_start_us = 0.0;
    };
    std::vector<Slot> burst;
    std::vector<Trajectory> group;
    std::vector<std::shared_ptr<obs::RequestTrace>> group_traces;
    FrameStatus stream_status = FrameStatus::kIncomplete;
    while (true) {
      WireFrame request;
      stream_status =
          DecodeWireFrame(buf, &offset, &request, opts_.max_frame_payload);
      if (stream_status != FrameStatus::kOk) break;
      Slot slot;
      if (service_->CollectEncode(request, &group, &group_traces)) {
        slot.is_encode = true;
        slot.encode_index = group.size() - 1;
      } else {
        slot.request = std::move(request);
      }
      burst.push_back(std::move(slot));
    }
    // Dispatch the encode group first: other handlers in the burst (TopK,
    // Insert, PairSim) block on their own embeddings.
    auto pending =
        service_->BeginEncodes(std::move(group), std::move(group_traces));
    std::string out;
    std::vector<WireFrame> encode_replies;
    std::vector<std::shared_ptr<obs::RequestTrace>> encode_traces;
    if (pending.has_value()) {
      // Traces outlive FinishEncodes (which consumes the PendingEncodes):
      // the batcher has already recorded into them by the time the future
      // resolves, and the reply span is still to come.
      encode_traces = std::move(pending->traces);
      encode_replies = service_->FinishEncodes(std::move(*pending));
    }
    for (Slot& slot : burst) {
      if (slot.is_encode) {
        slot.trace = std::move(encode_traces[slot.encode_index]);
      }
    }
    bool oversize = false;
    for (Slot& slot : burst) {
      const WireFrame reply = slot.is_encode
                                  ? std::move(encode_replies[slot.encode_index])
                                  : service_->Handle(slot.request, &slot.trace);
      out += EncodeReplyFrame(reply, &oversize);
      // Dropping the rest of the burst is fine: the connection is closed
      // below, so the peer sees the error frame and then EOF.
      if (oversize) break;
    }
    // Hard framing error: typed error reply, then drop the connection — a
    // stream that failed magic/version/CRC cannot be resynchronized.
    const bool hard_error = stream_status != FrameStatus::kIncomplete;
    if (hard_error && !oversize) {
      const WireFrame reply = QueryService::FrameErrorReply(stream_status);
      out += EncodeReplyFrame(reply, &oversize);
    }
    // Reply spans bracket the burst's single socket write. Start marks are
    // per trace (each trace's clock began at its own Begin).
    for (Slot& slot : burst) {
      if (slot.trace != nullptr) {
        slot.reply_start_us = slot.trace->ElapsedMicros();
      }
    }
    if (!out.empty() && !SendAll(fd, out)) open = false;
    for (Slot& slot : burst) {
      if (slot.trace == nullptr) continue;
      slot.trace->Record("reply", slot.reply_start_us,
                         slot.trace->ElapsedMicros() - slot.reply_start_us);
      service_->tracer().Finish(slot.trace);
    }
    if (hard_error || oversize || !open) break;
    if (offset > 0) {
      buf.erase(0, offset);
      offset = 0;
    }

    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n < 0 && errno == EINTR) continue;
    // EAGAIN/EWOULDBLOCK here is the SO_RCVTIMEO idle timeout firing:
    // the peer went silent between requests, so drop the connection and
    // free its handler slot (falls through the n < 0 break).
    if (n <= 0) break;  // EOF (peer close or drain SHUT_RD) or error.
    buf.append(chunk, static_cast<size_t>(n));
  }

  {
    MutexLock lock(conn_mu_);
    conn_fds_.erase(fd);
  }
  ::close(fd);
  // Last touch of *this. Notify under the lock: Wait() may return — and
  // the Server be destroyed — the moment the latch hits zero, so the
  // notify must land before any waiter can observe the new count.
  MutexLock lock(conn_mu_);
  --live_handlers_;
  conn_cv_.NotifyAll();
}

void InstallStopSignalHandlers(Server* server) {
  g_signal_server.store(server);
  void (*handler)(int) = server != nullptr ? &StopSignalHandler : SIG_DFL;
  std::signal(SIGTERM, handler);
  std::signal(SIGINT, handler);
}

}  // namespace neutraj::serve
