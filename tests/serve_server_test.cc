// Loopback integration tests for the serving stack: a real Server with
// real sockets, driven through the Client library by >= 8 concurrent
// threads mixing Encode, pipelined EncodeMany, TopK, and live Inserts.
// The load-bearing check: after the concurrent phase, the server's TopK
// answers must match an independently reconstructed in-process
// EmbeddingDatabase exactly — serving is transport, never approximation.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <limits>
#include <mutex>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/framing.h"
#include "common/random.h"
#include "core/embedding_db.h"
#include "core/model.h"
#include "geo/grid.h"
#include "nn/workspace.h"
#include "retrieval/backend.h"
#include "retrieval/ivf_index.h"
#include "serve/client.h"
#include "serve/server.h"
#include "serve/service.h"
#include "store/durable_store.h"
#include "store/faulty_file.h"
#include "test_util.h"

namespace neutraj::serve {
namespace {

using neutraj::testing::RandomCorpus;
using neutraj::testing::RandomTrajectory;

NeuTrajConfig SmallConfig() {
  NeuTrajConfig cfg = NeuTrajConfig::NeuTraj();
  cfg.embedding_dim = 8;
  cfg.scan_width = 1;
  return cfg;
}

Grid SmallGrid() {
  BoundingBox region = BoundingBox::Empty();
  region.Extend(Point(-50, -50));
  region.Extend(Point(150, 150));
  return Grid(region, 20.0);
}

NeuTrajModel MakeModel() {
  NeuTrajModel model(SmallConfig(), SmallGrid());
  Rng rng(7);
  model.InitializeWeights(&rng);
  return model;
}

/// Server + service + live db over a fresh loopback port.
class ServerTest : public ::testing::Test {
 protected:
  ServerTest()
      : corpus_([] {
          Rng rng(211);
          return RandomCorpus(20, 4, 10, 100.0, &rng);
        }()),
        model_(MakeModel()),
        db_(EmbeddingDatabase::Build(model_, corpus_, 2)),
        svc_(model_, &db_, BatchOpts()) {}

  static MicroBatcher::Options BatchOpts() {
    MicroBatcher::Options opts;
    opts.threads = 2;
    opts.max_batch = 16;
    return opts;
  }

  Client Connect(const Server& server) {
    Client c;
    c.Connect("127.0.0.1", server.port());
    return c;
  }

  std::vector<Trajectory> corpus_;
  NeuTrajModel model_;
  EmbeddingDatabase db_;
  QueryService svc_;
};

TEST_F(ServerTest, ConcurrentMixedWorkloadMatchesInProcessExactly) {
  Server server(&svc_, ServerOptions{});
  server.Start();

  constexpr size_t kClients = 8;
  constexpr int kRounds = 3;
  std::atomic<uint64_t> encode_mismatches{0};
  std::atomic<uint64_t> topk_malformed{0};
  std::mutex inserts_mu;
  std::vector<std::pair<uint64_t, Trajectory>> inserts;  // (id, traj).

  std::vector<std::thread> threads;
  for (size_t ci = 0; ci < kClients; ++ci) {
    threads.emplace_back([&, ci] {
      Rng rng(1000 + ci);
      nn::CellWorkspace ws;  // Private workspace: reference embeddings
                             // without racing on the model's internal one.
      Client client = Connect(server);
      for (int round = 0; round < kRounds; ++round) {
        // Single encode.
        const Trajectory t1 = RandomTrajectory(5, 100.0, &rng);
        if (client.Encode(t1) != model_.Embed(t1, &ws)) ++encode_mismatches;

        // Pipelined burst.
        std::vector<Trajectory> burst;
        for (int i = 0; i < 6; ++i) {
          burst.push_back(RandomTrajectory(4, 100.0, &rng));
        }
        const std::vector<nn::Vector> embs = client.EncodeMany(burst);
        for (size_t i = 0; i < burst.size(); ++i) {
          if (embs[i] != model_.Embed(burst[i], &ws)) ++encode_mismatches;
        }

        // Live insert; remember the assigned id for post-hoc validation.
        const Trajectory fresh = RandomTrajectory(6, 100.0, &rng);
        const InsertResponse ins = client.Insert(fresh);
        {
          std::lock_guard<std::mutex> lock(inserts_mu);
          inserts.emplace_back(ins.id, fresh);
        }

        // TopK against the moving corpus: the exact answer depends on
        // concurrent inserts, so here only shape invariants are checked;
        // exact equality is verified after the load stops.
        const size_t qi = static_cast<size_t>(rng.UniformInt(
            0, static_cast<int64_t>(corpus_.size()) - 1));
        const TopKResponse topk = client.TopK(corpus_[qi], 3);
        if (topk.ids.size() != topk.dists.size() || topk.ids.empty() ||
            !std::is_sorted(topk.dists.begin(), topk.dists.end())) {
          ++topk_malformed;
        }
      }
      client.Close();
    });
  }
  for (std::thread& t : threads) t.join();

  EXPECT_EQ(encode_mismatches.load(), 0u);
  EXPECT_EQ(topk_malformed.load(), 0u);

  // Inserted ids must be dense and unique, continuing the build order.
  ASSERT_EQ(inserts.size(), kClients * kRounds);
  std::sort(inserts.begin(), inserts.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  for (size_t i = 0; i < inserts.size(); ++i) {
    EXPECT_EQ(inserts[i].first, corpus_.size() + i);
  }
  EXPECT_EQ(db_.size(), corpus_.size() + inserts.size());

  // Reconstruct the database independently (build + replay inserts in id
  // order) and demand the server's TopK matches it bit for bit.
  EmbeddingDatabase reference = EmbeddingDatabase::Build(model_, corpus_, 2);
  for (const auto& [id, traj] : inserts) {
    ASSERT_EQ(reference.Insert(model_, traj), id);
  }
  Client checker = Connect(server);
  Rng qrng(3000);
  nn::CellWorkspace ws;
  for (int q = 0; q < 10; ++q) {
    const Trajectory query = q % 2 == 0
                                 ? corpus_[static_cast<size_t>(q)]
                                 : inserts[static_cast<size_t>(q)].second;
    const TopKResponse got = checker.TopK(query, 5);
    const SearchResult want = reference.TopK(model_.Embed(query, &ws), 5);
    ASSERT_EQ(got.ids.size(), want.ids.size()) << "query " << q;
    for (size_t i = 0; i < want.ids.size(); ++i) {
      EXPECT_EQ(got.ids[i], want.ids[i]) << "query " << q << " rank " << i;
      EXPECT_EQ(got.dists[i], want.dists[i]) << "query " << q << " rank " << i;
    }
  }

  const StatsSnapshot stats = checker.Stats();
  EXPECT_EQ(stats.corpus_size, db_.size());
  EXPECT_GE(stats.batched_requests,
            static_cast<uint64_t>(kClients * kRounds * 7));
  checker.Close();
  server.Stop();
  EXPECT_FALSE(server.running());
}

TEST_F(ServerTest, EncodeManyIsolatesPerItemFailures) {
  Server server(&svc_, ServerOptions{});
  server.Start();
  Client client = Connect(server);

  Rng rng(401);
  std::vector<Trajectory> burst;
  burst.push_back(RandomTrajectory(5, 100.0, &rng));
  burst.push_back(Trajectory());  // Invalid mid-burst item.
  burst.push_back(RandomTrajectory(6, 100.0, &rng));
  try {
    client.EncodeMany(burst);
    FAIL() << "empty trajectory in the burst must surface as ServeError";
  } catch (const ServeError& e) {
    EXPECT_EQ(e.code(), ErrorCode::kBadRequest);
  }
  // All replies were consumed, so the connection is still in protocol sync.
  const Trajectory t = RandomTrajectory(5, 100.0, &rng);
  nn::CellWorkspace ws;
  EXPECT_EQ(client.Encode(t), model_.Embed(t, &ws));

  const HealthResponse health = client.Health();
  EXPECT_TRUE(health.ok);
  EXPECT_EQ(health.status, "serving");
  client.Close();
  server.Stop();
}

TEST_F(ServerTest, NonFiniteCoordinatesAreBadRequestsOnEveryEndpoint) {
  // A NaN or infinite coordinate encodes to a non-finite embedding: as a
  // TopK query it scored NaN against every row, and as an insert it put a
  // NaN row into the corpus that every later exact scan compared. Each
  // endpoint must refuse it as kBadRequest, keep the connection in
  // protocol sync and leave the corpus untouched.
  Server server(&svc_, ServerOptions{});
  server.Start();
  Client client = Connect(server);
  const size_t corpus_size = db_.size();
  Rng rng(402);
  const Trajectory good = RandomTrajectory(5, 100.0, &rng);

  auto expect_bad_request = [&](const char* what, auto&& call) {
    try {
      call();
      ADD_FAILURE() << what << " with a non-finite coordinate was served";
    } catch (const ServeError& e) {
      EXPECT_EQ(e.code(), ErrorCode::kBadRequest) << what;
    }
    EXPECT_TRUE(client.Health().ok) << what;  // Still in protocol sync.
    EXPECT_EQ(db_.size(), corpus_size) << what;
  };
  for (const double bad : {std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity(),
                           -std::numeric_limits<double>::infinity()}) {
    Trajectory t = good;
    t[2].x = bad;
    Trajectory u = good;
    u[4].y = bad;
    expect_bad_request("Encode", [&] { client.Encode(t); });
    expect_bad_request("EncodeMany", [&] { client.EncodeMany({good, u}); });
    expect_bad_request("PairSim", [&] { client.PairSim(good, u); });
    expect_bad_request("TopK", [&] { client.TopK(t, 5); });
    expect_bad_request("Insert", [&] { client.Insert(u); });
  }

  // A huge but finite coordinate is a valid point: it clamps to a border
  // grid cell and encodes to a finite embedding.
  Trajectory far = good;
  far[1].x = 1e300;
  for (const double v : client.Encode(far)) EXPECT_TRUE(std::isfinite(v));

  // The service still answers finite requests exactly.
  nn::CellWorkspace ws;
  EXPECT_EQ(client.Encode(good), model_.Embed(good, &ws));
  const TopKResponse got = client.TopK(good, 5);
  const SearchResult want = db_.TopK(model_.Embed(good, &ws), 5);
  EXPECT_EQ(got.dists, want.dists);
  client.Close();
  server.Stop();
}

TEST_F(ServerTest, FiniteTrajectoriesWithNonFiniteEmbeddingsAreNotScanned) {
  // On a region narrower than one unit (degrees of latitude, say), a finite
  // coordinate near the double maximum normalizes to infinity and encodes
  // to a NaN embedding. TopK and Insert must refuse it before it reaches a
  // scan or the corpus.
  BoundingBox region = BoundingBox::Empty();
  region.Extend(Point(0.0, 0.0));
  region.Extend(Point(0.2, 0.2));
  NeuTrajModel narrow(SmallConfig(), Grid(region, 0.02));
  Rng rng(7);
  narrow.InitializeWeights(&rng);
  EmbeddingDatabase db =
      EmbeddingDatabase::Build(narrow, RandomCorpus(10, 4, 10, 0.2, &rng), 1);
  QueryService svc(narrow, &db, BatchOpts());
  Server server(&svc, ServerOptions{});
  server.Start();
  Client client = Connect(server);

  const Trajectory good = RandomTrajectory(5, 0.2, &rng);
  Trajectory far = good;
  far[1] = Point(std::numeric_limits<double>::max(),
                 std::numeric_limits<double>::max());
  ASSERT_THROW(narrow.Embed(far), std::invalid_argument);  // The premise.
  for (const bool insert : {false, true}) {
    try {
      if (insert) {
        client.Insert(far);
      } else {
        client.TopK(far, 3);
      }
      ADD_FAILURE() << (insert ? "Insert" : "TopK") << " was served";
    } catch (const ServeError& e) {
      EXPECT_EQ(e.code(), ErrorCode::kBadRequest);
    }
    EXPECT_TRUE(client.Health().ok);
    EXPECT_EQ(db.size(), 10u);
  }
  EXPECT_EQ(client.TopK(good, 3).dists.size(), 3u);
  client.Close();
  server.Stop();
}

TEST_F(ServerTest, DrainWakesIdleConnectionsAndRefusesNewOnes) {
  Server server(&svc_, ServerOptions{});
  server.Start();
  const uint16_t port = server.port();

  Client busy = Connect(server);
  Client idle1 = Connect(server);
  Client idle2 = Connect(server);
  EXPECT_TRUE(busy.Health().ok);

  // Stop() must complete even though idle connections sit in blocked
  // reads — the drain SHUT_RDs them awake.
  server.Stop();
  EXPECT_TRUE(svc_.draining());

  for (Client* c : {&busy, &idle1, &idle2}) {
    EXPECT_THROW(c->Health(), std::runtime_error);
  }
  Client late;
  EXPECT_THROW(late.Connect("127.0.0.1", port), std::runtime_error);
}

TEST_F(ServerTest, ConnectionsOverTheCapAreClosedNotQueued) {
  ServerOptions opts;
  opts.max_connections = 2;
  Server server(&svc_, opts);
  server.Start();

  Client c1 = Connect(server);
  Client c2 = Connect(server);
  // Round trips prove both handler threads are live, so the cap is reached.
  EXPECT_TRUE(c1.Health().ok);
  EXPECT_TRUE(c2.Health().ok);

  Client c3 = Connect(server);  // Accepted, then immediately closed.
  EXPECT_THROW(c3.Health(), std::runtime_error);

  // The capped connections keep working; a freed slot becomes available.
  EXPECT_TRUE(c1.Health().ok);
  c2.Close();
  server.Stop();
}

// -- Raw-socket framing robustness -------------------------------------------

int RawConnect(uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  EXPECT_EQ(::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
  EXPECT_EQ(
      ::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)),
      0);
  return fd;
}

/// Sends raw bytes, then reads to EOF and expects exactly one kError reply
/// frame carrying `code` before the server hangs up.
void ExpectErrorThenDisconnect(uint16_t port, const std::string& bytes,
                               ErrorCode code) {
  const int fd = RawConnect(port);
  ASSERT_EQ(::send(fd, bytes.data(), bytes.size(), 0),
            static_cast<ssize_t>(bytes.size()));
  std::string rx;
  char chunk[4096];
  while (true) {
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n <= 0) break;  // EOF: the server dropped the unsyncable stream.
    rx.append(chunk, static_cast<size_t>(n));
  }
  ::close(fd);

  size_t offset = 0;
  WireFrame reply;
  ASSERT_EQ(DecodeWireFrame(rx, &offset, &reply), FrameStatus::kOk);
  EXPECT_EQ(reply.type, static_cast<uint16_t>(MsgType::kError));
  ErrorReply err;
  ASSERT_TRUE(ParseError(reply.payload, &err));
  EXPECT_EQ(err.code, code);
  EXPECT_EQ(offset, rx.size()) << "exactly one reply frame before EOF";
}

TEST_F(ServerTest, CorruptFramesGetTypedErrorsThenDisconnect) {
  ServerOptions opts;
  opts.max_frame_payload = 1024;
  Server server(&svc_, opts);
  server.Start();

  // CRC corruption.
  std::string bad_crc = EncodeWireFrame(
      static_cast<uint16_t>(MsgType::kHealthRequest), "");
  bad_crc[12] = static_cast<char>(bad_crc[12] ^ 0x01);
  ExpectErrorThenDisconnect(server.port(), bad_crc,
                            ErrorCode::kMalformedFrame);

  // Wrong protocol entirely.
  ExpectErrorThenDisconnect(server.port(), "GET / HTTP/1.1\r\n\r\n",
                            ErrorCode::kMalformedFrame);

  // Payload above the server's configured cap (but under the encoder's).
  const std::string oversized = EncodeWireFrame(
      static_cast<uint16_t>(MsgType::kEncodeRequest), std::string(2048, 'x'));
  ExpectErrorThenDisconnect(server.port(), oversized,
                            ErrorCode::kOversizedFrame);

  // The server survives all of the above and keeps serving.
  Client client = Connect(server);
  EXPECT_TRUE(client.Health().ok);
  client.Close();
  server.Stop();
}

TEST_F(ServerTest, HugeKIsClampedNeverFatal) {
  Server server(&svc_, ServerOptions{});
  server.Start();
  Client client = Connect(server);

  // k far above kMaxTopKResults must be clamped server-side, not allowed
  // to build a reply the frame encoder would refuse (which formerly threw
  // std::length_error out of the handler thread and aborted the process).
  const TopKResponse got =
      client.TopK(corpus_[0], std::numeric_limits<uint32_t>::max());
  EXPECT_EQ(got.ids.size(), db_.size());
  EXPECT_TRUE(std::is_sorted(got.dists.begin(), got.dists.end()));

  // The server is alive and still serving afterwards.
  EXPECT_TRUE(client.Health().ok);
  client.Close();
  server.Stop();
}

TEST_F(ServerTest, IvfBackedServiceServesBitIdenticalTopKAtFullProbe) {
  // An IVF-backed service probing every cell must be indistinguishable on
  // the wire from the exact service: the ANN layer is a prefilter plus an
  // exact re-rank, never an approximation of the returned scores.
  retrieval::IvfIndex::Options opts;
  opts.nlist = 8;
  opts.train_sample = 64;
  opts.kmeans_iters = 4;
  opts.rerank = db_.size();
  retrieval::IvfBackend backend(&db_, opts);
  backend.Build();

  EmbeddingDatabase exact_db = EmbeddingDatabase::Build(model_, corpus_, 2);
  QueryService exact_svc(model_, &exact_db, BatchOpts());
  // Every service answers TopK through a backend: the exact scan by
  // default, the installed one after set_retrieval_backend.
  EXPECT_STREQ(exact_svc.retrieval_backend()->name(), "exact");
  svc_.set_retrieval_backend(&backend);
  EXPECT_EQ(svc_.retrieval_backend(), &backend);

  Server ivf_server(&svc_, ServerOptions{});
  Server exact_server(&exact_svc, ServerOptions{});
  ivf_server.Start();
  exact_server.Start();
  Client ivf_client = Connect(ivf_server);
  Client exact_client = Connect(exact_server);

  Rng rng(77);
  for (int i = 0; i < 6; ++i) {
    const Trajectory q = testing::RandomTrajectory(8, 100.0, &rng);
    const TopKResponse e = exact_client.TopK(q, 5);
    // Full probe via the per-request knob; also covers the wire nprobe path.
    const TopKResponse g = ivf_client.TopK(
        q, 5, -1, /*nprobe=*/static_cast<uint32_t>(opts.nlist));
    EXPECT_EQ(g.ids, e.ids);
    EXPECT_EQ(g.dists, e.dists);
  }

  // A live insert reaches the IVF view through NotifyInsert: the inserted
  // trajectory's own query must return it at distance 0.
  const Trajectory novel = testing::RandomTrajectory(9, 100.0, &rng);
  const InsertResponse ins = ivf_client.Insert(novel);
  const TopKResponse after =
      ivf_client.TopK(novel, 1, -1,
                      /*nprobe=*/static_cast<uint32_t>(opts.nlist));
  ASSERT_EQ(after.ids.size(), 1u);
  EXPECT_EQ(after.ids.front(), ins.id);
  EXPECT_EQ(after.dists.front(), 0.0);

  ivf_client.Close();
  exact_client.Close();
  ivf_server.Stop();
  exact_server.Stop();
  // nullptr restores the default exact backend; it is never null.
  svc_.set_retrieval_backend(nullptr);
  ASSERT_NE(svc_.retrieval_backend(), nullptr);
  EXPECT_STREQ(svc_.retrieval_backend()->name(), "exact");
}

TEST_F(ServerTest, ManyShortLivedConnectionsAreReaped) {
  // Handler threads run detached and release their resources as each
  // connection closes; a long-lived server must absorb an arbitrary number
  // of short-lived connections and still drain cleanly.
  Server server(&svc_, ServerOptions{});
  server.Start();
  for (int i = 0; i < 64; ++i) {
    Client c = Connect(server);
    ASSERT_TRUE(c.Health().ok) << "connection " << i;
    c.Close();
  }
  EXPECT_EQ(server.connections_accepted(), 64u);
  server.Stop();
  EXPECT_FALSE(server.running());
}

TEST_F(ServerTest, ClientFramePayloadCapIsConfigurable) {
  Server server(&svc_, ServerOptions{});
  server.Start();

  // A deliberately tiny client-side cap rejects the stats reply as
  // oversized — proof the configured limit governs the decode path.
  Client strict = Connect(server);
  strict.set_max_frame_payload(8);
  EXPECT_EQ(strict.max_frame_payload(), 8u);
  EXPECT_THROW(strict.Stats(), std::runtime_error);
  EXPECT_FALSE(strict.connected());  // An unsyncable stream is dropped.

  // Caps above the protocol-wide encoder limit are clamped, mirroring the
  // server-side clamp.
  strict.set_max_frame_payload(kWireMaxPayload * 4);
  EXPECT_EQ(strict.max_frame_payload(), kWireMaxPayload);

  // The default cap decodes everything a conforming server sends.
  Client fresh = Connect(server);
  EXPECT_TRUE(fresh.Health().ok);
  fresh.Close();
  server.Stop();
}

TEST_F(ServerTest, InboundCapAboveProtocolLimitIsClamped) {
  ServerOptions opts;
  opts.max_frame_payload = kWireMaxPayload * 2;
  Server server(&svc_, opts);
  server.Start();

  // A header declaring a payload above kWireMaxPayload must be rejected
  // as oversized from the header alone. Without the clamp the server would
  // honor the configured cap and block waiting for gigabytes that never
  // arrive. Hand-build the header; EncodeWireFrame refuses to.
  std::string header = "NTJW";
  const auto put16 = [&header](uint16_t v) {
    header.push_back(static_cast<char>(v & 0xff));
    header.push_back(static_cast<char>(v >> 8));
  };
  const auto put32 = [&header](uint32_t v) {
    for (int i = 0; i < 4; ++i) {
      header.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
    }
  };
  put16(kWireVersion);
  put16(static_cast<uint16_t>(MsgType::kHealthRequest));
  put32(static_cast<uint32_t>(kWireMaxPayload) + 1);
  put32(0);
  ExpectErrorThenDisconnect(server.port(), header, ErrorCode::kOversizedFrame);
  server.Stop();
}

TEST_F(ServerTest, StartTwiceThrows) {
  Server server(&svc_, ServerOptions{});
  server.Start();
  EXPECT_THROW(server.Start(), std::logic_error);
  EXPECT_GE(server.connections_accepted(), 0u);
  server.Stop();
}

// -- Timeouts, retries, and degraded mode -------------------------------------

TEST_F(ServerTest, IdleTimeoutClosesStalledConnections) {
  ServerOptions opts;
  opts.idle_timeout_ms = 100;
  Server server(&svc_, opts);
  server.Start();

  Client client = Connect(server);
  EXPECT_TRUE(client.Health().ok);  // Active connections are unaffected.
  std::this_thread::sleep_for(std::chrono::milliseconds(400));
  // The server reaped the silent connection; the next request sees EOF.
  EXPECT_THROW(client.Health(), std::runtime_error);

  // Reaping freed the handler slot — fresh connections serve normally.
  Client fresh = Connect(server);
  EXPECT_TRUE(fresh.Health().ok);
  fresh.Close();
  server.Stop();
}

TEST_F(ServerTest, ClientIoTimeoutFiresAgainstSilentPeer) {
  // A listener that completes the TCP handshake (backlog) but never reads
  // or replies: without SO_RCVTIMEO the client would block forever.
  const int listen_fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(listen_fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = 0;
  ASSERT_EQ(::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
  ASSERT_EQ(::bind(listen_fd, reinterpret_cast<const sockaddr*>(&addr),
                   sizeof(addr)),
            0);
  ASSERT_EQ(::listen(listen_fd, 8), 0);
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  ASSERT_EQ(::getsockname(listen_fd, reinterpret_cast<sockaddr*>(&bound), &len),
            0);

  Client client;
  client.set_io_timeout_ms(150);
  client.Connect("127.0.0.1", ntohs(bound.sin_port));
  const auto start = std::chrono::steady_clock::now();
  EXPECT_THROW(client.Health(), std::runtime_error);
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_LT(elapsed, std::chrono::seconds(5));
  EXPECT_FALSE(client.connected());  // A timed-out stream is dropped.
  ::close(listen_fd);
}

TEST_F(ServerTest, ClientRetriesUntilServerComesUp) {
  // Learn a free port, release it, then bring the real server up on it
  // only after a delay — the client's backoff must ride out the gap.
  uint16_t port = 0;
  {
    Server probe(&svc_, ServerOptions{});
    probe.Start();
    port = probe.port();
    probe.Stop();
  }
  svc_.SetDraining(false);  // probe.Stop() flipped the shared service.

  ServerOptions opts;
  opts.port = port;
  Server late(&svc_, opts);
  std::thread starter([&late] {
    std::this_thread::sleep_for(std::chrono::milliseconds(250));
    late.Start();
  });

  // Without retries the refused connection fails immediately.
  Client impatient;
  impatient.set_connect_timeout_ms(500);
  EXPECT_THROW(impatient.Connect("127.0.0.1", port), std::runtime_error);

  Client patient;
  patient.set_connect_timeout_ms(500);
  patient.set_retry_policy(
      {.max_attempts = 10, .backoff_base_ms = 50, .backoff_max_ms = 400});
  patient.Connect("127.0.0.1", port);
  EXPECT_TRUE(patient.Health().ok);
  patient.Close();
  starter.join();
  late.Stop();
}

TEST_F(ServerTest, DegradedStoreRefusesInsertsButKeepsServingQueries) {
  const std::string data_dir =
      (std::filesystem::temp_directory_path() / "neutraj_serve_degraded")
          .string();
  std::filesystem::remove_all(data_dir);
  std::filesystem::create_directories(data_dir);

  store::FaultPlan plan;
  store::FaultyFileFactory faulty(&store::FileFactory::Posix(), &plan);
  EmbeddingDatabase db = EmbeddingDatabase::Build(model_, corpus_, 2);
  store::DurableStore durable(
      &db, {.data_dir = data_dir, .files = &faulty});
  durable.Open();
  QueryService svc(model_, &db, BatchOpts(), &durable);
  Server server(&svc, ServerOptions{});
  server.Start();
  Client client = Connect(server);

  // Durable insert works while the disk is healthy.
  Rng rng(11);
  const InsertResponse ok = client.Insert(RandomTrajectory(5, 100.0, &rng));
  EXPECT_EQ(ok.id, corpus_.size());
  EXPECT_EQ(client.Health().status, "serving");

  // The log device dies: the next insert gets the typed kDegraded error.
  plan.fault_at_op = plan.ops_seen + 1;
  plan.action = store::FaultAction::kFailOp;
  try {
    client.Insert(RandomTrajectory(5, 100.0, &rng));
    FAIL() << "insert on a dead log device must surface as ServeError";
  } catch (const ServeError& e) {
    EXPECT_EQ(e.code(), ErrorCode::kDegraded);
  }

  // Degrade, don't die: queries over the durable corpus keep answering,
  // health reports the state, and later inserts stay refused.
  const HealthResponse health = client.Health();
  EXPECT_TRUE(health.ok);
  EXPECT_EQ(health.status, "degraded");
  EXPECT_EQ(health.corpus_size, corpus_.size() + 1);
  EXPECT_FALSE(client.TopK(corpus_[0], 3).ids.empty());
  EXPECT_THROW(client.Insert(RandomTrajectory(5, 100.0, &rng)), ServeError);

  client.Close();
  server.Stop();
  std::filesystem::remove_all(data_dir);
}

// -- Request tracing over the wire --------------------------------------------

/// Reads exactly one wire frame from a raw socket (blocking).
WireFrame ReadOneFrame(int fd) {
  std::string rx;
  size_t offset = 0;
  WireFrame frame;
  while (true) {
    const FrameStatus st = DecodeWireFrame(rx, &offset, &frame);
    if (st == FrameStatus::kOk) return frame;
    EXPECT_EQ(st, FrameStatus::kIncomplete) << "unsyncable reply stream";
    char chunk[4096];
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n <= 0) {
      ADD_FAILURE() << "peer hung up mid-frame";
      return frame;
    }
    rx.append(chunk, static_cast<size_t>(n));
  }
}

TEST_F(ServerTest, TracedTopKOverSocketBuildsTheFullSpanTree) {
  // The tentpole's end-to-end claim: a client-forced trace context on a
  // real-socket TopK against an IVF backend yields one span tree whose
  // stages cover the whole request path — batcher queue wait, encode on a
  // batcher worker, IVF probe, exact re-rank, and the transport's reply
  // write — with every span inside the request's total.
  retrieval::IvfIndex::Options iopts;
  iopts.nlist = 4;
  iopts.train_sample = 64;
  iopts.kmeans_iters = 4;
  iopts.rerank = db_.size();
  retrieval::IvfBackend backend(&db_, iopts);
  backend.Build();
  svc_.set_retrieval_backend(&backend);

  Server server(&svc_, ServerOptions{});
  server.Start();
  Client client = Connect(server);
  constexpr uint64_t kForcedId = 0xfeedfacecafe01ULL;
  client.set_trace_context({kForcedId, /*sampled=*/true});

  const TopKResponse got = client.TopK(
      corpus_[0], 3, -1, /*nprobe=*/static_cast<uint32_t>(iopts.nlist));
  EXPECT_EQ(got.ids.size(), 3u);

  // Same connection, so the server finished the trace before it read this
  // next request. The dump travels the kTraceDump endpoint itself.
  const TraceDumpResponse dump = client.TraceDump();
  ASSERT_EQ(dump.traces.size(), 1u);
  const obs::FinishedTrace& t = dump.traces.front();
  EXPECT_EQ(t.trace_id, kForcedId);
  EXPECT_EQ(t.endpoint, "topk");
  EXPECT_EQ(t.spans_dropped, 0u);
  EXPECT_GT(t.total_us, 0.0);

  std::set<std::string> stages;
  for (const obs::FinishedSpan& s : t.spans) {
    stages.insert(s.stage);
    EXPECT_GE(s.start_us, 0.0) << s.stage;
    EXPECT_GE(s.dur_us, 0.0) << s.stage;
    EXPECT_LE(s.start_us + s.dur_us, t.total_us) << s.stage;
    EXPECT_GT(s.tid, 0u) << s.stage;
  }
  for (const char* required :
       {"queue_wait", "encode", "probe", "rerank", "reply"}) {
    EXPECT_TRUE(stages.count(required)) << "missing stage " << required;
  }
  // The required stages are strictly sequential phases of one request, so
  // their summed durations cannot exceed the measured total.
  double sequential_us = 0.0;
  for (const char* required :
       {"queue_wait", "encode", "probe", "rerank", "reply"}) {
    for (const obs::FinishedSpan& s : t.spans) {
      if (s.stage == required) sequential_us += s.dur_us;
    }
  }
  EXPECT_LE(sequential_us, t.total_us);

  client.Close();
  server.Stop();
  svc_.set_retrieval_backend(nullptr);
}

TEST_F(ServerTest, HeadSamplingTracesServerSideAndDumpClampsToNewest) {
  // 1-in-1 head sampling: even contextless requests get server-generated
  // trace ids. TraceDump's max_traces keeps the NEWEST trees and returns
  // them oldest-first.
  obs::ReqTraceOptions topts;
  topts.sample_every = 1;
  topts.ring_capacity = 8;
  svc_.ConfigureTracing(topts);
  Server server(&svc_, ServerOptions{});
  server.Start();
  Client client = Connect(server);

  Rng rng(501);
  for (int i = 0; i < 3; ++i) {
    client.Encode(RandomTrajectory(5, 100.0, &rng));
  }
  const TraceDumpResponse all = client.TraceDump();
  ASSERT_EQ(all.traces.size(), 3u);
  for (const obs::FinishedTrace& t : all.traces) {
    EXPECT_EQ(t.endpoint, "encode");
    EXPECT_NE(t.trace_id, 0u);  // Server-generated, never zero.
  }
  const TraceDumpResponse newest = client.TraceDump(/*max_traces=*/2);
  ASSERT_EQ(newest.traces.size(), 2u);
  EXPECT_EQ(newest.traces[0].trace_id, all.traces[1].trace_id);
  EXPECT_EQ(newest.traces[1].trace_id, all.traces[2].trace_id);

  client.Close();
  server.Stop();
  svc_.ConfigureTracing({});  // Back to off for the shared fixture service.
}

TEST_F(ServerTest, MalformedTraceSectionIsBadRequestNotDisconnect) {
  // An invalid trailing trace section (all-zero id) must fail the payload
  // parse — a typed kBadRequest — while the connection stays open and in
  // protocol sync, exactly like any other bad payload.
  Server server(&svc_, ServerOptions{});
  server.Start();

  Rng rng(601);
  std::string payload = SerializeEncodeRequest({RandomTrajectory(5, 100.0,
                                                                 &rng)});
  payload.append(9, '\0');  // Trace section with trace_id == 0: invalid.
  const int fd = RawConnect(server.port());
  const std::string frame = EncodeWireFrame(
      static_cast<uint16_t>(MsgType::kEncodeRequest), payload);
  ASSERT_EQ(::send(fd, frame.data(), frame.size(), 0),
            static_cast<ssize_t>(frame.size()));
  const WireFrame err_frame = ReadOneFrame(fd);
  EXPECT_EQ(err_frame.type, static_cast<uint16_t>(MsgType::kError));
  ErrorReply err;
  ASSERT_TRUE(ParseError(err_frame.payload, &err));
  EXPECT_EQ(err.code, ErrorCode::kBadRequest);

  // The same connection still serves.
  const std::string health = EncodeWireFrame(
      static_cast<uint16_t>(MsgType::kHealthRequest), "");
  ASSERT_EQ(::send(fd, health.data(), health.size(), 0),
            static_cast<ssize_t>(health.size()));
  const WireFrame health_frame = ReadOneFrame(fd);
  EXPECT_EQ(health_frame.type,
            static_cast<uint16_t>(MsgType::kHealthResponse));
  HealthResponse hr;
  ASSERT_TRUE(ParseHealthResponse(health_frame.payload, &hr));
  EXPECT_TRUE(hr.ok);
  ::close(fd);
  server.Stop();
}

TEST_F(ServerTest, ServedBytesAreBitIdenticalWithTracingOnAndOff) {
  // Tracing observes, never participates: the TopK reply payload for the
  // same query must be byte-for-byte identical whether the request rides
  // with a sampled trace context or with none at all. Raw frames, so the
  // comparison is on the actual served bytes, not parsed structs.
  Server server(&svc_, ServerOptions{});
  server.Start();

  TopKRequest req;
  req.query = corpus_[1];
  req.k = 5;
  const std::string plain_payload = SerializeTopKRequest(req);
  req.trace = {0xabcdef123456ULL, /*sampled=*/true};
  const std::string traced_payload = SerializeTopKRequest(req);
  ASSERT_NE(plain_payload, traced_payload);  // The requests DO differ...

  std::string replies[2];
  const std::string* payloads[2] = {&plain_payload, &traced_payload};
  for (int i = 0; i < 2; ++i) {
    const int fd = RawConnect(server.port());
    const std::string frame = EncodeWireFrame(
        static_cast<uint16_t>(MsgType::kTopKRequest), *payloads[i]);
    ASSERT_EQ(::send(fd, frame.data(), frame.size(), 0),
              static_cast<ssize_t>(frame.size()));
    const WireFrame reply = ReadOneFrame(fd);
    EXPECT_EQ(reply.type, static_cast<uint16_t>(MsgType::kTopKResponse));
    replies[i] = reply.payload;
    // A second request on the same connection: the handler only reads it
    // after it finished the previous request's trace, so the Dump below
    // cannot race the traced request's Finish.
    const std::string health = EncodeWireFrame(
        static_cast<uint16_t>(MsgType::kHealthRequest), "");
    ASSERT_EQ(::send(fd, health.data(), health.size(), 0),
              static_cast<ssize_t>(health.size()));
    EXPECT_EQ(ReadOneFrame(fd).type,
              static_cast<uint16_t>(MsgType::kHealthResponse));
    ::close(fd);
  }
  EXPECT_EQ(replies[0], replies[1]);  // ...but the served bytes do not.

  // And the traced request really was traced.
  const std::vector<obs::FinishedTrace> traces = svc_.tracer().Dump();
  ASSERT_EQ(traces.size(), 1u);
  EXPECT_EQ(traces.front().trace_id, 0xabcdef123456ULL);
  server.Stop();
}

}  // namespace
}  // namespace neutraj::serve
