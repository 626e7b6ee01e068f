// Crash-recovery determinism for the ANN layer: an IVF index rebuilt over a
// crash-recovered corpus must be indistinguishable from one built over a
// never-crashed corpus holding the same rows.
//
// This reuses the durability fault-injection harness (store/faulty_file.h,
// same shape as tests/store_faultinject_test.cc): run an insert workload
// into a simulated kill at a sampled grid of I/O operations, recover the
// directory on a healthy disk, then build the IVF backend exactly the way
// tools/neutraj_server.cc does after --data-dir recovery. Because recovery
// yields a bit-identical prefix of the insert sequence and the IVF build is
// a pure function of (rows, options), the rebuilt index must return
// byte-for-byte the candidates and results of a freshly built reference
// index over that prefix — pinned here for clean kills and torn writes
// landing inside WAL appends, snapshot writes, renames, and truncations.

#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "core/embedding_db.h"
#include "core/search.h"
#include "retrieval/backend.h"
#include "retrieval/ivf_index.h"
#include "store/durable_store.h"
#include "store/faulty_file.h"
#include "store/file.h"

namespace neutraj::retrieval {
namespace {

using store::DurableStore;
using store::FaultAction;
using store::FaultPlan;
using store::FaultyFileFactory;
using store::FileFactory;
using store::SimulatedCrash;

constexpr size_t kInserts = 220;
constexpr size_t kDim = 8;
constexpr size_t kCompactEvery = 32;

std::vector<nn::Vector> ReferenceEmbeddings() {
  Rng rng(4321);
  std::vector<nn::Vector> out(kInserts, nn::Vector(kDim));
  for (nn::Vector& v : out) {
    for (double& x : v) x = rng.Gaussian(0.0, 1.0);
  }
  return out;
}

std::vector<nn::Vector> Queries() {
  Rng rng(8765);
  std::vector<nn::Vector> out(5, nn::Vector(kDim));
  for (nn::Vector& v : out) {
    for (double& x : v) x = rng.Gaussian(0.0, 1.0);
  }
  return out;
}

IvfIndex::Options ServerLikeOptions() {
  IvfIndex::Options o;
  o.nlist = 16;
  o.train_sample = 256;
  o.kmeans_iters = 4;
  o.seed = 42;
  o.default_nprobe = 4;
  o.rerank = 24;
  return o;
}

DurableStore::Options Opts(const std::string& data_dir, FileFactory* files) {
  DurableStore::Options o;
  o.data_dir = data_dir;
  o.compact_every = kCompactEvery;
  o.files = files;
  return o;
}

TEST(RetrievalRecoveryTest, RebuiltIvfMatchesFreshIndexAtEveryKillPoint) {
  const std::string dir =
      (std::filesystem::temp_directory_path() / "neutraj_retrieval_recovery")
          .string();
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);

  const std::vector<nn::Vector> ref = ReferenceEmbeddings();
  const std::vector<nn::Vector> queries = Queries();

  // Pass 1: count the workload's I/O operations with a plan that never
  // fires, so the kill grid can sample [1, total_ops].
  size_t total_ops = 0;
  {
    FaultPlan plan;
    FaultyFileFactory faulty(&FileFactory::Posix(), &plan);
    const std::string count_dir = dir + "/count";
    std::filesystem::create_directories(count_dir);
    EmbeddingDatabase db;
    DurableStore store(&db, Opts(count_dir, &faulty));
    store.Open();
    for (const nn::Vector& e : ref) store.Insert(e);
    total_ops = plan.ops_seen;
    std::filesystem::remove_all(count_dir);
  }
  ASSERT_GT(total_ops, kInserts);

  // Sampled grid: exhaustive head (first compaction cycles), a prime stride
  // through the middle (both fault actions at varied op-class phases), and
  // a pinned tail.
  constexpr size_t kExhaustiveHead = 40;
  constexpr size_t kStride = 23;
  constexpr size_t kPinnedTail = 5;
  size_t points_run = 0;
  for (size_t kill_at = 1; kill_at <= total_ops; ++kill_at) {
    if (kill_at > kExhaustiveHead && kill_at + kPinnedTail <= total_ops &&
        kill_at % kStride != 0) {
      continue;
    }
    SCOPED_TRACE("kill at op " + std::to_string(kill_at));
    ++points_run;
    const std::string run_dir = dir + "/run";
    std::filesystem::remove_all(run_dir);
    std::filesystem::create_directories(run_dir);

    // Phase A: workload into the kill (alternating clean / torn crashes).
    FaultPlan plan;
    plan.fault_at_op = kill_at;
    plan.action =
        kill_at % 2 == 0 ? FaultAction::kTornCrash : FaultAction::kCrash;
    FaultyFileFactory faulty(&FileFactory::Posix(), &plan);
    bool crashed = false;
    try {
      EmbeddingDatabase db;
      DurableStore store(&db, Opts(run_dir, &faulty));
      store.Open();
      for (const nn::Vector& e : ref) store.Insert(e);
    } catch (const SimulatedCrash&) {
      crashed = true;
    }
    ASSERT_TRUE(crashed);

    // Phase B: recover on a healthy disk and build the IVF backend the way
    // the server does after recovery.
    EmbeddingDatabase recovered;
    DurableStore store(&recovered, Opts(run_dir, nullptr));
    store.Open();
    if (recovered.empty()) continue;  // Nothing durable yet; nothing to index.
    IvfBackend rebuilt(&recovered, ServerLikeOptions());
    rebuilt.Build();

    // Reference: a never-crashed corpus holding the same prefix, indexed
    // fresh with the same options.
    const std::vector<nn::Vector> prefix(ref.begin(),
                                         ref.begin() + recovered.size());
    EmbeddingDatabase fresh_db;
    for (const nn::Vector& e : prefix) fresh_db.Insert(e);
    IvfBackend fresh(&fresh_db, ServerLikeOptions());
    fresh.Build();

    ASSERT_EQ(rebuilt.index().nlist(), fresh.index().nlist());
    ASSERT_EQ(rebuilt.index().size(), fresh.index().size());
    for (const nn::Vector& q : queries) {
      // The candidate stream (pre-re-rank) must already be identical …
      const auto ca = rebuilt.index().Candidates(q, 5, 0);
      const auto cb = fresh.index().Candidates(q, 5, 0);
      ASSERT_EQ(ca.ids, cb.ids);
      ASSERT_EQ(ca.scanned, cb.scanned);
      // … and so must the served results, bit for bit.
      const SearchResult a = rebuilt.TopK(q, 5, -1, 0);
      const SearchResult b = fresh.TopK(q, 5, -1, 0);
      ASSERT_EQ(a.ids, b.ids);
      ASSERT_EQ(a.dists, b.dists);
    }
  }
  ASSERT_GT(points_run, 30u);  // The sampling must not silently degenerate.
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace neutraj::retrieval
