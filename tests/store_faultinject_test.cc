// Crash-recovery fault-injection harness for the durability layer.
//
// The central theorem being tested: for a kill at ANY point in the I/O
// operation stream of a 1000-insert workload, recovery yields a corpus that
//   (a) contains every acknowledged insert,
//   (b) is a bit-identical prefix of the never-crashed insert sequence, and
//   (c) answers TopK bit-identically to a database built from that prefix.
// The grid walks every counted operation (write/sync/rename/dirsync/
// truncate), alternating clean kills with torn half-writes, so the crash
// lands inside WAL appends, snapshot writes, renames, and log truncations
// alike. A second test drives two consecutive crashes through the
// compaction protocol itself.

#include <cstdint>
#include <filesystem>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "core/embedding_db.h"
#include "core/search.h"
#include "store/durable_store.h"
#include "store/faulty_file.h"
#include "store/file.h"

namespace neutraj::store {
namespace {

constexpr size_t kInserts = 1000;
constexpr size_t kDim = 8;
constexpr size_t kCompactEvery = 64;

/// The reference insert sequence — deterministic, shared by every run.
std::vector<nn::Vector> ReferenceEmbeddings() {
  Rng rng(1234);
  std::vector<nn::Vector> out(kInserts, nn::Vector(kDim));
  for (nn::Vector& v : out) {
    for (double& x : v) x = rng.Gaussian(0.0, 1.0);
  }
  return out;
}

class FaultInjectTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    dir_ = (std::filesystem::temp_directory_path() /
            (std::string("neutraj_faultinject_") + info->name()))
               .string();
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string dir_;
};

DurableStore::Options Opts(const std::string& data_dir, FileFactory* files,
                           size_t compact_every = kCompactEvery) {
  DurableStore::Options o;
  o.data_dir = data_dir;
  o.compact_every = compact_every;
  o.files = files;
  return o;
}

TEST_F(FaultInjectTest, KillAtEveryOperationRecoversAckedPrefix) {
  const std::vector<nn::Vector> ref = ReferenceEmbeddings();
  const nn::Vector query = [] {
    Rng rng(999);
    nn::Vector q(kDim);
    for (double& x : q) x = rng.Gaussian(0.0, 1.0);
    return q;
  }();

  // Pass 1: count the workload's total I/O operations with a plan that
  // never fires — the kill grid walks [1, total_ops].
  size_t total_ops = 0;
  {
    FaultPlan plan;
    FaultyFileFactory faulty(&FileFactory::Posix(), &plan);
    const std::string count_dir = dir_ + "/count";
    std::filesystem::create_directories(count_dir);
    EmbeddingDatabase db;
    DurableStore store(&db, Opts(count_dir, &faulty));
    store.Open();
    for (const nn::Vector& e : ref) store.Insert(e);
    total_ops = plan.ops_seen;
    std::filesystem::remove_all(count_dir);
  }
  ASSERT_GT(total_ops, 2 * kInserts);  // Appends + syncs + compactions.

  // The grid cost is quadratic in the op count (each kill point re-runs the
  // workload up to it), so sample rather than enumerate: exhaustively cover
  // the head (every op class against a small corpus, including the first
  // two compaction cycles), stride a prime through the middle (hitting
  // every op class at varied phases, both fault actions), and pin the tail.
  constexpr size_t kExhaustiveHead = 270;
  constexpr size_t kStride = 13;
  constexpr size_t kPinnedTail = 10;
  for (size_t kill_at = 1; kill_at <= total_ops; ++kill_at) {
    if (kill_at > kExhaustiveHead && kill_at + kPinnedTail <= total_ops &&
        kill_at % kStride != 0) {
      continue;
    }
    SCOPED_TRACE("kill at op " + std::to_string(kill_at));
    const std::string run_dir = dir_ + "/run";
    std::filesystem::remove_all(run_dir);
    std::filesystem::create_directories(run_dir);

    // Phase A: run the workload into the kill. Alternate clean kills with
    // torn half-writes so both crash shapes hit every operation class.
    FaultPlan plan;
    plan.fault_at_op = kill_at;
    plan.action =
        kill_at % 2 == 0 ? FaultAction::kTornCrash : FaultAction::kCrash;
    FaultyFileFactory faulty(&FileFactory::Posix(), &plan);
    size_t acked = 0;
    size_t submitted = 0;
    bool crashed = false;
    try {
      EmbeddingDatabase db;
      DurableStore store(&db, Opts(run_dir, &faulty));
      store.Open();
      for (const nn::Vector& e : ref) {
        ++submitted;
        store.Insert(e);
        ++acked;
      }
    } catch (const SimulatedCrash&) {
      crashed = true;
    }
    ASSERT_TRUE(crashed);

    // Phase B: recover on a healthy disk.
    EmbeddingDatabase recovered;
    DurableStore store(&recovered, Opts(run_dir, nullptr));
    store.Open();

    // (a) Nothing acknowledged may be lost; (b) nothing unsubmitted may
    // appear. The at-most-one in-flight insert makes the range inclusive.
    ASSERT_GE(recovered.size(), acked);
    ASSERT_LE(recovered.size(), submitted);

    // (b) Bit-identical prefix of the reference sequence.
    bool prefix_ok = true;
    for (size_t i = 0; i < recovered.size(); ++i) {
      if (recovered.embeddings()[i] != ref[i]) {
        prefix_ok = false;
        break;
      }
    }
    ASSERT_TRUE(prefix_ok);

    // (c) TopK over the recovered corpus is bit-identical to TopK over a
    // never-crashed corpus holding the same prefix.
    if (!recovered.empty()) {
      const std::vector<nn::Vector> prefix(ref.begin(),
                                           ref.begin() + recovered.size());
      const SearchResult expected = EmbeddingTopK(prefix, query, 5, -1);
      const SearchResult got = recovered.TopK(query, 5, -1);
      ASSERT_EQ(got.ids, expected.ids);
      ASSERT_EQ(got.dists, expected.dists);
    }

    // Periodically: the recovered store must keep accepting inserts and
    // converge back onto the reference sequence.
    if (kill_at % 97 == 0) {
      for (size_t i = recovered.size(); i < kInserts; ++i) {
        ASSERT_EQ(store.Insert(ref[i]), i);
      }
      ASSERT_EQ(recovered.size(), kInserts);
    }
  }
}

TEST_F(FaultInjectTest, DoubleCrashDuringCompactionLosesNothing) {
  std::vector<nn::Vector> rows;
  Rng rng(77);
  for (size_t i = 0; i < 10; ++i) {
    rows.emplace_back(kDim);
    for (double& x : rows.back()) x = rng.Gaussian(0.0, 1.0);
  }

  FaultPlan plan;
  FaultyFileFactory faulty(&FileFactory::Posix(), &plan);

  // Ten acknowledged inserts, then crash #1 inside Compact() at the rename
  // (snapshot temp written but never installed; the WAL is authoritative).
  {
    EmbeddingDatabase db;
    DurableStore store(&db, Opts(dir_, &faulty, /*compact_every=*/0));
    store.Open();
    for (const nn::Vector& r : rows) store.Insert(r);
    plan.fault_at_op = plan.ops_seen + 3;  // tmp append, tmp sync, rename.
    plan.action = FaultAction::kCrash;
    EXPECT_THROW(store.Compact(), SimulatedCrash);
  }

  // Crash #2 inside recovery's own end-of-Open compaction, at the WAL
  // truncate — this time the snapshot IS installed but the stale log
  // survives, the exact window idempotent replay exists for.
  {
    plan.fault_at_op = plan.ops_seen + 5;  // append, sync, rename, dirsync,
                                           // truncate.
    EmbeddingDatabase db;
    DurableStore store(&db, Opts(dir_, &faulty, /*compact_every=*/0));
    EXPECT_THROW(store.Open(), SimulatedCrash);
  }

  // Final recovery on a healthy disk: every acknowledged insert present
  // exactly once — the snapshot provides all ten, replay skips all ten.
  EmbeddingDatabase db;
  DurableStore store(&db, Opts(dir_, nullptr, /*compact_every=*/0));
  const DurableStore::RecoveryInfo info = store.Open();
  EXPECT_EQ(info.snapshot_records, 10u);
  EXPECT_EQ(info.replayed, 0u);
  EXPECT_EQ(info.skipped, 10u);
  ASSERT_EQ(db.size(), 10u);
  for (size_t i = 0; i < rows.size(); ++i) {
    EXPECT_EQ(db.embeddings()[i], rows[i]) << "row " << i;
  }
}

}  // namespace
}  // namespace neutraj::store
