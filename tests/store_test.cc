// Unit tests for the durability layer: WAL record codec, replay semantics
// (idempotence, torn/corrupt/bad tails), DurableStore recovery and
// compaction, degraded read-only mode, the snapshot codec (binary and
// legacy text), and the typed CorruptionError surfaced by a damaged
// snapshot.

#include <bit>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <limits>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/byte_codec.h"
#include "common/errors.h"
#include "common/file_util.h"
#include "common/framing.h"
#include "common/random.h"
#include "core/embedding_db.h"
#include "obs/metrics.h"
#include "obs/reqtrace.h"
#include "store/durable_store.h"
#include "store/faulty_file.h"
#include "store/file.h"
#include "store/wal.h"

namespace neutraj::store {
namespace {

nn::Vector MakeEmbedding(size_t dim, uint64_t seed) {
  Rng rng(seed);
  nn::Vector v(dim);
  for (double& x : v) x = rng.Gaussian(0.0, 1.0);
  return v;
}

/// Overwrites `path` with `bytes` non-atomically (tests corrupt files in
/// place; the production writer is deliberately unable to do this).
void OverwriteFile(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good());
}

class StoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    dir_ = (std::filesystem::temp_directory_path() /
            (std::string("neutraj_store_") + info->name()))
               .string();
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string dir_;
};

// -- WAL record codec --------------------------------------------------------

TEST_F(StoreTest, WalRecordRoundTrip) {
  WalRecord rec;
  rec.seq = 41;
  rec.embedding = MakeEmbedding(16, 7);
  const std::string framed = EncodeWalRecord(rec);

  size_t offset = 0;
  WireFrame frame;
  ASSERT_EQ(DecodeWireFrame(framed, &offset, &frame), FrameStatus::kOk);
  EXPECT_EQ(frame.type, kWalInsert);
  WalRecord back;
  ASSERT_TRUE(ParseWalRecord(frame.payload, &back));
  EXPECT_EQ(back.seq, rec.seq);
  EXPECT_EQ(back.embedding, rec.embedding);  // Bit-exact doubles.
}

TEST_F(StoreTest, WalRecordRejectsMalformedPayloads) {
  WalRecord rec{3, MakeEmbedding(4, 1)};
  size_t offset = 0;
  WireFrame frame;
  ASSERT_EQ(DecodeWireFrame(EncodeWalRecord(rec), &offset, &frame),
            FrameStatus::kOk);

  WalRecord out;
  EXPECT_FALSE(ParseWalRecord("", &out));
  EXPECT_FALSE(ParseWalRecord(frame.payload.substr(0, 11), &out));  // Short.
  EXPECT_FALSE(
      ParseWalRecord(frame.payload.substr(0, frame.payload.size() - 1), &out));
  EXPECT_FALSE(ParseWalRecord(frame.payload + "x", &out));  // Trailing byte.
  std::string zero_dim = frame.payload;
  for (int i = 8; i < 12; ++i) zero_dim[i] = 0;
  EXPECT_FALSE(ParseWalRecord(zero_dim, &out));
  EXPECT_THROW(EncodeWalRecord(WalRecord{0, {}}), std::invalid_argument);
}

// -- Replay semantics --------------------------------------------------------

std::string EncodeLog(const std::vector<WalRecord>& records) {
  std::string bytes;
  for (const WalRecord& r : records) bytes += EncodeWalRecord(r);
  return bytes;
}

TEST_F(StoreTest, ReplayAppliesCleanLog) {
  const std::string log = EncodeLog({{0, MakeEmbedding(8, 1)},
                                     {1, MakeEmbedding(8, 2)},
                                     {2, MakeEmbedding(8, 3)}});
  EmbeddingDatabase db;
  const WalReplayResult r = ReplayWal(log, &db);
  EXPECT_EQ(r.tail, WalTail::kClean);
  EXPECT_EQ(r.applied, 3u);
  EXPECT_EQ(r.skipped, 0u);
  EXPECT_EQ(r.valid_bytes, log.size());
  EXPECT_EQ(db.size(), 3u);
}

TEST_F(StoreTest, ReplayIsIdempotent) {
  const std::string log =
      EncodeLog({{0, MakeEmbedding(8, 1)}, {1, MakeEmbedding(8, 2)}});
  EmbeddingDatabase once;
  ReplayWal(log, &once);

  // The same tail twice — exactly what recovery sees when compaction
  // crashed after the snapshot rename but before the WAL truncate.
  EmbeddingDatabase twice;
  ReplayWal(log, &twice);
  const WalReplayResult second = ReplayWal(log, &twice);
  EXPECT_EQ(second.tail, WalTail::kClean);
  EXPECT_EQ(second.applied, 0u);
  EXPECT_EQ(second.skipped, 2u);
  ASSERT_EQ(twice.size(), once.size());
  for (size_t i = 0; i < once.size(); ++i) {
    EXPECT_EQ(twice.embeddings()[i], once.embeddings()[i]) << "row " << i;
  }
}

TEST_F(StoreTest, ReplayStopsAtTornTail) {
  const std::string full =
      EncodeLog({{0, MakeEmbedding(8, 1)}, {1, MakeEmbedding(8, 2)}});
  const std::string first = EncodeWalRecord({0, MakeEmbedding(8, 1)});
  // Cut mid-way through the second record: a kill mid-write.
  const std::string torn = full.substr(0, first.size() + 9);

  EmbeddingDatabase db;
  const WalReplayResult r = ReplayWal(torn, &db);
  EXPECT_EQ(r.tail, WalTail::kTorn);
  EXPECT_EQ(r.applied, 1u);
  EXPECT_EQ(r.valid_bytes, first.size());
  EXPECT_EQ(db.size(), 1u);
  EXPECT_FALSE(r.detail.empty());
}

TEST_F(StoreTest, ReplayStopsAtBitFlippedRecord) {
  const std::string first = EncodeWalRecord({0, MakeEmbedding(8, 1)});
  std::string log = first + EncodeWalRecord({1, MakeEmbedding(8, 2)});
  log[first.size() + kWireHeaderSize + 3] ^= 0x40;  // Flip a payload bit.

  EmbeddingDatabase db;
  const WalReplayResult r = ReplayWal(log, &db);
  EXPECT_EQ(r.tail, WalTail::kCorrupt);
  EXPECT_EQ(r.applied, 1u);
  EXPECT_EQ(db.size(), 1u);
}

TEST_F(StoreTest, ReplayStopsAtSequenceGap) {
  const std::string log =
      EncodeLog({{0, MakeEmbedding(8, 1)}, {5, MakeEmbedding(8, 2)}});
  EmbeddingDatabase db;
  const WalReplayResult r = ReplayWal(log, &db);
  EXPECT_EQ(r.tail, WalTail::kBadRecord);
  EXPECT_EQ(r.applied, 1u);
  EXPECT_NE(r.detail.find("sequence gap"), std::string::npos);
}

TEST_F(StoreTest, ReplayStopsAtDimMismatch) {
  const std::string log =
      EncodeLog({{0, MakeEmbedding(8, 1)}, {1, MakeEmbedding(4, 2)}});
  EmbeddingDatabase db;
  const WalReplayResult r = ReplayWal(log, &db);
  EXPECT_EQ(r.tail, WalTail::kBadRecord);
  EXPECT_EQ(r.applied, 1u);
  EXPECT_EQ(db.dim(), 8u);
}

// -- WalWriter ---------------------------------------------------------------

TEST_F(StoreTest, WalWriterAppendsAndResets) {
  const std::string path = dir_ + "/wal.log";
  WalWriter writer(path, &FileFactory::Posix());
  const WalRecord first{0, MakeEmbedding(8, 1)};
  EXPECT_EQ(writer.Append(first), EncodeWalRecord(first).size());
  writer.Append({1, MakeEmbedding(8, 2)});
  EXPECT_EQ(writer.appended_records(), 2u);

  EmbeddingDatabase db;
  EXPECT_EQ(ReplayWal(ReadFile(path), &db).applied, 2u);

  writer.Reset();
  EXPECT_EQ(writer.appended_records(), 0u);
  EXPECT_TRUE(ReadFile(path).empty());

  // Appends after a reset start a fresh, valid log.
  writer.Append({2, MakeEmbedding(8, 3)});
  EmbeddingDatabase db2;
  const WalReplayResult r = ReplayWal(ReadFile(path), &db2);
  EXPECT_EQ(r.tail, WalTail::kBadRecord);  // seq 2 over empty db: gap.
  EXPECT_EQ(r.applied, 0u);
}

// -- DurableStore ------------------------------------------------------------

TEST_F(StoreTest, InsertsSurviveReopen) {
  std::vector<nn::Vector> inserted;
  {
    EmbeddingDatabase db;
    DurableStore store(&db, {.data_dir = dir_});
    store.Open();
    for (uint64_t i = 0; i < 10; ++i) {
      inserted.push_back(MakeEmbedding(8, i));
      EXPECT_EQ(store.Insert(inserted.back()), i);
    }
    EXPECT_EQ(store.wal_records(), 10u);
  }
  EmbeddingDatabase recovered;
  DurableStore store(&recovered, {.data_dir = dir_});
  const DurableStore::RecoveryInfo info = store.Open();
  EXPECT_EQ(info.snapshot_records, 0u);
  EXPECT_EQ(info.replayed, 10u);
  EXPECT_EQ(info.tail, WalTail::kClean);
  ASSERT_EQ(recovered.size(), 10u);
  for (size_t i = 0; i < inserted.size(); ++i) {
    EXPECT_EQ(recovered.embeddings()[i], inserted[i]) << "row " << i;
  }
  // Open() compacted the non-empty log into the snapshot.
  EXPECT_TRUE(FileExists(store.snapshot_path()));
  EXPECT_TRUE(ReadFile(store.wal_path()).empty());
}

TEST_F(StoreTest, RejectedInsertLogsNothingAndLaterAcksRecover) {
  {
    EmbeddingDatabase db;
    DurableStore store(&db, {.data_dir = dir_});
    store.Open();
    EXPECT_EQ(store.Insert(MakeEmbedding(8, 1)), 0u);
    const std::string wal_before = ReadFile(store.wal_path());
    EXPECT_THROW(store.Insert(MakeEmbedding(4, 2)), std::invalid_argument);
    EXPECT_THROW(store.Insert(nn::Vector()), std::invalid_argument);
    EXPECT_EQ(ReadFile(store.wal_path()), wal_before);
    EXPECT_FALSE(store.read_only());
    EXPECT_EQ(store.Insert(MakeEmbedding(8, 3)), 1u);
  }
  EmbeddingDatabase recovered;
  DurableStore store(&recovered, {.data_dir = dir_});
  const DurableStore::RecoveryInfo info = store.Open();
  EXPECT_EQ(info.tail, WalTail::kClean) << info.tail_detail;
  EXPECT_EQ(info.replayed, 2u);
  ASSERT_EQ(recovered.size(), 2u);
  EXPECT_EQ(recovered.embeddings()[1], MakeEmbedding(8, 3));
}

// The corpus refuses non-finite rows, so the store refuses them before the
// WAL: a logged record the corpus rejects would stop every later replay.
TEST_F(StoreTest, NonFiniteInsertLogsNothing) {
  EmbeddingDatabase db;
  DurableStore store(&db, {.data_dir = dir_});
  store.Open();
  EXPECT_EQ(store.Insert(MakeEmbedding(4, 1)), 0u);
  const std::string wal_before = ReadFile(store.wal_path());
  nn::Vector bad = MakeEmbedding(4, 2);
  bad[1] = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(store.Insert(bad), std::invalid_argument);
  bad[1] = std::numeric_limits<double>::infinity();
  EXPECT_THROW(store.Insert(bad), std::invalid_argument);
  EXPECT_EQ(ReadFile(store.wal_path()), wal_before);
  EXPECT_EQ(store.Insert(MakeEmbedding(4, 3)), 1u);
}

TEST_F(StoreTest, TracedInsertRecordsWaitWalAndCompactSpans) {
  EmbeddingDatabase db;
  DurableStore store(&db, {.data_dir = dir_, .compact_every = 2});
  store.Open();
  obs::MetricsRegistry registry;
  obs::RequestTracer tracer(&registry);
  auto stages_of_insert = [&](uint64_t seed) {
    auto trace = std::make_shared<obs::RequestTrace>(
        obs::TraceContext{seed, /*sampled=*/true}, "insert");
    store.Insert(MakeEmbedding(8, seed), trace.get());
    tracer.Finish(trace);
    const std::vector<obs::FinishedTrace> last = tracer.Dump(1);
    std::vector<std::string> stages;
    for (const obs::FinishedSpan& s : last[0].spans) stages.push_back(s.stage);
    return stages;
  };
  EXPECT_EQ(stages_of_insert(1),
            (std::vector<std::string>{"store_wait", "wal"}));
  // The second insert reaches compact_every and compacts inline.
  EXPECT_EQ(stages_of_insert(2),
            (std::vector<std::string>{"store_wait", "wal", "compact"}));
}

TEST_F(StoreTest, AutoCompactionTruncatesWal) {
  EmbeddingDatabase db;
  DurableStore store(&db, {.data_dir = dir_, .compact_every = 4});
  store.Open();
  for (uint64_t i = 0; i < 9; ++i) store.Insert(MakeEmbedding(8, i));
  // 9 inserts with compact_every=4: compactions at 4 and 8, one live record.
  EXPECT_EQ(store.wal_records(), 1u);
  EXPECT_TRUE(FileExists(store.snapshot_path()));

  EmbeddingDatabase recovered;
  DurableStore reopened(&recovered, {.data_dir = dir_});
  const DurableStore::RecoveryInfo info = reopened.Open();
  EXPECT_EQ(info.snapshot_records, 8u);
  EXPECT_EQ(info.replayed, 1u);
  EXPECT_EQ(recovered.size(), 9u);
}

TEST_F(StoreTest, PreSeededDatabaseIsSnapshottedOnOpen) {
  EmbeddingDatabase db;
  db.Insert(MakeEmbedding(8, 1));
  db.Insert(MakeEmbedding(8, 2));
  DurableStore store(&db, {.data_dir = dir_});
  store.Open();
  // Durable before the first request: reopen recovers both rows.
  EmbeddingDatabase recovered;
  DurableStore reopened(&recovered, {.data_dir = dir_});
  const DurableStore::RecoveryInfo info = reopened.Open();
  EXPECT_EQ(info.snapshot_records, 2u);
  EXPECT_EQ(recovered.size(), 2u);
}

TEST_F(StoreTest, OpenRefusesNonEmptyDatabaseOverExistingState) {
  {
    EmbeddingDatabase db;
    DurableStore store(&db, {.data_dir = dir_});
    store.Open();
    store.Insert(MakeEmbedding(8, 1));
  }
  EmbeddingDatabase preloaded;
  preloaded.Insert(MakeEmbedding(8, 2));
  DurableStore store(&preloaded, {.data_dir = dir_});
  EXPECT_THROW(store.Open(), StoreError);
}

TEST_F(StoreTest, RecoveryTruncatesTornTail) {
  {
    EmbeddingDatabase db;
    DurableStore store(&db, {.data_dir = dir_});
    store.Open();
    for (uint64_t i = 0; i < 3; ++i) store.Insert(MakeEmbedding(8, i));
  }
  const std::string wal_path = dir_ + "/wal.log";
  const std::string wal = ReadFile(wal_path);
  ASSERT_FALSE(wal.empty());
  OverwriteFile(wal_path, wal.substr(0, wal.size() - 5));

  EmbeddingDatabase recovered;
  DurableStore store(&recovered, {.data_dir = dir_});
  const DurableStore::RecoveryInfo info = store.Open();
  EXPECT_EQ(info.tail, WalTail::kTorn);
  EXPECT_EQ(info.replayed, 2u);
  EXPECT_EQ(recovered.size(), 2u);
  // The torn bytes were folded away: the log is clean for new appends.
  EXPECT_TRUE(ReadFile(wal_path).empty());
  EXPECT_EQ(store.Insert(MakeEmbedding(8, 9)), 2u);
}

TEST_F(StoreTest, RecoveryStopsAtBitFlippedWalRecord) {
  {
    EmbeddingDatabase db;
    DurableStore store(&db, {.data_dir = dir_});
    store.Open();
    for (uint64_t i = 0; i < 3; ++i) store.Insert(MakeEmbedding(8, i));
  }
  const std::string wal_path = dir_ + "/wal.log";
  std::string wal = ReadFile(wal_path);
  const size_t record = wal.size() / 3;
  wal[2 * record + kWireHeaderSize + 1] ^= 0x10;  // Corrupt the third record.
  OverwriteFile(wal_path, wal);

  EmbeddingDatabase recovered;
  DurableStore store(&recovered, {.data_dir = dir_});
  const DurableStore::RecoveryInfo info = store.Open();
  EXPECT_EQ(info.tail, WalTail::kCorrupt);
  EXPECT_EQ(recovered.size(), 2u);
}

TEST_F(StoreTest, FailedAppendDegradesToReadOnly) {
  FaultPlan plan;
  FaultyFileFactory faulty(&FileFactory::Posix(), &plan);
  EmbeddingDatabase db;
  DurableStore store(&db, {.data_dir = dir_, .files = &faulty});
  store.Open();
  store.Insert(MakeEmbedding(8, 1));

  // Next mutating op fails: the log device died.
  plan.fault_at_op = plan.ops_seen + 1;
  plan.action = FaultAction::kFailOp;
  EXPECT_THROW(store.Insert(MakeEmbedding(8, 2)), StoreError);
  EXPECT_TRUE(store.read_only());
  EXPECT_FALSE(store.degraded_reason().empty());
  // Degraded is sticky — later inserts fail without touching the disk.
  EXPECT_THROW(store.Insert(MakeEmbedding(8, 3)), StoreError);
  EXPECT_THROW(store.Compact(), StoreError);
  // The unacknowledged insert was never applied to the in-memory corpus.
  EXPECT_EQ(db.size(), 1u);
}

TEST_F(StoreTest, MetricsAreRegistered) {
  obs::MetricsRegistry registry;
  EmbeddingDatabase db;
  DurableStore store(&db, {.data_dir = dir_});
  store.AttachMetrics(&registry);
  store.Open();
  store.Insert(MakeEmbedding(8, 1));
  store.Compact();

  const auto metrics = registry.Snapshot().Flatten();
  const auto value = [&](const std::string& name) -> double {
    for (const auto& [k, v] : metrics) {
      if (k == name) return v;
    }
    ADD_FAILURE() << "metric not found: " << name;
    return -1.0;
  };
  EXPECT_EQ(value("wal/records"), 1.0);
  // wal/bytes counts exactly the frame WalWriter wrote.
  const std::string frame = EncodeWalRecord({0, MakeEmbedding(8, 1)});
  EXPECT_EQ(value("wal/bytes"), static_cast<double>(frame.size()));
  EXPECT_GE(value("store/compactions"), 1.0);
  EXPECT_EQ(value("store/degraded"), 0.0);
  EXPECT_EQ(value("store/wal_records"), 0.0);  // Post-compaction.
}

// -- Snapshot corruption: typed errors ---------------------------------------

TEST_F(StoreTest, LoadReportsTruncatedSnapshot) {
  EmbeddingDatabase db;
  db.Insert(MakeEmbedding(8, 1));
  db.Insert(MakeEmbedding(8, 2));
  const std::string path = dir_ + "/snapshot.embdb";
  db.Save(path);

  const std::string bytes = ReadFile(path);
  OverwriteFile(path, bytes.substr(0, bytes.size() - 20));
  try {
    EmbeddingDatabase::Load(path);
    FAIL() << "expected CorruptionError";
  } catch (const CorruptionError& e) {
    EXPECT_NE(std::string(e.what()).find(path), std::string::npos);
  }
}

TEST_F(StoreTest, LoadReportsBitFlippedValues) {
  EmbeddingDatabase db;
  db.Insert(MakeEmbedding(8, 1));
  const std::string path = dir_ + "/snapshot.embdb";
  db.Save(path);

  // Flip a byte inside the embeddings payload: the section CRC must flag
  // the damaged section rather than let a misread value through.
  std::string bytes = ReadFile(path);
  const size_t header = bytes.find("SECTION embeddings");
  ASSERT_NE(header, std::string::npos);
  const size_t payload = bytes.find('\n', header) + 1;
  bytes[payload + 2] ^= 0x04;
  OverwriteFile(path, bytes);
  try {
    EmbeddingDatabase::Load(path);
    FAIL() << "expected CorruptionError";
  } catch (const CorruptionError& e) {
    EXPECT_EQ(e.section(), "embeddings");
    EXPECT_NE(std::string(e.what()).find("checksum"), std::string::npos);
  }
}

// A container whose framing is intact (CRCs valid) but whose shape section
// holds nonsense exercises Deserialize's own typed validation, not the CRC.
TEST_F(StoreTest, DeserializeReportsBadShape) {
  SectionWriter w("embdb");
  w.Add("shape", "x y");
  w.Add("embeddings", "");
  try {
    EmbeddingDatabase::Deserialize(w.Finish(), "test");
    FAIL() << "expected CorruptionError";
  } catch (const CorruptionError& e) {
    EXPECT_EQ(e.section(), "shape");
    EXPECT_EQ(e.source(), "test");
  }
}

TEST_F(StoreTest, DeserializeReportsTruncatedValues) {
  // Shape claims 2x3 but only 4 numbers exist — a torn write that somehow
  // kept its CRC would still be caught by the value count.
  SectionWriter w("embdb");
  w.Add("shape", "2 3");
  w.Add("embeddings", "1 2 3\n4\n");
  try {
    EmbeddingDatabase::Deserialize(w.Finish(), "test");
    FAIL() << "expected CorruptionError";
  } catch (const CorruptionError& e) {
    EXPECT_EQ(e.section(), "embeddings");
    EXPECT_EQ(e.offset(), 1u);  // Failure at embedding index 1.
  }
}

// -- Snapshot codec ----------------------------------------------------------

/// A legacy text snapshot as the pre-binary writer rendered it: shape
/// "<count> <dim>", each row's values printed to 17 digits.
std::string LegacyTextSnapshot(const std::vector<nn::Vector>& rows) {
  std::ostringstream data;
  data.precision(17);
  for (const nn::Vector& e : rows) {
    for (size_t k = 0; k < e.size(); ++k) data << (k > 0 ? " " : "") << e[k];
    data << '\n';
  }
  SectionWriter w("embdb");
  w.Add("shape", std::to_string(rows.size()) + " " +
                     std::to_string(rows.empty() ? 0 : rows[0].size()));
  w.Add("embeddings", data.str());
  return w.Finish();
}

/// Expects `got` to hold `want`'s rows with every value's bit pattern equal,
/// so -0.0 and 0.0 differ.
void ExpectBitIdentical(const std::vector<nn::Vector>& got,
                        const std::vector<nn::Vector>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < want.size(); ++i) {
    ASSERT_EQ(got[i].size(), want[i].size()) << "row " << i;
    for (size_t k = 0; k < want[i].size(); ++k) {
      EXPECT_EQ(std::bit_cast<uint64_t>(got[i][k]),
                std::bit_cast<uint64_t>(want[i][k]))
          << "row " << i << " value " << k;
    }
  }
}

TEST_F(StoreTest, SnapshotRoundTripIsBitIdentical) {
  const std::vector<nn::Vector> rows = {
      {-0.0, std::numeric_limits<double>::denorm_min(), 1e-300},
      {std::numeric_limits<double>::max(), -std::numeric_limits<double>::max(),
       0.0},
      MakeEmbedding(3, 7)};
  EmbeddingDatabase db;
  for (const nn::Vector& e : rows) db.Insert(e);
  const std::string path = dir_ + "/snapshot.embdb";
  db.Save(path);

  const SectionReader r(ReadFile(path), "embdb", path);
  EXPECT_EQ(r.Get("shape"), "3 3 le64");
  EXPECT_EQ(r.Get("embeddings").size(), 3u * 3u * sizeof(double));
  ExpectBitIdentical(EmbeddingDatabase::Load(path).embeddings(), rows);
}

TEST_F(StoreTest, LegacyTextSnapshotLoads) {
  const std::vector<nn::Vector> rows = {MakeEmbedding(5, 1), MakeEmbedding(5, 2),
                                        {-0.0, 1e-300, 0.5, -2.0, 3.25}};
  const EmbeddingDatabase db =
      EmbeddingDatabase::Deserialize(LegacyTextSnapshot(rows), "test");
  EXPECT_EQ(db.dim(), 5u);
  ExpectBitIdentical(db.embeddings(), rows);
}

TEST_F(StoreTest, LegacySnapshotWithWalTailRecoversAndIsRewrittenBinary) {
  const std::vector<nn::Vector> rows = {MakeEmbedding(4, 1), MakeEmbedding(4, 2),
                                        MakeEmbedding(4, 3), MakeEmbedding(4, 4)};
  OverwriteFile(dir_ + "/snapshot.embdb",
                LegacyTextSnapshot({rows[0], rows[1]}));
  OverwriteFile(dir_ + "/wal.log", EncodeLog({{2, rows[2]}, {3, rows[3]}}));

  EmbeddingDatabase recovered;
  DurableStore store(&recovered, {.data_dir = dir_});
  const DurableStore::RecoveryInfo info = store.Open();
  EXPECT_EQ(info.snapshot_records, 2u);
  EXPECT_EQ(info.replayed, 2u);
  EXPECT_EQ(info.tail, WalTail::kClean);
  ExpectBitIdentical(recovered.embeddings(), rows);

  // The end-of-open compaction rewrote the snapshot in the binary codec.
  const SectionReader r(ReadFile(store.snapshot_path()), "embdb", "test");
  EXPECT_EQ(r.Get("shape"), "4 4 le64");
  ExpectBitIdentical(EmbeddingDatabase::Load(store.snapshot_path()).embeddings(),
                     rows);
}

TEST_F(StoreTest, BinarySnapshotOneRowShortIsCorrupt) {
  EmbeddingDatabase db;
  for (uint64_t i = 0; i < 3; ++i) db.Insert(MakeEmbedding(4, i));
  const SectionReader full(db.Serialize(), "embdb", "test");
  const std::string& payload = full.Get("embeddings");
  // Re-framed with valid CRCs, so only the shape/payload check can catch it.
  SectionWriter w("embdb");
  w.Add("shape", full.Get("shape"));
  w.Add("embeddings", payload.substr(0, payload.size() - 4 * sizeof(double)));
  try {
    EmbeddingDatabase::Deserialize(w.Finish(), "test");
    FAIL() << "expected CorruptionError";
  } catch (const CorruptionError& e) {
    EXPECT_EQ(e.section(), "embeddings");
  }
}

// A NaN or infinity in a CRC-valid binary snapshot is corrupt data, caught in
// every build by the pass that builds the int8 index.
TEST_F(StoreTest, DeserializeRejectsNonFiniteValues) {
  for (const double bad : {std::numeric_limits<double>::quiet_NaN(),
                           -std::numeric_limits<double>::infinity()}) {
    EmbeddingDatabase db;
    for (uint64_t i = 0; i < 3; ++i) db.Insert(MakeEmbedding(4, i));
    const SectionReader full(db.Serialize(), "embdb", "test");
    std::string payload = full.Get("embeddings");
    const size_t row = 2;
    ByteWriter value;
    value.F64(bad);
    payload.replace((row * 4 + 1) * sizeof(double), sizeof(double),
                    value.Take());
    SectionWriter w("embdb");
    w.Add("shape", full.Get("shape"));
    w.Add("embeddings", payload);
    try {
      EmbeddingDatabase::Deserialize(w.Finish(), "test");
      FAIL() << "expected CorruptionError";
    } catch (const CorruptionError& e) {
      EXPECT_EQ(e.section(), "embeddings");
      EXPECT_EQ(e.offset(), row * 4 * sizeof(double));
    }
  }
}

// A CRC-valid container whose shape claims 1.6e19 values must be rejected
// before anything is sized from it, in either codec — and DurableStore::Open
// must surface that as the typed error, not std::bad_alloc.
TEST_F(StoreTest, HostileShapeIsCorruptionBeforeAllocation) {
  for (const std::string shape :
       {"4000000000 4000000000", "4000000000 4000000000 le64",
        "18446744073709551615 2 le64", "3 18446744073709551615"}) {
    SectionWriter w("embdb");
    w.Add("shape", shape);
    w.Add("embeddings", "1 2 3 4 5 6 7 8");
    const std::string bytes = w.Finish();
    EXPECT_THROW(EmbeddingDatabase::Deserialize(bytes, "test"), CorruptionError)
        << shape;

    OverwriteFile(dir_ + "/snapshot.embdb", bytes);
    EmbeddingDatabase db;
    DurableStore store(&db, {.data_dir = dir_});
    EXPECT_THROW(store.Open(), CorruptionError) << shape;
  }
}

// CorruptionError derives std::runtime_error, so pre-existing call sites
// that caught the untyped error keep working.
TEST_F(StoreTest, CorruptionErrorIsARuntimeError) {
  const CorruptionError e("src", "sec", 3, "boom");
  const std::runtime_error& base = e;
  EXPECT_NE(std::string(base.what()).find("sec"), std::string::npos);
  EXPECT_EQ(e.source(), "src");
  EXPECT_EQ(e.section(), "sec");
  EXPECT_EQ(e.offset(), 3u);
}

}  // namespace
}  // namespace neutraj::store
