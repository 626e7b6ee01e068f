// Precomputed embedding database for repeated top-k search.
//
// The paper's online protocol embeds the corpus once and answers every
// query with an O(|corpus| * d) scan in embedding space. EmbeddingDatabase
// packages that corpus-side state: a threaded bulk-encoding build, top-k
// queries (by embedding or by raw trajectory), live incremental inserts
// under a reader/writer discipline, and a checksummed on-disk format so the
// O(N * L * d^2) encoding cost is paid once per corpus, not once per
// process.
//
// On-disk format (Save/Load, Serialize/Deserialize): the common/framing.h
// section container, kind "embdb", with two sections. "shape" holds
// "<count> <dim> le64"; "embeddings" holds count*dim*8 bytes, row-major,
// each value the little-endian IEEE-754 bit pattern of a double
// (common/byte_codec.h, the encoding WAL records use), so a load is
// bit-identical to what was saved. Writing is always binary. A two-token
// shape is a legacy text snapshot (17-digit values) and is still read.
// The shape is checked against the payload size before anything is
// allocated. There is no downgrade: a binary that predates the codec fails
// to parse the raw doubles as text and throws CorruptionError.
//
// Bounded exact TopK: beside the rows the database keeps an int8 index —
// each row's code (retrieval/quantized.h CodeBlocks) in blocks of 8 rows,
// stored dimension-major inside a block (in pairs of dimensions, see
// retrieval/kernels.h BlockCodeOffset), each row's reconstruction error
// rounded up and each block's largest error. TopK first runs the int8 pass of
// retrieval/kernels.h over a block, which gives every row a lower bound on
// its distance (quantized.h: sqrt(c · D′) − e_q − e_x). Only rows whose
// bound does not exceed the current k-th exact distance τ get their double
// distance, through the same left-to-right sum and TopKHeap as the plain
// scan, so ids, distances and the (distance, ascending id) order are
// bit-identical to EmbeddingTopK over the same rows. The bound is compared
// in squares with a relative slack of 1e-9 and prunes only when strictly
// above τ, so rounding and ties at the k-th distance never drop an answer.
// IVF (retrieval/ivf_index.h) runs the same bound over its probed lists'
// codes through TopKOfLists.
//
// When the index exists: Build and Deserialize train the quantizer on all
// their rows and encode them (over `threads`). Insert then appends the
// row's code; a row outside the trained range clamps, gets a large error
// and so always survives the bound. A database filled by Insert from empty
// has no quantizer and scans every row exactly until the next Build or
// Deserialize. The index is derived data: it is never saved, and the file
// format does not change. It costs about n · (d + 8) bytes beside the
// n · d · 8 of the rows (4 MB on 26 MB at 100k × 32).
//
// Every row is finite. Build and Insert throw std::invalid_argument on a
// non-finite value and Deserialize throws CorruptionError, in every build:
// a NaN would break the heap's order and silently disable the bound.
//
// Concurrency: TopK/Save/size take a shared (reader) lock and Insert takes
// an exclusive (writer) lock, so a live serving corpus (src/serve/) can
// answer queries while trajectories stream in. The int8 index sits under
// the same lock as the rows. The unlocked accessors (at, embeddings) hand
// out references into the store and are only safe when no Insert can run
// concurrently — i.e. single-threaded use or an externally quiesced
// database.

#ifndef NEUTRAJ_CORE_EMBEDDING_DB_H_
#define NEUTRAJ_CORE_EMBEDDING_DB_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/sync.h"
#include "core/model.h"
#include "core/search.h"
#include "obs/metrics.h"
#include "retrieval/quantized.h"

namespace neutraj {

class ThreadPool;

/// Corpus embeddings plus the query primitives over them.
class EmbeddingDatabase {
 public:
  EmbeddingDatabase();

  // The internal reader/writer lock is not movable; moves transfer only the
  // data and require that no other thread touches either operand (the usual
  // build-then-serve lifecycle).
  EmbeddingDatabase(EmbeddingDatabase&& other) noexcept;
  // Analysis disabled deliberately: a move writes this->dim_, embeddings_
  // and the int8 index and reads other's without either lock, which is exactly the
  // documented contract above — both operands must be externally quiesced.
  // Taking both locks here would suggest a concurrency guarantee moves do
  // not provide.
  EmbeddingDatabase& operator=(EmbeddingDatabase&& other) noexcept
      NEUTRAJ_NO_THREAD_SAFETY_ANALYSIS;
  EmbeddingDatabase(const EmbeddingDatabase&) = delete;
  EmbeddingDatabase& operator=(const EmbeddingDatabase&) = delete;

  /// Embeds `corpus` with `model` over `threads` workers (results identical
  /// for every thread count), builds the int8 index and returns the
  /// database. The model must use read-only inference when threads > 1 (see
  /// EmbedAllParallel). Throws std::invalid_argument when a trajectory
  /// embeds to a non-finite value.
  static EmbeddingDatabase Build(const NeuTrajModel& model,
                                 const std::vector<Trajectory>& corpus,
                                 size_t threads = 1);

  size_t size() const NEUTRAJ_EXCLUDES(mu_);
  bool empty() const { return size() == 0; }
  /// Embedding width d; 0 for an empty database.
  size_t dim() const NEUTRAJ_EXCLUDES(mu_);

  // Unlocked accessors; see the header comment for when they are safe.
  // Analysis disabled deliberately: these hand out references into guarded
  // state for the single-threaded / externally-quiesced lifecycle (offline
  // experiments, post-build serving setup), where holding the reader lock
  // for the reference's lifetime is impossible by design.
  const nn::Vector& at(size_t i) const NEUTRAJ_NO_THREAD_SAFETY_ANALYSIS {
    return embeddings_[i];
  }
  const std::vector<nn::Vector>& embeddings() const
      NEUTRAJ_NO_THREAD_SAFETY_ANALYSIS {
    return embeddings_;
  }

  /// Appends one embedding under the writer lock and returns its id (ids
  /// are dense indices in insertion order, continuing the build order).
  /// The first insert into an empty database fixes the dimension; later
  /// inserts must match it or throw std::invalid_argument, as does a
  /// non-finite value. With a trained quantizer the row's code and error
  /// are appended to the int8 index.
  size_t Insert(const nn::Vector& embedding) NEUTRAJ_EXCLUDES(mu_);

  /// Embeds `traj` with `model` (outside the lock) and appends it.
  size_t Insert(const NeuTrajModel& model, const Trajectory& traj)
      NEUTRAJ_EXCLUDES(mu_);

  /// Top-k nearest stored embeddings to `query` under L2. Deterministic
  /// under distance ties: equal distances are broken by ascending id. That
  /// tie-break is a pinned API contract (tests/core_test.cc) — IVF's list
  /// scan (TopKOfLists, used by src/retrieval/) reproduces it to stay
  /// bit-identical with this scan, so changing it is a breaking change.
  /// `exclude` (if >= 0) removes one id — typically the query itself when
  /// it is part of the corpus. Takes the reader lock.
  ///
  /// The scan streams rows through a heap of at most min(k, size()) entries
  /// (core/search.h), bounded by the int8 index when there is one (see the
  /// header comment) and exact over every row when not. With `helpers`,
  /// rows are split into chunks of ScanChunkRows(dim()) rows; the caller
  /// and up to min(helpers->num_threads(), max_helpers) tasks submitted to
  /// that pool claim chunks from one counter, and the caller waits only for
  /// chunks a helper has already claimed, so a pool busy elsewhere costs
  /// nothing but the parallelism. Each chunk publishes its k-th distance to
  /// one shared τ, which bounds every chunk, since any chunk's k-th
  /// distance is at least the global one. The per-chunk heaps merge by
  /// (distance, id), so the result is identical whoever scanned which
  /// chunk. Without helpers, with max_helpers == 0, or for a corpus of one
  /// chunk, the scan runs inline.
  SearchResult TopK(const nn::Vector& query, size_t k, int64_t exclude = -1,
                    ThreadPool* helpers = nullptr,
                    size_t max_helpers = SIZE_MAX) const
      NEUTRAJ_EXCLUDES(mu_);

  /// Rows per TopK chunk at embedding width `dim`: about 1 MiB of row data,
  /// a multiple of the int8 index's 8-row blocks.
  static size_t ScanChunkRows(size_t dim);

  /// TopK restricted to `candidates` (see EmbeddingTopKOf): an oracle for
  /// a result's ids. Scores and tie-breaks are bit-identical to TopK
  /// whenever `candidates` covers the true top-k. Candidate ids must be
  /// < size() (throws std::out_of_range otherwise); duplicates are scored
  /// once. Takes the reader lock.
  SearchResult TopKOf(const nn::Vector& query,
                      const std::vector<size_t>& candidates, size_t k,
                      int64_t exclude = -1) const NEUTRAJ_EXCLUDES(mu_);

  /// TopK over the rows `lists` name — IVF's probed lists — by the same
  /// bound, read from each list's codes under `quantizer` (the one every
  /// list was encoded with). The lists are scanned in order with one τ, so
  /// the nearest list first prunes the most. A list's ids may come in any
  /// order; a row the bound admits whose id is not < size() throws
  /// std::out_of_range. The result is TopK's over exactly the listed rows,
  /// ids and distance bits alike. Takes the reader lock.
  SearchResult TopKOfLists(
      const nn::Vector& query, size_t k, int64_t exclude,
      const retrieval::Int8Quantizer& quantizer,
      const std::vector<const retrieval::CodeList*>& lists) const
      NEUTRAJ_EXCLUDES(mu_);

  /// Embeds `query` with `model` and runs TopK. The model must be the one
  /// the database was built with for the distances to be meaningful.
  SearchResult TopK(const NeuTrajModel& model, const Trajectory& query,
                    size_t k, int64_t exclude = -1) const;

  /// Serializes the embeddings to `path` (CRC-checksummed sections; see
  /// common/framing.h), written atomically. Takes the reader lock.
  void Save(const std::string& path) const NEUTRAJ_EXCLUDES(mu_);

  /// The serialized container bytes Save() would write; takes the reader
  /// lock. The durability layer (src/store/) uses this to route snapshot
  /// writes through its own checked, fault-injectable I/O path.
  std::string Serialize() const NEUTRAJ_EXCLUDES(mu_);

  /// Restores a database saved by Save(), in either codec, and builds its
  /// int8 index over `threads` workers. Throws CorruptionError
  /// (common/errors.h, with section/offset context) on malformed,
  /// truncated, or bit-flipped files, on a shape that does not match the
  /// payload, and on a non-finite value.
  static EmbeddingDatabase Load(const std::string& path, size_t threads = 1);

  /// Load() over in-memory container bytes; `source` names the artifact in
  /// error messages.
  static EmbeddingDatabase Deserialize(const std::string& contents,
                                       const std::string& source,
                                       size_t threads = 1);

  /// Re-points this database's telemetry (db/build_us, db/insert_us,
  /// db/topk_us histograms; db/topk_scored_rows counter, the rows TopK gave
  /// their exact distance; db/corpus_size gauge) at `registry`. The
  /// constructor attaches the process-global registry; the serve layer
  /// re-attaches its per-service one. `registry` must outlive the database.
  /// Not thread-safe against concurrent operations — call before serving
  /// traffic.
  void AttachMetrics(obs::MetricsRegistry* registry);

 private:
  mutable SharedMutex mu_{lock_rank::kDb};
  size_t dim_ NEUTRAJ_GUARDED_BY(mu_) = 0;
  std::vector<nn::Vector> embeddings_ NEUTRAJ_GUARDED_BY(mu_);
  /// The int8 index (see the header comment). An untrained quantizer means
  /// no index: every TopK scans each row exactly.
  retrieval::Int8Quantizer quantizer_ NEUTRAJ_GUARDED_BY(mu_);
  retrieval::CodeBlocks codes_ NEUTRAJ_GUARDED_BY(mu_);

  // Registry-owned; re-resolved by AttachMetrics, copied by moves (both
  // operands end up recording to the same registry, which is correct for
  // the build-then-move-then-serve lifecycle).
  obs::ConcurrentHistogram* build_us_ = nullptr;
  obs::ConcurrentHistogram* insert_us_ = nullptr;
  obs::ConcurrentHistogram* topk_us_ = nullptr;
  obs::Counter* topk_scored_rows_ = nullptr;
  obs::Gauge* corpus_size_ = nullptr;
};

}  // namespace neutraj

#endif  // NEUTRAJ_CORE_EMBEDDING_DB_H_
