#include "core/embedding_db.h"

#include <algorithm>
#include <atomic>
#include <charconv>
#include <exception>
#include <limits>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <system_error>

#include "common/byte_codec.h"
#include "common/check.h"
#include "common/errors.h"
#include "common/file_util.h"
#include "common/framing.h"
#include "common/string_util.h"
#include "common/thread_pool.h"
#include "obs/trace.h"

namespace neutraj {

namespace {

constexpr char kDbKind[] = "embdb";
// Third token of the shape section for the binary embeddings encoding.
constexpr char kBinaryCodec[] = "le64";

// A decimal size_t with no sign, space or overflow.
bool ParseSize(const std::string& s, size_t* out) {
  const char* end = s.data() + s.size();
  const auto [ptr, ec] = std::from_chars(s.data(), end, *out);
  return ec == std::errc() && ptr == end;
}

// a * b, or false if it overflows size_t.
bool CheckedMul(size_t a, size_t b, size_t* out) {
  if (b != 0 && a > std::numeric_limits<size_t>::max() / b) return false;
  *out = a * b;
  return true;
}

constexpr size_t kScanChunkBytes = size_t{1} << 20;

/// One chunked TopK scan: the row ranges, the counter the caller and its
/// helpers claim them from, and one heap per chunk, written only by the
/// thread that claimed the chunk and read by the caller once `done_`
/// counts it.
class ChunkedScan {
 public:
  ChunkedScan(const std::vector<nn::Vector>* rows, const nn::Vector* query,
              size_t k, int64_t exclude, size_t chunk_rows)
      : rows_(rows),
        query_(query),
        exclude_(exclude),
        chunk_rows_(chunk_rows),
        chunks_((rows->size() + chunk_rows - 1) / chunk_rows),
        heaps_(chunks_, TopKHeap(k)),
        errors_(chunks_) {}

  size_t num_chunks() const { return chunks_; }

  /// Claims and scans chunks until none is left. Never throws: a chunk's
  /// exception is kept for Wait() so that `done_` always reaches chunks_.
  void Drain() {
    for (size_t c = next_.fetch_add(1, std::memory_order_relaxed); c < chunks_;
         c = next_.fetch_add(1, std::memory_order_relaxed)) {
      const size_t begin = c * chunk_rows_;
      const size_t end = std::min(begin + chunk_rows_, rows_->size());
      try {
        ScanTopK(*rows_, *query_, begin, end, exclude_, &heaps_[c]);
      } catch (...) {
        errors_[c] = std::current_exception();
      }
      if (done_.fetch_add(1, std::memory_order_acq_rel) + 1 == chunks_) {
        done_.notify_all();
      }
    }
  }

  /// Called by the caller after its own Drain(): blocks until every chunk
  /// a helper claimed has finished, then merges the chunk heaps.
  SearchResult Wait() {
    for (size_t d = done_.load(std::memory_order_acquire); d != chunks_;
         d = done_.load(std::memory_order_acquire)) {
      done_.wait(d, std::memory_order_acquire);
    }
    for (size_t c = 0; c < chunks_; ++c) {
      if (errors_[c]) std::rethrow_exception(errors_[c]);
      if (c > 0) heaps_[0].Merge(heaps_[c]);
    }
    return heaps_[0].Take();
  }

 private:
  const std::vector<nn::Vector>* rows_;
  const nn::Vector* query_;
  int64_t exclude_;
  size_t chunk_rows_;
  size_t chunks_;
  std::vector<TopKHeap> heaps_;
  std::vector<std::exception_ptr> errors_;
  std::atomic<size_t> next_{0};
  std::atomic<size_t> done_{0};
};

}  // namespace

EmbeddingDatabase::EmbeddingDatabase() {
  AttachMetrics(&obs::MetricsRegistry::Global());
}

EmbeddingDatabase::EmbeddingDatabase(EmbeddingDatabase&& other) noexcept
    : dim_(other.dim_),
      embeddings_(std::move(other.embeddings_)),
      build_us_(other.build_us_),
      insert_us_(other.insert_us_),
      topk_us_(other.topk_us_),
      corpus_size_(other.corpus_size_) {}

EmbeddingDatabase& EmbeddingDatabase::operator=(
    EmbeddingDatabase&& other) noexcept NEUTRAJ_NO_THREAD_SAFETY_ANALYSIS {
  if (this != &other) {
    dim_ = other.dim_;
    embeddings_ = std::move(other.embeddings_);
    build_us_ = other.build_us_;
    insert_us_ = other.insert_us_;
    topk_us_ = other.topk_us_;
    corpus_size_ = other.corpus_size_;
  }
  return *this;
}

void EmbeddingDatabase::AttachMetrics(obs::MetricsRegistry* registry) {
  build_us_ = &registry->GetHistogram("db/build_us");
  insert_us_ = &registry->GetHistogram("db/insert_us");
  topk_us_ = &registry->GetHistogram("db/topk_us");
  corpus_size_ = &registry->GetGauge("db/corpus_size");
  size_t count = 0;
  {
    ReaderLock lock(mu_);
    count = embeddings_.size();
  }
  corpus_size_->Set(static_cast<double>(count));
}

EmbeddingDatabase EmbeddingDatabase::Build(const NeuTrajModel& model,
                                           const std::vector<Trajectory>& corpus,
                                           size_t threads) {
  EmbeddingDatabase db;
  obs::Span span("db/build", db.build_us_, nullptr);
  // Encode into locals, then publish under the writer lock: the database is
  // not shared yet, but static member functions are inside the thread-safety
  // analysis boundary, so the guarded members are only touched while their
  // capability is held.
  std::vector<nn::Vector> embeddings = threads > 1
                                           ? model.EmbedAllParallel(corpus, threads)
                                           : model.EmbedAll(corpus);
  const size_t dim = embeddings.empty() ? 0 : embeddings.front().size();
  const size_t count = embeddings.size();
  {
    WriterLock lock(db.mu_);
    db.embeddings_ = std::move(embeddings);
    db.dim_ = dim;
  }
  span.Stop();
  db.corpus_size_->Set(static_cast<double>(count));
  return db;
}

size_t EmbeddingDatabase::size() const {
  ReaderLock lock(mu_);
  return embeddings_.size();
}

size_t EmbeddingDatabase::dim() const {
  ReaderLock lock(mu_);
  return dim_;
}

size_t EmbeddingDatabase::Insert(const nn::Vector& embedding) {
  if (embedding.empty()) {
    throw std::invalid_argument("EmbeddingDatabase::Insert: empty embedding");
  }
  NEUTRAJ_DCHECK_FINITE(embedding);
  obs::Span span("db/insert", insert_us_, nullptr);
  size_t id = 0;
  size_t new_size = 0;
  {
    WriterLock lock(mu_);
    if (embeddings_.empty()) {
      dim_ = embedding.size();
    } else if (embedding.size() != dim_) {
      throw std::invalid_argument(
          "EmbeddingDatabase::Insert: embedding dimension " +
          std::to_string(embedding.size()) + " != database dimension " +
          std::to_string(dim_));
    }
    embeddings_.push_back(embedding);
    new_size = embeddings_.size();
    id = new_size - 1;
  }
  span.Stop();
  corpus_size_->Set(static_cast<double>(new_size));
  return id;
}

size_t EmbeddingDatabase::Insert(const NeuTrajModel& model,
                                 const Trajectory& traj) {
  // Embed before taking the writer lock: encoding is the expensive part and
  // must not serialize against concurrent readers.
  return Insert(model.Embed(traj));
}

size_t EmbeddingDatabase::ScanChunkRows(size_t dim) {
  return std::max<size_t>(1, kScanChunkBytes / (std::max<size_t>(dim, 1) *
                                                sizeof(double)));
}

SearchResult EmbeddingDatabase::TopK(const nn::Vector& query, size_t k,
                                     int64_t exclude, ThreadPool* helpers,
                                     size_t max_helpers) const {
  obs::Span span("db/topk", topk_us_, nullptr);
  ReaderLock lock(mu_);
  if (!embeddings_.empty() && query.size() != dim_) {
    throw std::invalid_argument("EmbeddingDatabase::TopK: query dimension " +
                                std::to_string(query.size()) +
                                " != database dimension " +
                                std::to_string(dim_));
  }
  const size_t chunk_rows = ScanChunkRows(dim_);
  SearchResult result;
  if (helpers == nullptr || max_helpers == 0 ||
      embeddings_.size() <= chunk_rows) {
    result = EmbeddingTopK(embeddings_, query, k, exclude);
  } else {
    // The rows stay valid while helpers scan them: every claimed chunk
    // finishes before Wait() returns, and the reader lock is held until
    // then. A helper task that starts later finds no chunk left and only
    // touches the shared state it co-owns.
    auto scan = std::make_shared<ChunkedScan>(&embeddings_, &query, k,
                                              exclude, chunk_rows);
    const size_t tasks = std::min(
        {helpers->num_threads(), max_helpers, scan->num_chunks() - 1});
    for (size_t t = 0; t < tasks; ++t) {
      helpers->Submit([scan] { scan->Drain(); });
    }
    scan->Drain();
    result = scan->Wait();
  }
  return result;
}

SearchResult EmbeddingDatabase::TopK(const NeuTrajModel& model,
                                     const Trajectory& query, size_t k,
                                     int64_t exclude) const {
  return TopK(model.Embed(query), k, exclude);
}

SearchResult EmbeddingDatabase::TopKOf(const nn::Vector& query,
                                       const std::vector<size_t>& candidates,
                                       size_t k, int64_t exclude) const {
  obs::Span span("db/topk", topk_us_, nullptr);
  ReaderLock lock(mu_);
  if (!embeddings_.empty() && query.size() != dim_) {
    throw std::invalid_argument(
        "EmbeddingDatabase::TopKOf: query dimension " +
        std::to_string(query.size()) + " != database dimension " +
        std::to_string(dim_));
  }
  for (const size_t id : candidates) {
    if (id >= embeddings_.size()) {
      throw std::out_of_range("EmbeddingDatabase::TopKOf: candidate id " +
                              std::to_string(id) + " >= corpus size " +
                              std::to_string(embeddings_.size()));
    }
  }
  return EmbeddingTopKOf(embeddings_, query, candidates, k, exclude);
}

std::string EmbeddingDatabase::Serialize() const {
  ReaderLock lock(mu_);
  SectionWriter w(kDbKind);
  w.Add("shape", std::to_string(embeddings_.size()) + ' ' +
                     std::to_string(dim_) + ' ' + kBinaryCodec);
  ByteWriter data;
  data.Reserve(embeddings_.size() * dim_ * sizeof(double));
  for (const nn::Vector& e : embeddings_) {
    for (const double v : e) data.F64(v);
  }
  w.Add("embeddings", data.Take());
  return w.Finish();
}

void EmbeddingDatabase::Save(const std::string& path) const {
  WriteFileAtomic(path, Serialize());
}

EmbeddingDatabase EmbeddingDatabase::Deserialize(const std::string& contents,
                                                 const std::string& source) {
  const SectionReader r(contents, kDbKind, source);

  // "<count> <dim> le64" is the binary codec; "<count> <dim>" a legacy text
  // snapshot, still read so existing data dirs recover.
  const std::string& shape = r.Get("shape");
  const std::vector<std::string> tokens = Split(shape, ' ');
  const bool binary = tokens.size() == 3 && tokens[2] == kBinaryCodec;
  size_t count = 0, dim = 0, values = 0;
  if ((tokens.size() != 2 && !binary) || !ParseSize(tokens[0], &count) ||
      !ParseSize(tokens[1], &dim) || (count > 0 && dim == 0) ||
      !CheckedMul(count, dim, &values)) {
    throw CorruptionError(source, "shape", 0, "bad shape '" + shape + "'");
  }

  // The shape is checked against the payload before anything is sized from
  // it, so a hostile count is a CorruptionError, not a huge allocation.
  const std::string& payload = r.Get("embeddings");
  size_t bytes = 0;
  const bool fits = binary ? CheckedMul(values, sizeof(double), &bytes) &&
                                 bytes == payload.size()
                           : values <= payload.size();
  if (!fits) {
    throw CorruptionError(source, "embeddings", payload.size(),
                          "shape " + shape + " does not fit a payload of " +
                              std::to_string(payload.size()) + " bytes");
  }

  // Same shape as Build: parse into locals, publish under the writer lock.
  std::vector<nn::Vector> embeddings(count, nn::Vector(dim));
  if (binary) {
    ByteReader data(payload);
    for (nn::Vector& e : embeddings) {
      for (double& v : e) data.F64(&v);
      NEUTRAJ_DCHECK_FINITE(e);
    }
  } else {
    std::istringstream data(payload);
    for (size_t i = 0; i < embeddings.size(); ++i) {
      nn::Vector& e = embeddings[i];
      for (double& v : e) {
        if (!(data >> v)) {
          throw CorruptionError(source, "embeddings", i,
                                "truncated values (at embedding " +
                                    std::to_string(i) + " of " +
                                    std::to_string(count) + ")");
        }
      }
      NEUTRAJ_DCHECK_FINITE(e);
    }
  }
  EmbeddingDatabase db;
  {
    WriterLock lock(db.mu_);
    db.dim_ = dim;
    db.embeddings_ = std::move(embeddings);
  }
  db.corpus_size_->Set(static_cast<double>(count));
  return db;
}

EmbeddingDatabase EmbeddingDatabase::Load(const std::string& path) {
  return Deserialize(ReadFile(path), "EmbeddingDatabase::Load: " + path);
}

}  // namespace neutraj
