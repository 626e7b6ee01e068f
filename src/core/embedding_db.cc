#include "core/embedding_db.h"

#include <algorithm>
#include <atomic>
#include <charconv>
#include <cmath>
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
#include "retrieval/kernels.h"

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
constexpr size_t kBlockRows = retrieval::kCodeBlockRows;
/// Relative slack on the bound's squared comparison. It covers the few ulps
/// the bound's own arithmetic and the exact sums can lose, many orders of
/// magnitude over, and costs no measurable pruning.
constexpr double kSlack = 1.0 + 1e-9;

/// Folds `row` into the per-dimension max magnitudes the quantizer trains
/// on, and returns false when the row holds a non-finite value. Build and
/// Deserialize call it on each row as they produce it, so the finiteness
/// check costs no pass of its own.
bool FoldMaxAbs(const nn::Vector& row, std::vector<double>* max_abs) {
  bool finite = true;
  for (size_t d = 0; d < row.size(); ++d) {
    const double a = std::fabs(row[d]);
    finite &= a <= std::numeric_limits<double>::max();
    (*max_abs)[d] = std::max((*max_abs)[d], a);
  }
  return finite;
}

/// The quantizer of `count` rows with per-dimension max magnitudes
/// `max_abs`; untrained, so no index, for no rows.
retrieval::Int8Quantizer TrainQuantizer(size_t count,
                                        const std::vector<double>& max_abs) {
  return count == 0 ? retrieval::Int8Quantizer()
                    : retrieval::Int8Quantizer::FromMaxAbs(max_abs);
}

/// One query's scan into heaps: bounded by an int8 index (see
/// embedding_db.h), or exact over every row when there is no quantizer or
/// the query is not finite. Each Run may be called from several threads on
/// disjoint rows, each with its own heap; they share τ.
class BoundedScan {
 public:
  /// `quantizer` (nullable) encoded the codes every Run reads.
  BoundedScan(const std::vector<nn::Vector>& rows, const nn::Vector& query,
              int64_t exclude, const retrieval::Int8Quantizer* quantizer)
      : rows_(rows),
        query_(query),
        exclude_(exclude),
        skip_(exclude >= 0 ? static_cast<size_t>(exclude)
                           : std::numeric_limits<size_t>::max()) {
    if (quantizer != nullptr && quantizer->trained() &&
        check_internal::AllFinite(query)) {
      std::vector<int8_t> code(query.size());
      query_error_ = quantizer->EncodeWithError(query.data(), code.data());
      q_pairs_ = retrieval::PackDimensionPairs(code.data(), code.size());
      w_pairs_ = retrieval::PackDimensionPairs(
          quantizer->bound_weights().data(), code.size());
      c_ = quantizer->bound_scale();
      slack_over_c_ = kSlack / c_;
    }
  }

  /// Scans rows [begin, end) of the database, whose codes are `codes`, into
  /// `heap`; `begin` is a multiple of 8. Ids ascend, so a row can drop out
  /// on its squared distance before its sqrt.
  void Run(const retrieval::CodeBlocks& codes, size_t begin, size_t end,
           TopKHeap* heap) {
    if (q_pairs_.empty()) {
      ScanTopK(rows_, query_, begin, end, exclude_, heap);
      scored_.fetch_add(end - begin, std::memory_order_relaxed);
      return;
    }
    const size_t dim = query_.size();
    const size_t skip = skip_;
    heap->Reserve(end - begin);
    size_t scored = 0;
    ForAdmitted(codes, begin, end, *heap, [&](size_t i) {
      if (i == skip) return;
      heap->OfferScanned(
          retrieval::ExactSquaredL2(rows_[i].data(), query_.data(), dim), i);
      ++scored;
    });
    scored_.fetch_add(scored, std::memory_order_relaxed);
  }

  /// Scans the rows of one IVF list into `heap`. Its ids may come in any
  /// order, so every admitted row takes its sqrt and competes by
  /// (distance, id).
  void Run(const retrieval::CodeList& list, TopKHeap* heap) {
    const size_t dim = query_.size();
    size_t scored = 0;
    const auto admit = [&](size_t i) {
      const size_t id = list.ids[i];
      if (id == skip_) return;
      if (id >= rows_.size()) {
        throw std::out_of_range("EmbeddingDatabase::TopKOfLists: id " +
                                std::to_string(id) + " >= corpus size " +
                                std::to_string(rows_.size()));
      }
      heap->OfferAnyOrder(
          retrieval::ExactSquaredL2(rows_[id].data(), query_.data(), dim), id);
      ++scored;
    };
    if (q_pairs_.empty()) {
      for (size_t i = 0; i < list.ids.size(); ++i) admit(i);
    } else {
      ForAdmitted(list.codes, 0, list.ids.size(), *heap, admit);
    }
    scored_.fetch_add(scored, std::memory_order_relaxed);
  }

  /// Rows given their exact distance so far, over every Run.
  size_t scored() const { return scored_.load(std::memory_order_relaxed); }

 private:
  /// Calls admit(i) for each row i in [begin, end) of `codes` whose bound
  /// does not exceed τ, the smaller of `heap`'s bound and what any Run has
  /// published; `begin` is a multiple of 8. Publishes `heap`'s bound after
  /// each block.
  template <typename Admit>
  void ForAdmitted(const retrieval::CodeBlocks& codes, size_t begin,
                   size_t end, const TopKHeap& heap, Admit&& admit) {
    const double c = c_;
    int64_t sums[kBlockRows];
    double published = std::numeric_limits<double>::infinity();
    for (size_t first = begin; first < end; first += kBlockRows) {
      const size_t b = first / kBlockRows;
      // ‖q − x‖ ≥ sqrt(c · D′) − e_q − e_x, so a row can only enter when
      // c · D′ ≤ (τ + e_q + e_x)²: `reach` is τ + e_q.
      const double reach =
          std::min(heap.Bound(), tau_.load(std::memory_order_relaxed)) +
          query_error_;
      if (!retrieval::BlockCodeSquaredL2(codes.block(b), q_pairs_.data(),
                                         w_pairs_.data(), q_pairs_.size(),
                                         Limit(reach + codes.block_error(b)),
                                         sums)) {
        continue;
      }
      const size_t last = std::min(first + kBlockRows, end);
      for (size_t i = first; i < last; ++i) {
        const double r = reach + codes.error(i);
        if (c * static_cast<double>(sums[i - first]) <= r * r * kSlack) {
          admit(i);
        }
      }
      if (heap.Bound() < published) {
        published = heap.Bound();
        double tau = tau_.load(std::memory_order_relaxed);
        while (published < tau &&
               !tau_.compare_exchange_weak(tau, published,
                                           std::memory_order_relaxed)) {
        }
      }
    }
  }

  /// The largest integer sum D′ with c · D′ ≤ reach² · kSlack: a block
  /// whose rows' sums all exceed it is out. Saturates, so an infinite reach
  /// prunes nothing.
  int64_t Limit(double reach) const {
    const double limit = reach * reach * slack_over_c_;
    return limit < 0x1p62 ? static_cast<int64_t>(limit)
                          : std::numeric_limits<int64_t>::max();
  }

  const std::vector<nn::Vector>& rows_;
  const nn::Vector& query_;
  int64_t exclude_;
  size_t skip_;                   ///< exclude_ as an id; SIZE_MAX for none.
  std::vector<int32_t> q_pairs_;  ///< The query's code; empty: no bound.
  std::vector<int32_t> w_pairs_;  ///< The bound's weights, packed in pairs.
  double query_error_ = 0.0;      ///< e_q, rounded up.
  double c_ = 0.0;                ///< The bound's scale c.
  double slack_over_c_ = 0.0;     ///< kSlack / c.
  /// The smallest k-th distance any range has reached so far.
  std::atomic<double> tau_{std::numeric_limits<double>::infinity()};
  std::atomic<size_t> scored_{0};
};

/// One chunked TopK scan: the row ranges, the counter the caller and its
/// helpers claim them from, and one heap per chunk, written only by the
/// thread that claimed the chunk and read by the caller once `done_`
/// counts it.
class ChunkedScan {
 public:
  ChunkedScan(const std::vector<nn::Vector>& rows, const nn::Vector& query,
              size_t k, int64_t exclude,
              const retrieval::Int8Quantizer* quantizer,
              const retrieval::CodeBlocks& codes, size_t chunk_rows)
      : scan_(rows, query, exclude, quantizer),
        codes_(codes),
        num_rows_(rows.size()),
        chunk_rows_(chunk_rows),
        chunks_((rows.size() + chunk_rows - 1) / chunk_rows),
        heaps_(chunks_, TopKHeap(k)),
        errors_(chunks_) {}

  size_t num_chunks() const { return chunks_; }
  const BoundedScan& scan() const { return scan_; }

  /// Claims and scans chunks until none is left. Never throws: a chunk's
  /// exception is kept for Wait() so that `done_` always reaches chunks_.
  void Drain() {
    for (size_t c = next_.fetch_add(1, std::memory_order_relaxed); c < chunks_;
         c = next_.fetch_add(1, std::memory_order_relaxed)) {
      const size_t begin = c * chunk_rows_;
      const size_t end = std::min(begin + chunk_rows_, num_rows_);
      try {
        scan_.Run(codes_, begin, end, &heaps_[c]);
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
  BoundedScan scan_;
  const retrieval::CodeBlocks& codes_;
  size_t num_rows_;
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
      quantizer_(std::move(other.quantizer_)),
      codes_(std::move(other.codes_)),
      build_us_(other.build_us_),
      insert_us_(other.insert_us_),
      topk_us_(other.topk_us_),
      topk_scored_rows_(other.topk_scored_rows_),
      corpus_size_(other.corpus_size_) {}

EmbeddingDatabase& EmbeddingDatabase::operator=(
    EmbeddingDatabase&& other) noexcept NEUTRAJ_NO_THREAD_SAFETY_ANALYSIS {
  if (this != &other) {
    dim_ = other.dim_;
    embeddings_ = std::move(other.embeddings_);
    quantizer_ = std::move(other.quantizer_);
    codes_ = std::move(other.codes_);
    build_us_ = other.build_us_;
    insert_us_ = other.insert_us_;
    topk_us_ = other.topk_us_;
    topk_scored_rows_ = other.topk_scored_rows_;
    corpus_size_ = other.corpus_size_;
  }
  return *this;
}

void EmbeddingDatabase::AttachMetrics(obs::MetricsRegistry* registry) {
  build_us_ = &registry->GetHistogram("db/build_us");
  insert_us_ = &registry->GetHistogram("db/insert_us");
  topk_us_ = &registry->GetHistogram("db/topk_us");
  topk_scored_rows_ = &registry->GetCounter("db/topk_scored_rows");
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
  std::vector<double> max_abs(dim);
  for (size_t i = 0; i < count; ++i) {
    if (!FoldMaxAbs(embeddings[i], &max_abs)) {
      throw std::invalid_argument("EmbeddingDatabase::Build: trajectory " +
                                  std::to_string(i) +
                                  " embeds to a non-finite value");
    }
  }
  retrieval::Int8Quantizer quantizer = TrainQuantizer(count, max_abs);
  retrieval::CodeBlocks codes =
      retrieval::CodeBlocks::Encode(quantizer, embeddings, threads);
  {
    WriterLock lock(db.mu_);
    db.embeddings_ = std::move(embeddings);
    db.dim_ = dim;
    db.quantizer_ = std::move(quantizer);
    db.codes_ = std::move(codes);
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
  if (!check_internal::AllFinite(embedding)) {
    throw std::invalid_argument(
        "EmbeddingDatabase::Insert: non-finite embedding value");
  }
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
    if (quantizer_.trained()) codes_.Append(quantizer_, embeddings_.back());
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
  const size_t rows =
      kScanChunkBytes / (std::max<size_t>(dim, 1) * sizeof(double));
  return std::max(kBlockRows, rows / kBlockRows * kBlockRows);
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
    BoundedScan scan(embeddings_, query, exclude, &quantizer_);
    TopKHeap heap(k);
    scan.Run(codes_, 0, embeddings_.size(), &heap);
    result = heap.Take();
    topk_scored_rows_->Add(scan.scored());
  } else {
    // The rows and codes stay valid while helpers scan them: every claimed
    // chunk finishes before Wait() returns, and the reader lock is held
    // until then. A helper task that starts later finds no chunk left and
    // only touches the shared state it co-owns.
    auto scan = std::make_shared<ChunkedScan>(
        embeddings_, query, k, exclude, &quantizer_, codes_, chunk_rows);
    const size_t tasks = std::min(
        {helpers->num_threads(), max_helpers, scan->num_chunks() - 1});
    for (size_t t = 0; t < tasks; ++t) {
      helpers->Submit([scan] { scan->Drain(); });
    }
    scan->Drain();
    result = scan->Wait();
    topk_scored_rows_->Add(scan->scan().scored());
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

SearchResult EmbeddingDatabase::TopKOfLists(
    const nn::Vector& query, size_t k, int64_t exclude,
    const retrieval::Int8Quantizer& quantizer,
    const std::vector<const retrieval::CodeList*>& lists) const {
  obs::Span span("db/topk", topk_us_, nullptr);
  ReaderLock lock(mu_);
  if (query.size() != quantizer.dim()) {
    throw std::invalid_argument(
        "EmbeddingDatabase::TopKOfLists: query dimension " +
        std::to_string(query.size()) + " != quantizer dimension " +
        std::to_string(quantizer.dim()));
  }
  BoundedScan scan(embeddings_, query, exclude, &quantizer);
  TopKHeap heap(k);
  for (const retrieval::CodeList* list : lists) scan.Run(*list, &heap);
  topk_scored_rows_->Add(scan.scored());
  return heap.Take();
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
                                                 const std::string& source,
                                                 size_t threads) {
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
  std::vector<double> max_abs(dim);
  const auto check_finite = [&](size_t i, size_t offset) {
    if (!FoldMaxAbs(embeddings[i], &max_abs)) {
      throw CorruptionError(source, "embeddings", offset,
                            "non-finite value in embedding " +
                                std::to_string(i));
    }
  };
  if (binary) {
    ByteReader data(payload);
    for (size_t i = 0; i < embeddings.size(); ++i) {
      for (double& v : embeddings[i]) data.F64(&v);
      check_finite(i, i * dim * sizeof(double));
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
      check_finite(i, i);
    }
  }
  retrieval::Int8Quantizer quantizer = TrainQuantizer(count, max_abs);
  retrieval::CodeBlocks codes =
      retrieval::CodeBlocks::Encode(quantizer, embeddings, threads);
  EmbeddingDatabase db;
  {
    WriterLock lock(db.mu_);
    db.dim_ = dim;
    db.embeddings_ = std::move(embeddings);
    db.quantizer_ = std::move(quantizer);
    db.codes_ = std::move(codes);
  }
  db.corpus_size_->Set(static_cast<double>(count));
  return db;
}

EmbeddingDatabase EmbeddingDatabase::Load(const std::string& path,
                                           size_t threads) {
  return Deserialize(ReadFile(path), "EmbeddingDatabase::Load: " + path,
                     threads);
}

}  // namespace neutraj
