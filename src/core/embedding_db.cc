#include "core/embedding_db.h"

#include <charconv>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <system_error>

#include "common/byte_codec.h"
#include "common/check.h"
#include "common/errors.h"
#include "common/file_util.h"
#include "common/framing.h"
#include "common/stopwatch.h"
#include "common/string_util.h"

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
  Stopwatch sw;
  // Encode into locals, then publish under the writer lock: the database is
  // not shared yet, but static member functions are inside the thread-safety
  // analysis boundary, so the guarded members are only touched while their
  // capability is held.
  std::vector<nn::Vector> embeddings = threads > 1
                                           ? model.EmbedAllParallel(corpus, threads)
                                           : model.EmbedAll(corpus);
  const size_t dim = embeddings.empty() ? 0 : embeddings.front().size();
  const size_t count = embeddings.size();
  EmbeddingDatabase db;
  {
    WriterLock lock(db.mu_);
    db.embeddings_ = std::move(embeddings);
    db.dim_ = dim;
  }
  db.build_us_->Record(sw.ElapsedMillis() * 1e3);
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
  Stopwatch sw;
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
  insert_us_->Record(sw.ElapsedMillis() * 1e3);
  corpus_size_->Set(static_cast<double>(new_size));
  return id;
}

size_t EmbeddingDatabase::Insert(const NeuTrajModel& model,
                                 const Trajectory& traj) {
  // Embed before taking the writer lock: encoding is the expensive part and
  // must not serialize against concurrent readers.
  return Insert(model.Embed(traj));
}

SearchResult EmbeddingDatabase::TopK(const nn::Vector& query, size_t k,
                                     int64_t exclude) const {
  Stopwatch sw;
  ReaderLock lock(mu_);
  if (!embeddings_.empty() && query.size() != dim_) {
    throw std::invalid_argument("EmbeddingDatabase::TopK: query dimension " +
                                std::to_string(query.size()) +
                                " != database dimension " +
                                std::to_string(dim_));
  }
  // EmbeddingTopK resolves distance ties by ascending id (see
  // core/search.cc TopKImpl), so results are deterministic for a fixed
  // corpus state regardless of duplicate embeddings.
  SearchResult result = EmbeddingTopK(embeddings_, query, k, exclude);
  topk_us_->Record(sw.ElapsedMillis() * 1e3);
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
  Stopwatch sw;
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
  SearchResult result = EmbeddingTopKOf(embeddings_, query, candidates, k,
                                        exclude);
  topk_us_->Record(sw.ElapsedMillis() * 1e3);
  return result;
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
