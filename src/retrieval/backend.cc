#include "retrieval/backend.h"

#include "obs/trace.h"

namespace neutraj::retrieval {

ExactBackend::ExactBackend(const EmbeddingDatabase* db, size_t threads)
    : db_(db),
      threads_(threads),
      helpers_(threads > 1 ? std::make_unique<ThreadPool>(threads - 1)
                           : nullptr) {}

SearchResult ExactBackend::TopK(const nn::Vector& query, size_t k,
                                int64_t exclude, size_t /*nprobe*/,
                                obs::RequestTrace* trace) {
  obs::Span scan_span("scan", nullptr, trace);
  const size_t callers = callers_.fetch_add(1, std::memory_order_relaxed) + 1;
  struct Leave {
    std::atomic<size_t>& n;
    ~Leave() { n.fetch_sub(1, std::memory_order_relaxed); }
  } leave{callers_};
  const size_t spare = callers < threads_ ? (threads_ - callers) / callers : 0;
  return db_->TopK(query, k, exclude, helpers_.get(), spare);
}

IvfBackend::IvfBackend(const EmbeddingDatabase* db, IvfIndex::Options options,
                       obs::MetricsRegistry* registry)
    : db_(db), index_(options) {
  AttachMetrics(registry != nullptr ? registry
                                    : &obs::MetricsRegistry::Global());
}

void IvfBackend::AttachMetrics(obs::MetricsRegistry* registry) {
  probe_us_ = &registry->GetHistogram("retrieval/probe_us");
  rerank_us_ = &registry->GetHistogram("retrieval/rerank_us");
  candidates_scanned_ = &registry->GetCounter("retrieval/candidates_scanned");
  lists_probed_ = &registry->GetCounter("retrieval/lists_probed");
  queries_ = &registry->GetCounter("retrieval/queries");
}

void IvfBackend::Build(size_t threads) {
  index_.Build(db_->embeddings(), threads);
}

void IvfBackend::NotifyInsert(size_t id, const nn::Vector& embedding) {
  index_.Insert(id, embedding);
}

SearchResult IvfBackend::TopK(const nn::Vector& query, size_t k,
                              int64_t exclude, size_t nprobe,
                              obs::RequestTrace* trace) {
  obs::Span probe_span("probe", probe_us_, trace);
  const std::vector<size_t> lists = index_.Probe(query, nprobe);
  probe_span.Stop();

  obs::Span rerank_span("rerank", rerank_us_, trace);
  size_t scanned = 0;
  SearchResult result = index_.TopK(*db_, query, lists, k, exclude, &scanned);
  rerank_span.Stop();
  candidates_scanned_->Add(scanned);
  lists_probed_->Add(lists.size());
  queries_->Increment();
  return result;
}

}  // namespace neutraj::retrieval
