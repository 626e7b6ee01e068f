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
  proxy_top1_hits_ = &registry->GetCounter("retrieval/proxy_top1_hits");
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
  const IvfIndex::CandidateSet candidates =
      index_.Candidates(query, k, nprobe);
  probe_span.Stop();
  candidates_scanned_->Add(candidates.scanned);
  lists_probed_->Add(candidates.probed);
  queries_->Increment();

  obs::Span rerank_span("rerank", rerank_us_, trace);
  SearchResult result = db_->TopKOf(query, candidates.ids, k, exclude);
  rerank_span.Stop();
  // Recall proxy: candidates.ids is ascending by proxy distance, so its
  // front is the quantized tier's best guess; count how often the exact
  // re-rank agrees.
  if (!result.ids.empty() && !candidates.ids.empty() &&
      result.ids.front() == candidates.ids.front()) {
    proxy_top1_hits_->Increment();
  }
  return result;
}

}  // namespace neutraj::retrieval
