#include "serve/micro_batcher.h"

#include <algorithm>
#include <stdexcept>

#include "obs/trace.h"

namespace neutraj::serve {

MicroBatcher::MicroBatcher(const NeuTrajModel& model, const Options& opts)
    : model_(model),
      opts_(opts),
      pool_(std::max<size_t>(1, opts.threads)),
      workspaces_(std::max<size_t>(1, opts.threads)) {
  obs::MetricsRegistry& reg = opts_.registry != nullptr
                                  ? *opts_.registry
                                  : obs::MetricsRegistry::Global();
  batch_size_hist_ = &reg.GetHistogram("serve/batcher/batch_size");
  requests_counter_ = &reg.GetCounter("serve/batcher/requests");
  batches_counter_ = &reg.GetCounter("serve/batcher/batches");
  if (model.config().update_memory_at_inference) {
    throw std::logic_error(
        "MicroBatcher: memory-updating inference cannot be batched across "
        "threads");
  }
  if (opts_.max_batch == 0) {
    throw std::invalid_argument("MicroBatcher: max_batch must be >= 1");
  }
  batcher_ = std::thread([this] { BatcherLoop(); });
}

MicroBatcher::~MicroBatcher() { Shutdown(); }

std::future<MicroBatcher::BatchResult> MicroBatcher::SubmitBatch(
    std::vector<Trajectory> trajs, std::vector<obs::RequestTrace*> traces) {
  auto group = std::make_shared<Group>();
  group->trajs = std::move(trajs);
  const size_t n = group->trajs.size();
  group->traces = std::move(traces);
  group->traces.resize(n, nullptr);
  group->submit_us.resize(n, 0.0);
  for (size_t i = 0; i < n; ++i) {
    if (group->traces[i] != nullptr) {
      group->submit_us[i] = group->traces[i]->ElapsedMicros();
    }
  }
  group->result.embeddings.resize(n);
  group->result.errors.resize(n);
  group->result.bad_input.resize(n, 0);
  group->remaining.store(n);
  std::future<BatchResult> fut = group->promise.get_future();
  if (n == 0) {
    group->promise.set_value(std::move(group->result));
    return fut;
  }
  {
    MutexLock lock(mu_);
    if (shutdown_) {
      throw std::runtime_error("MicroBatcher: submit after shutdown");
    }
    for (size_t i = 0; i < n; ++i) queue_.push_back(Item{group, i});
  }
  requests_counter_->Add(n);
  work_ready_.NotifyOne();
  return fut;
}

nn::Vector MicroBatcher::Encode(const Trajectory& traj,
                                obs::RequestTrace* trace) {
  std::vector<Trajectory> one;
  one.push_back(traj);
  BatchResult r = SubmitBatch(std::move(one), {trace}).get();
  if (!r.errors[0].empty()) {
    if (r.bad_input[0] != 0) throw std::invalid_argument(r.errors[0]);
    throw std::runtime_error(r.errors[0]);
  }
  return std::move(r.embeddings[0]);
}

void MicroBatcher::Shutdown() {
  {
    MutexLock lock(mu_);
    shutdown_ = true;
  }
  work_ready_.NotifyAll();
  MutexLock join_lock(join_mu_);
  if (batcher_.joinable()) batcher_.join();
}

void MicroBatcher::BatcherLoop() {
  std::vector<Item> batch;
  while (true) {
    batch.clear();
    size_t take = 0;
    {
      MutexLock lock(mu_);
      while (!shutdown_ && queue_.empty()) work_ready_.Wait(mu_);
      if (queue_.empty() && shutdown_) return;
      take = std::min(queue_.size(), opts_.max_batch);
      batch.reserve(take);
      for (size_t i = 0; i < take; ++i) {
        batch.push_back(std::move(queue_.front()));
        queue_.pop_front();
      }
    }
    batches_counter_->Increment();
    batch_size_hist_->Record(static_cast<double>(take));
    RunBatch(&batch);
  }
}

void MicroBatcher::RunBatch(std::vector<Item>* batch) {
  const size_t n = batch->size();
  // Per-item execution with per-item error capture: one bad trajectory
  // (e.g. empty) fails only its own BatchResult slot, never the whole
  // group. Workers write disjoint indices; the group's promise fires when
  // the last item — possibly in a later batch — lands.
  auto run_item = [this](Item* item, nn::CellWorkspace* ws) {
    Group& g = *item->group;
    const size_t i = item->index;
    obs::RequestTrace* trace = g.traces[i];
    if (trace != nullptr) {
      // queue_wait = submit → the moment a worker picks the item up. The
      // span is recorded from this worker, so its tid names who dequeued.
      trace->Record("queue_wait", g.submit_us[i],
                    trace->ElapsedMicros() - g.submit_us[i]);
    }
    obs::Span encode_span("encode", nullptr, trace);
    try {
      g.result.embeddings[i] = model_.Embed(g.trajs[i], ws);
    } catch (const std::invalid_argument& e) {
      g.result.errors[i] = e.what();
      g.result.bad_input[i] = 1;
    } catch (const std::exception& e) {
      g.result.errors[i] = e.what();
    }
    // The span must close BEFORE the promise can fire: once set_value runs,
    // the submitter may wake and hand the trace to RequestTracer::Finish,
    // and a late Record would race the finalize read.
    encode_span.Stop();
    if (g.remaining.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      g.promise.set_value(std::move(g.result));
    }
  };

  const size_t workers = std::min(workspaces_.size(), n);
  if (workers <= 1) {
    for (Item& item : *batch) run_item(&item, &workspaces_[0]);
    return;
  }
  // Contiguous chunks, one workspace per chunk; ThreadPool::Wait is a
  // barrier, so workspaces are never shared across batches either.
  const size_t chunk = (n + workers - 1) / workers;
  size_t widx = 0;
  for (size_t start = 0; start < n; start += chunk, ++widx) {
    const size_t end = std::min(start + chunk, n);
    nn::CellWorkspace* ws = &workspaces_[widx];
    Item* items = batch->data();
    pool_.Submit([run_item, items, start, end, ws] {
      for (size_t i = start; i < end; ++i) run_item(&items[i], ws);
    });
  }
  pool_.Wait();
}

}  // namespace neutraj::serve
