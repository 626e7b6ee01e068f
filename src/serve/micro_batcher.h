// Micro-batched trajectory encoding for the query server.
//
// Every serving endpoint that needs an embedding (Encode, PairSim, TopK,
// Insert) funnels through one MicroBatcher instead of calling
// NeuTrajModel::Embed directly. Callers enqueue whole groups of
// trajectories and block on one future per group; a dedicated batcher
// thread takes up to `max_batch` queued items the moment any exist and
// executes them across a persistent ThreadPool with one CellWorkspace per
// worker. Items that arrive while a batch runs queue up and form the next
// batch, so there is no timer: an idle batcher dispatches at once, and a
// loaded one batches exactly what queued behind the running batch. Under
// load this amortizes wake-ups, scheduling, synchronization, and workspace
// locality over many requests. The per-group (not per-item) promise
// matters on the hot path: a pipelined 64-request burst costs one future,
// not 64.
//
// Batching is an execution detail, not a semantic one: each trajectory is
// embedded independently with read-only inference, so results are
// bit-for-bit identical to a direct Embed() no matter how requests get
// grouped or split across batches.

#ifndef NEUTRAJ_SERVE_MICRO_BATCHER_H_
#define NEUTRAJ_SERVE_MICRO_BATCHER_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/sync.h"
#include "common/thread_pool.h"
#include "core/model.h"
#include "nn/workspace.h"
#include "obs/metrics.h"
#include "obs/reqtrace.h"

namespace neutraj::serve {

/// Coalesces queued encode requests into ThreadPool-executed batches.
class MicroBatcher {
 public:
  struct Options {
    size_t threads = 1;     ///< ThreadPool workers per batch.
    size_t max_batch = 32;  ///< Hard cap on one batch's size.
    /// Where batcher metrics register: serve/batcher/requests (trajectories
    /// submitted), serve/batcher/batches (batches executed) and
    /// serve/batcher/batch_size (items per batch; its max is the largest
    /// batch). They are the batcher's only counts. nullptr = the
    /// process-global registry; QueryService points this at its own
    /// instance.
    obs::MetricsRegistry* registry = nullptr;
  };

  /// Outcome of one submitted group. embeddings[i] is valid iff
  /// errors[i].empty(); bad_input[i] != 0 marks failures caused by the
  /// trajectory itself (invalid_argument) rather than internal errors, so
  /// the service can map them to the right error code.
  struct BatchResult {
    std::vector<nn::Vector> embeddings;
    std::vector<std::string> errors;
    std::vector<uint8_t> bad_input;
  };

  /// The model must use read-only inference (throws std::logic_error when
  /// cfg.update_memory_at_inference is set, mirroring EmbedAllParallel).
  MicroBatcher(const NeuTrajModel& model, const Options& opts);

  /// Drains the queue (pending futures complete), then joins.
  ~MicroBatcher();

  MicroBatcher(const MicroBatcher&) = delete;
  MicroBatcher& operator=(const MicroBatcher&) = delete;

  /// Enqueues a group of trajectories; the future yields one BatchResult
  /// for the whole group once every item has been embedded. Items of one
  /// group may be split across batches (and coalesced with other groups)
  /// freely. Per-item failures land in BatchResult::errors, never as a
  /// future exception. Throws std::runtime_error after Shutdown().
  ///
  /// `traces` (optional) carries one obs::RequestTrace* per trajectory
  /// (nullptr entries fine, shorter vectors padded): sampled items get
  /// "queue_wait" and "encode" spans recorded from the worker threads. The
  /// pointed-to traces must stay alive until the future resolves — the
  /// caller holds them across .get(), so raw pointers are safe here.
  std::future<BatchResult> SubmitBatch(
      std::vector<Trajectory> trajs,
      std::vector<obs::RequestTrace*> traces = {}) NEUTRAJ_EXCLUDES(mu_);

  /// Submit-one + wait: the blocking form used by simple handlers. Per-item
  /// failure is rethrown (std::invalid_argument for bad input).
  nn::Vector Encode(const Trajectory& traj,
                    obs::RequestTrace* trace = nullptr) NEUTRAJ_EXCLUDES(mu_);

  /// Stops accepting work, finishes everything queued, joins the batcher
  /// thread. Idempotent; also run by the destructor.
  void Shutdown() NEUTRAJ_EXCLUDES(mu_, join_mu_);

 private:
  /// One submitted group; shared by its queued items, completed (promise
  /// fulfilled) by whichever worker finishes the last item.
  struct Group {
    std::vector<Trajectory> trajs;
    /// Parallel to trajs; nullptr = item not traced. Borrowed from the
    /// submitter, valid until the promise fires.
    std::vector<obs::RequestTrace*> traces;
    /// Trace-relative submit time per item — the "queue_wait" span start.
    std::vector<double> submit_us;
    BatchResult result;
    std::atomic<size_t> remaining{0};
    std::promise<BatchResult> promise;
  };

  struct Item {
    std::shared_ptr<Group> group;
    size_t index = 0;
  };

  void BatcherLoop() NEUTRAJ_EXCLUDES(mu_);
  void RunBatch(std::vector<Item>* batch);

  const NeuTrajModel& model_;
  const Options opts_;

  Mutex mu_{lock_rank::kBatcher};
  Mutex join_mu_{lock_rank::kBatcherJoin};  ///< Serializes Shutdown()'s join.
  CondVar work_ready_;
  std::deque<Item> queue_ NEUTRAJ_GUARDED_BY(mu_);
  bool shutdown_ NEUTRAJ_GUARDED_BY(mu_) = false;

  // Registry-owned metrics, resolved once in the constructor.
  obs::ConcurrentHistogram* batch_size_hist_;
  obs::Counter* requests_counter_;
  obs::Counter* batches_counter_;

  // Batch execution resources, touched only by the batcher thread.
  ThreadPool pool_;
  std::vector<nn::CellWorkspace> workspaces_;

  // Written once by the constructor before any other thread exists, joined
  // under join_mu_; not lock-annotated because the constructor-time write
  // needs no lock.
  std::thread batcher_;
};

}  // namespace neutraj::serve

#endif  // NEUTRAJ_SERVE_MICRO_BATCHER_H_
