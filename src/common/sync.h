// Compile-time lock discipline for every locked subsystem.
//
// Two enforcement layers, one header:
//
//   1. Clang Thread Safety Analysis (static, every clang build). The
//      NEUTRAJ_GUARDED_BY / NEUTRAJ_REQUIRES / ... macros attach clang's
//      `-Wthread-safety` capability attributes to mutexes, guarded state and
//      lock-taking functions, so an unlocked access to guarded state or a
//      REQUIRES-taking call without the lock is a *compile error* under
//      `-Wthread-safety -Werror` (the CI thread-safety job; no-ops under
//      gcc). The negative-compile suite in tests/negcompile/ pins each
//      annotation as load-bearing.
//
//   2. Runtime lock-rank deadlock detection (dynamic, NEUTRAJ_CHECKS builds
//      only). TSA proves per-mutex discipline but cannot see cross-mutex
//      *ordering*; a Mutex/SharedMutex constructed with a rank participates
//      in a per-thread held-rank stack, and acquiring a lock whose rank is
//      not strictly greater than every rank already held fires the fatal
//      NEUTRAJ_ASSERT path (flight-recorder dump included) at the first
//      out-of-order acquisition — no actual deadlock interleaving required.
//      Release builds compile the rank bookkeeping out entirely
//      (kLockRankChecksEnabled is false and every call sits behind
//      `if constexpr`), so the wrappers cost exactly one std::mutex.
//
// Global rank table (strictly ascending acquisition order; a thread may
// only acquire a lock of higher rank than everything it already holds):
//
//   rank  holder                              constant
//   ----  ----------------------------------  -----------------------
//      5  serve::Server wait_mu_              lock_rank::kServerWait
//     10  serve::Server conn_mu_              lock_rank::kConn
//     20  serve::MicroBatcher mu_             lock_rank::kBatcher
//     21  serve::MicroBatcher join_mu_        lock_rank::kBatcherJoin
//     30  store::DurableStore mu_             lock_rank::kStore
//     35  retrieval::IvfIndex mu_             lock_rank::kRetrieval
//     40  EmbeddingDatabase mu_               lock_rank::kDb
//     49  obs::RequestTracer mu_              lock_rank::kReqTrace
//     50  obs::MetricsRegistry mu_            lock_rank::kObs
//     51  obs::JsonlSink mu_                  lock_rank::kObsSink
//     60  ThreadPool mu_                      lock_rank::kThreadPool
//
// kRetrieval sits below kDb because IvfIndex::TopK holds its reader lock
// while the list scan enters the EmbeddingDatabase reader lock.
//
// (obs::FlightRecorder's mutex is deliberately *unranked*: it is a leaf
// acquired from the NEUTRAJ_ASSERT failure hook while the process is dying,
// where a rank violation report would recurse into the hook itself.)
//
// Raw std::mutex / std::lock_guard / std::unique_lock are banned outside
// this file by tools/lint.sh rule 7 — all locking flows through these
// wrappers so both enforcement layers see every acquisition.

#ifndef NEUTRAJ_COMMON_SYNC_H_
#define NEUTRAJ_COMMON_SYNC_H_

#include <condition_variable>
#include <mutex>
#include <shared_mutex>

// ---------------------------------------------------------------------------
// Clang Thread Safety Analysis attribute macros. Modeled on the reference
// capability spellings (clang >= 3.6); no-ops under every other compiler.
// ---------------------------------------------------------------------------

#if defined(__clang__)
#define NEUTRAJ_THREAD_ANNOTATION__(x) __attribute__((x))
#else
#define NEUTRAJ_THREAD_ANNOTATION__(x)  // Not clang: annotations vanish.
#endif

/// Declares a class to be a lockable capability (goes between `class` and
/// the class name).
#define NEUTRAJ_CAPABILITY(x) NEUTRAJ_THREAD_ANNOTATION__(capability(x))

/// Declares an RAII class whose constructor acquires and destructor
/// releases a capability.
#define NEUTRAJ_SCOPED_CAPABILITY NEUTRAJ_THREAD_ANNOTATION__(scoped_lockable)

/// Member data that may only be touched while `x` is held (reads need at
/// least a shared hold, writes an exclusive one).
#define NEUTRAJ_GUARDED_BY(x) NEUTRAJ_THREAD_ANNOTATION__(guarded_by(x))

/// Pointer member whose *pointee* may only be touched while `x` is held.
#define NEUTRAJ_PT_GUARDED_BY(x) NEUTRAJ_THREAD_ANNOTATION__(pt_guarded_by(x))

/// Function that must be called with the capability held exclusively.
#define NEUTRAJ_REQUIRES(...) \
  NEUTRAJ_THREAD_ANNOTATION__(requires_capability(__VA_ARGS__))

/// Function that must be called with at least a shared hold.
#define NEUTRAJ_REQUIRES_SHARED(...) \
  NEUTRAJ_THREAD_ANNOTATION__(requires_shared_capability(__VA_ARGS__))

/// Function that acquires the capability exclusively and does not release it.
#define NEUTRAJ_ACQUIRE(...) \
  NEUTRAJ_THREAD_ANNOTATION__(acquire_capability(__VA_ARGS__))

/// Function that acquires the capability shared and does not release it.
#define NEUTRAJ_ACQUIRE_SHARED(...) \
  NEUTRAJ_THREAD_ANNOTATION__(acquire_shared_capability(__VA_ARGS__))

/// Function that releases a held capability (exclusive or shared when
/// called with no argument on a scoped capability's destructor).
#define NEUTRAJ_RELEASE(...) \
  NEUTRAJ_THREAD_ANNOTATION__(release_capability(__VA_ARGS__))

/// Function that releases a shared hold.
#define NEUTRAJ_RELEASE_SHARED(...) \
  NEUTRAJ_THREAD_ANNOTATION__(release_shared_capability(__VA_ARGS__))

/// Function that may acquire the capability, returning `b` on success.
#define NEUTRAJ_TRY_ACQUIRE(...) \
  NEUTRAJ_THREAD_ANNOTATION__(try_acquire_capability(__VA_ARGS__))

/// Function that must be called *without* the capability held (deadlock
/// guard for public entry points of self-locking classes).
#define NEUTRAJ_EXCLUDES(...) \
  NEUTRAJ_THREAD_ANNOTATION__(locks_excluded(__VA_ARGS__))

/// Function returning a reference to the capability guarding its class.
#define NEUTRAJ_RETURN_CAPABILITY(x) \
  NEUTRAJ_THREAD_ANNOTATION__(lock_returned(x))

/// Escape hatch: disables the analysis for one function. Every use must
/// carry a comment justifying why the access is safe without the lock —
/// blanket suppressions do not pass review (see DESIGN.md "Locking model").
#define NEUTRAJ_NO_THREAD_SAFETY_ANALYSIS \
  NEUTRAJ_THREAD_ANNOTATION__(no_thread_safety_analysis)

namespace neutraj {

// ---------------------------------------------------------------------------
// Lock ranks. Strictly ascending acquisition order; see the table above.
// ---------------------------------------------------------------------------

namespace lock_rank {

/// Sentinel: the mutex opts out of rank checking (leaf locks acquired from
/// contexts where ordering is externally guaranteed, e.g. the crash path).
inline constexpr int kNoRank = -1;

inline constexpr int kServerWait = 5;   ///< serve::Server wait_mu_.
inline constexpr int kConn = 10;        ///< serve::Server conn_mu_.
inline constexpr int kBatcher = 20;     ///< serve::MicroBatcher mu_.
inline constexpr int kBatcherJoin = 21; ///< serve::MicroBatcher join_mu_.
inline constexpr int kStore = 30;       ///< store::DurableStore mu_.
inline constexpr int kRetrieval = 35;   ///< retrieval::IvfIndex mu_.
inline constexpr int kDb = 40;          ///< EmbeddingDatabase mu_.
inline constexpr int kReqTrace = 49;    ///< obs::RequestTracer mu_ (may
                                        ///< resolve registry metrics and
                                        ///< write its slow-query sink while
                                        ///< held, so it sits just below
                                        ///< kObs/kObsSink).
inline constexpr int kObs = 50;         ///< obs::MetricsRegistry mu_.
inline constexpr int kObsSink = 51;     ///< obs::JsonlSink mu_.
inline constexpr int kThreadPool = 60;  ///< ThreadPool mu_ (leaf).

}  // namespace lock_rank

/// True when the runtime lock-rank detector is compiled in (NEUTRAJ_CHECKS
/// builds). Release builds compile every rank operation out behind
/// `if constexpr`, so ranked and unranked mutexes cost the same.
#ifdef NEUTRAJ_CHECKS
inline constexpr bool kLockRankChecksEnabled = true;
#else
inline constexpr bool kLockRankChecksEnabled = false;
#endif

namespace sync_internal {

/// Validates `rank` against the calling thread's held-rank stack (fatal
/// NEUTRAJ_ASSERT on a non-ascending acquisition) and records it as held.
/// No-op for kNoRank. Called *before* blocking on the underlying mutex so a
/// would-deadlock ordering aborts even on interleavings that would have
/// gotten lucky this run.
void RankAcquire(int rank);

/// Removes `rank` from the calling thread's held-rank stack (topmost
/// occurrence; asserts it was held). No-op for kNoRank.
void RankRelease(int rank);

/// Number of ranked locks the calling thread currently holds (test hook).
int HeldRankDepth();

}  // namespace sync_internal

// ---------------------------------------------------------------------------
// Capability-annotated mutex wrappers.
// ---------------------------------------------------------------------------

/// std::mutex with a TSA capability and an optional lock rank.
class NEUTRAJ_CAPABILITY("mutex") Mutex {
 public:
  /// Unranked (rank checking skipped for this mutex).
  Mutex() = default;
  /// Ranked: checked builds validate every acquisition against the global
  /// rank order (see lock_rank).
  explicit Mutex(int rank) : rank_(rank) {}

  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void Lock() NEUTRAJ_ACQUIRE() {
    if constexpr (kLockRankChecksEnabled) sync_internal::RankAcquire(rank_);
    mu_.lock();
  }

  void Unlock() NEUTRAJ_RELEASE() {
    mu_.unlock();
    if constexpr (kLockRankChecksEnabled) sync_internal::RankRelease(rank_);
  }

  int rank() const { return rank_; }

 private:
  friend class CondVar;  ///< Waits on the wrapped handle via adopt/release.

  std::mutex mu_;
  int rank_ = lock_rank::kNoRank;
};

/// std::shared_mutex with a TSA capability and an optional lock rank.
/// Shared (reader) acquisitions participate in rank checking exactly like
/// exclusive ones: a reader that acquires out of order can deadlock a
/// writer just as well.
class NEUTRAJ_CAPABILITY("shared_mutex") SharedMutex {
 public:
  SharedMutex() = default;
  explicit SharedMutex(int rank) : rank_(rank) {}

  SharedMutex(const SharedMutex&) = delete;
  SharedMutex& operator=(const SharedMutex&) = delete;

  void Lock() NEUTRAJ_ACQUIRE() {
    if constexpr (kLockRankChecksEnabled) sync_internal::RankAcquire(rank_);
    mu_.lock();
  }

  void Unlock() NEUTRAJ_RELEASE() {
    mu_.unlock();
    if constexpr (kLockRankChecksEnabled) sync_internal::RankRelease(rank_);
  }

  void LockShared() NEUTRAJ_ACQUIRE_SHARED() {
    if constexpr (kLockRankChecksEnabled) sync_internal::RankAcquire(rank_);
    mu_.lock_shared();
  }

  void UnlockShared() NEUTRAJ_RELEASE_SHARED() {
    mu_.unlock_shared();
    if constexpr (kLockRankChecksEnabled) sync_internal::RankRelease(rank_);
  }

  int rank() const { return rank_; }

 private:
  std::shared_mutex mu_;
  int rank_ = lock_rank::kNoRank;
};

// ---------------------------------------------------------------------------
// Scoped (RAII) lock holders. These are the only sanctioned way to hold a
// lock across statements — manual Lock/Unlock pairs do not survive early
// returns or exceptions and TSA rejects unbalanced paths anyway.
// ---------------------------------------------------------------------------

/// Exclusive RAII hold on a Mutex.
class NEUTRAJ_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) NEUTRAJ_ACQUIRE(mu) : mu_(mu) { mu_.Lock(); }
  ~MutexLock() NEUTRAJ_RELEASE() { mu_.Unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex& mu_;
};

/// Exclusive RAII hold on a SharedMutex (the writer side).
class NEUTRAJ_SCOPED_CAPABILITY WriterLock {
 public:
  explicit WriterLock(SharedMutex& mu) NEUTRAJ_ACQUIRE(mu) : mu_(mu) {
    mu_.Lock();
  }
  ~WriterLock() NEUTRAJ_RELEASE() { mu_.Unlock(); }

  WriterLock(const WriterLock&) = delete;
  WriterLock& operator=(const WriterLock&) = delete;

 private:
  SharedMutex& mu_;
};

/// Shared RAII hold on a SharedMutex (the reader side).
class NEUTRAJ_SCOPED_CAPABILITY ReaderLock {
 public:
  explicit ReaderLock(SharedMutex& mu) NEUTRAJ_ACQUIRE_SHARED(mu) : mu_(mu) {
    mu_.LockShared();
  }
  ~ReaderLock() NEUTRAJ_RELEASE() { mu_.UnlockShared(); }

  ReaderLock(const ReaderLock&) = delete;
  ReaderLock& operator=(const ReaderLock&) = delete;

 private:
  SharedMutex& mu_;
};

// ---------------------------------------------------------------------------
// Condition variable over neutraj::Mutex.
// ---------------------------------------------------------------------------

/// Condition variable bound to neutraj::Mutex. Deliberately predicate-free:
/// callers write `while (!cond) cv.Wait(mu);` so the guarded predicate read
/// sits in the calling function, where TSA can see the lock is held (a
/// predicate lambda would be analyzed as an unannotated function and fail
/// the analysis).
///
/// The wrapped mutex is atomically released while blocked and reacquired
/// before Wait returns, exactly like std::condition_variable — which is why
/// Wait's capability contract is REQUIRES, not acquire/release: callers
/// hold the lock before and after. The thread's held-rank stack keeps the
/// mutex recorded across the wait for the same reason.
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  /// Blocks until notified (spurious wakeups possible — always loop).
  void Wait(Mutex& mu) NEUTRAJ_REQUIRES(mu);

  void NotifyOne() { cv_.notify_one(); }
  void NotifyAll() { cv_.notify_all(); }

 private:
  std::condition_variable cv_;
};

}  // namespace neutraj

#endif  // NEUTRAJ_COMMON_SYNC_H_
