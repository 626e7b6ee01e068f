// Tests for common/sync.h: the capability-annotated lock wrappers and the
// runtime lock-rank deadlock detector.
//
// Three concerns, matching the header's two enforcement layers plus its
// release-build promise:
//   1. The wrappers behave as locks (mutual exclusion, reader/writer
//      semantics, CondVar wakeups) — the 8-thread contention tests carry
//      the `parallel` ctest label so TSan sweeps them in CI.
//   2. Checked builds (NEUTRAJ_CHECKS) detect rank-order violations at the
//      first out-of-order acquisition: death tests pin the fatal path.
//   3. Release builds compile the rank bookkeeping out entirely:
//      kLockRankChecksEnabled is false, the held-rank depth never moves,
//      and an inverted acquisition order is (deliberately) not diagnosed.
//
// The static layer — annotations rejecting bad code at compile time — is
// pinned separately by tests/negcompile/, which this suite cannot cover:
// code that must not compile cannot live in a test that compiles.

#include "common/sync.h"

#include <thread>
#include <vector>

#include <gtest/gtest.h>

namespace neutraj {
namespace {

// TSA's guarded_by applies to data members and globals, not locals, so the
// guarded state under test lives in small structs.
struct GuardedCounter {
  Mutex mu;
  long value NEUTRAJ_GUARDED_BY(mu) = 0;
};

struct GuardedPair {
  SharedMutex mu;
  // Writers keep a == b; a reader that ever observes a != b saw a torn
  // write, i.e. the reader/writer exclusion is broken.
  long a NEUTRAJ_GUARDED_BY(mu) = 0;
  long b NEUTRAJ_GUARDED_BY(mu) = 0;
};

struct Handshake {
  Mutex mu;
  CondVar cv;
  bool ready NEUTRAJ_GUARDED_BY(mu) = false;
  bool consumed NEUTRAJ_GUARDED_BY(mu) = false;
};

// ---------------------------------------------------------------------------
// Wrapper semantics under contention (TSan targets).
// ---------------------------------------------------------------------------

TEST(SyncTest, MutexExcludesWritersUnderContention) {
  constexpr int kThreads = 8;
  constexpr int kIncrementsPerThread = 2000;

  GuardedCounter counter;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&counter] {
      for (int i = 0; i < kIncrementsPerThread; ++i) {
        MutexLock lock(counter.mu);
        ++counter.value;
      }
    });
  }
  for (std::thread& t : threads) t.join();

  MutexLock lock(counter.mu);
  EXPECT_EQ(counter.value,
            static_cast<long>(kThreads) * kIncrementsPerThread);
}

TEST(SyncTest, SharedMutexWritersExcludeReaders) {
  constexpr int kWriters = 4;
  constexpr int kReaders = 4;
  constexpr int kRoundsPerThread = 1000;

  GuardedPair pair;
  std::vector<std::thread> threads;
  threads.reserve(kWriters + kReaders);
  for (int t = 0; t < kWriters; ++t) {
    threads.emplace_back([&pair] {
      for (int i = 0; i < kRoundsPerThread; ++i) {
        WriterLock lock(pair.mu);
        ++pair.a;
        ++pair.b;
      }
    });
  }
  std::vector<long> torn(kReaders, 0);
  for (int t = 0; t < kReaders; ++t) {
    threads.emplace_back([&pair, &torn, t] {
      for (int i = 0; i < kRoundsPerThread; ++i) {
        ReaderLock lock(pair.mu);
        if (pair.a != pair.b) ++torn[static_cast<size_t>(t)];
      }
    });
  }
  for (std::thread& t : threads) t.join();

  for (const long n : torn) EXPECT_EQ(n, 0);
  WriterLock lock(pair.mu);
  EXPECT_EQ(pair.a, static_cast<long>(kWriters) * kRoundsPerThread);
  EXPECT_EQ(pair.b, pair.a);
}

TEST(SyncTest, CondVarHandsOffAcrossThreads) {
  Handshake hs;
  std::thread consumer([&hs] {
    MutexLock lock(hs.mu);
    while (!hs.ready) hs.cv.Wait(hs.mu);
    hs.consumed = true;
    hs.cv.NotifyAll();
  });

  {
    MutexLock lock(hs.mu);
    hs.ready = true;
    hs.cv.NotifyAll();
    while (!hs.consumed) hs.cv.Wait(hs.mu);
  }
  consumer.join();

  MutexLock lock(hs.mu);
  EXPECT_TRUE(hs.consumed);
}

// ---------------------------------------------------------------------------
// Lock-rank detector: checked-build behavior.
// ---------------------------------------------------------------------------

#ifdef NEUTRAJ_CHECKS

TEST(LockRankTest, AscendingAcquisitionPassesAndTracksDepth) {
  Mutex low(lock_rank::kConn);
  Mutex high(lock_rank::kStore);
  EXPECT_EQ(sync_internal::HeldRankDepth(), 0);
  {
    MutexLock l1(low);
    EXPECT_EQ(sync_internal::HeldRankDepth(), 1);
    MutexLock l2(high);
    EXPECT_EQ(sync_internal::HeldRankDepth(), 2);
  }
  EXPECT_EQ(sync_internal::HeldRankDepth(), 0);
}

TEST(LockRankTest, UnrankedMutexesSkipBookkeeping) {
  // The FlightRecorder pattern: a default-constructed Mutex participates in
  // neither ordering nor depth, in any interleaving with ranked locks.
  Mutex unranked;
  Mutex ranked(lock_rank::kDb);
  MutexLock l1(ranked);
  MutexLock l2(unranked);
  EXPECT_EQ(sync_internal::HeldRankDepth(), 1);
}

TEST(LockRankTest, NonLifoReleaseKeepsStackConsistent) {
  // Unlocking in non-LIFO order is legal locking; the rank stack removes
  // from the middle and later acquisitions still validate against the
  // correct maximum.
  Mutex a(lock_rank::kConn);
  Mutex b(lock_rank::kBatcher);
  Mutex c(lock_rank::kStore);
  a.Lock();
  b.Lock();
  a.Unlock();  // Middle-of-stack release (a sits below b).
  EXPECT_EQ(sync_internal::HeldRankDepth(), 1);
  c.Lock();  // kStore > kBatcher: still legal.
  EXPECT_EQ(sync_internal::HeldRankDepth(), 2);
  c.Unlock();
  b.Unlock();
  EXPECT_EQ(sync_internal::HeldRankDepth(), 0);
}

TEST(LockRankDeathTest, OutOfOrderAcquisitionDies) {
  testing::FLAGS_gtest_death_test_style = "threadsafe";
  Mutex low(lock_rank::kConn);
  Mutex high(lock_rank::kStore);
  EXPECT_DEATH(
      {
        MutexLock l1(high);
        MutexLock l2(low);  // kConn < kStore: inversion.
      },
      "lock-rank order violation");
}

TEST(LockRankDeathTest, EqualRankNestingDies) {
  testing::FLAGS_gtest_death_test_style = "threadsafe";
  // Two distinct mutexes with the same rank: nesting them happens to be
  // ordered in this run but is unordered in general (another thread can
  // nest them the other way), so "strictly ascending" rejects it too.
  Mutex first(lock_rank::kDb);
  Mutex second(lock_rank::kDb);
  EXPECT_DEATH(
      {
        MutexLock l1(first);
        MutexLock l2(second);
      },
      "lock-rank order violation");
}

TEST(LockRankDeathTest, SharedAcquisitionIsRankCheckedToo) {
  testing::FLAGS_gtest_death_test_style = "threadsafe";
  // A reader acquiring out of order deadlocks a writer just as well.
  SharedMutex db(lock_rank::kDb);
  Mutex store(lock_rank::kStore);
  EXPECT_DEATH(
      {
        ReaderLock l1(db);
        MutexLock l2(store);  // kStore < kDb: inversion via a shared hold.
      },
      "lock-rank order violation");
}

#else  // !NEUTRAJ_CHECKS

TEST(LockRankTest, ChecksCompileOutOfReleaseBuilds) {
  static_assert(!kLockRankChecksEnabled,
                "release builds must not pay for rank bookkeeping");
  // An inverted acquisition order is deliberately NOT diagnosed here — the
  // detector exists only behind NEUTRAJ_CHECKS. If this test aborts, the
  // `if constexpr` gating in sync.h has regressed and release builds are
  // paying (and dying) for checks they opted out of.
  Mutex high(lock_rank::kStore);
  Mutex low(lock_rank::kConn);
  {
    MutexLock l1(high);
    MutexLock l2(low);  // Inversion: must be a silent no-op in release.
  }
  EXPECT_EQ(sync_internal::HeldRankDepth(), 0);
}

#endif  // NEUTRAJ_CHECKS

}  // namespace
}  // namespace neutraj
