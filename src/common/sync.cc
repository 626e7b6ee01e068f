#include "common/sync.h"

#include <cstdio>

#include "common/check.h"

namespace neutraj {

namespace sync_internal {

namespace {

/// Deepest ranked-lock nesting one thread may reach. Generous: the deepest
/// real chain today is store -> db -> obs (3).
constexpr int kMaxHeldRanks = 64;

/// Per-thread stack of held ranks. Acquisitions keep it strictly ascending
/// by construction; releases may remove from the middle (non-LIFO unlock
/// order is legal locking), which preserves sortedness, so the top is
/// always the maximum rank held.
struct HeldRanks {
  int ranks[kMaxHeldRanks];
  int depth = 0;
};

thread_local HeldRanks tls_held;

}  // namespace

void RankAcquire(int rank) {
  if (rank == lock_rank::kNoRank) return;
  HeldRanks& held = tls_held;
  NEUTRAJ_ASSERT_MSG(held.depth < kMaxHeldRanks,
                     "lock-rank stack overflow (pathological lock nesting)");
  if (held.depth > 0 && rank <= held.ranks[held.depth - 1]) {
    // Stack buffer: CheckFailed uses the message before abort(); the frame
    // stays alive because CheckFailed never returns.
    char msg[160];
    std::snprintf(msg, sizeof(msg),
                  "lock-rank order violation: acquiring rank %d while "
                  "holding rank %d (acquisition order must be strictly "
                  "ascending; see the table in common/sync.h)",
                  rank, held.ranks[held.depth - 1]);
    NEUTRAJ_ASSERT_MSG(false, msg);
  }
  held.ranks[held.depth++] = rank;
}

void RankRelease(int rank) {
  if (rank == lock_rank::kNoRank) return;
  HeldRanks& held = tls_held;
  // Topmost occurrence: identically-ranked mutexes are distinct objects,
  // but rank bookkeeping only needs the multiset of held ranks.
  for (int i = held.depth - 1; i >= 0; --i) {
    if (held.ranks[i] == rank) {
      for (int j = i; j + 1 < held.depth; ++j) {
        held.ranks[j] = held.ranks[j + 1];
      }
      --held.depth;
      return;
    }
  }
  NEUTRAJ_ASSERT_MSG(false,
                     "lock-rank release of a rank this thread never acquired");
}

int HeldRankDepth() { return tls_held.depth; }

}  // namespace sync_internal

void CondVar::Wait(Mutex& mu) {
  // Adopt the already-held native handle, wait (which atomically releases
  // and reacquires it), then release ownership back to the caller's scoped
  // lock. The held-rank stack deliberately keeps the mutex recorded across
  // the block: the capability contract (REQUIRES) says the caller holds it
  // on both sides of the call, and a blocked waiter acquires nothing else.
  std::unique_lock<std::mutex> native(mu.mu_, std::adopt_lock);
  cv_.wait(native);
  native.release();
}

}  // namespace neutraj
