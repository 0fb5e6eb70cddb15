#include "serve/cache.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <thread>
#include <vector>

namespace pushpart {
namespace {

CanonicalKey keyFor(int n) {
  PlanRequest req;
  req.n = n;
  return canonicalize(req);
}

PlanAnswer answerWith(double exec) {
  PlanAnswer a;
  a.model.execSeconds = exec;
  a.voc = 42;
  return a;
}

TEST(PlanCacheTest, MissThenHitReturnsStoredAnswer) {
  PlanCache cache(8, 2);
  int solves = 0;
  const auto solve = [&]() {
    ++solves;
    return answerWith(1.5);
  };
  const auto first = cache.getOrCompute(keyFor(10), solve);
  EXPECT_FALSE(first.hit);
  EXPECT_FALSE(first.coalesced);
  const auto second = cache.getOrCompute(keyFor(10), solve);
  EXPECT_TRUE(second.hit);
  EXPECT_EQ(solves, 1);
  EXPECT_EQ(second.answer, first.answer);
  const auto c = cache.counters();
  EXPECT_EQ(c.hits, 1u);
  EXPECT_EQ(c.misses, 1u);
  EXPECT_EQ(c.entries, 1u);
}

TEST(PlanCacheTest, RejectsZeroCapacityOrShards) {
  EXPECT_THROW(PlanCache(0, 1), std::invalid_argument);
  EXPECT_THROW(PlanCache(8, 0), std::invalid_argument);
}

TEST(PlanCacheTest, LruEvictsColdestAndCounts) {
  PlanCache cache(2, 1);  // one shard so eviction order is global
  int solves = 0;
  const auto solve = [&]() { return answerWith(++solves); };
  cache.getOrCompute(keyFor(1), solve);  // LRU: [1]
  cache.getOrCompute(keyFor(2), solve);  // LRU: [2, 1]
  // Touch 1 so 2 becomes the eviction victim.
  EXPECT_TRUE(cache.getOrCompute(keyFor(1), solve).hit);  // LRU: [1, 2]
  cache.getOrCompute(keyFor(3), solve);                   // evicts 2
  EXPECT_EQ(cache.counters().evictions, 1u);
  EXPECT_TRUE(cache.getOrCompute(keyFor(1), solve).hit);
  EXPECT_FALSE(cache.getOrCompute(keyFor(2), solve).hit);  // was evicted
  EXPECT_EQ(cache.counters().entries, 2u);
}

// The drift-adaptation contract (DESIGN.md §16): once a key is invalidated,
// the stale answer must never be served again — the next request for the
// same key re-solves and sees the new answer, and the drop is counted.
TEST(PlanCacheTest, InvalidatedEntryIsNeverReServed) {
  PlanCache cache(8, 2);
  const CanonicalKey key = keyFor(33);
  cache.getOrCompute(key, []() { return answerWith(1.0); });
  EXPECT_TRUE(cache.getOrCompute(key, []() { return answerWith(1.0); }).hit);

  EXPECT_TRUE(cache.invalidate(key));
  EXPECT_EQ(cache.counters().staleInvalidations, 1u);
  EXPECT_EQ(cache.counters().entries, 0u);

  // The stale answer is gone: the same key misses and re-solves fresh.
  const auto fresh = cache.getOrCompute(key, []() { return answerWith(9.0); });
  EXPECT_FALSE(fresh.hit);
  EXPECT_EQ(fresh.answer.model.execSeconds, 9.0);
  EXPECT_TRUE(cache.getOrCompute(key, []() { return answerWith(9.0); }).hit);

  // Invalidating an absent key is a no-op, not a count.
  EXPECT_FALSE(cache.invalidate(keyFor(99)));
  EXPECT_EQ(cache.counters().staleInvalidations, 1u);
}

TEST(PlanCacheTest, ClearDropsEntriesButKeepsCounters) {
  PlanCache cache(8, 2);
  const auto solve = [&]() { return answerWith(1.0); };
  cache.getOrCompute(keyFor(1), solve);
  cache.clear();
  EXPECT_EQ(cache.counters().entries, 0u);
  EXPECT_FALSE(cache.getOrCompute(keyFor(1), solve).hit);
  EXPECT_EQ(cache.counters().misses, 2u);
}

TEST(PlanCacheTest, FailedSolveIsNotCachedAndRethrows) {
  PlanCache cache(8, 2);
  EXPECT_THROW(cache.getOrCompute(keyFor(1),
                                  []() -> PlanAnswer {
                                    throw std::runtime_error("solver broke");
                                  }),
               std::runtime_error);
  EXPECT_EQ(cache.counters().entries, 0u);
  // The key is retried, not poisoned.
  const auto retry =
      cache.getOrCompute(keyFor(1), []() { return answerWith(2.0); });
  EXPECT_FALSE(retry.hit);
  EXPECT_EQ(retry.answer.model.execSeconds, 2.0);
}

// The acceptance-criterion test: >= 8 threads requesting one key while the
// solve is in flight must trigger exactly one underlying solve, with every
// other thread coalescing onto it. Deterministic: the solver blocks until
// the cache has registered 7 coalesced waiters, so no waiter can miss the
// in-flight window.
TEST(PlanCacheTest, ConcurrentIdenticalRequestsCoalesceOntoOneSolve) {
  constexpr int kThreads = 8;
  PlanCache cache(8, 2);
  std::atomic<int> solves{0};
  const CanonicalKey key = keyFor(77);

  const auto solve = [&]() {
    solves.fetch_add(1);
    while (cache.counters().coalesced < kThreads - 1)
      std::this_thread::yield();
    return answerWith(3.25);
  };

  std::vector<PlanCache::Outcome> outcomes(kThreads);
  std::vector<std::thread> pool;
  for (int t = 0; t < kThreads; ++t)
    pool.emplace_back([&, t]() { outcomes[static_cast<std::size_t>(t)] =
                                     cache.getOrCompute(key, solve); });
  for (auto& th : pool) th.join();

  EXPECT_EQ(solves.load(), 1);
  const auto c = cache.counters();
  EXPECT_EQ(c.misses, 1u);
  EXPECT_EQ(c.coalesced, static_cast<std::uint64_t>(kThreads - 1));
  EXPECT_EQ(c.hits, 0u);
  int owners = 0, waiters = 0;
  for (const auto& o : outcomes) {
    EXPECT_EQ(o.answer, answerWith(3.25));
    if (o.coalesced) {
      ++waiters;
    } else if (!o.hit) {
      ++owners;
    }
  }
  EXPECT_EQ(owners, 1);
  EXPECT_EQ(waiters, kThreads - 1);
}

TEST(PlanCacheTest, CoalescedWaitersSeeTheSolversException) {
  PlanCache cache(8, 2);
  const CanonicalKey key = keyFor(5);
  std::atomic<bool> solving{false};
  std::atomic<bool> waiterFailed{false};

  std::thread owner([&]() {
    try {
      cache.getOrCompute(key, [&]() -> PlanAnswer {
        solving = true;
        while (cache.counters().coalesced < 1) std::this_thread::yield();
        throw std::runtime_error("solver broke");
      });
    } catch (const std::runtime_error&) {
    }
  });
  // The waiter asks only once the owner is solving (a waiter scheduled
  // first would solve the key itself and make the owner the one that
  // coalesces), and the owner fails only after the waiter has coalesced.
  std::thread waiter([&]() {
    while (!solving) std::this_thread::yield();
    try {
      cache.getOrCompute(key, []() { return PlanAnswer{}; });
    } catch (const std::runtime_error&) {
      waiterFailed = true;
    }
  });
  owner.join();
  waiter.join();
  EXPECT_EQ(cache.counters().coalesced, 1u);
  EXPECT_TRUE(waiterFailed.load());
}

// Contention stress: many threads hammer a keyspace larger than the cache,
// so hits, misses, coalesced solves and shard evictions all race against
// each other. The assertions are the conservation laws that must survive
// any interleaving; TSan (the CI job runs this suite) covers the data-race
// side.
TEST(PlanCacheTest, EvictionAndCoalescingStayConsistentUnderContention) {
  constexpr int kThreads = 8;
  constexpr int kOpsPerThread = 400;
  constexpr std::size_t kCapacity = 8;  // far below the 32-key working set
  PlanCache cache(kCapacity, 4);
  std::atomic<int> solves{0};

  std::vector<std::thread> pool;
  for (int t = 0; t < kThreads; ++t)
    pool.emplace_back([&, t]() {
      // Deterministic per-thread walk over an overlapping keyspace; the
      // stride keeps threads colliding on the same keys at offset phases.
      for (int op = 0; op < kOpsPerThread; ++op) {
        const int key = 1 + (op * (t + 1) + t * 7) % 32;
        const auto outcome = cache.getOrCompute(keyFor(key), [&]() {
          solves.fetch_add(1);
          return answerWith(static_cast<double>(key));
        });
        // Whatever the path — hit, miss or coalesced wait — the answer must
        // be the one computed for this key, never a neighbour's.
        EXPECT_EQ(outcome.answer.model.execSeconds,
                  static_cast<double>(key));
      }
    });
  for (auto& th : pool) th.join();

  const auto c = cache.counters();
  // Every operation is exactly one of hit / miss / coalesced.
  EXPECT_EQ(c.hits + c.misses + c.coalesced,
            static_cast<std::uint64_t>(kThreads * kOpsPerThread));
  // Each miss ran the solver once; coalesced waiters never did.
  EXPECT_EQ(c.misses, static_cast<std::uint64_t>(solves.load()));
  // The working set exceeds capacity, so shards must have evicted, and the
  // resident count must respect the configured capacity.
  EXPECT_GT(c.evictions, 0u);
  EXPECT_LE(c.entries, kCapacity);
  EXPECT_EQ(c.entries + c.evictions, c.misses);
}

TEST(PlanCacheTest, DistinctKeysDoNotCoalesce) {
  PlanCache cache(16, 4);
  std::atomic<int> solves{0};
  std::vector<std::thread> pool;
  for (int t = 0; t < 6; ++t)
    pool.emplace_back([&, t]() {
      cache.getOrCompute(keyFor(100 + t), [&]() {
        solves.fetch_add(1);
        return PlanAnswer{};
      });
    });
  for (auto& th : pool) th.join();
  EXPECT_EQ(solves.load(), 6);
  EXPECT_EQ(cache.counters().coalesced, 0u);
}

}  // namespace
}  // namespace pushpart
