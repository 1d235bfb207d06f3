// Tests for util/bounded_queue: ordering, backpressure, close semantics,
// and a multi-producer stress run (race-checked under TSan in CI).
#include "util/bounded_queue.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <string>
#include <thread>

namespace upin::util {
namespace {

TEST(BoundedQueue, PushAssignsSequenceNumbersInQueueOrder) {
  BoundedQueue<int> queue(8);
  EXPECT_EQ(queue.push(10), 1u);
  EXPECT_EQ(queue.push(20), 2u);
  EXPECT_EQ(queue.push(30), 3u);
  EXPECT_EQ(queue.pushed(), 3u);

  std::vector<int> drained;
  ASSERT_TRUE(queue.pop_all(drained));
  EXPECT_EQ(drained, (std::vector<int>{10, 20, 30}));
  EXPECT_EQ(queue.size(), 0u);
}

TEST(BoundedQueue, PopAllDrainsTheWholeGroup) {
  BoundedQueue<std::string> queue(4);
  (void)queue.push("a");
  (void)queue.push("b");
  std::vector<std::string> group;
  ASSERT_TRUE(queue.pop_all(group));
  EXPECT_EQ(group.size(), 2u);
  (void)queue.push("c");
  ASSERT_TRUE(queue.pop_all(group));
  EXPECT_EQ(group, std::vector<std::string>{"c"});
}

TEST(BoundedQueue, FullQueueBlocksProducerUntilDrained) {
  BoundedQueue<int> queue(2);
  (void)queue.push(1);
  (void)queue.push(2);

  std::atomic<bool> third_landed{false};
  std::thread producer([&] {
    (void)queue.push(3);  // blocks: queue is at capacity
    third_landed.store(true);
  });
  // The producer must be parked on backpressure, not completing.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(third_landed.load());

  std::vector<int> group;
  ASSERT_TRUE(queue.pop_all(group));
  producer.join();
  EXPECT_TRUE(third_landed.load());
  ASSERT_TRUE(queue.pop_all(group));
  EXPECT_EQ(group, std::vector<int>{3});
}

TEST(BoundedQueue, CloseRejectsPushesAndDrainsRemainder) {
  BoundedQueue<int> queue(4);
  EXPECT_EQ(queue.push(1), 1u);
  queue.close();
  EXPECT_EQ(queue.push(2), 0u) << "closed queue drops new items";

  std::vector<int> group;
  ASSERT_TRUE(queue.pop_all(group)) << "remaining items still drain";
  EXPECT_EQ(group, std::vector<int>{1});
  EXPECT_FALSE(queue.pop_all(group)) << "closed and drained";
}

TEST(BoundedQueue, CloseWakesBlockedProducer) {
  BoundedQueue<int> queue(1);
  (void)queue.push(1);
  std::thread producer([&] { EXPECT_EQ(queue.push(2), 0u); });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  queue.close();
  producer.join();
}

// Shutdown contract under contention: every item is either acknowledged
// with a nonzero sequence number and drained exactly once, or rejected
// with 0 and never seen by the consumer.  A close racing a full queue
// must release every blocked producer (no hang) and must not lose any
// acknowledged item or deliver a duplicate.  Run under TSan in CI.
TEST(BoundedQueue, CloseWhileFullStressLosesNoAckedItemNoDuplicates) {
  constexpr int kRounds = 25;
  constexpr int kProducers = 4;
  constexpr int kPerProducer = 64;
  for (int round = 0; round < kRounds; ++round) {
    BoundedQueue<int> queue(3);  // tiny: producers park on backpressure

    std::vector<std::vector<int>> acked(kProducers);
    std::vector<std::thread> producers;
    for (int p = 0; p < kProducers; ++p) {
      producers.emplace_back([&queue, &acked, p] {
        for (int i = 0; i < kPerProducer; ++i) {
          const int item = p * kPerProducer + i;
          if (queue.push(item) > 0) {
            acked[static_cast<std::size_t>(p)].push_back(item);
          } else {
            return;  // closed: everything later would be dropped too
          }
        }
      });
    }

    std::vector<int> popped;
    std::thread consumer([&queue, &popped] {
      std::vector<int> group;
      while (queue.pop_all(group)) {
        popped.insert(popped.end(), group.begin(), group.end());
      }
    });

    // Close somewhere in the middle of the stream, while producers are
    // likely blocked on the full queue and the consumer mid-drain.
    std::this_thread::sleep_for(std::chrono::microseconds(50 * round));
    queue.close();

    for (auto& t : producers) t.join();  // no producer may hang
    consumer.join();                     // drains remainder, then stops

    std::vector<int> acked_all;
    for (const auto& per : acked) {
      acked_all.insert(acked_all.end(), per.begin(), per.end());
    }
    std::sort(acked_all.begin(), acked_all.end());
    std::sort(popped.begin(), popped.end());
    EXPECT_EQ(popped, acked_all)
        << "round " << round
        << ": consumer must see exactly the acknowledged items";
    EXPECT_EQ(queue.pushed(), acked_all.size());
  }
}

TEST(BoundedQueue, MultiProducerStressPreservesPerProducerOrder) {
  constexpr int kProducers = 4;
  constexpr int kPerProducer = 500;
  BoundedQueue<std::pair<int, int>> queue(16);  // small: forces backpressure

  std::vector<std::pair<int, int>> all;
  std::thread consumer([&] {
    std::vector<std::pair<int, int>> group;
    while (queue.pop_all(group)) {
      all.insert(all.end(), group.begin(), group.end());
    }
  });

  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&queue, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        ASSERT_GT(queue.push({p, i}), 0u);
      }
    });
  }
  for (auto& t : producers) t.join();
  queue.close();
  consumer.join();

  ASSERT_EQ(all.size(),
            static_cast<std::size_t>(kProducers * kPerProducer));
  std::vector<int> next(kProducers, 0);
  for (const auto& [p, i] : all) {
    const auto slot = static_cast<std::size_t>(p);
    EXPECT_EQ(i, next[slot]) << "producer " << p << " items out of order";
    ++next[slot];
  }
}

}  // namespace
}  // namespace upin::util
