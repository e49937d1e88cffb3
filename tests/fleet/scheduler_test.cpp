/** @file Unit tests for the EDF frame queue. */

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <optional>
#include <thread>
#include <utility>
#include <vector>

#include "fleet/scheduler.hpp"
#include "fleet/stream_context.hpp"

namespace rpx::fleet {
namespace {

FrameTask
taskWithDeadline(u64 index, std::chrono::milliseconds offset)
{
    FrameTask t;
    t.index = static_cast<FrameIndex>(index);
    t.has_deadline = true;
    t.deadline = std::chrono::steady_clock::time_point{} + offset;
    return t;
}

FrameTask
taskNoDeadline(u64 index)
{
    FrameTask t;
    t.index = static_cast<FrameIndex>(index);
    return t;
}

TEST(EdfQueue, PopsEarliestDeadlineFirst)
{
    EdfQueue q(8);
    ASSERT_TRUE(q.push(taskWithDeadline(0, std::chrono::milliseconds(30))));
    ASSERT_TRUE(q.push(taskWithDeadline(1, std::chrono::milliseconds(10))));
    ASSERT_TRUE(q.push(taskWithDeadline(2, std::chrono::milliseconds(20))));
    EXPECT_EQ(q.pop()->index, 1);
    EXPECT_EQ(q.pop()->index, 2);
    EXPECT_EQ(q.pop()->index, 0);
}

TEST(EdfQueue, DeadlinelessTasksPopInFrameOrder)
{
    EdfQueue q(8);
    ASSERT_TRUE(q.push(taskNoDeadline(2)));
    ASSERT_TRUE(q.push(taskNoDeadline(0)));
    ASSERT_TRUE(q.push(taskNoDeadline(1)));
    EXPECT_EQ(q.pop()->index, 0);
    EXPECT_EQ(q.pop()->index, 1);
    EXPECT_EQ(q.pop()->index, 2);
}

TEST(EdfQueue, UrgentArrivalJumpsTheQueue)
{
    EdfQueue q(8);
    ASSERT_TRUE(q.push(taskWithDeadline(0, std::chrono::milliseconds(50))));
    ASSERT_TRUE(q.push(taskWithDeadline(1, std::chrono::milliseconds(40))));
    EXPECT_EQ(q.pop()->index, 1);
    // A later push with a nearer deadline overtakes the buffered task.
    ASSERT_TRUE(q.push(taskWithDeadline(2, std::chrono::milliseconds(5))));
    EXPECT_EQ(q.pop()->index, 2);
    EXPECT_EQ(q.pop()->index, 0);
}

TEST(EdfQueue, EqualDeadlinesPopByStreamIdThenFrame)
{
    PipelineConfig pc;
    pc.width = 16;
    pc.height = 16;
    StreamContext s3(pc, nullptr);
    StreamContext s1(pc, nullptr);
    s3.setId(3);
    s1.setId(1);

    for (const bool deadlines : {true, false}) {
        SCOPED_TRACE(deadlines ? "equal deadlines" : "no deadlines");
        EdfQueue q(8);
        const std::pair<StreamContext *, u64> order[] = {
            {&s3, 0}, {&s1, 2}, {&s1, 1}};
        for (const auto &[stream, index] : order) {
            FrameTask t = deadlines
                              ? taskWithDeadline(index,
                                                 std::chrono::milliseconds(7))
                              : taskNoDeadline(index);
            t.stream = stream;
            ASSERT_TRUE(q.push(std::move(t)));
        }
        const std::pair<u32, FrameIndex> expected[] = {{1, 1}, {1, 2}, {3, 0}};
        for (const auto &[id, index] : expected) {
            const std::optional<FrameTask> t = q.pop();
            ASSERT_TRUE(t.has_value());
            EXPECT_EQ(t->stream->id(), id);
            EXPECT_EQ(t->index, index);
        }
    }
}

TEST(EdfQueue, ZeroCapacityRejected)
{
    EXPECT_THROW(EdfQueue(0), std::invalid_argument);
}

TEST(EdfQueue, TryPushRespectsCapacity)
{
    EdfQueue q(2);
    FrameTask a = taskNoDeadline(0);
    FrameTask b = taskNoDeadline(1);
    FrameTask c = taskNoDeadline(2);
    EXPECT_TRUE(q.tryPush(a));
    EXPECT_TRUE(q.tryPush(b));
    EXPECT_FALSE(q.tryPush(c));
    EXPECT_EQ(q.size(), 2u);
    EXPECT_EQ(q.stats().high_water, 2u);
}

TEST(EdfQueue, CloseDrainsThenReturnsNullopt)
{
    EdfQueue q(4);
    ASSERT_TRUE(q.push(taskWithDeadline(0, std::chrono::milliseconds(9))));
    ASSERT_TRUE(q.push(taskWithDeadline(1, std::chrono::milliseconds(3))));
    q.close();
    EXPECT_TRUE(q.closed());
    EXPECT_FALSE(q.push(taskNoDeadline(7)));
    EXPECT_EQ(q.stats().rejected, 1u);
    EXPECT_EQ(q.pop()->index, 1);
    EXPECT_EQ(q.pop()->index, 0);
    EXPECT_FALSE(q.pop().has_value());
}

TEST(EdfQueue, CloseWakesBlockedConsumer)
{
    EdfQueue q(2);
    std::thread consumer([&q] { EXPECT_FALSE(q.pop().has_value()); });
    q.close();
    consumer.join();
}

TEST(EdfQueue, PopForTimesOutOnEmptyQueue)
{
    EdfQueue q(2);
    EXPECT_FALSE(q.popFor(std::chrono::microseconds(1000)).has_value());
    EXPECT_FALSE(q.closed());
}

TEST(EdfQueue, PopForStillPopsEarliestDeadlineFirst)
{
    EdfQueue q(4);
    ASSERT_TRUE(q.push(taskWithDeadline(0, std::chrono::milliseconds(9))));
    ASSERT_TRUE(q.push(taskWithDeadline(1, std::chrono::milliseconds(3))));
    ASSERT_TRUE(q.push(taskWithDeadline(2, std::chrono::milliseconds(6))));
    EXPECT_EQ(q.popFor(std::chrono::microseconds(1000))->index, 1);
    EXPECT_EQ(q.popFor(std::chrono::microseconds(1000))->index, 2);
    EXPECT_EQ(q.popFor(std::chrono::microseconds(1000))->index, 0);
}

TEST(EdfQueue, PopForDrainsAfterClose)
{
    EdfQueue q(2);
    ASSERT_TRUE(q.push(taskNoDeadline(5)));
    q.close();
    EXPECT_EQ(q.popFor(std::chrono::microseconds(1000))->index, 5);
    EXPECT_FALSE(q.popFor(std::chrono::microseconds(1000)).has_value());
}

TEST(EdfQueue, PushForTimesOutOnFullQueueAndRetries)
{
    EdfQueue q(1);
    ASSERT_TRUE(q.push(taskNoDeadline(0)));
    EXPECT_FALSE(
        q.pushFor(taskNoDeadline(1), std::chrono::microseconds(1000)));
    EXPECT_EQ(q.stats().rejected, 0u);
    EXPECT_EQ(q.pop()->index, 0);
    EXPECT_TRUE(
        q.pushFor(taskNoDeadline(1), std::chrono::microseconds(1000)));
    EXPECT_EQ(q.pop()->index, 1);
}

TEST(EdfQueue, PushForRefusedAfterClose)
{
    EdfQueue q(2);
    q.close();
    EXPECT_FALSE(
        q.pushFor(taskNoDeadline(0), std::chrono::microseconds(1000)));
    EXPECT_EQ(q.stats().rejected, 1u);
}

/**
 * Timed-op stress on the EDF queue: polling consumers (the watchdog
 * heartbeat pattern) against blocking producers; every task must arrive
 * exactly once. Run under TSan by the tsan CI job.
 */
TEST(EdfQueue, TimedOpsContentionConservesTasks)
{
    constexpr int kProducers = 2;
    constexpr int kConsumers = 2;
    constexpr int kPerProducer = 800;
    EdfQueue q(4);

    std::vector<std::thread> producers;
    for (int p = 0; p < kProducers; ++p) {
        producers.emplace_back([&q, p] {
            for (int i = 0; i < kPerProducer; ++i)
                ASSERT_TRUE(q.push(taskNoDeadline(
                    static_cast<u64>(p * kPerProducer + i))));
        });
    }

    std::vector<std::vector<u64>> seen(kConsumers);
    std::vector<std::thread> consumers;
    for (int c = 0; c < kConsumers; ++c) {
        consumers.emplace_back([&q, &seen, c] {
            for (;;) {
                auto t = q.popFor(std::chrono::microseconds(200));
                if (t) {
                    seen[static_cast<size_t>(c)].push_back(
                        static_cast<u64>(t->index));
                    continue;
                }
                if (q.closed() && q.size() == 0)
                    return;
            }
        });
    }

    for (auto &t : producers)
        t.join();
    q.close();
    for (auto &t : consumers)
        t.join();

    std::vector<u64> all;
    for (const auto &part : seen)
        all.insert(all.end(), part.begin(), part.end());
    std::sort(all.begin(), all.end());
    ASSERT_EQ(all.size(),
              static_cast<size_t>(kProducers * kPerProducer));
    for (size_t i = 0; i < all.size(); ++i)
        EXPECT_EQ(all[i], static_cast<u64>(i));
}

} // namespace
} // namespace rpx::fleet
