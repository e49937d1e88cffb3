#include "fleet/scheduler.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace rpx::fleet {

namespace {

size_t
checkedCapacity(size_t capacity)
{
    if (capacity == 0)
        throwInvalid("EDF queue capacity must be >= 1");
    return capacity;
}

} // namespace

EdfQueue::EdfQueue(size_t capacity) : MpmcQueue(checkedCapacity(capacity))
{
}

bool
EdfOrder::laterThan(const FrameTask &a, const FrameTask &b)
{
    // Deadline-less tasks all share the epoch value and fall through to
    // the fair tie-break.
    const auto da = a.has_deadline
                        ? a.deadline
                        : std::chrono::steady_clock::time_point{};
    const auto db = b.has_deadline
                        ? b.deadline
                        : std::chrono::steady_clock::time_point{};
    if (da != db)
        return da > db;
    const u32 sa = a.stream ? a.stream->id() : 0;
    const u32 sb = b.stream ? b.stream->id() : 0;
    if (sa != sb)
        return sa > sb;
    return a.index > b.index;
}

void
EdfOrder::put(FrameTask &&task)
{
    heap_.push_back(std::move(task));
    std::push_heap(heap_.begin(), heap_.end(), laterThan);
}

FrameTask
EdfOrder::take()
{
    std::pop_heap(heap_.begin(), heap_.end(), laterThan);
    FrameTask task = std::move(heap_.back());
    heap_.pop_back();
    return task;
}

} // namespace rpx::fleet
