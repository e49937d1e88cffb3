#include "common/thread_pool.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace rpx {

ThreadPool::ThreadPool(int threads)
{
    if (threads < 1)
        throwInvalid("ThreadPool needs at least one thread, got ", threads);
    workers_.reserve(static_cast<size_t>(threads));
    for (int i = 0; i < threads; ++i)
        workers_.emplace_back([this] { workerLoop(); });
}

ThreadPool::~ThreadPool()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        stopping_ = true;
    }
    cv_.notify_all();
    for (std::thread &w : workers_)
        w.join();
}

std::future<void>
ThreadPool::submit(std::function<void()> job)
{
    std::packaged_task<void()> task(std::move(job));
    std::future<void> future = task.get_future();
    {
        std::lock_guard<std::mutex> lock(mutex_);
        if (stopping_)
            throwRuntime("submit on a stopping ThreadPool");
        queue_.push_back(std::move(task));
    }
    cv_.notify_one();
    return future;
}

int
ThreadPool::hardwareThreads()
{
    const unsigned n = std::thread::hardware_concurrency();
    return n == 0 ? 1 : static_cast<int>(n);
}

void
ThreadPool::workerLoop()
{
    for (;;) {
        std::packaged_task<void()> task;
        {
            std::unique_lock<std::mutex> lock(mutex_);
            cv_.wait(lock,
                     [this] { return stopping_ || !queue_.empty(); });
            if (queue_.empty())
                return; // stopping and drained
            task = std::move(queue_.front());
            queue_.pop_front();
        }
        task(); // exceptions land in the task's future
    }
}

namespace {

/** Band starts land on multiples of 4 rows (whole mask bytes). */
constexpr i32 kBandAlign = 4;

} // namespace

BandPool::BandPool(int threads, i32 min_band_rows)
    : threads_(threads == 0 ? ThreadPool::hardwareThreads() : threads),
      min_band_rows_(min_band_rows)
{
    if (threads < 0)
        throwInvalid("band thread count must be >= 0, got ", threads);
    if (min_band_rows < kBandAlign || min_band_rows % kBandAlign != 0)
        throwInvalid("min_band_rows must be a positive multiple of ",
                     kBandAlign, ", got ", min_band_rows);
    if (threads_ > 1)
        pool_ = std::make_unique<ThreadPool>(threads_);
}

void
BandPool::partition(i32 rows, int bands, i32 min_band_rows,
                    std::vector<std::pair<i32, i32>> &out)
{
    RPX_ASSERT(bands > 0, "partition needs at least one band");
    // An even split, rounded up to the alignment quantum and floored at
    // min_band_rows so tiny frames do not shatter into slivers with more
    // stitch overhead than work.
    const i32 even = (rows + bands - 1) / bands;
    const i32 per_band = std::max(
        (even + kBandAlign - 1) / kBandAlign * kBandAlign, min_band_rows);
    out.clear();
    for (i32 y0 = 0; y0 < rows; y0 += per_band)
        out.emplace_back(y0, std::min(rows, y0 + per_band));
}

} // namespace rpx
