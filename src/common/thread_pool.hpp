/**
 * @file
 * A small persistent worker pool for data-parallel encode/simulation work.
 *
 * Jobs are type-erased `void()` callables; submit() returns a future that
 * becomes ready when the job finishes (carrying any exception it threw).
 * The pool keeps its threads alive between frames, so per-frame dispatch
 * costs one lock + notify per job instead of a thread spawn — the property
 * the row-band fan-out (BandPool, below) depends on at video rates.
 */

#ifndef RPX_COMMON_THREAD_POOL_HPP
#define RPX_COMMON_THREAD_POOL_HPP

#include <condition_variable>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "common/types.hpp"

namespace rpx {

/** Fixed-size pool of worker threads draining a shared job queue. */
class ThreadPool
{
  public:
    /**
     * @param threads worker count; must be >= 1. (A 1-thread pool is
     *        valid but callers usually special-case it and run inline.)
     */
    explicit ThreadPool(int threads);

    /** Joins all workers; pending jobs are finished first. */
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    int threadCount() const { return static_cast<int>(workers_.size()); }

    /**
     * Enqueue a job. The returned future rethrows any exception the job
     * raised, so callers can propagate worker failures to the submitting
     * thread.
     */
    std::future<void> submit(std::function<void()> job);

    /** std::thread::hardware_concurrency with a floor of 1. */
    static int hardwareThreads();

  private:
    void workerLoop();

    std::vector<std::thread> workers_;
    std::deque<std::packaged_task<void()>> queue_;
    std::mutex mutex_;
    std::condition_variable cv_;
    bool stopping_ = false;
};

/**
 * The row-band fan-out of RhythmicEncoder::encodeFrame and the
 * SoftwareDecoder: a frame's rows split into horizontal bands, one job per
 * band on a pool. Bands start on multiples of 4 rows — 4 rows of 2-bit
 * codes are exactly `width` bytes — so each band owns whole bytes of the
 * packed EncMask. With one thread there is no pool: one whole-frame band,
 * run inline.
 */
class BandPool
{
  public:
    /**
     * @param threads       workers; 1 = serial, 0 = one per hardware thread
     * @param min_band_rows floor on rows per band, a positive multiple of
     *                      4, so small frames yield fewer bands than
     *                      threads rather than slivers
     * Throws std::invalid_argument on a negative thread count or a bad
     * min_band_rows.
     */
    BandPool(int threads, i32 min_band_rows);

    /** Resolved worker count (>= 1; 0 in the config resolves here). */
    int threadCount() const { return threads_; }

    /**
     * Band row ranges [y0, y1) for a frame of `rows` rows, written to `out`
     * (its storage is reused): an even split into at most `bands` bands,
     * rounded up to 4 rows and floored at `min_band_rows`, covering every
     * row in order (no band when rows <= 0).
     */
    static void partition(i32 rows, int bands, i32 min_band_rows,
                          std::vector<std::pair<i32, i32>> &out);

    /** The bands this pool runs: one [0, rows) band without a pool. */
    void
    partition(i32 rows, std::vector<std::pair<i32, i32>> &out) const
    {
        partition(rows, threads_, min_band_rows_, out);
    }

    /**
     * Call job(b) for every b in [0, bands) and wait for all of them.
     * Inline, with no allocation, without a pool or for a single band;
     * otherwise one pool job per band, and the first job exception is
     * rethrown here.
     */
    template <class Job>
    void
    run(size_t bands, Job &&job) const
    {
        if (!pool_ || bands == 1) {
            for (size_t b = 0; b < bands; ++b)
                job(b);
            return;
        }
        std::vector<std::future<void>> pending;
        pending.reserve(bands);
        for (size_t b = 0; b < bands; ++b)
            pending.push_back(pool_->submit([&job, b] { job(b); }));
        // Every job borrows `job`: wait for all before any rethrow.
        for (auto &f : pending)
            f.wait();
        for (auto &f : pending)
            f.get();
    }

  private:
    int threads_;
    i32 min_band_rows_;
    /** Null when threads_ == 1. */
    std::unique_ptr<ThreadPool> pool_;
};

} // namespace rpx

#endif // RPX_COMMON_THREAD_POOL_HPP
