/**
 * @file
 * Bounded queues of the stream layer.
 *
 *  - Fifo<T>: single-threaded, non-blocking, stall-accounting model of the
 *    depth-16 AXI-stream buffers in the encoder and the response FIFO of
 *    the decoder's sampling unit. Push/pop failures are recorded as stall
 *    cycles so the timing claims of §6.3 can be checked.
 *  - MpmcQueue<T, Order>: the one blocking, bounded, multi-producer/
 *    multi-consumer queue with close/drain semantics that every fleet
 *    stage hand-off is built on. Order picks which buffered element a pop
 *    returns: arrival order (FifoOrder, the default; the capture and store
 *    queues) or earliest deadline first (fleet::EdfQueue; the encode and
 *    decode queues in front of the engine pools).
 */

#ifndef RPX_STREAM_FIFO_HPP
#define RPX_STREAM_FIFO_HPP

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <mutex>
#include <optional>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/types.hpp"

namespace rpx {

/**
 * Bounded FIFO with stall accounting.
 *
 * Backed by a fixed ring buffer sized at construction — like the hardware
 * it models, a Fifo never touches the allocator after it is built (a
 * deque would allocate a fresh node every time its cursor crossed a node
 * boundary, which the decode-path allocation tests forbid). T must be
 * default-constructible.
 *
 * @tparam T element type (pixel beats, bytes, transactions)
 */
template <typename T>
class Fifo
{
  public:
    /** @param depth maximum number of buffered elements (paper uses 16). */
    explicit Fifo(size_t depth = 16) : depth_(depth), ring_(depth)
    {
        RPX_ASSERT(depth > 0, "FIFO depth must be positive");
    }

    size_t depth() const { return depth_; }
    size_t size() const { return count_; }
    bool empty() const { return count_ == 0; }
    bool full() const { return count_ >= depth_; }

    /**
     * Try to enqueue; on a full FIFO the producer stalls (recorded) and the
     * element is rejected.
     * @return true if accepted.
     */
    bool
    tryPush(const T &v)
    {
        if (full()) {
            ++push_stalls_;
            return false;
        }
        ring_[(head_ + count_) % depth_] = v;
        ++count_;
        if (count_ > high_water_)
            high_water_ = count_;
        return true;
    }

    /** Enqueue an element that must fit (internal invariant). */
    void
    push(const T &v)
    {
        RPX_ASSERT(tryPush(v), "push into full FIFO");
    }

    /** Try to dequeue; empty FIFO stalls the consumer (recorded). */
    std::optional<T>
    tryPop()
    {
        if (count_ == 0) {
            ++pop_stalls_;
            return std::nullopt;
        }
        T v = ring_[head_];
        head_ = (head_ + 1) % depth_;
        --count_;
        return v;
    }

    /** Dequeue an element that must exist (internal invariant). */
    T
    pop()
    {
        auto v = tryPop();
        RPX_ASSERT(v.has_value(), "pop from empty FIFO");
        return *v;
    }

    const T &
    front() const
    {
        RPX_ASSERT(count_ != 0, "front of empty FIFO");
        return ring_[head_];
    }

    void
    clear()
    {
        head_ = 0;
        count_ = 0;
    }

    u64 pushStalls() const { return push_stalls_; }
    u64 popStalls() const { return pop_stalls_; }
    size_t highWaterMark() const { return high_water_; }

    void
    resetStats()
    {
        push_stalls_ = 0;
        pop_stalls_ = 0;
        high_water_ = count_;
    }

  private:
    size_t depth_;
    std::vector<T> ring_;
    size_t head_ = 0;
    size_t count_ = 0;
    u64 push_stalls_ = 0;
    u64 pop_stalls_ = 0;
    size_t high_water_ = 0;
};

/** Occupancy/contention counters of one MpmcQueue. */
struct MpmcQueueStats {
    u64 pushes = 0;      //!< elements accepted
    u64 pops = 0;        //!< elements handed out
    u64 push_waits = 0;  //!< pushes that blocked on a full queue
    u64 pop_waits = 0;   //!< pops that blocked on an empty queue
    u64 rejected = 0;    //!< pushes refused because the queue was closed
    size_t high_water = 0; //!< peak occupancy
};

/** Arrival order: the default MpmcQueue buffer (pop returns the oldest). */
template <typename T>
class FifoOrder
{
  public:
    void put(T &&v) { q_.push_back(std::move(v)); }

    T
    take()
    {
        T v = std::move(q_.front());
        q_.pop_front();
        return v;
    }

    size_t size() const { return q_.size(); }

  private:
    std::deque<T> q_;
};

/**
 * Blocking bounded multi-producer/multi-consumer queue.
 *
 * The cross-thread counterpart of Fifo: producers block while the queue is
 * full, consumers block while it is empty, and close() transitions the
 * queue into drain mode — no new elements are accepted, but consumers keep
 * receiving buffered elements until the queue is empty, after which pop()
 * returns nullopt. That shutdown contract lets a stage graph be torn down
 * front-to-back without losing in-flight work.
 *
 * @p Order decides which buffered element a pop returns. It supplies only
 * `put(T&&)`, `T take()` (called on a non-empty buffer) and `size()`; the
 * queue owns every lock, wait, close and counter. FifoOrder gives arrival
 * order; fleet::EdfQueue plugs in earliest-deadline-first.
 *
 * All operations are linearizable under one internal mutex; the queue is
 * intended for frame-granularity work items (hundreds of thousands of ops
 * per second), not per-pixel traffic.
 */
template <typename T, typename Order = FifoOrder<T>>
class MpmcQueue
{
  public:
    /** @param capacity maximum buffered elements; must be positive. */
    explicit MpmcQueue(size_t capacity) : capacity_(capacity)
    {
        RPX_ASSERT(capacity > 0, "MpmcQueue capacity must be positive");
    }

    MpmcQueue(const MpmcQueue &) = delete;
    MpmcQueue &operator=(const MpmcQueue &) = delete;

    size_t capacity() const { return capacity_; }

    size_t
    size() const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        return order_.size();
    }

    /**
     * Block until space is available (or the queue closes), then enqueue.
     * @return false iff the queue was closed before the element fit.
     */
    bool push(T v) { return insert(v, std::nullopt); }

    /**
     * Like push(), but give up after @p timeout if no space opens. False
     * has two distinct causes — closed queue (permanent, recorded in
     * rejected) and timeout (transient, not recorded) — which callers can
     * tell apart via closed().
     */
    bool
    pushFor(T v, std::chrono::microseconds timeout)
    {
        return insert(v, timeout);
    }

    /** Non-blocking push; false when full or closed. */
    bool tryPush(T v) { return insert(v, std::chrono::microseconds(0)); }

    /**
     * Block until an element is available or the queue is closed *and*
     * drained; nullopt signals the latter (the consumer should exit).
     */
    std::optional<T> pop() { return take(std::nullopt); }

    /**
     * Like pop(), but give up after @p timeout if nothing arrives. A
     * nullopt therefore means either "closed and drained" (permanent) or
     * "timed out" (transient); consumers running under a watchdog use the
     * timeout as their heartbeat interval and re-check closed() to decide
     * whether to exit or beat-and-retry.
     */
    std::optional<T>
    popFor(std::chrono::microseconds timeout)
    {
        return take(timeout);
    }

    /** Non-blocking pop; nullopt when nothing is buffered. */
    std::optional<T> tryPop() { return take(std::chrono::microseconds(0)); }

    /**
     * Stop accepting elements and wake every waiter. Idempotent. Buffered
     * elements remain poppable (drain); blocked producers return false.
     */
    void
    close()
    {
        {
            std::lock_guard<std::mutex> lock(mutex_);
            closed_ = true;
        }
        not_full_.notify_all();
        not_empty_.notify_all();
    }

    bool
    closed() const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        return closed_;
    }

    MpmcQueueStats
    stats() const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        return stats_;
    }

  private:
    /** No limit when unset; zero never waits (the try* ops). */
    using Timeout = std::optional<std::chrono::microseconds>;

    /**
     * Wait on @p cv until @p ready() holds or the queue closes, counting
     * the wait in @p waits. False iff the wait timed out (or a zero
     * timeout found the queue not ready).
     */
    template <typename Ready>
    bool
    awaitLocked(std::unique_lock<std::mutex> &lock,
                std::condition_variable &cv, Ready ready, Timeout timeout,
                u64 &waits)
    {
        if (closed_ || ready())
            return true;
        if (timeout && timeout->count() == 0)
            return false;
        ++waits;
        const auto done = [&] { return closed_ || ready(); };
        if (!timeout) {
            cv.wait(lock, done);
            return true;
        }
        return cv.wait_for(lock, *timeout, done);
    }

    /** The insert-and-notify path of every push. */
    bool
    insert(T &v, Timeout timeout)
    {
        std::unique_lock<std::mutex> lock(mutex_);
        if (!awaitLocked(
                lock, not_full_,
                [this] { return order_.size() < capacity_; }, timeout,
                stats_.push_waits))
            return false; // timed out, still full
        if (closed_) {
            ++stats_.rejected;
            return false;
        }
        order_.put(std::move(v));
        ++stats_.pushes;
        stats_.high_water = std::max(stats_.high_water, order_.size());
        lock.unlock();
        not_empty_.notify_one();
        return true;
    }

    /** The take-and-notify path of every pop. */
    std::optional<T>
    take(Timeout timeout)
    {
        std::unique_lock<std::mutex> lock(mutex_);
        if (!awaitLocked(
                lock, not_empty_, [this] { return order_.size() > 0; },
                timeout, stats_.pop_waits))
            return std::nullopt; // timed out, still empty
        if (order_.size() == 0)
            return std::nullopt; // closed and drained
        std::optional<T> v(order_.take());
        ++stats_.pops;
        lock.unlock();
        not_full_.notify_one();
        return v;
    }

    const size_t capacity_;
    mutable std::mutex mutex_;
    std::condition_variable not_full_;
    std::condition_variable not_empty_;
    Order order_;
    bool closed_ = false;
    MpmcQueueStats stats_;
};

} // namespace rpx

#endif // RPX_STREAM_FIFO_HPP
