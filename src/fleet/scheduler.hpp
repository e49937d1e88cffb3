/**
 * @file
 * Deadline-aware frame scheduling (rpx::fleet).
 *
 * EdfQueue is the fleet's arbitration point between streams and the
 * bounded engine pools: the stream layer's blocking MpmcQueue with an
 * earliest-deadline-first buffer order. Workers pop the most urgent frame
 * across *all* streams, so when streams outnumber engines the engines
 * always serve the frames closest to missing their deadlines — classic
 * EDF, which is optimal for a single resource class. Blocking, timed and
 * try operations, close/drain and the stats are MpmcQueue's own.
 *
 * Ordering key: (deadline, stream id, frame index). Tasks without a
 * deadline (the facade path, or a fleet run with deadlines disabled)
 * compare equal on the first component and fall back to fair round-robin
 * by stream id, then frame order.
 */

#ifndef RPX_FLEET_SCHEDULER_HPP
#define RPX_FLEET_SCHEDULER_HPP

#include <vector>

#include "fleet/stages.hpp"
#include "stream/fifo.hpp"

namespace rpx::fleet {

/** Earliest-deadline-first buffer order of FrameTasks (a binary heap). */
class EdfOrder
{
  public:
    void put(FrameTask &&task);
    /** Remove and return the earliest-deadline task. */
    FrameTask take();
    size_t size() const { return heap_.size(); }

  private:
    /** True when a should run *after* b (max-heap comparator → EDF pop). */
    static bool laterThan(const FrameTask &a, const FrameTask &b);

    std::vector<FrameTask> heap_;
};

using EdfQueueStats = MpmcQueueStats;

/** Blocking bounded earliest-deadline-first queue of FrameTasks. */
class EdfQueue : public MpmcQueue<FrameTask, EdfOrder>
{
  public:
    /** @throws std::invalid_argument when @p capacity is 0. */
    explicit EdfQueue(size_t capacity);
};

} // namespace rpx::fleet

#endif // RPX_FLEET_SCHEDULER_HPP
