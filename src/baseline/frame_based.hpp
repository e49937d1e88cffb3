/**
 * @file
 * Frame-based capture baselines (§5.3): FCH captures every frame at high
 * resolution, FCL at low resolution. Both move the entire frame through the
 * DDR interface every frame. The per-frame traffic record they share,
 * FrameTraffic, lives with the frame outcome in obs/frame_outcome.hpp.
 */

#ifndef RPX_BASELINE_FRAME_BASED_HPP
#define RPX_BASELINE_FRAME_BASED_HPP

#include "obs/frame_outcome.hpp"

namespace rpx {

/** Aggregate traffic over a run. */
struct TrafficSummary {
    Bytes bytes_written = 0;
    Bytes bytes_read = 0;
    Bytes metadata_bytes = 0;
    Bytes footprint_peak = 0;
    double footprint_mean = 0.0;
    u64 frames = 0;

    void add(const FrameTraffic &t);

    /** Average DDR throughput in MB/s at the given frame rate. */
    double throughputMBps(double fps) const;

    /** Mean footprint in MB. */
    double footprintMB() const { return footprint_mean / 1e6; }
};

/**
 * Frame-based capture: every frame costs width*height pixels in each
 * direction; the footprint is `buffered_frames` full frames.
 */
class FrameBasedCapture
{
  public:
    /**
     * @param bytes_per_pixel stored pixel format width (1 = gray, 2 =
     *        YUYV-class, 3 = RGB); traffic scales with it.
     */
    FrameBasedCapture(i32 width, i32 height, int buffered_frames = 1,
                      double bytes_per_pixel = 1.0);

    i32 width() const { return width_; }
    i32 height() const { return height_; }

    /** Traffic of one frame. */
    FrameTraffic frameTraffic() const;

  private:
    i32 width_;
    i32 height_;
    int buffered_frames_;
    double bytes_per_pixel_;
};

} // namespace rpx

#endif // RPX_BASELINE_FRAME_BASED_HPP
