/**
 * @file
 * The per-frame outcome record and its one fold into run totals.
 *
 * accountFrame (fleet/stages.cpp) fills one FrameOutcome per frame.
 * PipelineFrameResult and obs::FrameTelemetry derive from it, and
 * OutcomeTotals::add is the one function that sums it (TelemetrySink
 * and FleetServer totals alike). The registry, journal and fleet report
 * stay separate stores of it, so their conservation checks keep meaning.
 */

#ifndef RPX_OBS_FRAME_OUTCOME_HPP
#define RPX_OBS_FRAME_OUTCOME_HPP

#include "common/types.hpp"

namespace rpx {

/** Pixel-memory traffic of one captured frame. */
struct FrameTraffic {
    Bytes bytes_written = 0;   //!< pixel payload into DRAM
    Bytes bytes_read = 0;      //!< pixel payload read back by the app
    Bytes metadata_bytes = 0;  //!< masks/offsets (rhythmic) or side data
    Bytes footprint = 0;       //!< resident framebuffer bytes after frame
};

namespace obs {

/** Everything accounted for one frame. */
struct FrameOutcome {
    double kept_fraction = 0.0;   //!< encoded / total px (0 unless decoded)
    FrameTraffic traffic;         //!< this frame's memory traffic
    bool quarantined = false;     //!< decode rejected the stored frame
    bool held_last_good = false;  //!< the delivered image is a held one
    bool deadline_missed = false; //!< wall-clock or injected miss
    /** Shed by the fleet guard before decode: not a miss, not lost. */
    bool shed = false;
    int degradation_level = 0;    //!< ladder level after this frame
    u32 csi_dropped_lines = 0;    //!< CSI long-packet lines lost
    u64 transient_faults = 0;     //!< contained faults (DMA retries etc.)
    u64 dma_retries = 0;          //!< DMA bursts retried during store
    u64 dma_dropped_bursts = 0;   //!< DMA bursts dropped during store
};

/** Run totals of FrameOutcome records. */
struct OutcomeTotals {
    u64 frames = 0;
    u64 quarantined_frames = 0;
    u64 deadline_misses = 0;
    u64 shed_frames = 0;
    u64 transient_faults = 0;
    u64 dma_retries = 0;
    u64 dma_dropped_bursts = 0;
    Bytes bytes_written = 0;
    Bytes bytes_read = 0;
    Bytes metadata_bytes = 0;
    double kept_sum = 0.0; //!< sum of kept_fraction over the frames

    void
    add(const FrameOutcome &o)
    {
        ++frames;
        quarantined_frames += o.quarantined ? 1 : 0;
        deadline_misses += o.deadline_missed ? 1 : 0;
        shed_frames += o.shed ? 1 : 0;
        transient_faults += o.transient_faults;
        dma_retries += o.dma_retries;
        dma_dropped_bursts += o.dma_dropped_bursts;
        bytes_written += o.traffic.bytes_written;
        bytes_read += o.traffic.bytes_read;
        metadata_bytes += o.traffic.metadata_bytes;
        kept_sum += o.kept_fraction;
    }

    /** Merge totals (the fleet report sums per-stream ones in id order). */
    OutcomeTotals &
    operator+=(const OutcomeTotals &o)
    {
        frames += o.frames;
        quarantined_frames += o.quarantined_frames;
        deadline_misses += o.deadline_misses;
        shed_frames += o.shed_frames;
        transient_faults += o.transient_faults;
        dma_retries += o.dma_retries;
        dma_dropped_bursts += o.dma_dropped_bursts;
        bytes_written += o.bytes_written;
        bytes_read += o.bytes_read;
        metadata_bytes += o.metadata_bytes;
        kept_sum += o.kept_sum;
        return *this;
    }
};

} // namespace obs
} // namespace rpx

#endif // RPX_OBS_FRAME_OUTCOME_HPP
