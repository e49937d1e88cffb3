/**
 * @file
 * The pipeline stage graph (rpx::fleet).
 *
 * VisionPipeline::processFrame used to be one 300-line member function;
 * its per-stage logic now lives in five stateless stage objects that
 * operate on a (StreamContext, FrameTask) pair:
 *
 *   Capture  — program region labels (runtime + degradation ladder),
 *              sensor readout / CSI-2 transfer, ISP (or the fast
 *              grayscale path), producing the dense gray frame;
 *   Encode   — rhythmic encode of the gray frame (engine-gated in the
 *              fleet: a worker must hold an encode-engine lease);
 *   Store    — DMA commit of the encoded frame into the stream's
 *              framebuffer ring shard (batched across streams by the
 *              fleet's store worker);
 *   Decode   — whole-frame software decode (strict or corruption-safe),
 *              then the frame's outcome accounting;
 *   Vision   — optional per-frame application hook (frame sink).
 *
 * Every frame leaves the graph through one outcome path, fixed by two
 * facts: was it stored, and was it decoded. A decoded frame is (stored,
 * decoded); the fleet guard's shedFrame() ends a frame early as
 * (stored, not decoded) after the store stage or (not stored, not
 * decoded) before the encode lease. Those two booleans alone set the
 * result flags, the degradation-ladder feed, the traffic
 * (written = stored x payload, read = decoded x payload, metadata =
 * (stored + decoded) x metadata), the DRAM energy per kept pixel
 * (write-only when just stored, write+read when decoded; sensing and
 * CSI always), the pipeline.* counters, the telemetry record (per-region
 * entries only when stored) and the frame span.
 *
 * Stages are stateless and const: every mutable datum lives in the
 * StreamContext (per-stream state) or the FrameTask (per-frame state), so
 * one set of stage objects serves any number of streams concurrently as
 * long as no stream has two frames inside the graph at once — the
 * invariant the fleet scheduler maintains.
 *
 * Run serially on a single context, the stage sequence is byte-identical
 * to the legacy processFrame: same model updates, same counter values,
 * same telemetry records. The VisionPipeline facade and the 1-stream
 * fleet identity test both pin this down.
 */

#ifndef RPX_FLEET_STAGES_HPP
#define RPX_FLEET_STAGES_HPP

#include <chrono>
#include <functional>

#include "fleet/stream_context.hpp"

namespace rpx::fleet {

/** One frame's journey through the stage graph. */
struct FrameTask {
    StreamContext *stream = nullptr;
    FrameIndex index = 0;
    Image scene; //!< input (RGB for the sensor path, else grayscale)
    /**
     * Borrowed input scene; when set it is used instead of `scene`. The
     * synchronous facade path points this at the caller's image to avoid
     * a per-frame copy; the fleet moves owned scenes into `scene`.
     */
    const Image *scene_ref = nullptr;

    // Stage intermediates.
    Image gray;
    EncodedFrame encoded;
    Csi2FrameStatus csi_status;
    FrameStoreReport store_report;
    double kept = 0.0;
    Bytes pixel_bytes = 0;
    Bytes metadata_bytes = 0;
    u64 pixels_in = 0; //!< dense pixels captured (set by capture)

    // Timing. `start` anchors the frame's wall-clock latency; the fleet
    // sets `deadline` (EDF) while the facade leaves it unset.
    std::chrono::steady_clock::time_point start;
    bool has_deadline = false;
    std::chrono::steady_clock::time_point deadline;
    double trace_start_us = 0.0; //!< frame-span start (tracing only)
    /**
     * Wall-clock microseconds the frame held an encode engine lease;
     * feeds the admission capacity model's live cost estimate (EWMA).
     */
    double encode_hold_us = 0.0;

    // Telemetry attribution baselines (filled when a sink is attached).
    DramStats dram_before;
    EncoderStats enc_before;
    double lat_sensor = 0.0;
    double lat_isp = 0.0;
    double lat_encode = 0.0;
    double lat_dram_write = 0.0;
    double lat_decode = 0.0;

    PipelineFrameResult result;
};

/** Capture: label programming + sensor/CSI/ISP into the gray frame. */
class CaptureStage
{
  public:
    void run(FrameTask &task) const;
};

/** Encode: dense gray frame -> packed EncodedFrame. */
class EncodeStage
{
  public:
    void run(FrameTask &task) const;
};

/** Store: DMA commit into the stream's framebuffer ring shard. */
class StoreStage
{
  public:
    void run(FrameTask &task) const;
};

/**
 * Decode + frame finish: whole-frame decode, then the outcome accounting
 * of a stored, decoded frame (health/degradation, traffic, energy, obs
 * counters, telemetry record, frame latency).
 */
class DecodeStage
{
  public:
    void run(FrameTask &task) const;
};

/**
 * End a frame without decoding it (the fleet guard's load shedding):
 * serve the hold-last-good image, mark the result shed, release the
 * payloads, and account the frame on the shared outcome path with the
 * traffic it actually generated. Shed is first-class — the frame is
 * accounted once, never as a deadline miss, and the vision sink does not
 * see it.
 * @param stored true when the frame passed the store stage (decode-point
 *               shed); false at the encode-point shed.
 */
void shedFrame(FrameTask &task, bool stored);

/**
 * Vision: the application end of the graph. Holds an optional frame sink
 * invoked with every completed frame (the fleet's per-stream vision hook);
 * a default-constructed stage is a no-op.
 */
class VisionStage
{
  public:
    using FrameSink =
        std::function<void(StreamContext &, const PipelineFrameResult &)>;

    VisionStage() = default;
    explicit VisionStage(FrameSink sink) : sink_(std::move(sink)) {}

    void
    run(FrameTask &task) const
    {
        if (sink_)
            sink_(*task.stream, task.result);
    }

    bool attached() const { return static_cast<bool>(sink_); }

  private:
    FrameSink sink_;
};

/**
 * Run the full stage sequence inline on one task — the synchronous path
 * shared by the VisionPipeline facade (1 stream, no deadline) and tests.
 */
void runFrameInline(FrameTask &task);

} // namespace rpx::fleet

#endif // RPX_FLEET_STAGES_HPP
