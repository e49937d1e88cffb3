/**
 * @file
 * The benchmark's three closed-loop workloads.
 *
 *  - fleet_small:  nproc streams of 96x64 scenes through FleetServer.
 *  - fleet_faulty: the same fleet with CRC-sealed metadata, graceful
 *                  decode and a seeded FaultPlan per stream.
 *  - slam_rp:      the paper's V-SLAM workload at 640x480 under RP
 *                  (cycle 10, feature policy), single stream, serial.
 *
 * Every input (scene bank, region labels, fault-plan seeds, rendered
 * SLAM frames) is generated from the run seed before timing starts; the
 * program only ever receives those pre-generated inputs.
 */

#ifndef RPXBENCH_WORKLOADS_HPP
#define RPXBENCH_WORKLOADS_HPP

#include <string>
#include <vector>

#include "bench_util.hpp"
#include "core/region.hpp"
#include "fault/fault.hpp"
#include "fleet/fleet.hpp"

namespace rpxbench {

struct RunOptions {
    std::string workload;
    u64 seed = 1;
    double seconds = 10.0;
    bool trace = false;
};

/** Stream, engine and worker counts sized to the host's core count. */
struct FleetShape {
    u32 streams = 4;
    u32 frames_per_stream = 1000; //!< frames of one fleet round
    u32 engines = 2;              //!< encode engines == decode engines
    bool faulty = false;

    static FleetShape forHost(bool faulty);
};

/** Pre-generated inputs of one fleet workload run. */
struct FleetInputs {
    FleetShape shape;
    /** scenes[s][i]: scene i of stream s; frame f shows i = f % size. */
    std::vector<std::vector<rpx::Image>> scenes;
    std::vector<std::vector<rpx::RegionLabel>> labels;
    /** Per-stream fault plans (empty unless shape.faulty). */
    std::vector<rpx::fault::FaultPlan> plans;

    const rpx::Image &
    scene(u32 stream, u64 frame) const
    {
        const auto &bank = scenes[stream];
        return bank[frame % bank.size()];
    }
};

FleetInputs makeFleetInputs(u64 seed, const FleetShape &shape);

/** The FleetConfig every round of a run uses (sinks left unset). */
rpx::fleet::FleetConfig fleetConfig(const FleetInputs &in);

/** What the delivered frames of one run of all streams add up to. */
struct DeliveredFrames {
    FrameDigest digest;
    u64 sse = 0;        //!< squared error vs the source scenes
    u64 fresh = 0;      //!< decoded from the stored frame
    u64 held = 0;       //!< served as hold-last-good
    u64 quarantined = 0;
    u64 deadline_missed = 0;
    u64 bad = 0; //!< held, quarantined or late: not a good frame
    rpx::Bytes bytes_written = 0;
    rpx::Bytes bytes_read = 0;
    rpx::Bytes metadata_bytes = 0;

    u64 delivered() const { return fresh + held; }
    bool sameOutput(const DeliveredFrames &o) const
    {
        return digest == o.digest && sse == o.sse && held == o.held &&
               quarantined == o.quarantined &&
               bytes_written == o.bytes_written &&
               bytes_read == o.bytes_read &&
               metadata_bytes == o.metadata_bytes;
    }
};

/** Serial replay of a fleet run: the stage objects called in turn. */
struct SerialReplay {
    DeliveredFrames out;
    /** Traced frames: capture, encode, store, decode and sink spans. */
    LayerSpans traced{5};
    /** Untraced frames: frame totals only. */
    LayerSpans untraced{0};
    // Deterministic model counters summed over streams.
    u64 pixels_in = 0;
    u64 pixels_kept = 0;
    u64 region_comparisons = 0;
    u64 compare_cycles = 0;
    u64 dram_write_txn = 0;
    u64 dram_read_txn = 0;
    double kept_sum = 0.0;
};

/**
 * Replay every stream's frames through Capture/Encode/Store/Decode on
 * fresh StreamContexts, frame-interleaved across streams like the fleet.
 * Without `trace` only frame totals are timed. With it, alternate
 * chunks of frames are traced (a span per stage call), so traced and
 * untraced frames share the same content mix and the same stretch of
 * time and their difference is the tracing overhead.
 */
SerialReplay serialReplay(const FleetInputs &in, bool trace);

/** One FleetServer::run() round over all streams' frames. */
struct FleetRound {
    rpx::fleet::FleetReport report;
    DeliveredFrames out;
    std::vector<double> latency_us; //!< submit -> deliver, every frame
    double setup_s = 0.0;           //!< FleetServer construction
    double run_s = 0.0;             //!< FleetServer::run() wall time
    double sink_us = 0.0;           //!< benchmark sink's own time, summed
};

FleetRound runFleetRound(const FleetInputs &in);

RunResult runFleetWorkload(const RunOptions &opt, bool faulty);
RunResult runSlamRpWorkload(const RunOptions &opt);

/**
 * Digest of a fixed canary input (seed 1, one fault-free stream) that is
 * pinned in the benchmark: a change in decoded output shows on every
 * fleet_small run whatever seed the run uses.
 */
FrameDigest canaryDigest();
extern const FrameDigest kPinnedCanary;

} // namespace rpxbench

#endif // RPXBENCH_WORKLOADS_HPP
