/**
 * @file
 * Integration tests for the fleet overload-protection layer: capacity-model
 * admission (reject-with-reason, re-admission after load drops), hard-cap
 * rejection under saturation churn, deadline-aware shedding conservation
 * at both shed points, watchdog eviction of a chaos-wedged worker (no
 * hang), and stream health driven by stage errors.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <mutex>

#include "common/rng.hpp"
#include "fleet/fleet.hpp"
#include "frame/draw.hpp"

namespace rpx::fleet {
namespace {

Image
sceneFor(u32 stream_id, u64 frame)
{
    Image scene(96, 64);
    Rng rng(20'000 + 101 * stream_id + frame);
    fillValueNoise(scene, rng, 30.0, 60, 180);
    return scene;
}

std::vector<RegionLabel>
testLabels()
{
    return {{8, 8, 40, 32, 1, 1, 0}, {0, 0, 96, 64, 2, 2, 0}};
}

FleetConfig
guardFleet(u32 streams, u32 frames)
{
    FleetConfig fc;
    fc.stream.width = 96;
    fc.stream.height = 64;
    fc.streams = streams;
    fc.frames_per_stream = frames;
    fc.use_deadlines = false;
    fc.scene_source = sceneFor;
    fc.label_source = [](u32) { return testLabels(); };
    return fc;
}

/**
 * Capacity-model admission: with a configured per-frame cost the usable
 * capacity is engines * (1e6 / cost) * headroom frames/s. One engine at
 * 10 ms/frame and 0.85 headroom serves 85 fps; two 30 fps streams fit
 * (60), a third does not (90). After one stream leaves, the candidate
 * fits again (60) — the reject→re-admission cycle the satellite pins.
 */
TEST(FleetGuard, CapacityRejectThenReadmitAfterLoadDrops)
{
    FleetConfig fc = guardFleet(2, 2);
    fc.stream.fps = 30.0;
    fc.encode_engines = 1;
    fc.guard.admission.policy = guard::AdmissionPolicy::CapacityModel;
    fc.guard.admission.frame_cost_us = 10'000.0;
    fc.guard.admission.headroom = 0.85;
    FleetServer server(fc);

    const guard::AdmissionResult rejected = server.tryAddStream();
    EXPECT_FALSE(rejected.admitted());
    EXPECT_EQ(rejected.outcome, guard::AdmissionOutcome::RejectedCapacity);
    EXPECT_DOUBLE_EQ(rejected.demand_fps, 90.0);
    EXPECT_DOUBLE_EQ(rejected.capacity_fps, 85.0);
    EXPECT_NE(rejected.reason.find("demand"), std::string::npos);

    // The throwing legacy entry point refuses the same verdict.
    EXPECT_THROW(server.addStream(), std::runtime_error);

    // Load drops: one stream leaves pre-run, the candidate now fits.
    ASSERT_TRUE(server.removeStream(1));
    const guard::AdmissionResult admitted = server.tryAddStream();
    ASSERT_TRUE(admitted.admitted());
    EXPECT_DOUBLE_EQ(admitted.demand_fps, 60.0);

    const FleetReport rep = server.run();
    EXPECT_EQ(rep.admission_rejects, 2u);
    EXPECT_EQ(rep.streams_started, 3u);
    // Streams 0 and the replacement ran; stream 1 left before seeding.
    EXPECT_EQ(rep.frames, 4u);
    EXPECT_EQ(rep.errors, 0u);
}

/**
 * Hard-cap admission under saturation churn: a full fleet (max_streams
 * reached, 1+1 engines) refuses joiners with an explicit reason while
 * frames are in flight; a slot freed by removeStream admits the next
 * attempt. Add/remove race the stage workers via the frame sink and the
 * retirement hook — the satellite's removeStream/addStream race case.
 */
TEST(FleetGuard, HardCapRejectsUnderSaturationUntilSlotFrees)
{
    FleetConfig fc = guardFleet(4, 3);
    fc.max_streams = 4;
    fc.encode_engines = 1;
    fc.decode_engines = 1;
    fc.capture_workers = 1;

    FleetServer *server_ptr = nullptr;
    std::atomic<bool> rejected_while_full{false};
    std::atomic<bool> removed{false};
    std::atomic<u32> replacement_id{0};
    fc.frame_sink = [&](StreamContext &s, const PipelineFrameResult &r) {
        // While all four slots are live, a joiner must bounce off the cap.
        if (s.id() == 0 && r.index == 0 &&
            !rejected_while_full.exchange(true)) {
            const guard::AdmissionResult res = server_ptr->tryAddStream();
            EXPECT_FALSE(res.admitted());
            EXPECT_EQ(res.outcome,
                      guard::AdmissionOutcome::RejectedHardCap);
            EXPECT_NE(res.reason.find("max_streams"), std::string::npos);
        }
        if (s.id() == 1 && r.index == 0 && !removed.exchange(true)) {
            EXPECT_TRUE(server_ptr->removeStream(1));
        }
    };
    fc.stream_retired = [&](const FleetStreamReport &sr) {
        // The freed slot admits the joiner that was refused above.
        if (sr.id == 1) {
            const guard::AdmissionResult res = server_ptr->tryAddStream();
            ASSERT_TRUE(res.admitted());
            replacement_id = res.id;
        }
    };
    FleetServer server(fc);
    server_ptr = &server;
    const FleetReport rep = server.run();

    ASSERT_TRUE(rejected_while_full.load());
    ASSERT_TRUE(removed.load());
    EXPECT_EQ(rep.admission_rejects, 1u);
    EXPECT_EQ(rep.streams_started, 5u);
    std::map<u32, FleetStreamReport> by_id;
    for (const auto &s : rep.streams)
        by_id[s.id] = s;
    EXPECT_EQ(by_id.at(1).frames, 1u);
    EXPECT_FALSE(by_id.at(1).completed);
    EXPECT_EQ(by_id.at(replacement_id.load()).frames, 3u);
    EXPECT_TRUE(by_id.at(replacement_id.load()).completed);
    // Conservation across the churn: 3 full streams + 1 cut short + the
    // replacement's full target.
    EXPECT_EQ(rep.frames, 3u * 3u + 1u + 3u);
    EXPECT_EQ(rep.errors, 0u);
}

/**
 * Shedding conservation: with an unserviceable period (1 GHz fps), every
 * frame is past its deadline at dequeue, so the shedder routes all of
 * them through hold-last-good *before* the engine lease. Shed is
 * first-class: every frame is accounted exactly once (report == journal
 * == registry), deadline_misses stays zero (shed ≠ miss), the vision
 * sink sees only decoded frames (shed ≠ delivered), and no traffic is
 * generated because no frame reached the store.
 */
TEST(FleetGuard, ShedAllFramesKeepsAccountingExact)
{
    constexpr u32 kStreams = 3;
    constexpr u32 kFrames = 4;
    obs::ObsContext obs;
    FleetConfig fc = guardFleet(kStreams, kFrames);
    fc.stream.obs = &obs;
    fc.stream.fps = 1e9;
    fc.use_deadlines = true;
    // Keep the ladder out of reach so shedding is the only actor.
    fc.stream.fault.degradation.escalate_after_misses = 1'000'000'000;
    fc.guard.shed.enabled = true;
    fc.guard.shed.slack_ms = 0.0;

    std::atomic<u64> sink_frames{0};
    fc.frame_sink = [&](StreamContext &, const PipelineFrameResult &) {
        sink_frames.fetch_add(1);
    };
    FleetServer server(fc);
    const FleetReport rep = server.run();

    EXPECT_EQ(rep.frames, u64{kStreams} * kFrames);
    EXPECT_EQ(rep.shed_frames, rep.frames);
    EXPECT_EQ(rep.deadline_misses, 0u);
    EXPECT_EQ(rep.errors, 0u);
    // The vision sink delivers decoded frames only; a shed frame is
    // accounted in journal/registry/report instead.
    EXPECT_EQ(sink_frames.load(), 0u);
    EXPECT_EQ(obs.registry().counter("pipeline.shed_frames").value(),
              rep.shed_frames);
    // Encode-point sheds never touch the store: zero model traffic, and
    // every served frame is hold-last-good (kept fraction 0).
    EXPECT_EQ(rep.bytes_written, 0u);
    EXPECT_EQ(rep.metadata_bytes, 0u);
    EXPECT_DOUBLE_EQ(rep.kept_fraction_mean, 0.0);

    u64 per_stream_shed = 0;
    for (const FleetStreamReport &s : rep.streams) {
        EXPECT_EQ(s.shed, s.frames);
        EXPECT_TRUE(s.completed);
        // All-shed streams sit in Degraded (dirty but decoding fine).
        EXPECT_EQ(s.health, fault::HealthState::Degraded);
        per_stream_shed += s.shed;
    }
    EXPECT_EQ(per_stream_shed, rep.shed_frames);
}

/**
 * Decode-point shedding: every encode lease is slowed by four frame
 * periods, so a frame that passes the encode-point check is past its
 * deadline by the time it is stored and is shed before the decode lease.
 * Frames that fall behind meanwhile are shed at the encode point. Each
 * journal record must be one of the two shed kinds — unstored (no bytes,
 * no regions) or stored (payload written once, metadata written once,
 * nothing read back, region energies summing to the frame's DRAM
 * energy) — and shed counts agree across registry, report and journal.
 */
TEST(FleetGuard, DecodePointShedAccountsWriteSideOnly)
{
    constexpr u32 kStreams = 2;
    constexpr u32 kFrames = 4;
    // Dense 2-bit/px mask plus one u32 row offset per row (96x64 frame).
    constexpr Bytes kMetadataBytes = 96 * 64 / 4 + 64 * sizeof(u32);
    obs::ObsContext obs;
    obs::TelemetrySink sink;
    FleetConfig fc = guardFleet(kStreams, kFrames);
    fc.stream.obs = &obs;
    fc.stream.telemetry = &sink;
    fc.stream.fps = 20.0;
    fc.use_deadlines = true;
    fc.guard.shed.enabled = true;
    fc.guard.shed.slack_ms = 0.0;
    fc.chaos.enabled = true;
    fc.chaos.seed = 11;
    fc.chaos.slow_lease_rate = 1.0;
    fc.chaos.slow_lease_us = 200'000;

    FleetServer server(fc);
    const FleetReport rep = server.run();
    ASSERT_EQ(rep.frames, u64{kStreams} * kFrames);
    EXPECT_EQ(rep.errors, 0u);
    EXPECT_EQ(rep.deadline_misses, 0u);
    // No frame can outrun a four-period lease delay.
    EXPECT_EQ(rep.shed_frames, rep.frames);

    const std::vector<obs::FrameTelemetry> journal = sink.frames();
    ASSERT_EQ(journal.size(), rep.frames);
    u64 shed = 0, stored = 0;
    for (const obs::FrameTelemetry &ft : journal) {
        if (!ft.shed)
            continue;
        ++shed;
        EXPECT_EQ(ft.traffic.bytes_read, 0u) << ft.stream << "/" << ft.index;
        EXPECT_TRUE(ft.held_last_good);
        EXPECT_FALSE(ft.deadline_missed);
        if (ft.traffic.bytes_written == 0) {
            EXPECT_EQ(ft.traffic.metadata_bytes, 0u);
            EXPECT_EQ(ft.pixels_kept, 0u);
            EXPECT_TRUE(ft.regions.empty());
            EXPECT_EQ(ft.energy_dram_nj, 0.0);
            continue;
        }
        ++stored;
        EXPECT_EQ(ft.traffic.bytes_written, ft.pixels_kept);
        EXPECT_EQ(ft.traffic.metadata_bytes, kMetadataBytes);
        Bytes payload = 0;
        double region_energy_nj = 0.0;
        for (const obs::RegionTelemetry &rt : ft.regions) {
            payload += rt.payload_bytes;
            region_energy_nj += rt.energy_nj;
        }
        EXPECT_EQ(payload, ft.traffic.bytes_written);
        EXPECT_GT(ft.energy_dram_nj, 0.0);
        EXPECT_NEAR(region_energy_nj, ft.energy_dram_nj,
                    1e-6 * (1.0 + ft.energy_dram_nj));
    }
    EXPECT_GE(stored, 1u);
    EXPECT_EQ(shed, rep.shed_frames);
    EXPECT_EQ(sink.totals().shed_frames, rep.shed_frames);
    EXPECT_EQ(obs.registry().counter("pipeline.shed_frames").value(),
              rep.shed_frames);
}

/**
 * Watchdog eviction: chaos wedges every decode worker pass for 200 ms
 * while the watchdog evicts any stream whose frame has been in flight
 * for 60 ms. run() must return (no hang), the wedged streams must be
 * evicted with Evicted health, and their in-flight frames must still
 * retire through normal accounting (errors stay zero, per-stream frame
 * counts sum to the fleet total).
 */
TEST(FleetGuard, WatchdogEvictsWedgedStreamsWithoutHang)
{
    FleetConfig fc = guardFleet(2, 5);
    fc.chaos.enabled = true;
    fc.chaos.seed = 7;
    fc.chaos.worker_stall_rate = 1.0;
    fc.chaos.worker_stall_us = 200'000;
    fc.guard.watchdog.enabled = true;
    fc.guard.watchdog.interval_ms = 5;
    fc.guard.watchdog.warn_ms = 15;
    fc.guard.watchdog.evict_ms = 60;

    FleetServer server(fc);
    const FleetReport rep = server.run(); // must terminate

    EXPECT_GE(rep.watchdog_evictions, 1u);
    EXPECT_GE(rep.watchdog_warns, 1u);
    EXPECT_GE(rep.chaos_hits, 1u);
    EXPECT_EQ(rep.errors, 0u);
    EXPECT_LT(rep.streams_completed, 2u);

    u64 per_stream_frames = 0;
    u64 evicted = 0;
    for (const FleetStreamReport &s : rep.streams) {
        per_stream_frames += s.frames;
        if (s.evicted) {
            ++evicted;
            EXPECT_EQ(s.health, fault::HealthState::Evicted);
            EXPECT_FALSE(s.completed);
            // The wedged frame itself still completed and was counted.
            EXPECT_GE(s.frames, 1u);
        }
    }
    EXPECT_EQ(evicted, rep.watchdog_evictions);
    EXPECT_EQ(per_stream_frames, rep.frames);
}

/**
 * Stage errors drive health even where no ladder is configured: one
 * stream, no deadlines, no fault config, on the sensor path. Frames 2-4
 * arrive grayscale, so CaptureStage throws and each frame errors. Three
 * errored frames in a row quarantine the stream (Healthy -> Degraded ->
 * Quarantined); four decoded frames then step it back to Degraded (one
 * recovery) and one more clean frame restores Healthy. Errored frames
 * skip the ladder, so the level stays 0.
 */
TEST(FleetGuard, StageErrorsDriveHealthWithoutLadder)
{
    struct Expect {
        u32 frames;
        fault::HealthState health;
        u64 transitions;
        u64 recoveries;
    };
    for (const Expect &want :
         {Expect{5, fault::HealthState::Quarantined, 2, 0},
          Expect{12, fault::HealthState::Healthy, 4, 1}}) {
        FleetConfig fc = guardFleet(1, want.frames);
        fc.stream.use_sensor_path = true;
        fc.scene_source = [](u32, u64 frame) {
            const bool gray = frame >= 2 && frame <= 4;
            return Image(96, 64, gray ? PixelFormat::Gray8 : PixelFormat::Rgb8,
                         128);
        };
        FleetServer server(fc);
        const FleetReport rep = server.run();

        ASSERT_EQ(rep.streams.size(), 1u);
        const FleetStreamReport &s = rep.streams[0];
        EXPECT_EQ(s.frames, want.frames);
        EXPECT_EQ(s.errors, 3u);
        EXPECT_STREQ(fault::healthStateName(s.health),
                     fault::healthStateName(want.health));
        EXPECT_EQ(s.health_transitions, want.transitions);
        EXPECT_EQ(s.health_recoveries, want.recoveries);
        EXPECT_EQ(s.degradation_level, 0);
    }
}

} // namespace
} // namespace rpx::fleet
