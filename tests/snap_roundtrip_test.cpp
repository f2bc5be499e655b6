/**
 * @file
 * Bit-exactness of checkpoint/restore round-trips: RNG stream
 * positions (including the Box-Muller cache), the event queue under a
 * randomized 10k-op workload, and full sharded-platform snapshots —
 * a restored run's totals (spend doubles included) must equal the
 * straight-through run's bit for bit, from a fresh platform, from a
 * reused one (the fork-many fast path), and from a pre-parsed
 * SnapshotReader.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <functional>
#include <string>
#include <vector>

#include "faas/sharded.hpp"
#include "sim/event_queue.hpp"
#include "sim/rng.hpp"
#include "snap/format.hpp"
#include "snap/snapshotter.hpp"
#include "support/chunked_table.hpp"

namespace eaao::snap {
namespace {

// ------------------------------------------------------------------ rng

TEST(SnapRoundTrip, RngStateRoundTripsBitExact)
{
    sim::Rng rng(0x5eedULL);
    for (int i = 0; i < 17; ++i)
        rng();
    // An odd number of normal() draws leaves the Box-Muller cache
    // armed; the captured state must replay it.
    for (int i = 0; i < 3; ++i)
        rng.normal();

    const sim::RngState state = rng.saveState();
    sim::Rng resumed(1ULL); // different seed: restoreState must win
    resumed.restoreState(state);

    for (int i = 0; i < 64; ++i) {
        const double a = rng.normal(), b = resumed.normal();
        EXPECT_EQ(0, std::memcmp(&a, &b, sizeof a)) << "draw " << i;
        EXPECT_EQ(rng(), resumed());
    }
}

TEST(SnapRoundTrip, RngForkPositionsSurviveRoundTrip)
{
    sim::Rng rng(99ULL);
    rng.normal(); // arm the cache before forking
    const sim::RngState state = rng.saveState();
    sim::Rng resumed(12345ULL);
    resumed.restoreState(state);
    // fork() must derive identical child streams from the restored
    // position, and identical draws must follow the fork.
    for (const std::uint64_t stream : {0ULL, 7ULL, 0x123456789ULL}) {
        sim::Rng a = rng.fork(stream), b = resumed.fork(stream);
        for (int i = 0; i < 8; ++i)
            EXPECT_EQ(a(), b());
    }
    for (int i = 0; i < 8; ++i)
        EXPECT_EQ(rng(), resumed());
}

// ---------------------------------------------------------------- queue

/** An event queue plus the log its tagged callbacks append to. */
struct QueueHarness
{
    sim::EventQueue eq;
    std::vector<std::uint64_t> log;

    sim::EventQueue::Callback
    callbackFor(std::uint64_t arg)
    {
        return [this, arg] { log.push_back(arg ^ (arg << 7)); };
    }
};

/**
 * Drive @p h with @p n deterministic pseudo-random operations
 * (schedule / cancel / advance), mirroring every EventId into
 * @p ids so later cancels target identical handles in two harnesses.
 */
void
driveOps(QueueHarness &h, sim::Rng &rng, std::size_t n,
         std::vector<sim::EventId> &ids)
{
    for (std::size_t i = 0; i < n; ++i) {
        const std::uint64_t pick = rng() % 100;
        if (pick < 60) {
            const std::uint64_t arg = rng();
            const sim::Duration delay =
                sim::Duration::nanos(1 + static_cast<std::int64_t>(
                                             rng() % 10'000));
            ids.push_back(h.eq.scheduleAfter(
                delay, sim::EventTag{1, arg}, h.callbackFor(arg)));
        } else if (pick < 75 && !ids.empty()) {
            h.eq.cancel(ids[rng() % ids.size()]);
        } else {
            h.eq.advance(sim::Duration::nanos(
                static_cast<std::int64_t>(rng() % 5'000)));
        }
    }
}

TEST(SnapRoundTrip, EventQueueSurvives10kOpPropertyTest)
{
    // Phase A: 10k random ops, then capture the queue mid-flight.
    QueueHarness ref;
    sim::Rng rng(2024ULL);
    std::vector<sim::EventId> ids;
    driveOps(ref, rng, 10'000, ids);

    sim::EventQueueImage img;
    ASSERT_TRUE(ref.eq.exportImage(img));

    QueueHarness restored;
    restored.eq.importImage(img, [&](std::uint32_t kind,
                                     std::uint64_t arg) {
        EXPECT_EQ(kind, 1u);
        return restored.callbackFor(arg);
    });
    ASSERT_EQ(restored.eq.now().ns(), ref.eq.now().ns());
    ASSERT_EQ(restored.eq.pending(), ref.eq.pending());

    // Phase B: 10k more identical ops on both queues — the restored
    // queue must schedule identical EventIds (verbatim slab/free-list
    // restore), honor pre-capture handles for cancels, and fire the
    // same events in the same order.
    const sim::RngState fork_point = rng.saveState();
    std::vector<sim::EventId> ref_ids = ids;
    driveOps(ref, rng, 10'000, ref_ids);

    sim::Rng rng2(54321ULL);
    rng2.restoreState(fork_point);
    std::vector<sim::EventId> restored_ids = ids;
    driveOps(restored, rng2, 10'000, restored_ids);

    ref.eq.run();
    restored.eq.run();

    // The reference harness logged phase-A firings the restored one
    // never saw; everything from the capture point on must match.
    ASSERT_GE(ref.log.size(), restored.log.size());
    const std::size_t pre = ref.log.size() - restored.log.size();
    EXPECT_TRUE(std::equal(restored.log.begin(), restored.log.end(),
                           ref.log.begin() + static_cast<std::ptrdiff_t>(
                                                 pre)));
    EXPECT_EQ(restored.eq.now().ns(), ref.eq.now().ns());
    EXPECT_EQ(restored.eq.scheduled(), ref.eq.scheduled());
    EXPECT_EQ(restored.eq.processed(), ref.eq.processed());
    EXPECT_EQ(restored.eq.cancelled(), ref.eq.cancelled());
    EXPECT_EQ(restored.eq.pending(), ref.eq.pending());
}

// ------------------------------------------------------------- platform

faas::ShardedConfig
campaignConfig(unsigned threads)
{
    faas::ShardedConfig cfg;
    cfg.profile.host_count = 550; // 5 lanes
    cfg.seed = 4242;
    cfg.threads = threads;
    return cfg;
}

/** A small prime-then-storm campaign across every lane. */
std::vector<faas::ShardOp>
campaignOps(faas::ShardedPlatform &platform, sim::SimTime &horizon)
{
    using Kind = faas::ShardOp::Kind;
    std::vector<faas::ShardOp> ops;
    for (std::uint32_t lane = 0; lane < platform.laneCount(); ++lane) {
        const faas::AccountId acct = platform.createAccount(lane, 1000);
        const faas::ServiceId svc =
            platform.deployService(acct, faas::ExecEnv::Gen1);
        sim::SimTime t;
        std::uint32_t step = 0;
        const auto push = [&](Kind kind) -> faas::ShardOp & {
            faas::ShardOp op;
            op.kind = kind;
            op.at = t;
            op.step = step++;
            op.service = svc;
            op.account = acct;
            ops.push_back(op);
            return ops.back();
        };
        push(Kind::Connect).a = 20;
        t = t + sim::Duration::minutes(1);
        push(Kind::Disconnect);
        t = t + sim::Duration::minutes(4);
        faas::ShardOp &storm = push(Kind::RouteStorm);
        storm.n = 400;
        storm.dur = sim::Duration::fromSecondsF(0.05);
        storm.dur_step = sim::Duration::fromSecondsF(0.01);
        storm.dur_mod = 7;
        storm.gap_every = 8;
        storm.gap = sim::Duration::fromSecondsF(0.02);
        storm.spend_every = 64;
        horizon = t + sim::Duration::minutes(5);
    }
    return ops;
}

struct CapturedRun
{
    std::vector<std::uint8_t> image;
    faas::ShardedTotals totals;
};

/** Run to the pre-fold barrier of @p capture_at, snapshot, finish. */
CapturedRun
primeCaptureFinish(unsigned threads)
{
    faas::ShardedPlatform platform(campaignConfig(threads));
    sim::SimTime horizon;
    std::vector<faas::ShardOp> ops = campaignOps(platform, horizon);
    platform.beginRun(std::move(ops), horizon);
    CapturedRun out;
    // Capture at the last priming window: 5 min / 30 s = 10 windows,
    // barrier index 9, pre-fold (advanceWindow done, fold pending).
    for (std::uint32_t w = 0; w < 9; ++w) {
        platform.advanceWindow();
        platform.completeWindow();
    }
    platform.advanceWindow();
    out.image = Snapshotter::capture(platform);
    platform.completeWindow();
    platform.resumeRun();
    out.totals = platform.totals();
    return out;
}

void
expectTotalsBitExact(const faas::ShardedTotals &a,
                     const faas::ShardedTotals &b)
{
    EXPECT_EQ(a.routed, b.routed);
    EXPECT_EQ(a.instances, b.instances);
    EXPECT_EQ(a.windows, b.windows);
    EXPECT_EQ(a.events_scheduled, b.events_scheduled);
    EXPECT_EQ(a.events_processed, b.events_processed);
    // Spend doubles compare as bit patterns, not approximately: the
    // snapshot stores IEEE-754 bits verbatim and the resumed run must
    // accumulate from exactly the captured partial sums.
    EXPECT_EQ(0, std::memcmp(&a.spend_checksum, &b.spend_checksum, 8));
    EXPECT_EQ(0, std::memcmp(&a.final_spend_usd, &b.final_spend_usd, 8));
}

TEST(SnapRoundTrip, RestoredRunMatchesStraightRunBitExact)
{
    const CapturedRun ref = primeCaptureFinish(2);

    faas::ShardedPlatform platform(campaignConfig(2));
    std::string error;
    ASSERT_TRUE(Snapshotter::restore(ref.image, platform, error)) << error;
    platform.resumeRun();
    expectTotalsBitExact(platform.totals(), ref.totals);
}

TEST(SnapRoundTrip, RestoreIsGroupingInvariant)
{
    // A snapshot captured at one lane grouping restores at another:
    // lane layout depends only on the fleet size.
    const CapturedRun ref = primeCaptureFinish(2);

    faas::ShardedPlatform platform(campaignConfig(5));
    std::string error;
    ASSERT_TRUE(Snapshotter::restore(ref.image, platform, error)) << error;
    platform.resumeRun();
    expectTotalsBitExact(platform.totals(), ref.totals);
}

TEST(SnapRoundTrip, ForkManyReusesOnePlatformAndOneParse)
{
    const CapturedRun ref = primeCaptureFinish(3);

    // The forked-storm fast path: parse (and checksum) once, then
    // restore repeatedly into one reused platform — including into a
    // platform that has already run to completion.
    SnapshotReader reader;
    std::string error;
    ASSERT_TRUE(reader.parse(ref.image, error, 2)) << error;

    faas::ShardedPlatform platform(campaignConfig(3));
    for (int fork = 0; fork < 3; ++fork) {
        ASSERT_TRUE(Snapshotter::restore(reader, platform, error))
            << "fork " << fork << ": " << error;
        platform.resumeRun();
        expectTotalsBitExact(platform.totals(), ref.totals);
    }
}

TEST(SnapRoundTrip, CapturedImageIsThreadCountInvariant)
{
    // Parallel per-lane capture must assemble the identical image a
    // serial capture produces.
    const CapturedRun serial = primeCaptureFinish(1);
    const CapturedRun fanned = primeCaptureFinish(4);
    EXPECT_EQ(serial.image, fanned.image);
}

TEST(SnapRoundTrip, RestoredRoutingKeepsActivationOrderAcrossIds)
{
    // Connect 20, disconnect, connect 5: the reconnect wakes the most
    // recently idled instances first, so ids 19, 18, ... 15 activate
    // in that order and a lower id holds a later route_seq. Restore
    // re-keys active instances in id order; routing after it must
    // still break in_flight ties by activation order, exactly as the
    // un-snapshotted run does.
    using Kind = faas::ShardOp::Kind;
    const auto run = [](bool round_trip) {
        faas::ShardedPlatform platform(campaignConfig(2));
        const faas::AccountId acct = platform.createAccount(0, 1000);
        const faas::ServiceId svc =
            platform.deployService(acct, faas::ExecEnv::Gen1);
        std::vector<faas::ShardOp> ops;
        const auto push = [&](Kind kind, std::int64_t at_ms) {
            faas::ShardOp op;
            op.kind = kind;
            op.at = sim::SimTime() + sim::Duration::millis(at_ms);
            op.step = static_cast<std::uint32_t>(ops.size());
            op.service = svc;
            op.account = acct;
            ops.push_back(op);
            return ops.size() - 1;
        };
        ops[push(Kind::SetConcurrency, 0)].a = 3;
        ops[push(Kind::Connect, 0)].a = 20;
        push(Kind::Disconnect, 60'000);
        ops[push(Kind::Connect, 100'000)].a = 5;
        for (int r = 0; r < 12; ++r) {
            faas::ShardOp &route = ops[push(Kind::Route, 150'000 + r * 500)];
            route.dur = sim::Duration::seconds(20 + r);
        }
        platform.beginRun(std::move(ops),
                          sim::SimTime() + sim::Duration::minutes(6));
        // Windows end at 30/60/90/120 s: capture pre-fold at 120 s,
        // with the five re-woken instances active and nothing routed.
        for (int w = 0; w < 3; ++w) {
            platform.advanceWindow();
            platform.completeWindow();
        }
        platform.advanceWindow();
        if (round_trip) {
            const std::vector<std::uint8_t> image =
                Snapshotter::capture(platform);
            faas::ShardedPlatform restored(campaignConfig(3));
            std::string error;
            EXPECT_TRUE(Snapshotter::restore(image, restored, error))
                << error;
            restored.resumeRun();
            return restored.renderLog();
        }
        platform.completeWindow();
        platform.resumeRun();
        return platform.renderLog();
    };
    const std::string straight = run(false);
    const std::string restored = run(true);
    // The first route goes to the earliest-activated: id 19, not 15.
    EXPECT_NE(straight.find("step=4 inst=19 "), std::string::npos)
        << straight;
    EXPECT_EQ(straight, restored);
}

TEST(SnapRoundTrip, RestoresInstanceTableSpanningChunks)
{
    // The instance table is a ChunkedTable; restore decodes straight
    // into one. Put lane 0 past two chunks of records (three services
    // launched, idled, reaped and relaunched) and check the restored
    // table and the resumed run against the straight one.
    using Kind = faas::ShardOp::Kind;
    using Table = support::ChunkedTable<faas::InstanceRecord>;
    const auto build = [](faas::ShardedPlatform &platform) {
        const faas::AccountId acct = platform.createAccount(0, 1000);
        std::vector<faas::ShardOp> ops;
        for (int s = 0; s < 3; ++s) {
            const faas::ServiceId svc =
                platform.deployService(acct, faas::ExecEnv::Gen1);
            for (int round = 0; round < 2; ++round) {
                faas::ShardOp op;
                op.service = svc;
                op.account = acct;
                op.kind = Kind::Connect;
                op.at = sim::SimTime() + sim::Duration::minutes(20 * round);
                op.step = static_cast<std::uint32_t>(ops.size());
                op.a = 400;
                ops.push_back(op);
                op.kind = Kind::Disconnect;
                op.at = op.at + sim::Duration::minutes(1);
                op.step = static_cast<std::uint32_t>(ops.size());
                ops.push_back(op);
            }
        }
        std::stable_sort(ops.begin(), ops.end(),
                         [](const faas::ShardOp &a, const faas::ShardOp &b) {
                             return a.at < b.at;
                         });
        return ops;
    };
    const sim::SimTime horizon = sim::SimTime() + sim::Duration::minutes(30);
    const int capture_window = 43; // 22 min: after the second launch

    faas::ShardedPlatform straight(campaignConfig(2));
    straight.run(build(straight), horizon);

    faas::ShardedPlatform platform(campaignConfig(2));
    platform.beginRun(build(platform), horizon);
    for (int w = 0; w < capture_window; ++w) {
        platform.advanceWindow();
        platform.completeWindow();
    }
    platform.advanceWindow();
    const std::size_t captured = platform.laneOrchestrator(0).instanceCount();
    ASSERT_GT(captured, 2 * Table::kPerChunk);
    const std::vector<std::uint8_t> image = Snapshotter::capture(platform);

    faas::ShardedPlatform restored(campaignConfig(3));
    std::string error;
    ASSERT_TRUE(Snapshotter::restore(image, restored, error)) << error;
    const faas::Orchestrator &orch = restored.laneOrchestrator(0);
    ASSERT_EQ(orch.instanceCount(), captured);
    for (const std::size_t id :
         {std::size_t{0}, Table::kPerChunk - 1, Table::kPerChunk,
          2 * Table::kPerChunk, captured - 1}) {
        EXPECT_EQ(orch.instance(id).id, id);
        EXPECT_EQ(orch.instance(id).host,
                  platform.laneOrchestrator(0).instance(id).host);
    }
    restored.resumeRun();
    expectTotalsBitExact(restored.totals(), straight.totals());
    EXPECT_EQ(restored.renderLog(), straight.renderLog());
}

// -------------------------------------------------- crafted queue images

/**
 * Re-assemble @p image with lane 0's event-queue image passed through
 * @p edit. The writer recomputes every checksum, so only the lane
 * decoder's own checks stand between the edit and the kernel.
 */
template <typename Edit>
std::vector<std::uint8_t>
editLaneQueue(const std::vector<std::uint8_t> &image, Edit &&edit)
{
    SnapshotReader reader;
    std::string error;
    EXPECT_TRUE(reader.parse(image, error)) << error;
    SnapshotWriter writer;
    for (const std::uint32_t id : reader.sectionIds()) {
        const SectionView *view = reader.section(id);
        std::vector<std::uint8_t> payload(view->data,
                                          view->data + view->size);
        if (id == kSectionLaneBase) {
            SectionReader in(view->data, view->size);
            sim::EventQueueImage img;
            EXPECT_TRUE(getEventQueueImage(in, img));
            edit(img);
            SectionWriter out;
            putEventQueueImage(out, img);
            payload = out.take();
            const std::size_t rest = in.remaining();
            payload.insert(payload.end(), view->data + view->size - rest,
                           view->data + view->size);
        }
        writer.addSection(id, std::move(payload));
    }
    return writer.finish();
}

TEST(SnapRoundTrip, RestoreRejectsCorruptEventQueueImages)
{
    const CapturedRun ref = primeCaptureFinish(1);
    // The helper itself is byte-exact: a no-op edit rebuilds the image.
    ASSERT_EQ(editLaneQueue(ref.image, [](sim::EventQueueImage &) {}),
              ref.image);

    using Img = sim::EventQueueImage;
    const auto first_live = [](const Img &img) {
        for (std::size_t i = 0; i < img.slots.size(); ++i) {
            if (img.slots[i].live)
                return i;
        }
        ADD_FAILURE() << "no live slot in lane 0";
        return std::size_t{0};
    };
    const auto far_slot = [](const Img &img) {
        return static_cast<std::uint32_t>(img.slots.size());
    };
    struct Case
    {
        const char *name;
        std::function<void(Img &)> edit;
        const char *want;
    };
    const std::vector<Case> cases = {
        {"wheel level past the levels",
         [](Img &img) { img.wheel.at(0).level = 4; }, "bucket out of range"},
        {"wheel level 255",
         [](Img &img) { img.wheel.at(0).level = 255; },
         "bucket out of range"},
        {"wheel slot past the slots",
         [](Img &img) { img.wheel.at(0).wslot = 64; },
         "bucket out of range"},
        {"wheel entry slot past the slab",
         [&](Img &img) { img.wheel.at(0).slot = far_slot(img); },
         "slot out of range"},
        {"heap entry slot past the slab",
         [&](Img &img) {
             img.heap.push_back(Img::EntryImage{img.now_ns, img.next_seq,
                                                far_slot(img), 1});
         },
         "slot out of range"},
        {"staging entry slot past the slab",
         [&](Img &img) {
             img.staging.push_back(Img::EntryImage{
                 img.now_ns, img.next_seq, far_slot(img) + 1000, 1});
         },
         "slot out of range"},
        {"free-list index past the slab",
         [&](Img &img) { img.free_list.push_back(far_slot(img)); },
         "free-list"},
        {"free-list names a live slot",
         [&](Img &img) {
             img.free_list.push_back(
                 static_cast<std::uint32_t>(first_live(img)));
         },
         "free-list"},
        {"live slot of an unknown kind",
         [&](Img &img) { img.slots[first_live(img)].kind = 99; },
         "unknown event kind"},
        {"live slot of the untagged kind",
         [&](Img &img) { img.slots[first_live(img)].kind = 0; },
         "unknown event kind"},
        {"live slot naming an instance never restored",
         [&](Img &img) { img.slots[first_live(img)].arg = 1u << 30; },
         "unknown event kind or argument"},
        {"live slot without a queue entry",
         [&](Img &img) {
             img.slots.push_back(Img::SlotImage{1, 1, 2, 0});
         },
         "without a queue entry"},
    };
    for (const Case &c : cases) {
        SCOPED_TRACE(c.name);
        const std::vector<std::uint8_t> image =
            editLaneQueue(ref.image, c.edit);
        faas::ShardedPlatform platform(campaignConfig(1));
        std::string error;
        EXPECT_FALSE(Snapshotter::restore(image, platform, error));
        EXPECT_EQ(error.rfind("corrupt snapshot: ", 0), 0u) << error;
        EXPECT_NE(error.find(c.want), std::string::npos) << error;
    }
}

TEST(SnapRoundTrip, RestoreRejectsConfigMismatch)
{
    const CapturedRun ref = primeCaptureFinish(2);

    faas::ShardedConfig other = campaignConfig(2);
    other.seed = 4243; // fingerprinted: must refuse
    faas::ShardedPlatform platform(other);
    std::string error;
    EXPECT_FALSE(Snapshotter::restore(ref.image, platform, error));
    EXPECT_NE(error.find("fingerprint"), std::string::npos) << error;
}

} // namespace
} // namespace eaao::snap
