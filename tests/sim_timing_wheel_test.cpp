/**
 * @file
 * Timing-wheel fast-path tests: the wheel-backed EventQueue must be
 * observationally identical to the pure-heap kernel — same pop order,
 * same cancel verdicts, same counters — across schedule/cancel/advance
 * mixes spanning every wheel level, cascade boundaries and the
 * far-future heap overflow, and its parked state must round-trip
 * bit-exactly through EventQueueImage.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "sim/event_queue.hpp"
#include "sim/rng.hpp"
#include "sim/timing_wheel.hpp"

namespace eaao::sim {
namespace {

constexpr std::int64_t kTickNs = std::int64_t(1) << TimingWheel::kTickBits;

/** Ticks one slot of @p level spans: 64^level. */
constexpr std::int64_t
spanTicks(unsigned level)
{
    return std::int64_t(1) << (TimingWheel::kSlotBits * level);
}

/** The wheel's whole horizon (level 3's span, ~39 h) in ns. */
constexpr std::int64_t kWheelSpanNs = spanTicks(TimingWheel::kLevels) * kTickNs;

/** Liveness predicate of a wheel driven without an event slab. */
constexpr auto kAllLive = [](const WheelEntry &) { return true; };

/**
 * Both kernels share the slab/seq logic, so a lock-step driver gets
 * identical EventIds from both and can replay every operation 1:1.
 */
struct QueuePair
{
    EventQueue wheel{SimTime(), /*use_wheel=*/true};
    EventQueue heap{SimTime(), /*use_wheel=*/false};
    std::vector<std::pair<int, std::int64_t>> wheel_trace;
    std::vector<std::pair<int, std::int64_t>> heap_trace;
    int tag = 0;

    EventId
    schedule(Duration d)
    {
        const int t = tag++;
        // Tagged, so the wheel queue can export an image at any point.
        const EventTag et{1, static_cast<std::uint64_t>(t)};
        const EventId a = wheel.scheduleAfter(d, et, [this, t] {
            wheel_trace.emplace_back(t, wheel.now().ns());
        });
        const EventId b = heap.scheduleAfter(d, et, [this, t] {
            heap_trace.emplace_back(t, heap.now().ns());
        });
        EXPECT_EQ(a, b); // identical slab state => identical handles
        return a;
    }

    void
    cancel(EventId id)
    {
        EXPECT_EQ(wheel.cancel(id), heap.cancel(id));
    }

    void
    advance(Duration d)
    {
        wheel.runUntil(wheel.now() + d);
        heap.runUntil(heap.now() + d);
        EXPECT_EQ(wheel.now(), heap.now());
    }

    /** Run both queues to the start of absolute tick @p tick. */
    void
    advanceToTick(std::int64_t tick)
    {
        advance(SimTime::fromNanos(tick * kTickNs) - wheel.now());
    }

    void
    finish()
    {
        wheel.run();
        heap.run();
        EXPECT_EQ(wheel_trace, heap_trace);
        EXPECT_EQ(wheel.pending(), heap.pending());
        EXPECT_EQ(wheel.processed(), heap.processed());
        EXPECT_EQ(wheel.scheduled(), heap.scheduled());
        EXPECT_EQ(wheel.cancelled(), heap.cancelled());
    }
};

TEST(TimingWheel, PropertyMatchesPureHeapOverRandomOps)
{
    // 10k mixed ops whose delays span level 0 (sub-tick) through the
    // far-future heap overflow (> level 3's ~39 h), interleaved with
    // horizon advances that cross cascade boundaries.
    Rng rng(0x77eel);
    QueuePair q;
    std::vector<EventId> cancellable;
    const auto ticks = [&rng](std::int64_t n) {
        return static_cast<std::int64_t>(
                   rng.uniformInt(static_cast<std::uint64_t>(n)))
               * kTickNs;
    };

    for (int op = 0; op < 10000; ++op) {
        const std::uint64_t kind = rng.uniformInt(std::uint64_t{10});
        if (kind < 6) { // schedule with a level-spanning delay mix
            const std::uint64_t band = rng.uniformInt(std::uint64_t{10});
            Duration d;
            if (band < 3) { // level 0: within a few ticks
                d = Duration::nanos(static_cast<std::int64_t>(
                    rng.uniformInt(std::uint64_t{4 * kTickNs})));
            } else if (band < 6) { // levels 1-2: ms to half an hour
                d = Duration::nanos(ticks(spanTicks(3)) + 17);
            } else if (band < 8) { // level 3: up to ~39 h
                d = Duration::nanos(spanTicks(3) * kTickNs
                                    + ticks(spanTicks(4) - spanTicks(3)));
            } else if (band < 9) { // level 3, at its span's far edge
                d = Duration::nanos(kWheelSpanNs - ticks(4096) - 1);
            } else { // beyond the wheel: heap overflow
                d = Duration::nanos(kWheelSpanNs)
                    + Duration::hours(static_cast<std::int64_t>(
                        rng.uniformInt(std::uint64_t{8})));
            }
            const EventId id = q.schedule(d);
            if (rng.uniformInt(std::uint64_t{2}) == 0)
                cancellable.push_back(id);
        } else if (kind < 8) { // cancel a remembered handle
            if (!cancellable.empty()) {
                const std::uint64_t pick = rng.uniformInt(
                    static_cast<std::uint64_t>(cancellable.size()));
                const EventId id = cancellable[pick];
                cancellable.erase(cancellable.begin() +
                                  static_cast<std::ptrdiff_t>(pick));
                q.cancel(id);
            }
        } else if (kind < 9) { // advance across tick and L0/L1 seams
            q.advance(Duration::millis(static_cast<std::int64_t>(
                rng.uniformInt(std::uint64_t{2000}))));
        } else { // jump across level-2 and level-3 cascades
            q.advance(Duration::nanos(ticks(spanTicks(3))));
        }
        ASSERT_EQ(q.wheel.pending(), q.heap.pending()) << "op " << op;
    }
    q.finish();
    EXPECT_EQ(q.wheel.pending(), 0u);
}

TEST(TimingWheel, CascadeBoundaryDelaysPopInOrder)
{
    // Delays pinned to exact level spans (64^k ticks) and one tick to
    // either side, from several misaligned start offsets: the cascade
    // windows land exactly on these seams.
    for (const std::int64_t start_off :
         {std::int64_t{0}, kTickNs - 1, 63 * kTickNs, 4096 * kTickNs + 17}) {
        QueuePair q;
        q.advance(Duration::nanos(start_off));
        for (const std::int64_t ticks :
             {std::int64_t{1}, std::int64_t{63}, std::int64_t{64},
              std::int64_t{65}, std::int64_t{64 * 64 - 1},
              std::int64_t{64 * 64}, std::int64_t{64 * 64 + 1},
              std::int64_t{64 * 64 * 64 - 1}, std::int64_t{64 * 64 * 64},
              std::int64_t{64 * 64 * 64 + 1},
              std::int64_t{64LL * 64 * 64 * 64 - 1},
              std::int64_t{64LL * 64 * 64 * 64},
              std::int64_t{64LL * 64 * 64 * 64 + 1}}) {
            q.schedule(Duration::nanos(ticks * kTickNs));
            q.schedule(Duration::nanos(ticks * kTickNs - 1));
            q.schedule(Duration::nanos(ticks * kTickNs + 1));
        }
        // Step the horizon in uneven strides so cascades fire mid-run.
        for (int i = 0; i < 40; ++i)
            q.advance(Duration::nanos((std::int64_t(1) << (i % 24)) * 777));
        q.finish();
    }
}

TEST(TimingWheel, FarFutureOverflowFiresInOrder)
{
    // Events beyond level 3's span never enter the wheel; they must
    // still interleave correctly with near-future wheel traffic.
    QueuePair q;
    for (int i = 0; i < 50; ++i) {
        q.schedule(Duration::nanos(kWheelSpanNs) + Duration::hours(1)
                   + Duration::nanos(i * 131));
        q.schedule(Duration::millis(i * 37));
        q.schedule(Duration::minutes(i));
    }
    q.advance(Duration::hours(1));
    q.finish();
    EXPECT_EQ(q.wheel.pending(), 0u);
}

TEST(TimingWheel, LongHorizonBeyondLevelThreeMatchesHeap)
{
    // A multi-day virtual horizon: events pinned around level 3's
    // span edge (64^4 ticks, ~39 h) and far beyond it into the
    // overflow heap, mixed with near-future wheel traffic. Overflow
    // entries enter the wheel only when the frontier catches up, and
    // every pop must still match the pure-heap kernel's total
    // (when, seq) order across the whole run.
    constexpr std::int64_t kL3Ticks = spanTicks(4);
    QueuePair q;
    for (std::int64_t i = 0; i < 80; ++i) {
        q.schedule(Duration::nanos((kL3Ticks - 40 + i) * kTickNs + i * 13));
        q.schedule(Duration::nanos(kWheelSpanNs) + Duration::hours(i % 9)
                   + Duration::minutes(i) + Duration::nanos(i * 131));
        q.schedule(Duration::millis(i * 997));
    }
    // Uneven multi-hour strides so overflow adoption, cascades and
    // quiet gaps all fire mid-run rather than in one final drain.
    for (int i = 0; i < 24; ++i)
        q.advance(Duration::nanos(kWheelSpanNs / 12 + i * 7919));
    q.finish();
    EXPECT_EQ(q.wheel.pending(), 0u);
    EXPECT_GT(q.wheel.now(), SimTime() + Duration::nanos(2 * kWheelSpanNs));
}

TEST(TimingWheel, QuietGapSkipsAcrossFullLevelThreeCascade)
{
    // One entry parked deep in level 3 and nothing else: stepping with
    // advanceOne must cross the quiet gap in O(levels) actions —
    // nextActionTick() goes straight to each cascade seam (L3 flush,
    // then L2, L1, and the final L0 dump) instead of visiting every
    // intermediate tick — and the entry must surface exactly once.
    TimingWheel w;
    const std::int64_t due_tick = 64LL * 64 * 64 * 50 + 1234;
    WheelEntry e;
    e.when = SimTime() + Duration::nanos(due_tick * kTickNs + 77);
    e.seq = 42;
    e.slot = 3;
    e.gen = 7;
    ASSERT_TRUE(w.insert(e));
    ASSERT_EQ(w.size(), 1u);

    std::vector<WheelEntry> popped;
    const auto sink = [&popped](const WheelEntry &x) {
        popped.push_back(x);
    };
    int actions = 0;
    while (w.advanceOne(due_tick, kAllLive, sink))
        ++actions;
    ASSERT_EQ(popped.size(), 1u);
    EXPECT_EQ(popped[0].when, e.when);
    EXPECT_EQ(popped[0].seq, e.seq);
    EXPECT_EQ(popped[0].slot, e.slot);
    EXPECT_EQ(popped[0].gen, e.gen);
    // One flush per level the entry ripples down plus the L0 dump.
    EXPECT_LE(actions, static_cast<int>(TimingWheel::kLevels) + 1);
    EXPECT_TRUE(w.empty());
    EXPECT_EQ(w.frontier(), due_tick + 1);

    // The now-empty wheel crosses the rest of the horizon in zero
    // actions: the quiet gap is skipped, not walked.
    EXPECT_FALSE(
        w.advanceOne(due_tick + 4 * TimingWheel::kSlots, kAllLive, sink));
    EXPECT_EQ(w.frontier(), due_tick + 4 * TimingWheel::kSlots + 1);
}

/** Every entry a wheel dumps, with the frontier (= action tick) then. */
struct DumpLog
{
    TimingWheel *wheel;
    std::vector<std::pair<std::uint64_t, std::int64_t>> dumped;

    void
    operator()(const WheelEntry &e)
    {
        dumped.emplace_back(e.seq, wheel->frontier());
    }
};

TEST(TimingWheel, OwnSlotFlushesAtWindowStartAndNextLapMidWindow)
{
    // At levels >= 1 a bucket in the frontier's own slot means one of
    // two windows: the one starting exactly at the frontier (flush
    // now), or — once that window has begun — the same slot one lap
    // (64 windows) later. Both must surface the entry at its due tick,
    // after exactly one flush per level it ripples down.
    for (unsigned level = 1; level < TimingWheel::kLevels; ++level) {
        SCOPED_TRACE(testing::Message() << "level " << level);
        const std::int64_t span = spanTicks(level);
        const std::int64_t w = 5; // a window index well inside lap 0

        // Window start: parked from window w-1's start in window w's
        // slot, then the frontier is stepped to exactly w * span.
        {
            TimingWheel wheel;
            wheel.reset((w - 1) * span);
            const std::int64_t due = w * span + span - 1;
            ASSERT_TRUE(wheel.insert(
                WheelEntry{SimTime::fromNanos(due * kTickNs), 1, 0, 1}));
            wheel.forEach([&](const WheelEntry &, std::uint8_t lv,
                              std::uint8_t slot) {
                EXPECT_EQ(lv, level);
                EXPECT_EQ(slot, w % TimingWheel::kSlots);
            });
            DumpLog log{&wheel, {}};
            wheel.advanceTo(w * span - 1, kAllLive, log);
            EXPECT_TRUE(log.dumped.empty());
            EXPECT_EQ(wheel.frontier(), w * span);
            // The own-slot bucket acts right at the frontier.
            ASSERT_TRUE(wheel.advanceOne(w * span, kAllLive, log));
            EXPECT_EQ(wheel.frontier(), w * span + 1);
            int actions = 1;
            while (wheel.advanceOne(due, kAllLive, log))
                ++actions;
            ASSERT_EQ(log.dumped.size(), 1u);
            EXPECT_EQ(log.dumped[0].second, due);
            EXPECT_LE(actions, static_cast<int>(level) + 1);
        }

        // Next lap: from mid-window w, a due tick in window w + 64
        // parks in the frontier's own slot and must wait a full lap.
        {
            TimingWheel wheel;
            const std::int64_t frontier = w * span + span / 2 + 1;
            wheel.reset(frontier);
            const std::int64_t lap = (w + TimingWheel::kSlots) * span;
            const std::int64_t due = lap + span / 4;
            ASSERT_TRUE(wheel.insert(
                WheelEntry{SimTime::fromNanos(due * kTickNs), 2, 0, 1}));
            wheel.forEach([&](const WheelEntry &, std::uint8_t lv,
                              std::uint8_t slot) {
                EXPECT_EQ(lv, level);
                EXPECT_EQ(slot, w % TimingWheel::kSlots);
            });
            DumpLog log{&wheel, {}};
            // The first action is the next lap's window start.
            ASSERT_TRUE(wheel.advanceOne(due, kAllLive, log));
            EXPECT_EQ(wheel.frontier(), lap + 1);
            while (wheel.advanceOne(due, kAllLive, log)) {
            }
            ASSERT_EQ(log.dumped.size(), 1u);
            EXPECT_EQ(log.dumped[0].second, due);
        }
    }
}

TEST(TimingWheel, NextLapSchedulesAndWindowStartHorizonsMatchHeap)
{
    // Through the kernel: for each level, park a batch of entries in
    // the frontier's own slot one lap ahead (plus neighbours either
    // side), then run to horizons that land exactly on level-1/2/3
    // window starts with nothing due there. Pop order must match the
    // pure-heap kernel throughout.
    for (unsigned level = 1; level < TimingWheel::kLevels; ++level) {
        SCOPED_TRACE(testing::Message() << "level " << level);
        const std::int64_t span = spanTicks(level);
        QueuePair q;
        // An anchor beyond the wheel keeps syncWheel moving the
        // frontier to each horizon.
        q.schedule(Duration::nanos(kWheelSpanNs + 12345));
        q.advanceToTick(5 * span + span / 2);
        const std::int64_t base = 5;
        const std::int64_t lap = (base + TimingWheel::kSlots) * span;
        for (const std::int64_t off :
             {std::int64_t{0}, span / 4, span / 2 - 1}) {
            const SimTime at = SimTime::fromNanos((lap + off) * kTickNs + 3);
            q.schedule(at - q.wheel.now());
        }
        q.schedule(Duration::nanos((lap - span + 1) * kTickNs)
                   - (q.wheel.now() - SimTime()));
        q.schedule(Duration::nanos(span * kTickNs));
        // Horizons exactly on window starts of every level, none due
        // there (entries sit 3 ns past their tick), in rising order.
        std::vector<std::int64_t> horizons = {lap, lap + span};
        for (unsigned l = 1; l < TimingWheel::kLevels; ++l) {
            const std::int64_t s = spanTicks(l);
            horizons.push_back((5 * span + span / 2) / s * s + s);
        }
        std::sort(horizons.begin(), horizons.end());
        for (const std::int64_t tick : horizons) {
            q.advanceToTick(tick);
            ASSERT_TRUE(q.wheel_trace == q.heap_trace);
        }
        q.finish();
        EXPECT_EQ(q.wheel_trace.size(), 6u);
    }
}

TEST(TimingWheel, ScheduleParksNearFutureEntriesAtOnce)
{
    // Wheel-bound entries skip the staging buffer: right after
    // scheduling, staging holds only the due and the beyond-the-wheel
    // entries, and the rest are already in their buckets.
    EventQueue eq;
    eq.scheduleAt(eq.now(), EventTag{1, 0}, [] {});
    eq.scheduleAfter(Duration::millis(100), EventTag{1, 1}, [] {});
    eq.scheduleAfter(Duration::minutes(10), EventTag{1, 2}, [] {});
    eq.scheduleAfter(Duration::nanos(kWheelSpanNs + 1), EventTag{1, 3},
                     [] {});
    EventQueueImage img;
    ASSERT_TRUE(eq.exportImage(img));
    ASSERT_EQ(img.staging.size(), 2u);
    EXPECT_EQ(img.staging[0].seq, 0u);
    EXPECT_EQ(img.staging[1].seq, 3u);
    ASSERT_EQ(img.wheel.size(), 2u);
    EXPECT_EQ(img.wheel[0].level, 0u); // 100 ms: under level 0's 537 ms
    EXPECT_EQ(img.wheel[1].level, 2u); // 10 min: level 2
    EXPECT_TRUE(img.heap.empty());
    eq.run();
    EXPECT_EQ(eq.processed(), 4u);
}

TEST(TimingWheel, StaleHandleAfterSlotReuseIsRefused)
{
    // Cancel an entry parked deep in the wheel, reuse its slab slot
    // for a nearer event, and probe the stale handle: the generation
    // tag must refuse it and the reused slot must fire exactly once.
    EventQueue eq;
    const EventId old_id = eq.scheduleAfter(Duration::minutes(10), [] {});
    ASSERT_TRUE(eq.cancel(old_id));

    int fired = 0;
    const EventId new_id =
        eq.scheduleAfter(Duration::millis(5), [&] { ++fired; });
    ASSERT_NE(old_id, new_id);
    EXPECT_FALSE(eq.cancel(old_id)); // stale generation -> refused
    EXPECT_EQ(eq.pending(), 1u);
    eq.run();
    EXPECT_EQ(fired, 1);
    EXPECT_FALSE(eq.cancel(old_id));
    EXPECT_FALSE(eq.cancel(new_id)); // already fired
}

TEST(TimingWheel, DeadEntriesDropAtTheirFirstCascade)
{
    // Straight on the wheel: 64 entries parked in one level-2 bucket,
    // every other one dead by the caller's predicate. The level-2
    // flush at the window start must drop the dead half there — size()
    // falls to the survivors before anything is due — and only
    // survivors move down a level and reach the sink.
    TimingWheel w;
    const std::int64_t window = 18 * spanTicks(2);
    for (std::uint32_t i = 0; i < 64; ++i) {
        ASSERT_TRUE(w.insert(WheelEntry{
            SimTime::fromNanos((window + 100 + 7 * i) * kTickNs), i, i, 1}));
    }
    w.forEach([](const WheelEntry &, std::uint8_t level, std::uint8_t) {
        EXPECT_EQ(level, 2u);
    });
    int checks = 0;
    const auto live = [&checks](const WheelEntry &e) {
        ++checks;
        return e.seq % 2 == 1;
    };
    std::vector<std::uint64_t> dumped;
    const auto sink = [&dumped](const WheelEntry &e) {
        dumped.push_back(e.seq);
    };

    ASSERT_TRUE(w.advanceOne(window, live, sink)); // the level-2 flush
    EXPECT_EQ(w.frontier(), window + 1);
    EXPECT_EQ(w.size(), 32u);
    EXPECT_EQ(checks, 64);
    EXPECT_TRUE(dumped.empty());
    w.forEach([](const WheelEntry &e, std::uint8_t level, std::uint8_t) {
        EXPECT_EQ(e.seq % 2, 1u);
        EXPECT_EQ(level, 1u); // 100..541 ticks out: one level down
    });

    while (w.advanceOne(window + 1000, live, sink)) {
    }
    EXPECT_TRUE(w.empty());
    std::vector<std::uint64_t> want;
    for (std::uint64_t i = 1; i < 64; i += 2)
        want.push_back(i);
    std::sort(dumped.begin(), dumped.end());
    EXPECT_EQ(dumped, want);
    // A survivor is checked once per bucket it leaves (L2, L1, L0 dump);
    // a dead entry only once.
    EXPECT_EQ(checks, 64 + 32 + 32);
}

TEST(TimingWheel, CancelledParkedEntriesDieAtCascade)
{
    // The reap pattern at its real scale: timers parked ~10 min out
    // (level 2), half of them cancelled, plus staged entries (due now,
    // or beyond the wheel) with half of those cancelled too. An image
    // taken right after the cancels carries only live wheel and
    // staging entries; once the frontier crosses the timers' level-2
    // window boundary the wheel holds exactly the survivors, one level
    // down; and everything fires in the pure-heap kernel's order.
    const std::int64_t window = 18 * spanTicks(2); // ~10.3 min
    QueuePair q;
    std::vector<EventId> ids;
    for (int i = 0; i < 200; ++i) {
        ids.push_back(q.schedule(Duration::nanos(window * kTickNs)
                                 + Duration::seconds(2)
                                 + Duration::millis(50 * i)));
    }
    for (int i = 0; i < 16; ++i) {
        ids.push_back(q.schedule(i % 4 < 2 ? Duration()
                                           : Duration::nanos(kWheelSpanNs
                                                             + i)));
    }
    for (std::size_t i = 0; i < ids.size(); i += 2)
        q.cancel(ids[i]);

    EventQueueImage img;
    const auto live = [&img](std::uint32_t slot, std::uint32_t gen) {
        return img.slots.at(slot).live != 0 && img.slots[slot].gen == gen;
    };
    ASSERT_TRUE(q.wheel.exportImage(img));
    ASSERT_EQ(img.wheel.size(), 100u);
    for (const EventQueueImage::WheelEntryImage &w : img.wheel) {
        EXPECT_TRUE(live(w.slot, w.gen)) << "seq " << w.seq;
        EXPECT_EQ(w.level, 2u);
    }
    ASSERT_EQ(img.staging.size(), 8u);
    for (const EventQueueImage::EntryImage &e : img.staging)
        EXPECT_TRUE(live(e.slot, e.gen)) << "seq " << e.seq;

    q.advanceToTick(window);
    ASSERT_TRUE(q.wheel.exportImage(img));
    std::vector<std::uint64_t> parked;
    for (const EventQueueImage::WheelEntryImage &w : img.wheel) {
        EXPECT_TRUE(live(w.slot, w.gen)) << "seq " << w.seq;
        EXPECT_EQ(w.level, 1u) << "seq " << w.seq;
        parked.push_back(w.seq);
    }
    std::sort(parked.begin(), parked.end());
    std::vector<std::uint64_t> survivors;
    for (std::uint64_t i = 1; i < 200; i += 2)
        survivors.push_back(i);
    EXPECT_EQ(parked, survivors);

    q.finish();
    EXPECT_EQ(q.wheel_trace.size(), 100u + 8u);
    EXPECT_EQ(q.wheel.cancelled(), 108u);
}

/** Field-by-field image equality, wheel placement included. */
void
expectImagesEqual(const EventQueueImage &a, const EventQueueImage &b)
{
    EXPECT_EQ(a.now_ns, b.now_ns);
    EXPECT_EQ(a.next_seq, b.next_seq);
    EXPECT_EQ(a.processed, b.processed);
    EXPECT_EQ(a.scheduled, b.scheduled);
    EXPECT_EQ(a.cancelled, b.cancelled);
    ASSERT_EQ(a.slots.size(), b.slots.size());
    for (std::size_t i = 0; i < a.slots.size(); ++i) {
        EXPECT_EQ(a.slots[i].gen, b.slots[i].gen) << "slot " << i;
        EXPECT_EQ(a.slots[i].live, b.slots[i].live) << "slot " << i;
        EXPECT_EQ(a.slots[i].kind, b.slots[i].kind) << "slot " << i;
        EXPECT_EQ(a.slots[i].arg, b.slots[i].arg) << "slot " << i;
    }
    const auto entries_equal = [](const EventQueueImage::EntryImage &x,
                                  const EventQueueImage::EntryImage &y) {
        return x.when_ns == y.when_ns && x.seq == y.seq && x.slot == y.slot
               && x.gen == y.gen;
    };
    ASSERT_EQ(a.heap.size(), b.heap.size());
    for (std::size_t i = 0; i < a.heap.size(); ++i)
        EXPECT_TRUE(entries_equal(a.heap[i], b.heap[i])) << "heap " << i;
    ASSERT_EQ(a.staging.size(), b.staging.size());
    for (std::size_t i = 0; i < a.staging.size(); ++i)
        EXPECT_TRUE(entries_equal(a.staging[i], b.staging[i]))
            << "staging " << i;
    EXPECT_EQ(a.free_list, b.free_list);
    EXPECT_EQ(a.wheel_frontier, b.wheel_frontier);
    ASSERT_EQ(a.wheel.size(), b.wheel.size());
    for (std::size_t i = 0; i < a.wheel.size(); ++i) {
        EXPECT_EQ(a.wheel[i].when_ns, b.wheel[i].when_ns) << "wheel " << i;
        EXPECT_EQ(a.wheel[i].seq, b.wheel[i].seq) << "wheel " << i;
        EXPECT_EQ(a.wheel[i].slot, b.wheel[i].slot) << "wheel " << i;
        EXPECT_EQ(a.wheel[i].gen, b.wheel[i].gen) << "wheel " << i;
        EXPECT_EQ(a.wheel[i].level, b.wheel[i].level) << "wheel " << i;
        EXPECT_EQ(a.wheel[i].wslot, b.wheel[i].wslot) << "wheel " << i;
    }
}

TEST(TimingWheel, SnapshotRoundTripIsBitExactWithPostRestoreCancels)
{
    // Park tagged events across every level (and the overflow heap),
    // advance far enough that cascades have moved entries between
    // levels, then capture. Restore must reproduce the image
    // bit-exactly — bucket placement included — and handles issued
    // before the capture must stay cancellable in the restored queue.
    EventQueue original;
    std::vector<std::pair<std::uint64_t, std::int64_t>> original_trace;
    const auto cb_for = [&original,
                         &original_trace](std::uint64_t arg) {
        return [&original, &original_trace, arg] {
            original_trace.emplace_back(arg, original.now().ns());
        };
    };
    std::vector<EventId> ids;
    std::uint64_t arg = 0;
    for (const std::int64_t ticks :
         {std::int64_t{1}, std::int64_t{7}, std::int64_t{64},
          std::int64_t{100}, std::int64_t{64 * 64 + 9},
          std::int64_t{64 * 64 * 64 + 5}, std::int64_t{64LL * 64 * 64 * 64},
          std::int64_t{64LL * 64 * 64 * 64 + 99}}) {
        for (int rep = 0; rep < 4; ++rep) {
            ids.push_back(original.scheduleAt(
                original.now()
                    + Duration::nanos(ticks * kTickNs + rep * 101),
                EventTag{1, arg}, cb_for(arg)));
            ++arg;
        }
    }
    // Cross several cascade boundaries so parked entries have moved.
    original.runUntil(SimTime() + Duration::nanos(70 * kTickNs + 1234));

    EventQueueImage img;
    ASSERT_TRUE(original.exportImage(img));
    EXPECT_GT(img.wheel.size(), 0u);
    original_trace.clear(); // compare post-capture firings only

    EventQueue restored;
    std::vector<std::pair<std::uint64_t, std::int64_t>> restored_trace;
    restored.importImage(img, [&restored, &restored_trace](
                                  std::uint32_t kind, std::uint64_t a) {
        EXPECT_EQ(kind, 1u);
        return EventQueue::Callback([&restored, &restored_trace, a] {
            restored_trace.emplace_back(a, restored.now().ns());
        });
    });

    EventQueueImage img2;
    ASSERT_TRUE(restored.exportImage(img2));
    expectImagesEqual(img, img2);

    // Post-restore cancels through pre-capture handles, applied to
    // both queues; the remaining schedules must replay identically.
    for (std::size_t i = 0; i < ids.size(); i += 3) {
        const bool orig_ok = original.cancel(ids[i]);
        EXPECT_EQ(orig_ok, restored.cancel(ids[i])) << "id index " << i;
    }
    original.run();
    restored.run();
    EXPECT_EQ(original_trace.size(), restored_trace.size());
    EXPECT_EQ(original_trace, restored_trace);
    EXPECT_EQ(original.processed(), restored.processed());
    EXPECT_EQ(original.cancelled(), restored.cancelled());
}

TEST(TimingWheel, WheelImageRestoresIntoPureHeapQueue)
{
    // A wheel-bearing image must stay runnable when restored into a
    // pure-heap kernel (the parked entries just live in the heap).
    EventQueue original;
    std::vector<std::uint64_t> original_fired;
    for (std::uint64_t i = 0; i < 32; ++i) {
        original.scheduleAfter(
            Duration::millis(static_cast<std::int64_t>(1 + i * 97)),
            EventTag{1, i},
            [&original_fired, i] { original_fired.push_back(i); });
    }
    original.runUntil(SimTime() + Duration::millis(40));

    EventQueueImage img;
    ASSERT_TRUE(original.exportImage(img));
    EXPECT_GT(img.wheel.size(), 0u);
    original_fired.clear(); // compare post-capture firings only

    EventQueue heap_only(SimTime(), /*use_wheel=*/false);
    std::vector<std::uint64_t> restored_fired;
    heap_only.importImage(img, [&restored_fired](std::uint32_t,
                                                 std::uint64_t a) {
        return EventQueue::Callback(
            [&restored_fired, a] { restored_fired.push_back(a); });
    });
    original.run();
    heap_only.run();
    EXPECT_EQ(original_fired, restored_fired);
}

TEST(TimingWheel, OldImageWithDeadEntriesRunsLikeItsLiveOnlyTwin)
{
    // Earlier builds exported snapshot format v4 images with every
    // parked and staged entry, cancelled ones included. Rebuild such an
    // image from this build's live-only one by adding back each
    // cancelled event's entry with its stale generation and its bucket,
    // as taken before the cancels. Both images must restore, pop the
    // same sequence as the original queue and end with the same
    // counters; re-exporting the old one gives the live-only image.
    using Trace = std::vector<std::pair<std::uint64_t, std::int64_t>>;
    EventQueue original;
    Trace original_trace;
    original.runUntil(SimTime() + Duration::seconds(40));
    std::vector<EventId> ids;
    for (std::uint64_t i = 0; i < 120; ++i) {
        Duration d;
        const auto n = static_cast<std::int64_t>(i);
        switch (i % 6) {
        case 0: // due now
            d = Duration();
            break;
        case 1: // level 0
            d = Duration::millis(30 + n);
            break;
        case 2: // level 1
            d = Duration::seconds(5 + n);
            break;
        case 3: // level 2
            d = Duration::minutes(10) + Duration::seconds(n);
            break;
        case 4: // level 3
            d = Duration::hours(3) + Duration::minutes(n);
            break;
        default: // beyond the wheel: staged
            d = Duration::nanos(kWheelSpanNs) + Duration::minutes(n);
        }
        ids.push_back(original.scheduleAfter(
            d, EventTag{1, i}, [&original, &original_trace, i] {
                original_trace.emplace_back(i, original.now().ns());
            }));
    }
    EventQueueImage before;
    ASSERT_TRUE(original.exportImage(before));
    for (std::size_t i = 0; i < ids.size(); ++i) {
        if (i % 4 != 3) {
            ASSERT_TRUE(original.cancel(ids[i]));
        }
    }
    // Reuse freed slots: some dead entries now name a live slot of a
    // later generation.
    for (std::uint64_t i = 120; i < 140; ++i) {
        original.scheduleAfter(
            Duration::seconds(static_cast<std::int64_t>(i)), EventTag{1, i},
            [&original, &original_trace, i] {
                original_trace.emplace_back(i, original.now().ns());
            });
    }
    EventQueueImage live_only;
    ASSERT_TRUE(original.exportImage(live_only));

    EventQueueImage old = live_only;
    const auto dead = [&live_only](std::uint32_t slot, std::uint32_t gen) {
        const EventQueueImage::SlotImage &s = live_only.slots.at(slot);
        return s.live == 0 || s.gen != gen;
    };
    for (const EventQueueImage::WheelEntryImage &w : before.wheel) {
        if (dead(w.slot, w.gen))
            old.wheel.push_back(w);
    }
    for (const EventQueueImage::EntryImage &e : before.staging) {
        if (dead(e.slot, e.gen))
            old.staging.push_back(e);
    }
    ASSERT_GT(old.wheel.size(), live_only.wheel.size());
    ASSERT_GT(old.staging.size(), live_only.staging.size());

    const auto restore = [](const EventQueueImage &img, EventQueue &eq,
                            Trace &trace) {
        eq.importImage(img, [&eq, &trace](std::uint32_t kind,
                                          std::uint64_t a) {
            EXPECT_EQ(kind, 1u);
            return EventQueue::Callback(
                [&eq, &trace, a] { trace.emplace_back(a, eq.now().ns()); });
        });
    };
    EventQueue from_live;
    EventQueue from_old;
    Trace live_trace;
    Trace old_trace;
    restore(live_only, from_live, live_trace);
    restore(old, from_old, old_trace);
    EXPECT_EQ(from_old.pending(), from_live.pending());
    EventQueueImage reexported;
    ASSERT_TRUE(from_old.exportImage(reexported));
    expectImagesEqual(reexported, live_only);

    // Uneven strides cross level-1/2/3 cascades before the final drain.
    for (EventQueue *eq : {&original, &from_live, &from_old}) {
        for (int i = 1; i <= 12; ++i)
            eq->advance(Duration::minutes(7 * i) + Duration::millis(i));
        eq->run();
    }
    EXPECT_EQ(live_trace, original_trace);
    EXPECT_EQ(old_trace, original_trace);
    EXPECT_EQ(original_trace.size(), 30u + 20u);
    for (const EventQueue *eq : {&from_live, &from_old}) {
        EXPECT_EQ(eq->processed(), original.processed());
        EXPECT_EQ(eq->cancelled(), original.cancelled());
        EXPECT_EQ(eq->scheduled(), original.scheduled());
        EXPECT_EQ(eq->pending(), 0u);
        EXPECT_EQ(eq->now(), original.now());
    }
}

} // namespace
} // namespace eaao::sim
