/**
 * @file
 * Unit tests for the discrete-event kernel.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <map>
#include <utility>
#include <vector>

#include "sim/event_queue.hpp"
#include "sim/rng.hpp"
#include "sim/timing_wheel.hpp"

namespace eaao::sim {
namespace {

TEST(EventQueue, RunsEventsInTimeOrder)
{
    EventQueue eq;
    std::vector<int> order;
    eq.scheduleAt(SimTime::fromNanos(300), [&] { order.push_back(3); });
    eq.scheduleAt(SimTime::fromNanos(100), [&] { order.push_back(1); });
    eq.scheduleAt(SimTime::fromNanos(200), [&] { order.push_back(2); });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(eq.now(), SimTime::fromNanos(300));
}

TEST(EventQueue, SameTimeIsFifo)
{
    EventQueue eq;
    std::vector<int> order;
    for (int i = 0; i < 5; ++i) {
        eq.scheduleAt(SimTime::fromNanos(100),
                      [&order, i] { order.push_back(i); });
    }
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventQueue, ScheduleAfterUsesCurrentTime)
{
    EventQueue eq;
    SimTime fired;
    eq.scheduleAfter(Duration::seconds(5),
                     [&] { fired = eq.now(); });
    eq.run();
    EXPECT_EQ(fired, SimTime() + Duration::seconds(5));
}

TEST(EventQueue, CancelPreventsExecution)
{
    EventQueue eq;
    bool ran = false;
    const EventId id =
        eq.scheduleAfter(Duration::seconds(1), [&] { ran = true; });
    EXPECT_TRUE(eq.cancel(id));
    EXPECT_FALSE(eq.cancel(id)); // second cancel is a no-op
    eq.run();
    EXPECT_FALSE(ran);
}

TEST(EventQueue, RunUntilStopsAtHorizon)
{
    EventQueue eq;
    int count = 0;
    eq.scheduleAfter(Duration::seconds(1), [&] { ++count; });
    eq.scheduleAfter(Duration::seconds(10), [&] { ++count; });
    eq.runUntil(SimTime() + Duration::seconds(5));
    EXPECT_EQ(count, 1);
    EXPECT_EQ(eq.now(), SimTime() + Duration::seconds(5));
    eq.run();
    EXPECT_EQ(count, 2);
}

TEST(EventQueue, AdvanceMovesClockWithoutEvents)
{
    EventQueue eq;
    eq.advance(Duration::minutes(30));
    EXPECT_EQ(eq.now(), SimTime() + Duration::minutes(30));
}

TEST(EventQueue, EventsCanScheduleEvents)
{
    EventQueue eq;
    std::vector<std::int64_t> times;
    std::function<void()> tick = [&] {
        times.push_back(eq.now().ns());
        if (times.size() < 3)
            eq.scheduleAfter(Duration::seconds(10), tick);
    };
    eq.scheduleAfter(Duration::seconds(10), tick);
    eq.run();
    const std::int64_t s = Duration::seconds(10).ns();
    EXPECT_EQ(times, (std::vector<std::int64_t>{s, 2 * s, 3 * s}));
}

TEST(EventQueue, PendingCountsUncancelled)
{
    EventQueue eq;
    const EventId a = eq.scheduleAfter(Duration::seconds(1), [] {});
    eq.scheduleAfter(Duration::seconds(2), [] {});
    EXPECT_EQ(eq.pending(), 2u);
    eq.cancel(a);
    EXPECT_EQ(eq.pending(), 1u);
    eq.run();
    EXPECT_EQ(eq.pending(), 0u);
}

TEST(EventQueue, PropertyFifoTieBreakAmongRandomSchedules)
{
    // Property: execution order equals a stable sort of the insertion
    // sequence by timestamp — FIFO among same-time events — for
    // arbitrary interleavings of a small set of times.
    Rng rng(321);
    for (int round = 0; round < 20; ++round) {
        EventQueue eq;
        std::vector<std::pair<std::int64_t, int>> inserted;
        std::vector<int> executed;
        const int n = 50;
        for (int i = 0; i < n; ++i) {
            // Few distinct times => many ties.
            const std::int64_t t =
                static_cast<std::int64_t>(rng.uniformInt(
                    std::uint64_t{5})) * 100;
            inserted.emplace_back(t, i);
            eq.scheduleAt(SimTime::fromNanos(t),
                          [&executed, i] { executed.push_back(i); });
        }
        eq.run();

        auto expected = inserted;
        std::stable_sort(expected.begin(), expected.end(),
                         [](const auto &a, const auto &b) {
                             return a.first < b.first;
                         });
        ASSERT_EQ(executed.size(), expected.size());
        for (std::size_t i = 0; i < expected.size(); ++i)
            EXPECT_EQ(executed[i], expected[i].second)
                << "round " << round << " position " << i;
    }
}

TEST(EventQueue, CancelOfAlreadyFiredIdReturnsFalse)
{
    EventQueue eq;
    bool ran = false;
    const EventId id =
        eq.scheduleAfter(Duration::seconds(1), [&] { ran = true; });
    eq.run();
    EXPECT_TRUE(ran);
    EXPECT_FALSE(eq.cancel(id));
    // A cancelled-then-fired-time id also stays false on re-cancel.
    EXPECT_FALSE(eq.cancel(id));
}

TEST(EventQueue, RunUntilSetsClockToHorizonWithNoEvents)
{
    EventQueue eq;
    const SimTime horizon = SimTime() + Duration::minutes(42);
    eq.runUntil(horizon);
    EXPECT_EQ(eq.now(), horizon);
    EXPECT_EQ(eq.pending(), 0u);

    // Same when the only events lie beyond the horizon: clock lands
    // exactly on the horizon and the events stay pending.
    EventQueue eq2;
    bool ran = false;
    eq2.scheduleAfter(Duration::hours(2), [&] { ran = true; });
    eq2.runUntil(SimTime() + Duration::hours(1));
    EXPECT_EQ(eq2.now(), SimTime() + Duration::hours(1));
    EXPECT_FALSE(ran);
    EXPECT_EQ(eq2.pending(), 1u);
}

TEST(EventQueue, CancelInsideEventWorks)
{
    EventQueue eq;
    bool second_ran = false;
    EventId second =
        eq.scheduleAfter(Duration::seconds(2), [&] { second_ran = true; });
    eq.scheduleAfter(Duration::seconds(1), [&] { eq.cancel(second); });
    eq.run();
    EXPECT_FALSE(second_ran);
}

TEST(EventQueue, StaleHandleAfterSlotReuseIsRefused)
{
    // Cancel an event, then schedule again so its slab slot is reused.
    // The old handle must not cancel (or otherwise affect) the new
    // occupant: the generation tag distinguishes them.
    EventQueue eq;
    const EventId old_id = eq.scheduleAfter(Duration::seconds(1), [] {});
    ASSERT_TRUE(eq.cancel(old_id));

    bool newer_ran = false;
    const EventId new_id =
        eq.scheduleAfter(Duration::seconds(2), [&] { newer_ran = true; });
    // Slot recycling means the two handles share the low (slot) bits
    // but differ in generation.
    ASSERT_NE(old_id, new_id);

    EXPECT_FALSE(eq.cancel(old_id)); // stale generation -> refused
    EXPECT_EQ(eq.pending(), 1u);
    eq.run();
    EXPECT_TRUE(newer_ran);
}

TEST(EventQueue, StaleHandleAfterFireAndReuseIsRefused)
{
    // Same as above but the slot is freed by firing, not cancelling.
    EventQueue eq;
    int fired = 0;
    const EventId old_id =
        eq.scheduleAfter(Duration::seconds(1), [&] { ++fired; });
    eq.run();
    EXPECT_EQ(fired, 1);

    int second_fired = 0;
    eq.scheduleAfter(Duration::seconds(1), [&] { ++second_fired; });
    EXPECT_FALSE(eq.cancel(old_id));
    eq.run();
    EXPECT_EQ(second_fired, 1);
}

TEST(EventQueue, HandlesAreNeverNull)
{
    // EventId 0 is the orchestrator's null sentinel; a real handle
    // must never collide with it, even for the first slot.
    EventQueue eq;
    for (int i = 0; i < 100; ++i) {
        const EventId id = eq.scheduleAfter(Duration::seconds(1), [] {});
        EXPECT_NE(id, 0u);
        eq.cancel(id);
    }
}

/**
 * Reference scheduler: std::multimap keyed by (when, seq) with
 * explicit cancellation by erase. Trivially correct; the arena must
 * match it event for event.
 */
class ReferenceQueue
{
  public:
    SimTime now() const { return now_; }

    std::uint64_t
    scheduleAfter(Duration delay, std::function<void()> cb)
    {
        const std::uint64_t id = next_id_++;
        pending_.emplace(std::make_pair(now_ + delay, id),
                         std::move(cb));
        return id;
    }

    bool
    cancel(std::uint64_t id)
    {
        for (auto it = pending_.begin(); it != pending_.end(); ++it) {
            if (it->first.second == id) {
                pending_.erase(it);
                return true;
            }
        }
        return false;
    }

    std::size_t pending() const { return pending_.size(); }

    void
    runUntil(SimTime horizon)
    {
        while (!pending_.empty() &&
               pending_.begin()->first.first <= horizon) {
            auto it = pending_.begin();
            now_ = it->first.first;
            auto cb = std::move(it->second);
            pending_.erase(it);
            cb();
        }
        now_ = horizon;
    }

    void
    run()
    {
        while (!pending_.empty())
            runUntil(pending_.begin()->first.first);
    }

  private:
    SimTime now_;
    std::uint64_t next_id_ = 1;
    // (when, insertion seq) -> callback; seq keeps FIFO among ties.
    std::map<std::pair<SimTime, std::uint64_t>, std::function<void()>>
        pending_;
};

TEST(EventQueue, PropertyMatchesReferenceOverRandomOps)
{
    // 10k mixed schedule/cancel/runUntil ops driven by one RNG against
    // both the arena and the multimap reference; the observable
    // execution traces (which event fired, at what virtual time) and
    // every cancel() verdict must agree exactly.
    Rng rng(0xeaa0);
    EventQueue arena;
    ReferenceQueue ref;
    std::vector<std::pair<int, std::int64_t>> arena_trace, ref_trace;
    std::vector<std::pair<EventId, std::uint64_t>> cancellable;
    int tag = 0;

    for (int op = 0; op < 10000; ++op) {
        const std::uint64_t kind = rng.uniformInt(std::uint64_t{10});
        if (kind < 6) { // schedule
            const Duration d = Duration::millis(static_cast<std::int64_t>(
                rng.uniformInt(std::uint64_t{5000})));
            const int t = tag++;
            const EventId a = arena.scheduleAfter(
                d, [&arena_trace, &arena, t] {
                    arena_trace.emplace_back(t, arena.now().ns());
                });
            const std::uint64_t r = ref.scheduleAfter(
                d, [&ref_trace, &ref, t] {
                    ref_trace.emplace_back(t, ref.now().ns());
                });
            if (rng.uniformInt(std::uint64_t{2}) == 0)
                cancellable.emplace_back(a, r);
        } else if (kind < 9) { // cancel a remembered handle
            if (!cancellable.empty()) {
                const std::uint64_t pick = rng.uniformInt(
                    static_cast<std::uint64_t>(cancellable.size()));
                const auto [a, r] = cancellable[pick];
                cancellable.erase(cancellable.begin() +
                                  static_cast<std::ptrdiff_t>(pick));
                EXPECT_EQ(arena.cancel(a), ref.cancel(r));
            }
        } else { // advance the horizon
            const Duration d = Duration::millis(static_cast<std::int64_t>(
                rng.uniformInt(std::uint64_t{2000})));
            arena.runUntil(arena.now() + d);
            ref.runUntil(ref.now() + d);
            EXPECT_EQ(arena.now(), ref.now());
        }
        ASSERT_EQ(arena.pending(), ref.pending()) << "op " << op;
    }
    arena.run();
    ref.run();
    EXPECT_EQ(arena_trace, ref_trace);
    EXPECT_EQ(arena.pending(), 0u);
}

/**
 * Lock-step driver for the arrival run: one EventQueue with scheduled
 * events and merged arrival batches, and one std::multimap keyed by
 * (when, seq) that holds both kinds, with seqs handed out in the
 * kernel's order. An arrival whose service_ns is non-zero schedules a
 * follow-up event that far out when it fires, as an admitted request
 * schedules its completion.
 */
struct RunHarness
{
    struct Item
    {
        int tag = 0;
        bool arrival = false;
        std::int64_t follow_ns = 0;
    };
    using Key = std::pair<std::int64_t, std::uint64_t>;

    explicit RunHarness(bool use_wheel) : q(SimTime(), use_wheel)
    {
        q.setArrivalSink(&RunHarness::onArrival, this);
    }

    static void
    onArrival(void *ctx, const Arrival &a)
    {
        auto &h = *static_cast<RunHarness *>(ctx);
        const int tag = static_cast<int>(a.stream);
        h.trace.emplace_back(tag, h.q.now().ns());
        if (a.service_ns != 0)
            h.record(a.when + Duration::nanos(a.service_ns), ~tag);
    }

    /** Schedule a tagged (snapshot-safe) event that traces @p t. */
    EventId
    record(SimTime when, int t)
    {
        return q.scheduleAt(when, EventTag{1, 0}, [this, t] {
            trace.emplace_back(t, q.now().ns());
        });
    }

    EventId
    schedule(SimTime when)
    {
        const int t = tag++;
        const EventId id = record(when, t);
        ref.emplace(Key{when.ns(), ref_seq++}, Item{t, false, 0});
        return id;
    }

    /** Merge arrivals at @p times (sorted here); every third follows up. */
    void
    merge(std::vector<std::int64_t> times, std::int64_t follow_ns)
    {
        std::sort(times.begin(), times.end());
        std::uint64_t seq = q.reserveSeqs(times.size());
        ASSERT_EQ(seq, ref_seq);
        ref_seq += times.size();
        if (arrivals_pending != 0 && arrivals_fired_since_merge != 0)
            ++merged_into_consumed;
        std::vector<Arrival> batch;
        for (const std::int64_t when : times) {
            const int t = tag++;
            const std::int64_t follow = t % 3 == 0 ? follow_ns : 0;
            batch.push_back(Arrival{SimTime::fromNanos(when), seq,
                                    follow, static_cast<std::uint32_t>(t)});
            ref.emplace(Key{when, seq}, Item{t, true, follow});
            ++seq;
        }
        q.mergeRun(batch);
        EXPECT_TRUE(batch.empty());
        arrivals_pending += times.size();
        arrivals_fired_since_merge = 0;
    }

    bool
    cancel(EventId id, Key key)
    {
        const bool ours = q.cancel(id);
        const auto it = ref.find(key);
        const bool theirs = it != ref.end();
        if (theirs)
            ref.erase(it);
        return ours == theirs;
    }

    /** Pop the reference's front, recording coverage of the pop rule. */
    void
    refPop()
    {
        const auto it = ref.begin();
        const Key key = it->first;
        const Item item = it->second;
        ref.erase(it);
        ref_now = key.first;
        ref_trace.emplace_back(item.tag, key.first);
        if (have_last && item.arrival != last_arrival) {
            if (key.first == last_when)
                ++mixed_ties;
            else if (key.first >> TimingWheel::kTickBits
                     == last_when >> TimingWheel::kTickBits)
                ++mixed_same_tick;
        }
        have_last = true;
        last_when = key.first;
        last_arrival = item.arrival;
        if (item.arrival) {
            --arrivals_pending;
            ++arrivals_fired_since_merge;
            if (item.follow_ns != 0) {
                ref.emplace(Key{key.first + item.follow_ns, ref_seq++},
                            Item{~item.tag, false, 0});
            }
        }
    }

    void
    runUntil(SimTime horizon)
    {
        q.runUntil(horizon);
        while (!ref.empty() && ref.begin()->first.first <= horizon.ns()) {
            if (ref.begin()->first.first == horizon.ns()
                && ref.begin()->second.arrival)
                ++arrivals_at_horizon;
            refPop();
        }
        ref_now = horizon.ns();
    }

    void
    run()
    {
        if (arrivals_pending != 0)
            ++runs_drained;
        q.run();
        while (!ref.empty())
            refPop();
    }

    /** The kernel and the reference agree on everything observable. */
    void
    check(int step)
    {
        ASSERT_EQ(trace, ref_trace) << "step " << step;
        ASSERT_EQ(q.now().ns(), ref_now) << "step " << step;
        ASSERT_EQ(q.pending(), ref.size()) << "step " << step;
        ASSERT_EQ(q.scheduled(),
                  q.processed() + q.cancelled() + q.pending())
            << "step " << step;
        ASSERT_EQ(q.processed(), trace.size()) << "step " << step;
        EventQueueImage img;
        ASSERT_EQ(q.exportImage(img), arrivals_pending == 0)
            << "step " << step;
    }

    EventQueue q;
    std::multimap<Key, Item> ref;
    std::int64_t ref_now = 0;
    std::uint64_t ref_seq = 0;
    std::vector<std::pair<int, std::int64_t>> trace, ref_trace;
    int tag = 0;

    std::size_t arrivals_pending = 0;
    std::size_t arrivals_fired_since_merge = 0;
    bool have_last = false;
    bool last_arrival = false;
    std::int64_t last_when = 0;

    // Coverage of the cases the pop rule must get right.
    int mixed_ties = 0;          //!< arrival and event at the same when
    int mixed_same_tick = 0;     //!< arrival and event in one wheel tick
    int arrivals_at_horizon = 0; //!< arrival exactly at a runUntil horizon
    int merged_into_consumed = 0; //!< batch merged into a partly fired run
    int runs_drained = 0;        //!< run() with arrivals pending
};

TEST(EventQueue, ArrivalRunMatchesMultimapReference)
{
    constexpr std::int64_t kTick = std::int64_t(1) << TimingWheel::kTickBits;
    for (const bool use_wheel : {true, false}) {
        SCOPED_TRACE(use_wheel ? "wheel kernel" : "pure-heap kernel");
        Rng rng(use_wheel ? 0xa11e : 0xa11f);
        RunHarness h(use_wheel);
        std::vector<std::pair<EventId, RunHarness::Key>> cancellable;
        std::vector<std::int64_t> recent; // times of recent entries
        const auto pick = [&rng](std::uint64_t n) {
            return rng.uniformInt(n);
        };
        const auto pickI = [&pick](std::int64_t n) {
            return static_cast<std::int64_t>(
                pick(static_cast<std::uint64_t>(n)));
        };
        // A time at or after now: due now, sub-tick, a few ticks, far
        // (cascades), tied with a recent entry, or in a recent entry's
        // tick.
        const auto when = [&]() -> std::int64_t {
            const std::int64_t now = h.q.now().ns();
            std::int64_t ref_t = now;
            if (!recent.empty())
                ref_t = std::max(now, recent[pick(recent.size())]);
            switch (pick(6)) {
            case 0:
                return now;
            case 1:
                return now + pickI(kTick);
            case 2:
                return now + pickI(8 * kTick);
            case 3:
                return now + pickI(4096 * kTick);
            case 4:
                return ref_t;
            default: {
                const std::int64_t tick_start =
                    (ref_t >> TimingWheel::kTickBits) << TimingWheel::kTickBits;
                return std::max(now, tick_start + pickI(kTick));
            }
            }
        };

        for (int step = 0; step < 4000; ++step) {
            const std::uint64_t kind = pick(20);
            if (kind < 6) {
                const std::int64_t t = when();
                const RunHarness::Key key{t, h.ref_seq};
                const EventId id = h.schedule(SimTime::fromNanos(t));
                if (pick(2) == 0)
                    cancellable.emplace_back(id, key);
                recent.push_back(t);
            } else if (kind < 9) {
                if (!cancellable.empty()) {
                    const std::uint64_t i = pick(cancellable.size());
                    const auto [id, key] = cancellable[i];
                    cancellable.erase(cancellable.begin()
                                      + static_cast<std::ptrdiff_t>(i));
                    EXPECT_TRUE(h.cancel(id, key)) << "step " << step;
                }
            } else if (kind < 13) {
                std::vector<std::int64_t> times(pick(13));
                for (std::int64_t &t : times)
                    t = when();
                recent.insert(recent.end(), times.begin(), times.end());
                h.merge(times, pickI(64 * kTick));
            } else if (kind < 19) {
                std::int64_t horizon = when();
                if (pick(3) == 0 && !h.ref.empty())
                    horizon = h.ref.begin()->first.first; // exactly a front
                h.runUntil(SimTime::fromNanos(horizon));
            } else if (pick(8) == 0) {
                h.run();
            }
            if (recent.size() > 64)
                recent.erase(recent.begin(), recent.begin() + 32);
            h.check(step);
            if (testing::Test::HasFatalFailure())
                return;
        }
        h.run();
        h.check(-1);
        EXPECT_EQ(h.q.pending(), 0u);
        EXPECT_GT(h.mixed_ties, 0);
        EXPECT_GT(h.mixed_same_tick, 0);
        EXPECT_GT(h.arrivals_at_horizon, 0);
        EXPECT_GT(h.merged_into_consumed, 0);
        EXPECT_GT(h.runs_drained, 0);
    }
}

} // namespace
} // namespace eaao::sim
