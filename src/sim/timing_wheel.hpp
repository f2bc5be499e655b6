/**
 * @file
 * Hierarchical timing wheel: the near-future fast path of the event
 * kernel (docs/load-engine.md).
 *
 * Four levels of 64 slots park entries by due tick (one tick =
 * 2^23 ns ~ 8.4 ms), covering ~537 ms / ~34 s / ~37 min / ~39 h of
 * horizon; anything further stays in the caller's heap. The wheel is
 * a *parking lot*, not a priority queue: advanceTo() dumps every
 * bucket due at or before a target tick into a caller-supplied sink
 * (EventQueue pushes them onto its 4-ary heap), and the heap's total
 * (when, seq) order decides the final pop order. That split keeps the
 * heap no larger than one tick's worth of events while leaving the
 * kernel's pop sequence byte-identical to the pure-heap kernel — the
 * property tests/sim_timing_wheel_test.cpp pins.
 *
 * Level assignment is by distance: an entry delta = tick - frontier
 * ticks away parks at the level whose span covers delta, in the slot
 * addressed by that level's 6-bit field of the absolute tick. When the
 * frontier crosses a level's window boundary the matching bucket
 * cascades: each drained entry re-inserts against the new frontier,
 * landing one level down (or in the sink when due). The tick is sized
 * so most entries park at their final level: a completion ~100 ms out
 * sits in level 0, and a window's arrivals (at most 30 s ahead) sit in
 * level 1 and cascade once. A non-empty bucket is never skipped —
 * nextActionTick() finds the earliest tick at which any bucket must
 * flush with one rotate and one count-trailing-zeros per level, so
 * advancing across a quiet hour costs O(levels), not a loop over
 * ticks or over occupied slots.
 */

#ifndef EAAO_SIM_TIMING_WHEEL_HPP
#define EAAO_SIM_TIMING_WHEEL_HPP

#include <cstdint>
#include <vector>

#include "sim/time.hpp"

namespace eaao::sim {

/** One parked event reference; mirrors EventQueue's heap entry. */
struct WheelEntry
{
    SimTime when;
    std::uint64_t seq = 0;
    std::uint32_t slot = 0;
    std::uint32_t gen = 0;
};

class TimingWheel
{
  public:
    static constexpr unsigned kTickBits = 23; //!< 2^23 ns ~ 8.4 ms
    static constexpr unsigned kSlotBits = 6;
    static constexpr unsigned kLevels = 4;
    static constexpr std::uint32_t kSlots = 1u << kSlotBits;
    static constexpr std::uint64_t kSlotMask = kSlots - 1;

    /** Due tick of an absolute time. */
    static std::int64_t
    tickOf(SimTime t)
    {
        return t.ns() >> kTickBits;
    }

    /** Next tick the wheel has not yet dumped. */
    std::int64_t frontier() const { return frontier_; }

    /** Parked entries (stale ones included until they cascade out). */
    std::size_t size() const { return count_; }

    bool empty() const { return count_ == 0; }

    /**
     * Park @p e. Returns false — caller keeps the entry in its heap —
     * when the entry is due (tick <= frontier) or beyond level 3's
     * span (~39 h of ticks).
     */
    bool insert(const WheelEntry &e);

    /**
     * Dump every entry due at or before @p target into @p sink and
     * advance the frontier to target + 1. Entries of the same tick
     * arrive in unspecified order — the caller's heap restores the
     * total (when, seq) order. No-op when target < frontier.
     */
    template <typename Sink>
    void
    advanceTo(std::int64_t target, Sink &&sink)
    {
        while (advanceOne(target, sink)) {
        }
    }

    /**
     * Process exactly one action tick (bucket flushes and/or an L0
     * dump) at or before @p target. Returns false — with the frontier
     * advanced past @p target — when nothing is due in range. Callers
     * with an empty heap step with this so a run of stale (cancelled)
     * entries cannot drain the whole wheel in one call.
     */
    template <typename Sink>
    bool
    advanceOne(std::int64_t target, Sink &&sink)
    {
        if (frontier_ > target)
            return false;
        if (count_ == 0) {
            frontier_ = target + 1;
            return false;
        }
        const std::int64_t t = nextActionTick();
        if (t > target) {
            frontier_ = target + 1;
            return false;
        }
        processAction(t, sink);
        return true;
    }

    /** Drop every entry and reset the frontier to @p frontier. */
    void reset(std::int64_t frontier);

    /**
     * Re-park @p e at an explicit (level, slot) position — snapshot
     * restore only, paired with forEach() so a capture/restore
     * round-trip reproduces bucket placement bit-exactly. Panics unless
     * level < kLevels and wslot < kSlots; snapshot decoders refuse
     * such images before they get here.
     */
    void restoreEntry(const WheelEntry &e, std::uint8_t level,
                      std::uint8_t wslot);

    /** Visit every parked entry with its placement, level-major. */
    template <typename Fn>
    void
    forEach(Fn &&fn) const
    {
        for (unsigned level = 0; level < kLevels; ++level) {
            for (std::uint32_t s = 0; s < kSlots; ++s) {
                for (const WheelEntry &e : buckets_[level][s])
                    fn(e, static_cast<std::uint8_t>(level),
                       static_cast<std::uint8_t>(s));
            }
        }
    }

  private:
    /**
     * Earliest tick at which a bucket must act: an L0 dump at its
     * entries' due tick, or a level>=1 flush at its window start.
     * O(levels): one rotate and one ctz per occupied level.
     * Precondition: count_ > 0.
     */
    std::int64_t nextActionTick() const;

    /**
     * Act at tick @p t: cascade every level whose window starts here
     * (highest first, so entries ripple down in one pass), then dump
     * the L0 bucket — which holds exactly the tick-t entries — into
     * the sink. Leaves frontier = t + 1.
     */
    template <typename Sink>
    void
    processAction(std::int64_t t, Sink &&sink)
    {
        frontier_ = t;
        for (unsigned level = kLevels - 1; level >= 1; --level) {
            const std::int64_t span = std::int64_t(1)
                                      << (kSlotBits * level);
            if ((t & (span - 1)) == 0)
                flushLevel(level, t, sink);
        }
        std::vector<WheelEntry> &due = buckets_[0][t & kSlotMask];
        if (!due.empty()) {
            occ_[0] &= ~(std::uint64_t(1) << (t & kSlotMask));
            count_ -= due.size();
            for (const WheelEntry &e : due)
                sink(e);
            due.clear();
        }
        frontier_ = t + 1;
    }

    /** Cascade the bucket of @p level addressed by tick @p t. */
    template <typename Sink>
    void
    flushLevel(unsigned level, std::int64_t t, Sink &&sink)
    {
        const std::uint32_t s =
            static_cast<std::uint32_t>(t >> (kSlotBits * level)) & kSlotMask;
        if (!(occ_[level] >> s & 1))
            return;
        std::vector<WheelEntry> &bucket = buckets_[level][s];
        // Drain through the scratch buffer: insert() may append to
        // other buckets mid-loop (never to this one — an entry whose
        // slot field matches the window being flushed always lands a
        // level down).
        scratch_.clear();
        scratch_.swap(bucket);
        occ_[level] &= ~(std::uint64_t(1) << s);
        count_ -= scratch_.size();
        for (const WheelEntry &e : scratch_) {
            if (!insert(e))
                sink(e);
        }
    }

    std::int64_t frontier_ = 0;
    std::size_t count_ = 0;
    std::uint64_t occ_[kLevels] = {};
    std::vector<WheelEntry> buckets_[kLevels][kSlots];
    std::vector<WheelEntry> scratch_;
};

} // namespace eaao::sim

#endif // EAAO_SIM_TIMING_WHEEL_HPP
