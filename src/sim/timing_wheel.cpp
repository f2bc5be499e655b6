/**
 * @file
 * Timing-wheel level assignment and idle-skip scheduling (see
 * timing_wheel.hpp for the protocol).
 */

#include "sim/timing_wheel.hpp"

#include <bit>
#include <cassert>
#include <limits>

#include "support/logging.hpp"

namespace eaao::sim {

bool
TimingWheel::insert(const WheelEntry &e)
{
    const std::int64_t tick = tickOf(e.when);
    const std::int64_t delta = tick - frontier_;
    if (delta <= 0)
        return false; // due (or overdue): caller's heap owns it
    unsigned level = 0;
    while (level < kLevels
           && delta >= (std::int64_t(1) << (kSlotBits * (level + 1))))
        ++level;
    if (level >= kLevels)
        return false; // beyond level 3's span: far-future heap overflow
    const std::uint32_t s =
        static_cast<std::uint32_t>(tick >> (kSlotBits * level)) & kSlotMask;
    buckets_[level][s].push_back(e);
    occ_[level] |= std::uint64_t(1) << s;
    ++count_;
    return true;
}

std::int64_t
TimingWheel::nextActionTick() const
{
    assert(count_ > 0);
    std::int64_t best = std::numeric_limits<std::int64_t>::max();

    // A level's bucket acts when the frontier reaches the start of the
    // 64^level-tick window its slot addresses (at level 0 that is the
    // entries' due tick). Rotating the occupancy word by the
    // frontier's own slot makes bit d the slot d windows ahead, so the
    // lowest set bit is the nearest occupied window.
    for (unsigned level = 0; level < kLevels; ++level) {
        const std::uint64_t m = occ_[level];
        if (!m)
            continue;
        const unsigned shift = kSlotBits * level;
        const std::int64_t base = frontier_ >> shift;
        const std::uint64_t r =
            std::rotr(m, static_cast<int>(base & kSlotMask));
        std::int64_t widx;
        if ((r & 1) && (frontier_ & ((std::int64_t(1) << shift) - 1)) == 0)
            widx = base; // own window starts at the frontier: flush now
        else if (r & ~std::uint64_t(1))
            widx = base + std::countr_zero(r & ~std::uint64_t(1));
        else
            widx = base + kSlots; // own slot, window already began: next lap
        const std::int64_t t = widx << shift;
        if (t < best)
            best = t;
    }
    return best;
}

void
TimingWheel::reset(std::int64_t frontier)
{
    for (unsigned level = 0; level < kLevels; ++level) {
        for (std::uint32_t s = 0; s < kSlots; ++s)
            buckets_[level][s].clear();
        occ_[level] = 0;
    }
    count_ = 0;
    frontier_ = frontier;
}

void
TimingWheel::restoreEntry(const WheelEntry &e, std::uint8_t level,
                          std::uint8_t wslot)
{
    EAAO_ASSERT(level < kLevels && wslot < kSlots, "wheel bucket (", +level,
                ", ", +wslot, ") out of range");
    buckets_[level][wslot].push_back(e);
    occ_[level] |= std::uint64_t(1) << wslot;
    ++count_;
}

} // namespace eaao::sim
