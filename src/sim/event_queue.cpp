/**
 * @file
 * Implementation of the discrete-event kernel.
 */

#include "sim/event_queue.hpp"

#include <algorithm>
#include <iterator>
#include <limits>
#include <utility>

#include "support/bench_timer.hpp"
#include "support/logging.hpp"

namespace eaao::sim {

EventQueue::EventQueue(SimTime start, bool use_wheel)
    : now_(start), use_wheel_(use_wheel)
{
    wheel_.reset(TimingWheel::tickOf(start));
}

EventQueue::~EventQueue()
{
    // Feed the process-wide event counter the bench timing pipeline
    // reads (support::totalEventsProcessed).
    support::noteEventsProcessed(processed_);
}

// The ready queue is a 4-ary min-heap: versus a binary heap it halves
// the number of levels a sift traverses (the cache-miss-bound cost on
// large heaps) while keeping the four children of a node contiguous —
// one or two cache lines of 24-byte entries.

void
EventQueue::heapPush(HeapEntry entry)
{
    // Hole-based sift-up: one copy per level instead of a swap.
    std::size_t i = heap_.size();
    heap_.push_back(entry);
    while (i > 0) {
        const std::size_t parent = (i - 1) / 4;
        if (!earlier(entry, heap_[parent]))
            break;
        heap_[i] = heap_[parent];
        i = parent;
    }
    heap_[i] = entry;
}

EventQueue::HeapEntry
EventQueue::heapPop()
{
    const HeapEntry top = heap_.front();
    const HeapEntry last = heap_.back();
    heap_.pop_back();
    const std::size_t n = heap_.size();
    if (n > 0) {
        // Hole-based sift-down of the former last element.
        std::size_t i = 0;
        while (true) {
            const std::size_t first = 4 * i + 1;
            if (first >= n)
                break;
            const std::size_t end = first + 4 < n ? first + 4 : n;
            std::size_t best = first;
            for (std::size_t c = first + 1; c < end; ++c) {
                if (earlier(heap_[c], heap_[best]))
                    best = c;
            }
            if (!earlier(heap_[best], last))
                break;
            heap_[i] = heap_[best];
            i = best;
        }
        heap_[i] = last;
    }
    return top;
}

void
EventQueue::retire(std::uint32_t idx)
{
    Slot &slot = slots_[idx];
    slot.cb.reset();
    slot.live = false;
    if (++slot.gen == 0) // keep handles non-zero across wrap-around
        slot.gen = 1;
    free_.push_back(idx);
    EAAO_ASSERT(live_ > 0, "live-event underflow");
    --live_;
}

void
EventQueue::flushStaging()
{
    for (const HeapEntry &e : staging_) {
        if (entryLive(e))
            heapPush(e);
    }
    staging_.clear();
}

void
EventQueue::syncWheel(std::int64_t bound_tick)
{
    const auto sink = [this](const WheelEntry &e) {
        const HeapEntry entry{e.when, e.seq, e.slot, e.gen};
        if (entryLive(entry))
            heapPush(entry);
    };
    while (!wheel_.empty()) {
        if (!heap_.empty()) {
            // One pass suffices: after dumping every bucket at or
            // before the front's tick, all parked entries are in
            // strictly later ticks than any heap entry.
            std::int64_t limit = TimingWheel::tickOf(heap_.front().when);
            if (limit > bound_tick)
                limit = bound_tick;
            wheel_.advanceTo(limit, sink);
            return;
        }
        if (!wheel_.advanceOne(bound_tick, sink))
            return; // nothing due at or before the bound
    }
}

void
EventQueue::compactTop()
{
    while (!heap_.empty() && !entryLive(heap_.front()))
        heapPop();
}

EventId
EventQueue::scheduleAt(SimTime when, Callback cb)
{
    return scheduleAt(when, EventTag{}, std::move(cb));
}

EventId
EventQueue::scheduleAfter(Duration delay, Callback cb)
{
    return scheduleAt(now_ + delay, EventTag{}, std::move(cb));
}

EventId
EventQueue::scheduleAt(SimTime when, EventTag tag, Callback cb)
{
    EAAO_ASSERT(when >= now_, "scheduling into the past: ", when.str(),
                " < ", now_.str());
    std::uint32_t idx;
    if (!free_.empty()) {
        idx = free_.back();
        free_.pop_back();
    } else {
        idx = static_cast<std::uint32_t>(slots_.size());
        slots_.emplace_back();
    }
    Slot &slot = slots_[idx];
    slot.live = true;
    slot.tag = tag;
    slot.cb = std::move(cb);
    const std::uint64_t seq = next_seq_++;
    // Near-future entries park in the wheel right away: the frontier
    // only moves in syncWheel(), after the next flushStaging(), so this
    // is the bucket a flush would pick. Due or far-future entries are
    // refused by insert() and stage for the heap.
    if (!use_wheel_ || !wheel_.insert(WheelEntry{when, seq, idx, slot.gen}))
        staging_.push_back(HeapEntry{when, seq, idx, slot.gen});
    ++live_;
    ++scheduled_;
    return packId(idx, slot.gen);
}

EventId
EventQueue::scheduleAfter(Duration delay, EventTag tag, Callback cb)
{
    return scheduleAt(now_ + delay, tag, std::move(cb));
}

void
EventQueue::mergeRun(std::vector<Arrival> &batch)
{
    if (batch.empty())
        return;
    EAAO_ASSERT(sink_ != nullptr, "arrival run without a sink");
    EAAO_ASSERT(batch.front().when >= now_, "arrival run merged into the "
                "past: ", batch.front().when.str(), " < ", now_.str());
    EAAO_ASSERT(std::is_sorted(batch.begin(), batch.end(),
                               earlier<Arrival, Arrival>),
                "arrival batch not sorted by (when, seq)");
    scheduled_ += batch.size();
    if (run_head_ == run_.size()) {
        // Nothing left unfired: the batch becomes the run, and the
        // caller gets the drained buffer back for its next batch.
        run_.clear();
        run_head_ = 0;
        run_.swap(batch);
        return;
    }
    merge_.clear();
    merge_.reserve(run_.size() - run_head_ + batch.size());
    std::merge(run_.begin() + static_cast<std::ptrdiff_t>(run_head_),
               run_.end(), batch.begin(), batch.end(),
               std::back_inserter(merge_), earlier<Arrival, Arrival>);
    run_.swap(merge_);
    run_head_ = 0;
    batch.clear();
}

bool
EventQueue::exportImage(EventQueueImage &out) const
{
    out = EventQueueImage{};
    if (run_head_ < run_.size())
        return false; // unfired arrivals: the image has no run table
    out.now_ns = now_.ns();
    out.next_seq = next_seq_;
    out.processed = processed_;
    out.scheduled = scheduled_;
    out.cancelled = cancelled_;
    out.slots.reserve(slots_.size());
    for (const Slot &slot : slots_) {
        if (slot.live && slot.tag.kind == 0)
            return false; // untagged callback: not rebindable
        out.slots.push_back(EventQueueImage::SlotImage{
            slot.gen, static_cast<std::uint8_t>(slot.live ? 1 : 0),
            slot.tag.kind, slot.tag.arg});
    }
    const auto entry = [](const HeapEntry &e) {
        return EventQueueImage::EntryImage{e.when.ns(), e.seq, e.slot, e.gen};
    };
    out.heap.reserve(heap_.size());
    for (const HeapEntry &e : heap_)
        out.heap.push_back(entry(e));
    out.staging.reserve(staging_.size());
    for (const HeapEntry &e : staging_)
        out.staging.push_back(entry(e));
    out.free_list = free_;
    out.wheel_frontier = wheel_.frontier();
    out.wheel.reserve(wheel_.size());
    wheel_.forEach([&out](const WheelEntry &e, std::uint8_t level,
                          std::uint8_t wslot) {
        out.wheel.push_back(EventQueueImage::WheelEntryImage{
            e.when.ns(), e.seq, e.slot, e.gen, level, wslot});
    });
    return true;
}

bool
EventQueue::cancel(EventId id)
{
    const std::uint32_t idx = slotOf(id);
    if (idx >= slots_.size())
        return false;
    Slot &slot = slots_[idx];
    if (!slot.live || slot.gen != genOf(id))
        return false;
    // O(1) invalidation: the callback dies and the slot is recycled
    // now; the heap entry goes stale (generation mismatch) and is
    // dropped when it surfaces.
    retire(idx);
    ++cancelled_;
    // Eager compaction: cancelling the front event pops it (and any
    // dead run behind it) immediately instead of letting it linger
    // until the clock reaches its timestamp.
    if (!heap_.empty() && heap_.front().slot == idx)
        compactTop();
    return true;
}

std::size_t
EventQueue::pending() const
{
    // live_ counts exactly the live slots: cancel() and fire() retire
    // a slot the moment it dies, so dead slots are never counted no
    // matter how many stale heap entries still await compaction.
    EAAO_ASSERT(live_ <= heap_.size() + staging_.size() + wheel_.size(),
                "more live events than queued entries");
    return live_ + (run_.size() - run_head_);
}

void
EventQueue::reserve(std::size_t n)
{
    slots_.reserve(n);
    heap_.reserve(n);
    staging_.reserve(n);
    free_.reserve(n);
}

void
EventQueue::fire(const HeapEntry &top)
{
    now_ = top.when;
    Callback cb = std::move(slots_[top.slot].cb);
    retire(top.slot);
    ++processed_;
    // The slot is recycled *before* the callback runs: a callback that
    // schedules may legally reuse it (the generation differs), and the
    // callback may grow the slab, so no slot reference survives here.
    cb();
}

void
EventQueue::drain(SimTime horizon, std::int64_t bound)
{
    // Staging is re-checked every iteration: a fired callback may have
    // scheduled events that sort before the current heap top.
    while (true) {
        if (!staging_.empty())
            flushStaging();
        const Arrival *head =
            run_head_ < run_.size() ? &run_[run_head_] : nullptr;
        if (!wheel_.empty()) {
            // Wheel entries past the run head's tick cannot fire before
            // it, so they stay parked instead of deepening the heap. A
            // frontier already past the bound leaves nothing to sync.
            const std::int64_t sync =
                head != nullptr
                    ? std::min(bound, TimingWheel::tickOf(head->when))
                    : bound;
            if (wheel_.frontier() <= sync)
                syncWheel(sync);
        }
        if (!heap_.empty()
            && (head == nullptr || earlier(heap_.front(), *head))) {
            if (heap_.front().when > horizon)
                break;
            const HeapEntry top = heapPop();
            if (entryLive(top)) // else a stale entry of a cancelled event
                fire(top);
            continue;
        }
        if (head == nullptr || head->when > horizon)
            break;
        // Copy out first: the sink may merge into the run.
        const Arrival arrival = *head;
        ++run_head_;
        now_ = arrival.when;
        ++processed_;
        sink_(sink_ctx_, arrival);
    }
}

void
EventQueue::run()
{
    // A tick index no event time can reach (SimTime is ns in int64),
    // used as the drain bound when running to quiescence.
    constexpr std::int64_t kNoBound =
        std::numeric_limits<std::int64_t>::max() >> TimingWheel::kTickBits;
    drain(SimTime::fromNanos(std::numeric_limits<std::int64_t>::max()),
          kNoBound);
}

void
EventQueue::runUntil(SimTime horizon)
{
    EAAO_ASSERT(horizon >= now_, "horizon in the past");
    drain(horizon, TimingWheel::tickOf(horizon));
    now_ = horizon;
}

void
EventQueue::advance(Duration d)
{
    runUntil(now_ + d);
}

} // namespace eaao::sim
