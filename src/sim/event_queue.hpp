/**
 * @file
 * Discrete-event simulation kernel.
 *
 * A minimal but complete event queue: schedule callables at absolute
 * virtual times, run until quiescence or a horizon, cancel events.
 * Ties are broken by insertion order (FIFO among same-time events) so
 * runs are deterministic.
 *
 * Events live in a slab: a recycled slot vector with a free-list. An
 * EventId is a generation-tagged {slot, gen} handle packed into one
 * 64-bit word, so cancel() is O(1) slot invalidation — no hash-map of
 * callbacks, no tombstone set — and a stale handle (slot since reused)
 * is rejected by its generation mismatch. The ready queue is a 4-ary
 * min-heap of 24-byte {when, seq, slot, gen} entries kept in one
 * contiguous vector, fed through an unsorted staging buffer that is
 * flushed only when the queue needs to pop — so a schedule+cancel
 * pair (the dominant reap pattern) usually never sifts at all. A
 * cancelled event's entry is dropped at flush time, at the first
 * wheel cascade or dump it meets, or lazily when it surfaces in the
 * heap (its generation no longer matches the slot's), while its slot
 * and callback are reclaimed immediately. Callbacks are
 * small-buffer-optimized (see inplace_callback.hpp) so the common
 * simulator lambdas never touch the allocator. See
 * docs/event-kernel.md.
 *
 * Near-future entries take a hierarchical timing-wheel fast path
 * (timing_wheel.hpp, docs/load-engine.md): scheduleAt() parks them
 * straight into ~8.4 ms tick buckets, so the staging buffer holds only
 * heap-bound entries (due now or beyond the wheel's ~39 h span), and
 * buckets are dumped into the heap only when their tick is reached —
 * so under open-loop arrival storms the heap stays one tick deep and
 * schedule/pop is O(1) amortized. The heap still totally orders
 * everything it holds by (when, seq), so the pop sequence is
 * byte-identical to the pure-heap kernel (constructible with
 * use_wheel = false).
 *
 * Open-loop arrivals skip the slab, the wheel and the heap altogether:
 * a caller that generates them in time order reserves a block of
 * sequence numbers, and merges the batch into one sorted *arrival run*
 * (mergeRun). The pop loop fires whichever is smaller by (when, seq),
 * the heap front or the run head, and hands a run entry to the queue's
 * arrival sink — so the pop sequence is the one the same arrivals
 * would produce as scheduled events.
 */

#ifndef EAAO_SIM_EVENT_QUEUE_HPP
#define EAAO_SIM_EVENT_QUEUE_HPP

#include <cstdint>
#include <vector>

#include "sim/inplace_callback.hpp"
#include "sim/time.hpp"
#include "sim/timing_wheel.hpp"

namespace eaao::sim {

/**
 * Handle identifying a scheduled event (for cancellation).
 *
 * Packed {slot, gen}: the low 32 bits index the event slab, the high
 * 32 bits carry the slot's generation at scheduling time. Generations
 * start at 1, so a valid handle is never 0 and `EventId id = 0` keeps
 * working as a null handle.
 */
using EventId = std::uint64_t;

/**
 * Domain tag attached to a scheduled event so checkpoint/restore can
 * rebuild its callback: `kind` names the callback family (0 =
 * untagged, not snapshot-safe) and `arg` carries its captured state
 * (typically an instance id). See docs/checkpoint.md.
 */
struct EventTag
{
    std::uint32_t kind = 0;
    std::uint64_t arg = 0;
};

/**
 * One open-loop arrival of the sorted arrival run (see mergeRun):
 * plain data with no slab slot and no callback, since an arrival is
 * never cancelled. @p stream and @p service_ns are the caller's; the
 * queue only orders by (when, seq).
 */
struct Arrival
{
    SimTime when;
    std::uint64_t seq = 0; //!< from EventQueue::reserveSeqs()
    std::int64_t service_ns = 0;
    std::uint32_t stream = 0;
};

/** Receives each arrival-run entry as it fires, with the sink context. */
using ArrivalSink = void (*)(void *ctx, const Arrival &arrival);

/**
 * Plain-data image of a queue's complete state (slab, heap, staging
 * buffer, free-list, counters, clock) produced by exportImage() and
 * consumed by importImage(). Callbacks are represented by their
 * EventTags; the importer rebinds them through a caller-supplied
 * factory.
 */
struct EventQueueImage
{
    struct SlotImage
    {
        std::uint32_t gen = 1;
        std::uint8_t live = 0;
        std::uint32_t kind = 0;
        std::uint64_t arg = 0;
    };

    struct EntryImage
    {
        std::int64_t when_ns = 0;
        std::uint64_t seq = 0;
        std::uint32_t slot = 0;
        std::uint32_t gen = 0;
    };

    /** A wheel-parked entry with its explicit bucket placement. */
    struct WheelEntryImage
    {
        std::int64_t when_ns = 0;
        std::uint64_t seq = 0;
        std::uint32_t slot = 0;
        std::uint32_t gen = 0;
        std::uint8_t level = 0;
        std::uint8_t wslot = 0;
    };

    std::int64_t now_ns = 0;
    std::uint64_t next_seq = 0;
    std::uint64_t processed = 0;
    std::uint64_t scheduled = 0;
    std::uint64_t cancelled = 0;
    std::vector<SlotImage> slots;
    std::vector<EntryImage> heap;
    std::vector<EntryImage> staging;
    std::vector<std::uint32_t> free_list;
    std::int64_t wheel_frontier = 0;
    std::vector<WheelEntryImage> wheel;
};

/**
 * Priority-queue based discrete event scheduler over SimTime.
 */
class EventQueue
{
  public:
    using Callback = InplaceCallback;

    /**
     * Create a queue whose clock starts at @p start. Pass
     * use_wheel = false for the pure-heap kernel — the reference the
     * timing-wheel property tests compare against.
     */
    explicit EventQueue(SimTime start = SimTime(), bool use_wheel = true);

    EventQueue(const EventQueue &) = delete;
    EventQueue &operator=(const EventQueue &) = delete;

    ~EventQueue();

    /** Current virtual time. */
    SimTime now() const { return now_; }

    /**
     * Schedule @p cb at absolute time @p when (must be >= now()).
     * @return Handle usable with cancel().
     */
    EventId scheduleAt(SimTime when, Callback cb);

    /** Schedule @p cb after a relative delay. */
    EventId scheduleAfter(Duration delay, Callback cb);

    /**
     * Schedule @p cb at @p when carrying a rebind tag so the event
     * survives checkpoint/restore (see exportImage/importImage).
     * @p tag.kind must be non-zero.
     */
    EventId scheduleAt(SimTime when, EventTag tag, Callback cb);

    /** Tagged variant of scheduleAfter. */
    EventId scheduleAfter(Duration delay, EventTag tag, Callback cb);

    /**
     * Cancel a pending event: O(1) slot invalidation (the callback is
     * destroyed and the slot recycled immediately). A handle that
     * already fired, was already cancelled, or whose slot has been
     * reused (stale generation) is refused.
     * @return true if the event was pending and is now cancelled.
     */
    bool cancel(EventId id);

    /**
     * Hand out @p n consecutive sequence numbers for arrival-run
     * entries, exactly the ones @p n scheduleAt() calls made here
     * would have taken. @return the first of them.
     */
    std::uint64_t
    reserveSeqs(std::uint64_t n)
    {
        const std::uint64_t first = next_seq_;
        next_seq_ += n;
        return first;
    }

    /**
     * Merge @p batch — sorted by (when, seq), none before now(), seqs
     * from reserveSeqs() — into the part of the arrival run that has
     * not fired yet. Each entry counts as scheduled. @p batch is left
     * empty (it may get the run's old buffer, so a caller reusing one
     * batch vector allocates only while the run grows). Needs an
     * arrival sink.
     */
    void mergeRun(std::vector<Arrival> &batch);

    /** Set the sink fired arrival-run entries go to (once per queue). */
    void
    setArrivalSink(ArrivalSink sink, void *ctx)
    {
        sink_ = sink;
        sink_ctx_ = ctx;
    }

    /** Number of pending (non-cancelled) events, arrivals included. */
    std::size_t pending() const;

    /** Pre-size the slab and heap for @p n concurrent events. */
    void reserve(std::size_t n);

    /** Events executed by this queue so far (cancelled ones excluded). */
    std::uint64_t processed() const { return processed_; }

    /** Events ever accepted by scheduleAt/scheduleAfter/mergeRun. */
    std::uint64_t scheduled() const { return scheduled_; }

    /** Events successfully cancelled before firing. */
    std::uint64_t cancelled() const { return cancelled_; }

    /** Run all events until the queue drains. */
    void run();

    /**
     * Run events with timestamp <= @p horizon, then set the clock to
     * @p horizon (even if no events fired).
     */
    void runUntil(SimTime horizon);

    /** Advance the clock by @p d, firing everything due in between. */
    void advance(Duration d);

    /**
     * Export the queue's complete state as plain data. Staging and
     * wheel entries of cancelled events are left out; the heap array
     * is written verbatim, dead entries included, since importImage()
     * takes it as a heap. Fails (returns false) when a live event
     * carries no EventTag — an untagged callback cannot be rebound on
     * restore — or while the arrival run holds an entry that has not
     * fired (the image has no room for it).
     */
    bool exportImage(EventQueueImage &out) const;

    /**
     * Replace this queue's entire state with @p img, rebinding each
     * live slot's callback through @p rebind(kind, arg) -> Callback.
     * The slab, heap, staging buffer, free-list, counters, sequence
     * numbers and clock are restored verbatim, so EventIds handed out
     * before the capture stay valid afterwards. Dead staging or wheel
     * entries (images from builds that exported them) are accepted and
     * die at the first flush, cascade or dump they meet. The arrival
     * run starts empty, as it was at export; the arrival sink is kept.
     */
    template <typename Rebind>
    void
    importImage(const EventQueueImage &img, Rebind &&rebind)
    {
        now_ = SimTime::fromNanos(img.now_ns);
        next_seq_ = img.next_seq;
        processed_ = img.processed;
        scheduled_ = img.scheduled;
        cancelled_ = img.cancelled;
        slots_.clear();
        slots_.resize(img.slots.size());
        live_ = 0;
        for (std::size_t i = 0; i < img.slots.size(); ++i) {
            const EventQueueImage::SlotImage &s = img.slots[i];
            Slot &slot = slots_[i];
            slot.gen = s.gen;
            slot.live = s.live != 0;
            slot.tag = EventTag{s.kind, s.arg};
            if (slot.live) {
                slot.cb = rebind(s.kind, s.arg);
                ++live_;
            }
        }
        const auto entry = [](const EventQueueImage::EntryImage &e) {
            return HeapEntry{SimTime::fromNanos(e.when_ns), e.seq, e.slot,
                             e.gen};
        };
        heap_.clear();
        heap_.reserve(img.heap.size());
        for (const EventQueueImage::EntryImage &e : img.heap)
            heap_.push_back(entry(e));
        staging_.clear();
        staging_.reserve(img.staging.size());
        for (const EventQueueImage::EntryImage &e : img.staging)
            staging_.push_back(entry(e));
        free_ = img.free_list;
        run_.clear();
        run_head_ = 0;
        wheel_.reset(img.wheel_frontier);
        for (const EventQueueImage::WheelEntryImage &w : img.wheel) {
            if (use_wheel_) {
                wheel_.restoreEntry(
                    WheelEntry{SimTime::fromNanos(w.when_ns), w.seq, w.slot,
                               w.gen},
                    w.level, w.wslot);
            } else {
                // Pure-heap target: a wheel-bearing image stays
                // runnable, the parked entries just live in the heap.
                heapPush(HeapEntry{SimTime::fromNanos(w.when_ns), w.seq,
                                   w.slot, w.gen});
            }
        }
    }

  private:
    /**
     * One ready-queue entry. when/seq are duplicated out of the slot
     * so heap comparisons stay inside the contiguous heap vector
     * instead of chasing slab pointers.
     */
    struct HeapEntry
    {
        SimTime when;
        std::uint64_t seq; //!< FIFO tie-break
        std::uint32_t slot;
        std::uint32_t gen; //!< slot generation at scheduling time
    };

    /** One slab slot; recycled through the free-list. */
    struct Slot
    {
        std::uint32_t gen = 1; //!< bumped on fire/cancel; never 0
        bool live = false;
        EventTag tag; //!< rebind tag; kind 0 = untagged
        Callback cb;
    };

    static EventId
    packId(std::uint32_t slot, std::uint32_t gen)
    {
        return (static_cast<EventId>(gen) << 32) | slot;
    }

    static std::uint32_t slotOf(EventId id)
    {
        return static_cast<std::uint32_t>(id);
    }

    static std::uint32_t genOf(EventId id)
    {
        return static_cast<std::uint32_t>(id >> 32);
    }

    /** True when entry @p a fires strictly before @p b. */
    template <typename A, typename B>
    static bool
    earlier(const A &a, const B &b)
    {
        if (a.when != b.when)
            return a.when < b.when;
        return a.seq < b.seq;
    }

    /**
     * True when @p e (a heap, staging or wheel entry) still refers to
     * a pending event.
     */
    template <typename Entry>
    bool
    entryLive(const Entry &e) const
    {
        const Slot &slot = slots_[e.slot];
        return slot.live && slot.gen == e.gen;
    }

    void heapPush(HeapEntry entry);

    /** Pop the heap top. Precondition: non-empty. */
    HeapEntry heapPop();

    /**
     * Move still-live staged (heap-bound) entries into the heap.
     * Entries whose event was cancelled while staged are dropped here
     * without ever being sifted.
     */
    void flushStaging();

    /** Kill @p slot: destroy the callback, retag, recycle. */
    void retire(std::uint32_t idx);

    /** Pop dead (cancelled) tops so the heap front is live or empty. */
    void compactTop();

    /** Execute a live popped entry. */
    void fire(const HeapEntry &top);

    /**
     * Fire events up to @p horizon (tick @p bound), merging the heap
     * and the arrival run by (when, seq). The body of run/runUntil.
     */
    void drain(SimTime horizon, std::int64_t bound);

    /**
     * Surface wheel entries so the heap front is the global minimum:
     * every bucket due at or before min(@p bound_tick, the heap
     * front's tick) is dumped into the heap (dead entries die at the
     * first cascade or dump they meet). With an empty heap the wheel
     * advances action by action until a live entry lands or nothing
     * is due within the bound.
     */
    void syncWheel(std::int64_t bound_tick);

    SimTime now_;
    std::uint64_t next_seq_ = 0;
    std::uint64_t processed_ = 0;
    std::uint64_t scheduled_ = 0;
    std::uint64_t cancelled_ = 0;
    std::size_t live_ = 0;
    std::vector<Slot> slots_;
    std::vector<HeapEntry> heap_;      //!< 4-ary min-heap
    std::vector<HeapEntry> staging_;   //!< heap-bound, not yet in heap_
    std::vector<std::uint32_t> free_;  //!< recycled slot indices
    TimingWheel wheel_;                //!< near-future parking lot
    bool use_wheel_ = true;
    std::vector<Arrival> run_;         //!< sorted arrival run
    std::size_t run_head_ = 0;         //!< next unfired run entry
    std::vector<Arrival> merge_;       //!< mergeRun's output buffer
    ArrivalSink sink_ = nullptr;
    void *sink_ctx_ = nullptr;
};

} // namespace eaao::sim

#endif // EAAO_SIM_EVENT_QUEUE_HPP
