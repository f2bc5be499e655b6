/**
 * @file
 * Request workload generation (paper Section 2.2 background).
 *
 * FaaS functions are web services invoked through public interfaces;
 * demand drives autoscaling. The generators here schedule open-loop
 * Poisson request arrivals on the platform's event queue — used both
 * for realistic victim services and for the threat-model capability
 * that the attacker can invoke the victim's public interface.
 */

#ifndef EAAO_FAAS_WORKLOAD_HPP
#define EAAO_FAAS_WORKLOAD_HPP

#include <cstdint>
#include <memory>
#include <set>
#include <vector>

#include "faas/platform.hpp"
#include "faas/types.hpp"
#include "sim/rng.hpp"
#include "sim/time.hpp"

namespace eaao::faas {

/** Outcome of one load-generation run. */
struct WorkloadStats
{
    std::uint64_t requests = 0;           //!< arrivals issued
    std::set<InstanceId> instances_used;  //!< distinct serving instances
    std::uint32_t peak_concurrent = 0;    //!< max simultaneous requests
};

/** An open-loop request source. */
struct LoadSpec
{
    double rps = 10.0;                       //!< mean arrival rate
    sim::Duration mean_service_time = sim::Duration::millis(200);
    sim::Duration span = sim::Duration::minutes(5);

    /**
     * Optional peak: the rate ramps linearly from rps to peak_rps over
     * the span (peak_rps <= 0 keeps the rate constant).
     */
    double peak_rps = 0.0;
};

/**
 * Schedule Poisson arrivals for @p service per @p spec and run the
 * platform through the whole span.
 *
 * Service times are exponential around the configured mean. Arrival
 * scheduling and the platform's own events interleave on the shared
 * queue, so autoscaling, idle reaping and billing all behave exactly
 * as they would under the connection-based drivers.
 *
 * @param rng Stream for arrival/service-time draws.
 * @return Aggregate statistics of the run.
 */
WorkloadStats driveLoad(Platform &platform, ServiceId service,
                        const LoadSpec &spec, sim::Rng &rng);

/**
 * Fire a fixed number of near-simultaneous requests (a flood), e.g.
 * the attacker hammering a victim's public endpoint to force it to
 * scale out. Requests are spaced @p spacing apart; the call returns
 * after the last arrival has been issued (in-flight requests keep
 * running on the queue).
 */
WorkloadStats floodRequests(Platform &platform, ServiceId service,
                            std::uint32_t count,
                            sim::Duration service_time,
                            sim::Duration spacing, sim::Rng &rng);

/** Arrival-process families of the open-loop engine. */
enum class ArrivalKind : std::uint8_t
{
    Poisson = 0, //!< homogeneous: exponential inter-arrival gaps
    Diurnal = 1, //!< sinusoidal rate over one span-long cycle (thinning)
    Pareto = 2   //!< bounded-Pareto gaps: bursts with a heavy tail
};

/**
 * One tenant's open-loop arrival stream. Unlike LoadSpec (whose
 * driver pre-rolls every instant up front and routes through the
 * instant-scale-out path), an ArrivalSpec is consumed window by
 * window and lands on Orchestrator::admitRequest, so backpressure
 * and cold-start queueing apply. See docs/load-engine.md.
 */
struct ArrivalSpec
{
    ArrivalKind kind = ArrivalKind::Poisson;

    /** Mean offered load; exact for all three families. */
    double rate_rps = 100.0;

    /**
     * Diurnal: rate swings between 2r/(1+b) and 2rb/(1+b) (mean r).
     * Pareto: scales the gap cap (heavier usable tail); >= 1.
     * Poisson: ignored.
     */
    double burst_factor = 2.0;

    sim::Duration mean_service_time = sim::Duration::millis(200);
    sim::Duration span = sim::Duration::minutes(10);

    /** Arrivals are materialized one generation window at a time. */
    sim::Duration window = sim::Duration::seconds(30);

    /** Connection churn: disconnectAll() this often (0 = never). */
    sim::Duration churn_every = sim::Duration::nanos(0);
};

/**
 * Deterministic arrival-instant stream for one ArrivalSpec: the next
 * instant is always pre-drawn, so the stream can be cut at any window
 * boundary and resumed — including across checkpoint restore (the
 * sharded lanes serialize rng state, origin and the pending instant).
 */
class ArrivalCursor
{
  public:
    ArrivalCursor() = default;

    /** @p origin is t=0 of the stream (and of the diurnal phase). */
    ArrivalCursor(const ArrivalSpec &spec, sim::Rng rng,
                  sim::SimTime origin);

    /** Append every arrival instant < @p until to @p out. */
    void generateUntil(sim::SimTime until,
                       std::vector<sim::SimTime> &out);

    /** Call @p fn(instant) for every arrival instant < @p until. */
    template <typename Fn>
    void
    forEachUntil(sim::SimTime until, Fn &&fn)
    {
        while (next_ < until) {
            fn(next_);
            advance();
        }
    }

    /** The pre-drawn next arrival instant. */
    sim::SimTime next() const { return next_; }

    /** @name Checkpoint plumbing (see snap::Snapshotter) @{ */
    sim::RngState rngState() const { return rng_.saveState(); }
    sim::SimTime origin() const { return origin_; }
    void restore(const sim::RngState &rng, sim::SimTime origin,
                 sim::SimTime next);
    /** @} */

  private:
    /** Draw the gap to the arrival after next_ and advance. */
    void advance();

    ArrivalSpec spec_;
    sim::Rng rng_;
    sim::SimTime origin_;
    sim::SimTime next_;
};

/**
 * Open-loop arrival engine: batched-window generation of admitRequest
 * arrivals for one service. start() parks one cursor event on the
 * queue; each firing materializes the next window's arrivals (instants
 * from the arrival stream, service times from an independent forked
 * stream) and re-arms itself — so memory stays O(window), not O(span),
 * and the near-future arrivals sit in the timing wheel's fast path.
 *
 * The engine only schedules; drive the platform with clock().run() or
 * runUntil() as usual. Outcome accounting accumulates in the
 * orchestrator's sloStats().
 */
class ArrivalEngine
{
  public:
    ArrivalEngine(Platform &platform, ServiceId service,
                  const ArrivalSpec &spec, sim::Rng rng);

    /** Schedule the first generation window. */
    void start();

    /** First instant with no generation or arrival left to run. */
    sim::SimTime end() const;

    /** Arrivals handed to admitRequest so far. */
    std::uint64_t generated() const;

  private:
    struct EngineState;
    static void pump(const std::shared_ptr<EngineState> &st);

    std::shared_ptr<EngineState> state_;
};

} // namespace eaao::faas

#endif // EAAO_FAAS_WORKLOAD_HPP
