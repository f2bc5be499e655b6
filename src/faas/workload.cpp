/**
 * @file
 * Implementation of the request workload generators.
 */

#include "faas/workload.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "support/logging.hpp"

namespace eaao::faas {

namespace {

/** Shared mutable run state captured by the event closures. */
struct RunState
{
    WorkloadStats stats;
    std::uint32_t in_flight = 0;
};

/** Issue one request and track statistics. */
void
issue(Platform &platform, ServiceId service, sim::Duration service_time,
      const std::shared_ptr<RunState> &state)
{
    const InstanceId id =
        platform.orchestrator().routeRequest(service, service_time);
    ++state->stats.requests;
    state->stats.instances_used.insert(id);
    ++state->in_flight;
    state->stats.peak_concurrent =
        std::max(state->stats.peak_concurrent, state->in_flight);
    platform.clock().scheduleAfter(service_time, [state] {
        --state->in_flight;
    });
}

} // namespace

WorkloadStats
driveLoad(Platform &platform, ServiceId service, const LoadSpec &spec,
          sim::Rng &rng)
{
    EAAO_ASSERT(spec.rps > 0.0, "non-positive arrival rate");
    EAAO_ASSERT(spec.span.ns() > 0, "empty load span");

    auto state = std::make_shared<RunState>();
    const sim::SimTime start = platform.now();
    const sim::SimTime end = start + spec.span;
    const double span_s = spec.span.secondsF();

    // Pre-roll the arrival instants (thinning for the ramp), then
    // schedule them; service times are drawn per arrival.
    const double max_rate =
        spec.peak_rps > spec.rps ? spec.peak_rps : spec.rps;
    double t = 0.0;
    while (true) {
        t += rng.exponential(1.0 / max_rate);
        if (t >= span_s)
            break;
        if (spec.peak_rps > spec.rps) {
            const double rate_at =
                spec.rps + (spec.peak_rps - spec.rps) * (t / span_s);
            if (!rng.bernoulli(rate_at / max_rate))
                continue; // thinned out
        }
        const sim::Duration service_time = sim::Duration::fromSecondsF(
            std::max(1e-4, rng.exponential(
                               spec.mean_service_time.secondsF())));
        platform.clock().scheduleAt(
            start + sim::Duration::fromSecondsF(t),
            [&platform, service, service_time, state] {
                issue(platform, service, service_time, state);
            });
    }

    platform.clock().runUntil(end);
    return state->stats;
}

WorkloadStats
floodRequests(Platform &platform, ServiceId service, std::uint32_t count,
              sim::Duration service_time, sim::Duration spacing,
              sim::Rng &rng)
{
    (void)rng; // kept for interface symmetry / future jitter
    auto state = std::make_shared<RunState>();
    const sim::SimTime start = platform.now();
    for (std::uint32_t i = 0; i < count; ++i) {
        platform.clock().scheduleAt(
            start + spacing * static_cast<std::int64_t>(i),
            [&platform, service, service_time, state] {
                issue(platform, service, service_time, state);
            });
    }
    platform.clock().runUntil(
        start + spacing * static_cast<std::int64_t>(count));
    return state->stats;
}

// ------------------------------------------------------- ArrivalCursor

namespace {

/** Bounded-Pareto shape; 1 < alpha < 2 gives the classic heavy tail
 *  with a finite mean. */
constexpr double kParetoAlpha = 1.5;

/** Mean of min(X, cap) for X ~ Pareto(x_m = 1, alpha). */
double
boundedParetoMean(double cap, double alpha)
{
    return alpha / (alpha - 1.0) *
               (1.0 - std::pow(cap, 1.0 - alpha)) +
           std::pow(cap, -alpha) * cap;
}

} // namespace

ArrivalCursor::ArrivalCursor(const ArrivalSpec &spec, sim::Rng rng,
                             sim::SimTime origin)
    : spec_(spec), rng_(rng), origin_(origin), next_(origin)
{
    EAAO_ASSERT(spec_.rate_rps > 0.0, "non-positive arrival rate");
    EAAO_ASSERT(spec_.burst_factor >= 1.0, "burst factor below 1");
    advance(); // pre-draw the first instant
}

void
ArrivalCursor::advance()
{
    const double mean_gap_s = 1.0 / spec_.rate_rps;
    switch (spec_.kind) {
    case ArrivalKind::Poisson:
        next_ = next_ + sim::Duration::fromSecondsF(
                            std::max(1e-9, rng_.exponential(mean_gap_s)));
        return;
    case ArrivalKind::Diurnal: {
        // Non-homogeneous Poisson by thinning: candidates at the peak
        // rate, accepted with probability lambda(t)/lambda_peak.
        // lambda(t) = r * 2/(1+b) * (1 + (b-1) * s(t)) with
        // s(t) = (1 - cos(2*pi*t/span)) / 2, so the rate swings between
        // 2r/(1+b) and 2rb/(1+b) over one span-long cycle, mean r.
        const double b = spec_.burst_factor;
        const double peak_rate = spec_.rate_rps * 2.0 * b / (1.0 + b);
        const double span_s = spec_.span.secondsF();
        while (true) {
            next_ = next_ +
                    sim::Duration::fromSecondsF(std::max(
                        1e-9, rng_.exponential(1.0 / peak_rate)));
            const double t = (next_ - origin_).secondsF();
            const double s =
                0.5 * (1.0 - std::cos(2.0 * M_PI * t / span_s));
            const double rate = spec_.rate_rps * 2.0 / (1.0 + b) *
                                (1.0 + (b - 1.0) * s);
            if (rng_.bernoulli(rate / peak_rate))
                return;
        }
    }
    case ArrivalKind::Pareto: {
        // Bounded Pareto normalized to the configured mean: gaps are
        // mean_gap * min(u^(-1/alpha), cap) / E[min(X, cap)], so bursts
        // of short gaps alternate with rare cap-length lulls while the
        // long-run rate stays exactly rate_rps.
        const double cap = 100.0 * spec_.burst_factor;
        const double norm = boundedParetoMean(cap, kParetoAlpha);
        const double u = std::max(rng_.uniform(), 1e-12);
        const double raw =
            std::min(std::pow(u, -1.0 / kParetoAlpha), cap);
        next_ = next_ + sim::Duration::fromSecondsF(
                            std::max(1e-9, mean_gap_s * raw / norm));
        return;
    }
    }
    EAAO_FATAL("unknown arrival kind ",
               static_cast<std::uint32_t>(spec_.kind));
}

void
ArrivalCursor::generateUntil(sim::SimTime until,
                             std::vector<sim::SimTime> &out)
{
    forEachUntil(until, [&out](sim::SimTime at) { out.push_back(at); });
}

void
ArrivalCursor::restore(const sim::RngState &rng, sim::SimTime origin,
                       sim::SimTime next)
{
    rng_.restoreState(rng);
    origin_ = origin;
    next_ = next;
}

// ------------------------------------------------------- ArrivalEngine

struct ArrivalEngine::EngineState
{
    Platform *platform = nullptr;
    ServiceId service = 0;
    ArrivalSpec spec;
    ArrivalCursor cursor;
    sim::Rng service_rng;      //!< independent service-time stream
    sim::SimTime start;
    sim::SimTime end;
    sim::SimTime window_end;   //!< generated up to here
    sim::SimTime next_churn;
    std::uint64_t generated = 0;
    std::vector<sim::SimTime> scratch;
};

ArrivalEngine::ArrivalEngine(Platform &platform, ServiceId service,
                             const ArrivalSpec &spec, sim::Rng rng)
    : state_(std::make_shared<EngineState>())
{
    EAAO_ASSERT(spec.span.ns() > 0, "empty arrival span");
    EAAO_ASSERT(spec.window.ns() > 0, "empty generation window");
    state_->platform = &platform;
    state_->service = service;
    state_->spec = spec;
    state_->start = platform.now();
    state_->end = state_->start + spec.span;
    state_->window_end = state_->start;
    state_->cursor =
        ArrivalCursor(spec, rng.fork(0x0a1e0001), state_->start);
    state_->service_rng = rng.fork(0x0a1e0002);
    state_->next_churn = spec.churn_every.ns() > 0
                             ? state_->start + spec.churn_every
                             : sim::SimTime::fromNanos(
                                   std::numeric_limits<std::int64_t>::max());
}

void
ArrivalEngine::start()
{
    pump(state_);
}

sim::SimTime
ArrivalEngine::end() const
{
    return state_->end;
}

std::uint64_t
ArrivalEngine::generated() const
{
    return state_->generated;
}

void
ArrivalEngine::pump(const std::shared_ptr<EngineState> &st)
{
    Platform &platform = *st->platform;
    const sim::SimTime wend =
        std::min(st->window_end + st->spec.window, st->end);

    st->scratch.clear();
    st->cursor.generateUntil(wend, st->scratch);
    const double mean_service_s = st->spec.mean_service_time.secondsF();
    for (const sim::SimTime at : st->scratch) {
        const sim::Duration service_time = sim::Duration::fromSecondsF(
            std::max(1e-4, st->service_rng.exponential(mean_service_s)));
        platform.clock().scheduleAt(at, [st, service_time] {
            ++st->generated;
            st->platform->orchestrator().admitRequest(st->service,
                                                      service_time);
        });
    }

    // Connection churn boundaries falling inside this window.
    while (st->next_churn < wend) {
        const sim::SimTime when = st->next_churn;
        platform.clock().scheduleAt(when, [st] {
            st->platform->orchestrator().disconnectAll(st->service);
        });
        st->next_churn = when + st->spec.churn_every;
    }

    st->window_end = wend;
    if (wend < st->end)
        platform.clock().scheduleAt(wend, [st] { pump(st); });
}

} // namespace eaao::faas
