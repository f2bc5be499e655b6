/**
 * @file
 * Unit tests for the open-loop arrival engine and the orchestrator's
 * admission-control path (admitRequest, backpressure policies, SLO
 * accounting). See docs/load-engine.md.
 */

#include <gtest/gtest.h>

#include "faas/platform.hpp"
#include "faas/sharded.hpp"
#include "faas/workload.hpp"
#include "obs/metrics.hpp"
#include "snap/snapshotter.hpp"

namespace eaao::faas {
namespace {

PlatformConfig
smallConfig(std::uint64_t seed)
{
    PlatformConfig cfg;
    cfg.profile = DataCenterProfile::usEast1();
    cfg.profile.host_count = 330;
    cfg.seed = seed;
    return cfg;
}

TEST(AdmitRequest, WarmHitServesImmediately)
{
    Platform p(smallConfig(1));
    const auto acct = p.createAccount();
    const auto svc = p.deployService(acct, ExecEnv::Gen1);
    // Warm an instance through the closed-loop path, let it idle.
    p.orchestrator().routeRequest(svc, sim::Duration::millis(100));
    p.advance(sim::Duration::seconds(30));

    const AdmissionResult r =
        p.orchestrator().admitRequest(svc, sim::Duration::millis(100));
    EXPECT_EQ(r.outcome, AdmissionOutcome::Served);
    EXPECT_NE(r.instance, kNoInstance);
    const SloStats &slo = p.orchestrator().sloStats();
    EXPECT_EQ(slo.admitted, 1u);
    EXPECT_EQ(slo.served_warm, 1u);
    EXPECT_EQ(slo.queued, 0u);
    // Warm latency is pure service time.
    EXPECT_DOUBLE_EQ(slo.latency_s.sum, 0.1);
}

TEST(AdmitRequest, ColdArrivalWaitsOutOneStartup)
{
    Platform p(smallConfig(2));
    const auto acct = p.createAccount();
    const auto svc = p.deployService(acct, ExecEnv::Gen1);

    const AdmissionResult r =
        p.orchestrator().admitRequest(svc, sim::Duration::millis(100));
    EXPECT_EQ(r.outcome, AdmissionOutcome::Queued);
    EXPECT_EQ(r.instance, kNoInstance);
    EXPECT_EQ(p.orchestrator().admissionBacklog(svc), 1u);

    // Gen 1 startup bills 1.5 s; the queued request dispatches then.
    p.advance(sim::Duration::seconds(2));
    const SloStats &slo = p.orchestrator().sloStats();
    EXPECT_EQ(slo.dispatched, 1u);
    EXPECT_EQ(p.orchestrator().admissionBacklog(svc), 0u);
    ASSERT_EQ(slo.cold_wait_s.count, 1u);
    EXPECT_NEAR(slo.cold_wait_s.sum, 1.5, 1e-9);
    // End-to-end latency = wait + service time.
    ASSERT_EQ(slo.latency_s.count, 1u);
    EXPECT_NEAR(slo.latency_s.sum, 1.6, 1e-9);
}

TEST(AdmitRequest, CompletionDispatchesQueuedEarly)
{
    Platform p(smallConfig(3));
    const auto acct = p.createAccount();
    const auto svc = p.deployService(acct, ExecEnv::Gen1);
    // Occupy the only instance for 500 ms...
    p.orchestrator().routeRequest(svc, sim::Duration::millis(500));
    // ...then queue an open-loop arrival whose cold start would take
    // 1.5 s. The completion at t=0.5 s must dispatch it early.
    const AdmissionResult r =
        p.orchestrator().admitRequest(svc, sim::Duration::millis(100));
    EXPECT_EQ(r.outcome, AdmissionOutcome::Queued);

    p.advance(sim::Duration::millis(700));
    const SloStats &slo = p.orchestrator().sloStats();
    ASSERT_EQ(slo.dispatched, 1u);
    EXPECT_NEAR(slo.cold_wait_s.sum, 0.5, 1e-9);
    // Only the cold start's instance exists; no second was created.
    EXPECT_EQ(p.orchestrator().instanceCount(), 1u);
}

TEST(AdmitRequest, RejectPolicyDropsOverflow)
{
    PlatformConfig cfg = smallConfig(4);
    cfg.orchestrator.admission_depth = 2;
    cfg.orchestrator.shed_policy = ShedPolicy::Reject;
    Platform p(cfg);
    const auto acct = p.createAccount();
    const auto svc = p.deployService(acct, ExecEnv::Gen1);

    const sim::Duration st = sim::Duration::millis(100);
    EXPECT_EQ(p.orchestrator().admitRequest(svc, st).outcome,
              AdmissionOutcome::Queued);
    EXPECT_EQ(p.orchestrator().admitRequest(svc, st).outcome,
              AdmissionOutcome::Queued);
    EXPECT_EQ(p.orchestrator().admitRequest(svc, st).outcome,
              AdmissionOutcome::Rejected);
    EXPECT_EQ(p.orchestrator().admissionBacklog(svc), 2u);
    EXPECT_EQ(p.orchestrator().sloStats().rejected, 1u);
}

TEST(AdmitRequest, ShedOldestDisplacesTheHead)
{
    PlatformConfig cfg = smallConfig(5);
    cfg.orchestrator.admission_depth = 1;
    cfg.orchestrator.shed_policy = ShedPolicy::ShedOldest;
    Platform p(cfg);
    const auto acct = p.createAccount();
    const auto svc = p.deployService(acct, ExecEnv::Gen1);

    const sim::Duration st = sim::Duration::millis(100);
    EXPECT_EQ(p.orchestrator().admitRequest(svc, st).outcome,
              AdmissionOutcome::Queued);
    EXPECT_EQ(p.orchestrator().admitRequest(svc, st).outcome,
              AdmissionOutcome::Shed);
    EXPECT_EQ(p.orchestrator().admissionBacklog(svc), 1u);
    const SloStats &slo = p.orchestrator().sloStats();
    EXPECT_EQ(slo.shed, 1u);
    EXPECT_EQ(slo.queued, 2u);
    // The displaced head never dispatches; the survivor does.
    p.advance(sim::Duration::seconds(3));
    EXPECT_EQ(p.orchestrator().sloStats().dispatched, 1u);
}

TEST(AdmitRequest, QueuePolicyIgnoresDepth)
{
    PlatformConfig cfg = smallConfig(6);
    cfg.orchestrator.admission_depth = 1;
    cfg.orchestrator.shed_policy = ShedPolicy::Queue;
    Platform p(cfg);
    const auto acct = p.createAccount();
    const auto svc = p.deployService(acct, ExecEnv::Gen1);

    const sim::Duration st = sim::Duration::millis(100);
    for (int i = 0; i < 5; ++i) {
        EXPECT_EQ(p.orchestrator().admitRequest(svc, st).outcome,
                  AdmissionOutcome::Queued);
    }
    EXPECT_EQ(p.orchestrator().admissionBacklog(svc), 5u);
    // All five eventually dispatch (serialized cold starts + reuse).
    p.advance(sim::Duration::minutes(1));
    EXPECT_EQ(p.orchestrator().sloStats().dispatched, 5u);
}

/** Run one engine over @p spec and return the platform's SLO stats. */
SloStats
runEngine(std::uint64_t seed, const ArrivalSpec &spec,
          std::uint64_t *generated = nullptr,
          std::uint32_t concurrency = 50)
{
    Platform p(smallConfig(seed));
    const auto acct = p.createAccount();
    const auto svc = p.deployService(acct, ExecEnv::Gen1);
    p.orchestrator().setMaxConcurrency(svc, concurrency);
    ArrivalEngine engine(p, svc, spec, sim::Rng(seed * 7919 + 1));
    engine.start();
    p.clock().runUntil(engine.end() + sim::Duration::minutes(1));
    if (generated != nullptr)
        *generated = engine.generated();
    return p.orchestrator().sloStats();
}

TEST(ArrivalEngine, PoissonRateIsRespected)
{
    ArrivalSpec spec;
    spec.kind = ArrivalKind::Poisson;
    spec.rate_rps = 200.0;
    spec.span = sim::Duration::minutes(1);
    spec.mean_service_time = sim::Duration::millis(50);
    std::uint64_t generated = 0;
    const SloStats slo = runEngine(10, spec, &generated);
    // 200 rps x 60 s = 12k expected arrivals; Poisson sd ~110.
    EXPECT_NEAR(static_cast<double>(generated), 12000.0, 500.0);
    EXPECT_EQ(slo.admitted, generated);
    EXPECT_EQ(slo.served_warm + slo.queued, slo.admitted);
    // Every queued request eventually dispatched (Queue policy).
    EXPECT_EQ(slo.dispatched, slo.queued);
    EXPECT_EQ(slo.latency_s.count, slo.admitted);
}

TEST(ArrivalEngine, DiurnalAndParetoKeepTheMeanRate)
{
    for (const ArrivalKind kind :
         {ArrivalKind::Diurnal, ArrivalKind::Pareto}) {
        ArrivalSpec spec;
        spec.kind = kind;
        spec.rate_rps = 100.0;
        spec.burst_factor = 3.0;
        spec.span = sim::Duration::minutes(2);
        spec.mean_service_time = sim::Duration::millis(20);
        std::uint64_t generated = 0;
        runEngine(11 + static_cast<int>(kind), spec, &generated);
        // 100 rps x 120 s = 12k; allow a generous burst tolerance.
        EXPECT_NEAR(static_cast<double>(generated), 12000.0, 1200.0)
            << "kind " << static_cast<int>(kind);
    }
}

TEST(ArrivalEngine, IdenticalSeedsAreByteDeterministic)
{
    ArrivalSpec spec;
    spec.kind = ArrivalKind::Pareto;
    spec.rate_rps = 150.0;
    spec.burst_factor = 2.0;
    spec.span = sim::Duration::seconds(45);
    std::uint64_t gen_a = 0, gen_b = 0;
    const SloStats a = runEngine(12, spec, &gen_a);
    const SloStats b = runEngine(12, spec, &gen_b);
    EXPECT_EQ(gen_a, gen_b);
    EXPECT_EQ(a.admitted, b.admitted);
    EXPECT_EQ(a.served_warm, b.served_warm);
    EXPECT_EQ(a.queued, b.queued);
    EXPECT_EQ(a.dispatched, b.dispatched);
    EXPECT_EQ(a.latency_s.counts, b.latency_s.counts);
    EXPECT_EQ(a.latency_s.sum, b.latency_s.sum);
    EXPECT_EQ(a.cold_wait_s.counts, b.cold_wait_s.counts);
}

TEST(ArrivalEngine, ChurnForcesReconnections)
{
    ArrivalSpec spec;
    spec.kind = ArrivalKind::Poisson;
    spec.rate_rps = 50.0;
    spec.span = sim::Duration::seconds(35);
    spec.churn_every = sim::Duration::seconds(10);
    spec.mean_service_time = sim::Duration::millis(20);
    std::uint64_t with_churn = 0;
    const SloStats slo = runEngine(13, spec, &with_churn);
    EXPECT_GT(with_churn, 0u);
    EXPECT_EQ(slo.served_warm + slo.queued, slo.admitted);
    // Churn tears down warm capacity, so some arrivals must re-queue
    // after each disconnect boundary.
    EXPECT_GT(slo.queued, 1u);
}

TEST(SloQuantiles, HistogramQuantileInterpolates)
{
    obs::Histogram h;
    h.bounds = {1.0, 2.0, 4.0};
    // 10 observations at 0.5, 10 at 1.5: p50 sits at the 1|2 seam.
    for (int i = 0; i < 10; ++i)
        h.observe(0.5);
    for (int i = 0; i < 10; ++i)
        h.observe(1.5);
    EXPECT_NEAR(obs::histogramQuantile(h, 0.5), 1.0, 1e-9);
    EXPECT_GT(obs::histogramQuantile(h, 0.9), 1.0);
    EXPECT_LE(obs::histogramQuantile(h, 1.0), 1.5);
    // Quantiles never exceed the observed max (overflow bucket).
    h.observe(100.0);
    EXPECT_LE(obs::histogramQuantile(h, 1.0), 100.0);

    const obs::Histogram empty;
    EXPECT_DOUBLE_EQ(obs::histogramQuantile(empty, 0.99), 0.0);
}

// --------------------------------------------------- sharded open loop

ShardedConfig
shardedConfig(unsigned threads)
{
    ShardedConfig cfg;
    cfg.profile.host_count = 550; // 5 lanes
    cfg.seed = 777;
    cfg.threads = threads;
    return cfg;
}

/** One open-loop stream per lane, cycling the three arrival kinds. */
std::vector<ShardOp>
openLoopOps(ShardedPlatform &platform, sim::SimTime &horizon)
{
    using Kind = ShardOp::Kind;
    std::vector<ShardOp> ops;
    for (std::uint32_t lane = 0; lane < platform.laneCount(); ++lane) {
        const AccountId acct = platform.createAccount(lane, 1000);
        const ServiceId svc =
            platform.deployService(acct, ExecEnv::Gen1);
        ShardOp warm;
        warm.kind = Kind::Connect;
        warm.step = 0;
        warm.service = svc;
        warm.account = acct;
        warm.a = 5;
        ops.push_back(warm);

        ShardOp ol;
        ol.kind = Kind::OpenLoop;
        ol.at = sim::SimTime() + sim::Duration::minutes(1);
        ol.step = 1;
        ol.service = svc;
        ol.account = acct;
        ol.a = lane % 3; // Poisson / Diurnal / Pareto round-robin
        ol.rate = 60.0;
        ol.burst = 2.5;
        ol.dur = sim::Duration::millis(100);
        ol.span = sim::Duration::minutes(4);
        if (lane == 0)
            ol.gap = sim::Duration::seconds(20); // churn on one lane
        ops.push_back(ol);
    }
    horizon = sim::SimTime() + sim::Duration::minutes(6);
    return ops;
}

TEST(ShardedOpenLoop, LogIsGroupingInvariant)
{
    std::string logs[2];
    std::uint64_t arrivals[2] = {0, 0};
    int i = 0;
    for (const unsigned threads : {1u, 4u}) {
        ShardedPlatform platform(shardedConfig(threads));
        sim::SimTime horizon;
        platform.run(openLoopOps(platform, horizon), horizon);
        logs[i] = platform.renderLog();
        arrivals[i] = platform.totals().open_loop;
        ++i;
    }
    EXPECT_GT(arrivals[0], 0u);
    EXPECT_EQ(arrivals[0], arrivals[1]);
    EXPECT_EQ(logs[0], logs[1]);
    // The conditional slo sections actually rendered.
    EXPECT_NE(logs[0].find("open_loop "), std::string::npos);
    EXPECT_NE(logs[0].find("slo_latency_s "), std::string::npos);
}

TEST(ShardedOpenLoop, StreamsSurviveCheckpointRestore)
{
    // Straight run, capturing pre-fold at a barrier mid-span (window
    // 30 s; the streams run from 1 min to 5 min, so barrier 6 lands
    // at 3 min with every cursor live).
    ShardedPlatform ref(shardedConfig(2));
    sim::SimTime horizon;
    ref.beginRun(openLoopOps(ref, horizon), horizon);
    for (std::uint32_t w = 0; w < 6; ++w) {
        ref.advanceWindow();
        ref.completeWindow();
    }
    ref.advanceWindow();
    const std::vector<std::uint8_t> image = snap::Snapshotter::capture(ref);
    ref.completeWindow();
    ref.resumeRun();

    // Restore into a differently-grouped platform and finish.
    ShardedPlatform resumed(shardedConfig(5));
    std::string error;
    ASSERT_TRUE(snap::Snapshotter::restore(image, resumed, error))
        << error;
    resumed.resumeRun();

    EXPECT_EQ(ref.totals().open_loop, resumed.totals().open_loop);
    EXPECT_GT(resumed.totals().open_loop, 0u);
    EXPECT_EQ(ref.renderLog(), resumed.renderLog());
}

/**
 * Two overlapping streams on lane 0: one from 1 min for 4 min, and one
 * from 1 min 10 s — mid-window — for 2 min. The second stream's first
 * batch merges into a partly fired arrival run, and every later window
 * merges its batch into the first stream's unfired one.
 */
std::vector<ShardOp>
overlappingOps(ShardedPlatform &platform, sim::SimTime &horizon)
{
    using Kind = ShardOp::Kind;
    const AccountId acct = platform.createAccount(0, 1000);
    std::vector<ShardOp> ops;
    std::uint32_t step = 0;
    for (const int start_s : {60, 70}) {
        const ServiceId svc = platform.deployService(acct, ExecEnv::Gen1);
        ShardOp ol;
        ol.kind = Kind::OpenLoop;
        ol.at = sim::SimTime() + sim::Duration::seconds(start_s);
        ol.step = step++;
        ol.service = svc;
        ol.account = acct;
        ol.a = start_s == 60 ? 0 : 2; // Poisson, then Pareto
        ol.rate = 80.0;
        ol.burst = 2.5;
        ol.dur = sim::Duration::millis(150);
        ol.span = sim::Duration::minutes(start_s == 60 ? 4 : 2);
        ops.push_back(ol);
    }
    horizon = sim::SimTime() + sim::Duration::minutes(6);
    return ops;
}

/** Arrivals an op's stream produces, drawn apart from the platform. */
std::uint64_t
arrivalCount(const ShardOp &op, std::uint64_t seed)
{
    // The stream seed ShardedPlatform::applyOp derives for this op.
    sim::Rng rng(sim::mix64(seed ^ 0x0a1e00000000ULL ^
                            (static_cast<std::uint64_t>(op.step) << 20) ^
                            op.service));
    ArrivalCursor cursor(openLoopSpec(op), rng.fork(0x0a1e0001), op.at);
    std::vector<sim::SimTime> instants;
    cursor.generateUntil(op.at + op.span, instants);
    return instants.size();
}

TEST(ShardedOpenLoop, OverlappingStreamsMergeOnOneLane)
{
    std::string logs[2];
    int i = 0;
    for (const unsigned threads : {1u, 4u}) {
        ShardedPlatform platform(shardedConfig(threads));
        sim::SimTime horizon;
        const std::vector<ShardOp> ops = overlappingOps(platform, horizon);
        ASSERT_EQ(platform.laneForOp(ops[0]), platform.laneForOp(ops[1]));
        platform.run(ops, horizon);
        logs[i++] = platform.renderLog();

        const std::uint64_t want = arrivalCount(ops[0], 777) +
                                   arrivalCount(ops[1], 777);
        EXPECT_GT(arrivalCount(ops[1], 777), 0u);
        EXPECT_EQ(platform.totals().open_loop, want);
        EXPECT_EQ(platform.laneOrchestrator(0).sloStats().admitted, want);
    }
    EXPECT_EQ(logs[0], logs[1]);

    // Capture pre-fold at the 2.5 min barrier, with both streams live,
    // and restore into another grouping.
    ShardedPlatform ref(shardedConfig(2));
    sim::SimTime horizon;
    ref.beginRun(overlappingOps(ref, horizon), horizon);
    for (std::uint32_t w = 0; w < 4; ++w) {
        ref.advanceWindow();
        ref.completeWindow();
    }
    ref.advanceWindow();
    const std::vector<std::uint8_t> image = snap::Snapshotter::capture(ref);
    ShardedPlatform resumed(shardedConfig(5));
    std::string error;
    ASSERT_TRUE(snap::Snapshotter::restore(image, resumed, error)) << error;
    resumed.resumeRun();
    EXPECT_EQ(resumed.renderLog(), logs[0]);
}

} // namespace
} // namespace eaao::faas
