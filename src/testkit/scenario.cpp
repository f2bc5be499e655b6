/**
 * @file
 * Scenario serialization and the seeded scenario generator.
 */

#include "testkit/scenario.hpp"

#include <algorithm>
#include <charconv>
#include <cstdint>
#include <cstdio>
#include <initializer_list>
#include <sstream>
#include <string_view>

#include "campaign/spec.hpp"
#include "snap/format.hpp"
#include "support/logging.hpp"

namespace eaao::testkit {

namespace {

/** Replay-file tokens, indexed by ScenarioStep::Kind. */
constexpr const char *kKindTokens[kStepKindCount] = {
    "connect",   "disconnect",  "route",           "burst",
    "advance",   "restart",     "set_concurrency", "set_quota",
    "redeploy",  "spend_probe", "open_loop",
};

/** Profile names, indexed by Scenario::profile. */
constexpr const char *kProfileNames[3] = {"us-east1", "us-central1",
                                          "us-west1"};

/** A digest as the 16 hex digits replay files carry. */
std::string
hex16(std::uint64_t v)
{
    char buf[32];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

bool
parseKind(const std::string &token, ScenarioStep::Kind &out)
{
    for (std::size_t i = 0; i < kStepKindCount; ++i) {
        if (token == kKindTokens[i]) {
            out = static_cast<ScenarioStep::Kind>(i);
            return true;
        }
    }
    return false;
}

void drawSteps(sim::Rng &rng, std::uint32_t n_accounts,
               std::uint32_t n_services, std::uint32_t n_steps,
               const GeneratorOptions &opts, std::vector<ScenarioStep> &out);

} // namespace

const char *
toString(ScenarioStep::Kind kind)
{
    const auto i = static_cast<std::size_t>(kind);
    EAAO_ASSERT(i < kStepKindCount, "bad step kind");
    return kKindTokens[i];
}

std::string
Scenario::serialize() const
{
    // The sectioned campaign format (docs/scenario-dsl.md): the
    // shrinker's replays and the fuzzer's generated scenarios share
    // one schema with the bench campaign files, and `run_campaign`
    // executes them directly.
    std::ostringstream out;
    out << "eaao-scenario v2\n";
    out << "\n[campaign]\n";
    out << "name = replay\n";
    out << "program = replay\n";
    out << "\n[platform]\n";
    out << "seed = " << seed << "\n";
    out << "profile = "
        << kProfileNames[profile < 3 ? profile : 0] << "\n";
    out << "hosts = " << host_count << "\n";
    out << "isolate = " << (isolate_accounts ? 1 : 0) << "\n";
    out << "hot_burst_min = " << hot_burst_min << "\n";
    out << "fault = " << fault << "\n";
    out << "\n[tenants]\n";
    for (const ScenarioAccount &a : accounts)
        out << "account " << a.shard << " " << a.quota << "\n";
    for (const ScenarioService &s : services) {
        out << "service " << s.account << " " << static_cast<unsigned>(s.env)
            << " " << static_cast<unsigned>(s.size) << "\n";
    }
    out << "\n[script]\n";
    for (const ScenarioStep &s : steps) {
        out << toString(s.kind) << " " << s.target << " " << s.a
            << " " << s.b << "\n";
    }
    if (has_timetravel) {
        out << "\n[timetravel]\n";
        out << "barrier = " << tt_barrier << "\n";
        out << "prefix_steps = " << tt_prefix_steps << "\n";
        out << "prefix_digest = " << hex16(tt_prefix_digest) << "\n";
    }
    return out.str();
}

namespace {

using campaign::CampaignSpec;
using campaign::SpecLine;
using campaign::SpecSection;

/** Token @p index of @p line as a u32, exactly. */
std::uint32_t
u32Arg(const CampaignSpec &spec, const SpecLine &line, std::size_t index,
       const std::string &what)
{
    return static_cast<std::uint32_t>(
        spec.intArg(line, index, 0, UINT32_MAX, what));
}

/**
 * The `key = value` lines of [@p section], each with a key in
 * @p keys; nullptr when the section is absent.
 */
const SpecSection *
keyedSection(const CampaignSpec &spec, const std::string &section,
             std::initializer_list<std::string_view> keys)
{
    const SpecSection *s = spec.file().section(section);
    if (s == nullptr)
        return nullptr;
    for (const SpecLine &l : s->lines) {
        if (!l.isKeyValue())
            spec.fail(l.line_no, "expected key = value in [" + section + "]");
        if (std::find(keys.begin(), keys.end(), l.key) == keys.end()) {
            spec.fail(l.line_no,
                      "unknown [" + section + "] key '" + l.key + "'");
        }
    }
    return s;
}

/** Read `[timetravel]` into @p sc, whose steps are already read. */
void
readTimeTravel(const CampaignSpec &spec, Scenario &sc)
{
    const SpecSection *tt = keyedSection(
        spec, "timetravel", {"barrier", "prefix_steps", "prefix_digest"});
    if (tt == nullptr)
        return;
    const SpecLine *steps = tt->find("prefix_steps");
    const SpecLine *digest = tt->find("prefix_digest");
    if (tt->find("barrier") == nullptr || steps == nullptr ||
        digest == nullptr) {
        spec.fail(tt->line_no, "[timetravel] needs barrier, prefix_steps "
                               "and prefix_digest");
    }
    sc.has_timetravel = true;
    sc.tt_barrier = spec.u32("timetravel", "barrier");
    sc.tt_prefix_steps = spec.u32("timetravel", "prefix_steps");
    const std::string &hex = digest->value;
    const auto [end, ec] = std::from_chars(
        hex.data(), hex.data() + hex.size(), sc.tt_prefix_digest, 16);
    if (hex.size() != 16 || ec != std::errc() ||
        end != hex.data() + hex.size()) {
        spec.fail(digest->line_no, "bad prefix_digest (want 16 hex digits)");
    }
    if (sc.tt_prefix_steps > sc.steps.size()) {
        spec.fail(steps->line_no,
                  "prefix_steps " + std::to_string(sc.tt_prefix_steps) +
                      " exceeds the " + std::to_string(sc.steps.size()) +
                      "-step script");
    }
    // The digest pins the snapshot image this suffix was shrunk
    // against. A replay whose prefix drifted (hand edit, stale file)
    // would silently prime a different image — reject it.
    const std::uint64_t want = timeTravelPrefixDigest(sc);
    if (want != sc.tt_prefix_digest) {
        spec.fail(digest->line_no,
                  "prefix digest mismatch: file says " +
                      hex16(sc.tt_prefix_digest) +
                      " but the replayed prefix hashes to " + hex16(want) +
                      " (the [timetravel] snapshot reference does not "
                      "cover this prefix)");
    }
}

} // namespace

Scenario
tenantsFromSpec(const CampaignSpec &spec)
{
    const SpecSection *tenants = spec.file().section("tenants");
    if (tenants == nullptr) {
        throw campaign::SpecError(spec.file().path +
                                  ":1: missing required section [tenants]");
    }
    for (const SpecLine &l : tenants->lines) {
        if (l.isKeyValue() ||
            (l.tokens[0] != "account" && l.tokens[0] != "service")) {
            spec.fail(l.line_no, "expected 'account ...' or 'service ...' "
                                 "in [tenants]");
        }
    }

    Scenario sc;
    for (const SpecLine *l : spec.directives("tenants", "account")) {
        if (l->tokens.size() != 3)
            spec.fail(l->line_no, "expected: account <shard> <quota>");
        ScenarioAccount a;
        a.shard = static_cast<std::int32_t>(
            spec.intArg(*l, 1, -1, INT32_MAX, "account shard"));
        a.quota = u32Arg(spec, *l, 2, "account quota");
        sc.accounts.push_back(a);
    }
    if (sc.accounts.empty())
        spec.fail(tenants->line_no, "[tenants] declares no account");

    for (const SpecLine *l : spec.directives("tenants", "service")) {
        if (l->tokens.size() != 4) {
            spec.fail(l->line_no, "expected: service <account> <env 0/1> "
                                  "<size 0..3>");
        }
        ScenarioService s;
        s.account = u32Arg(spec, *l, 1, "service account");
        if (s.account >= sc.accounts.size()) {
            spec.fail(l->line_no,
                      "service references account " +
                          std::to_string(s.account) + " of " +
                          std::to_string(sc.accounts.size()));
        }
        s.env = static_cast<std::uint8_t>(
            spec.intArg(*l, 2, 0, 1, "service env"));
        s.size = static_cast<std::uint8_t>(
            spec.intArg(*l, 3, 0, 3, "service size"));
        sc.services.push_back(s);
    }
    if (sc.services.empty())
        spec.fail(tenants->line_no, "[tenants] declares no service");
    return sc;
}

Scenario
Scenario::fromSpec(const CampaignSpec &spec)
{
    const SpecSection *platform = keyedSection(
        spec, "platform",
        {"seed", "profile", "hosts", "isolate", "hot_burst_min", "fault"});
    Scenario sc = tenantsFromSpec(spec);

    if (spec.has("platform", "seed"))
        sc.seed = spec.u64("platform", "seed");
    if (spec.has("platform", "profile")) {
        const std::string name = spec.str("platform", "profile");
        const auto *hit = std::find(std::begin(kProfileNames),
                                    std::end(kProfileNames), name);
        if (hit == std::end(kProfileNames)) {
            spec.fail(platform->find("profile")->line_no,
                      "bad profile (want us-east1 / us-central1 / "
                      "us-west1)");
        }
        sc.profile = static_cast<std::uint8_t>(hit - kProfileNames);
    }
    sc.host_count = spec.hosts();
    const std::uint32_t isolate = spec.u32("platform", "isolate", 0);
    if (isolate > 1) {
        spec.fail(platform->find("isolate")->line_no,
                  "'isolate' expects 0 or 1");
    }
    sc.isolate_accounts = isolate == 1;
    sc.hot_burst_min = spec.u32("platform", "hot_burst_min", 0);
    sc.fault = spec.u32("platform", "fault", 0);

    if (const SpecSection *script = spec.file().section("script")) {
        for (const SpecLine &l : script->lines) {
            if (l.isKeyValue() || l.tokens.size() != 4) {
                spec.fail(l.line_no,
                          "expected '<kind> <target> <a> <b>' in [script]");
            }
            ScenarioStep st;
            if (!parseKind(l.tokens[0], st.kind)) {
                spec.fail(l.line_no,
                          "unknown step kind '" + l.tokens[0] + "'");
            }
            st.target = u32Arg(spec, l, 1, "step target");
            st.a = u32Arg(spec, l, 2, "step a");
            st.b = u32Arg(spec, l, 3, "step b");
            sc.steps.push_back(st);
        }
    }

    readTimeTravel(spec, sc);
    return sc;
}

Scenario
generateScenario(std::uint64_t base_seed, std::uint64_t index,
                 const GeneratorOptions &opts)
{
    sim::Rng rng = sim::Rng(base_seed).fork(index);

    Scenario sc;
    sc.seed = rng();
    if (sc.seed == 0)
        sc.seed = 1;

    // Platform shape. us-central1's preset is ~3500 hosts; every
    // profile gets a small-fleet override so a fuzz campaign clears
    // thousands of scenarios per minute. The shard structure survives:
    // 550 hosts is at least 5 shards on every profile, so shard pins
    // 0..4 are always valid and the sharded platform gets 5 lanes —
    // enough for the shard-equality oracle's {1, 2, 5} grouping arms
    // to partition differently.
    sc.profile = opts.allow_dynamic_profile
                     ? static_cast<std::uint8_t>(rng.uniformInt(3))
                     : static_cast<std::uint8_t>(rng.uniformInt(2) == 0 ? 0
                                                                        : 2);
    sc.host_count = 550;
    sc.isolate_accounts = rng.bernoulli(0.15);
    // Occasionally lower the hotness threshold so small bursts flip
    // services hot and exercise the helper-placement path.
    sc.hot_burst_min = rng.bernoulli(0.4)
                           ? static_cast<std::uint32_t>(rng.uniformInt(5, 40))
                           : 0;

    const auto n_accounts =
        static_cast<std::uint32_t>(rng.uniformInt(1, opts.max_accounts));
    for (std::uint32_t i = 0; i < n_accounts; ++i) {
        ScenarioAccount a;
        // Shard-pinned accounts dominate: pins spread the accounts
        // over distinct lanes, which is what makes the cross-lane
        // exchange (and its planted faults) observable.
        a.shard = rng.bernoulli(0.6)
                      ? static_cast<std::int32_t>(rng.uniformInt(5))
                      : -1;
        // Mix fresh capped accounts with established ones (§5.2 quota).
        const std::uint32_t quotas[4] = {4, 10, 60, 1000};
        a.quota = quotas[rng.uniformInt(4)];
        sc.accounts.push_back(a);
    }

    const auto n_services =
        static_cast<std::uint32_t>(rng.uniformInt(1, opts.max_services));
    for (std::uint32_t i = 0; i < n_services; ++i) {
        ScenarioService s;
        s.account = static_cast<std::uint32_t>(rng.uniformInt(n_accounts));
        s.env = opts.allow_gen2 && rng.bernoulli(0.35) ? 1 : 0;
        s.size = static_cast<std::uint8_t>(rng.uniformInt(4));
        sc.services.push_back(s);
    }

    const auto n_steps = static_cast<std::uint32_t>(
        rng.uniformInt(opts.min_steps, opts.max_steps));
    drawSteps(rng, n_accounts, n_services, n_steps, opts, sc.steps);
    return sc;
}

namespace {

/**
 * The weighted step-kind draw shared by generateScenario and
 * generateSuffixSteps: @p n_steps steps against a topology of
 * @p n_accounts x @p n_services, appended to @p out.
 */
void
drawSteps(sim::Rng &rng, std::uint32_t n_accounts, std::uint32_t n_services,
          std::uint32_t n_steps, const GeneratorOptions &opts,
          std::vector<ScenarioStep> &out)
{
    const auto svc = [&] {
        return static_cast<std::uint32_t>(rng.uniformInt(n_services));
    };
    for (std::uint32_t i = 0; i < n_steps; ++i) {
        ScenarioStep st;
        // Weighted kinds. Connect/advance/burst dominate because the
        // paper's placement behaviours (hotness, helper growth, reap)
        // are driven by launch surges and idle gaps.
        const std::uint64_t w = rng.uniformInt(100);
        if (w < 24) {
            st.kind = ScenarioStep::Kind::Connect;
            st.target = svc();
            st.a = static_cast<std::uint32_t>(
                rng.uniformInt(1, opts.max_connect));
        } else if (w < 32) {
            st.kind = ScenarioStep::Kind::Disconnect;
            st.target = svc();
        } else if (w < 44) {
            st.kind = ScenarioStep::Kind::Route;
            st.target = svc();
            st.a = static_cast<std::uint32_t>(rng.uniformInt(1, 2000)); // ms
        } else if (w < 56) {
            st.kind = ScenarioStep::Kind::Burst;
            st.target = svc();
            st.a = static_cast<std::uint32_t>(
                rng.uniformInt(2, opts.max_burst));
            st.b = static_cast<std::uint32_t>(rng.uniformInt(1, 500)); // ms
            // Cross-shard burst pair: sometimes fire a second burst at
            // another service back-to-back, so services of accounts on
            // different shards (lanes) are active in the same exchange
            // window.
            if (n_services > 1 && rng.bernoulli(0.3)) {
                out.push_back(st);
                st.target = svc();
                st.a = static_cast<std::uint32_t>(
                    rng.uniformInt(2, opts.max_burst));
                st.b = static_cast<std::uint32_t>(
                    rng.uniformInt(1, 500)); // ms
            }
        } else if (w < 76) {
            st.kind = ScenarioStep::Kind::Advance;
            // Idle-gap buckets chosen to straddle the reap window:
            // short gaps (< idle_hold = 2 min), gaps just around the
            // hold boundary, long gaps past idle_max = 15 min, and
            // exact multiples of the sharded platform's 30 s exchange
            // window, so subsequent steps land exactly on a barrier
            // (the window-boundary fault's bite point).
            const std::uint64_t bucket = rng.uniformInt(5);
            if (bucket == 0)
                st.a = static_cast<std::uint32_t>(rng.uniformInt(1, 5'000));
            else if (bucket == 1)
                st.a = static_cast<std::uint32_t>(
                    rng.uniformInt(100'000, 140'000));
            else if (bucket == 2)
                st.a = static_cast<std::uint32_t>(
                    rng.uniformInt(5'000, opts.max_advance_ms));
            else if (bucket == 3)
                st.a = static_cast<std::uint32_t>(
                    rng.uniformInt(900'000, 1'100'000));
            else
                st.a = 30'000 * static_cast<std::uint32_t>(
                                    rng.uniformInt(1, 4));
        } else if (w < 80) {
            // Open-loop arrival stream: raw payloads, decoded by the
            // runner into the full ArrivalSpec (family, rate, span,
            // burstiness, churn) so admission backpressure and the
            // cold-start queue see fuzzed traffic in every oracle.
            st.kind = ScenarioStep::Kind::OpenLoop;
            st.target = svc();
            st.a = static_cast<std::uint32_t>(rng.uniformInt(1u << 30));
            st.b = static_cast<std::uint32_t>(rng.uniformInt(1u << 30));
        } else if (w < 85) {
            st.kind = ScenarioStep::Kind::Restart;
            st.a = static_cast<std::uint32_t>(rng.uniformInt(1u << 16));
        } else if (w < 89) {
            st.kind = ScenarioStep::Kind::SetConcurrency;
            st.target = svc();
            st.a = static_cast<std::uint32_t>(rng.uniformInt(1, 8));
        } else if (w < 93) {
            st.kind = ScenarioStep::Kind::SetQuota;
            st.target = static_cast<std::uint32_t>(rng.uniformInt(n_accounts));
            const std::uint32_t quotas[3] = {10, 120, 1000};
            st.a = quotas[rng.uniformInt(3)];
        } else if (w < 96) {
            st.kind = ScenarioStep::Kind::Redeploy;
            st.target = svc();
        } else {
            st.kind = ScenarioStep::Kind::SpendProbe;
        }
        out.push_back(st);
    }
}

/** Salt of the per-fork suffix stream (see generateSuffixSteps). */
constexpr std::uint64_t kSuffixForkSalt = 0x5F0BB000ULL;

} // namespace

std::uint64_t
timeTravelPrefixDigest(const Scenario &sc)
{
    Scenario prefix = sc;
    prefix.has_timetravel = false;
    prefix.tt_barrier = 0;
    prefix.tt_prefix_steps = 0;
    prefix.tt_prefix_digest = 0;
    if (prefix.steps.size() > sc.tt_prefix_steps)
        prefix.steps.resize(sc.tt_prefix_steps);
    const std::string text = prefix.serialize();
    return snap::fnv1a(reinterpret_cast<const std::uint8_t *>(text.data()),
                       text.size());
}

Scenario
composeTimeTravel(const Scenario &prefix, std::vector<ScenarioStep> suffix,
                  std::uint32_t barrier)
{
    Scenario sc = prefix;
    sc.has_timetravel = true;
    sc.tt_barrier = barrier;
    sc.tt_prefix_steps = static_cast<std::uint32_t>(prefix.steps.size());
    sc.steps.insert(sc.steps.end(), suffix.begin(), suffix.end());
    sc.tt_prefix_digest = timeTravelPrefixDigest(sc);
    return sc;
}

std::vector<ScenarioStep>
generateSuffixSteps(std::uint64_t base_seed, std::uint64_t index,
                    std::uint64_t fork, const Scenario &prefix,
                    std::uint32_t max_steps, const GeneratorOptions &opts)
{
    sim::Rng rng =
        sim::Rng(base_seed).fork(index).fork(kSuffixForkSalt + fork);
    std::vector<ScenarioStep> out;
    const auto n = static_cast<std::uint32_t>(
        rng.uniformInt(1, max_steps > 0 ? max_steps : 1));
    drawSteps(rng, static_cast<std::uint32_t>(prefix.accounts.size()),
              static_cast<std::uint32_t>(prefix.services.size()), n, opts,
              out);
    return out;
}

} // namespace eaao::testkit
