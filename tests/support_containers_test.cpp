/**
 * @file
 * Property tests for the support containers backing the orchestrator's
 * hot paths: SmallFlatMap against std::map, and MinLoadTree against a
 * brute-force prefix scan, under long random operation sequences; plus
 * the ChunkedTable that holds the instance records.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <optional>
#include <vector>

#include "sim/rng.hpp"
#include "support/chunked_table.hpp"
#include "support/flat_map.hpp"
#include "support/min_load_tree.hpp"

namespace eaao::support {
namespace {

TEST(SmallFlatMapProperty, MatchesStdMapOverRandomOps)
{
    sim::Rng rng(2024);
    SmallFlatMap<std::uint32_t, std::uint64_t> flat;
    std::map<std::uint32_t, std::uint64_t> model;

    // A small key universe forces plenty of hits, overwrites and
    // erase-then-reinsert slot churn.
    constexpr std::uint32_t kKeys = 64;
    for (int op = 0; op < 10'000; ++op) {
        const auto key = static_cast<std::uint32_t>(rng.uniformInt(kKeys));
        switch (rng.uniformInt(4)) {
        case 0: { // default-insert / overwrite via operator[]
            const std::uint64_t value = rng();
            flat[key] = value;
            model[key] = value;
            break;
        }
        case 1: { // read-modify-write via operator[]
            flat[key] += 1;
            model[key] += 1;
            break;
        }
        case 2: { // find
            const auto fit = flat.find(key);
            const auto mit = model.find(key);
            ASSERT_EQ(fit == flat.end(), mit == model.end())
                << "op " << op << " key " << key;
            if (mit != model.end()) {
                ASSERT_EQ(fit->second, mit->second);
            }
            break;
        }
        default: { // erase
            ASSERT_EQ(flat.erase(key), model.erase(key) == 1)
                << "op " << op << " key " << key;
            break;
        }
        }
        ASSERT_EQ(flat.size(), model.size());
    }

    // Final sweep: identical contents in identical (sorted) order.
    auto mit = model.begin();
    for (const auto &[key, value] : flat) {
        ASSERT_NE(mit, model.end());
        EXPECT_EQ(key, mit->first);
        EXPECT_EQ(value, mit->second);
        ++mit;
    }
    EXPECT_EQ(mit, model.end());
}

TEST(SmallFlatMapProperty, IterationStaysSorted)
{
    sim::Rng rng(7);
    SmallFlatMap<std::uint64_t, int> flat;
    for (int i = 0; i < 500; ++i)
        flat[rng()] = i;
    std::uint64_t prev = 0;
    bool first = true;
    for (const auto &[key, value] : flat) {
        (void)value;
        if (!first) {
            EXPECT_LT(prev, key);
        }
        prev = key;
        first = false;
    }
}

/** Brute-force reference for MinLoadTree::minInPrefix. */
template <typename Accept>
std::optional<std::size_t>
referenceMinInPrefix(const std::vector<std::uint32_t> &loads,
                     std::size_t prefix, Accept &&accept)
{
    prefix = std::min(prefix, loads.size());
    std::optional<std::size_t> best;
    for (std::size_t i = 0; i < prefix; ++i) {
        if (!accept(i))
            continue;
        if (!best || loads[i] < loads[*best])
            best = i; // first position with strictly minimal load wins
    }
    return best;
}

TEST(MinLoadTreeProperty, MatchesBruteForceOverRandomOps)
{
    sim::Rng rng(5150);
    constexpr std::size_t kPositions = 97; // non-power-of-two on purpose
    std::vector<std::uint32_t> loads(kPositions);
    for (std::uint32_t &l : loads)
        l = static_cast<std::uint32_t>(rng.uniformInt(12));

    MinLoadTree tree;
    tree.assign(loads);
    ASSERT_EQ(tree.size(), kPositions);

    // Capacity predicate of the placement path: some positions are
    // "full" and must be skipped even when they carry the minimum.
    std::vector<bool> full(kPositions, false);

    for (int op = 0; op < 10'000; ++op) {
        switch (rng.uniformInt(3)) {
        case 0: { // load update
            const auto pos =
                static_cast<std::size_t>(rng.uniformInt(kPositions));
            const auto load =
                static_cast<std::uint32_t>(rng.uniformInt(12));
            loads[pos] = load;
            tree.update(pos, load);
            break;
        }
        case 1: { // flip a position's capacity
            const auto pos =
                static_cast<std::size_t>(rng.uniformInt(kPositions));
            full[pos] = !full[pos];
            break;
        }
        default: { // query a random prefix (incl. 0 and > size)
            const auto prefix =
                static_cast<std::size_t>(rng.uniformInt(kPositions + 10));
            const auto accept = [&](std::size_t i) { return !full[i]; };
            ASSERT_EQ(tree.minInPrefix(prefix, accept),
                      referenceMinInPrefix(loads, prefix, accept))
                << "op " << op << " prefix " << prefix;
            break;
        }
        }
    }
}

TEST(MinLoadTreeProperty, BottomUpUpdateKeepsFirstMinAcrossSizes)
{
    // The iterative update stops climbing at the first unchanged
    // ancestor; after any update sequence, argmin() and every prefix
    // query must still name the first position of minimal load. Sizes
    // straddle powers of two so padding leaves sit in every shape.
    sim::Rng rng(0xb0770);
    for (const std::size_t n : {1u, 2u, 3u, 5u, 7u, 31u, 33u, 100u, 257u}) {
        SCOPED_TRACE(testing::Message() << "size " << n);
        std::vector<std::uint32_t> loads(n);
        for (std::uint32_t &l : loads)
            l = static_cast<std::uint32_t>(rng.uniformInt(6));
        MinLoadTree tree;
        tree.assign(loads);
        const auto any = [](std::size_t) { return true; };
        for (int op = 0; op < 3'000; ++op) {
            const auto pos = static_cast<std::size_t>(rng.uniformInt(n));
            // Small loads force ties; the occasional 0xffffffff is the
            // routing index's dead-slot key.
            const auto load =
                rng.uniformInt(50) == 0
                    ? 0xffffffffu
                    : static_cast<std::uint32_t>(rng.uniformInt(6));
            loads[pos] = load;
            tree.update(pos, load);
            const auto want = referenceMinInPrefix(loads, n, any);
            ASSERT_EQ(std::optional<std::size_t>{tree.argmin()}, want)
                << "op " << op;
            const auto prefix =
                static_cast<std::size_t>(rng.uniformInt(n + 2));
            ASSERT_EQ(tree.minInPrefix(prefix, any),
                      referenceMinInPrefix(loads, prefix, any))
                << "op " << op << " prefix " << prefix;
        }
    }
}

TEST(MinLoadTreeProperty, EmptyAndDegenerateCases)
{
    MinLoadTree tree;
    const auto any = [](std::size_t) { return true; };
    EXPECT_EQ(tree.minInPrefix(5, any), std::nullopt);

    tree.assign({3});
    EXPECT_EQ(tree.minInPrefix(0, any), std::nullopt);
    EXPECT_EQ(tree.minInPrefix(1, any), std::optional<std::size_t>{0});
    EXPECT_EQ(tree.minInPrefix(99, any), std::optional<std::size_t>{0});
    const auto none = [](std::size_t) { return false; };
    EXPECT_EQ(tree.minInPrefix(1, none), std::nullopt);

    // Ties break toward the first position, matching the legacy scan.
    tree.assign({5, 5, 5});
    EXPECT_EQ(tree.minInPrefix(3, any), std::optional<std::size_t>{0});
    const auto skip0 = [](std::size_t i) { return i != 0; };
    EXPECT_EQ(tree.minInPrefix(3, skip0), std::optional<std::size_t>{1});
}

// ------------------------------------------------------------ ChunkedTable

/** A record of a few words, so several chunks fill quickly. */
struct Rec
{
    std::uint64_t id = 0;
    std::uint64_t payload[7] = {};
};

TEST(ChunkedTable, PushAcrossChunkBoundaryKeepsIndexing)
{
    using Table = ChunkedTable<Rec>;
    static_assert(Table::kPerChunk * sizeof(Rec) <= Table::kChunkBytes);
    Table t;
    EXPECT_EQ(t.size(), 0u);
    const std::size_t n = 2 * Table::kPerChunk + 3;
    for (std::size_t i = 0; i < n; ++i) {
        Rec r;
        r.id = i;
        r.payload[6] = i * 3;
        EXPECT_EQ(t.push_back(r).id, i);
        ASSERT_EQ(t.size(), i + 1);
    }
    for (const std::size_t i :
         {std::size_t{0}, Table::kPerChunk - 1, Table::kPerChunk,
          Table::kPerChunk + 1, 2 * Table::kPerChunk, n - 1}) {
        EXPECT_EQ(t[i].id, i);
        EXPECT_EQ(t[i].payload[6], i * 3);
    }
    t[Table::kPerChunk].payload[0] = 42;
    const Table &ct = t;
    EXPECT_EQ(ct[Table::kPerChunk].payload[0], 42u);
}

TEST(ChunkedTable, ReferencesSurviveLaterPushes)
{
    ChunkedTable<Rec> t;
    Rec first;
    first.id = 7;
    const Rec &kept = t.push_back(first);
    const Rec *addr = &t[0];
    for (std::uint64_t i = 0; i < 10'000; ++i) {
        Rec r;
        r.id = 100 + i;
        t.push_back(r);
    }
    EXPECT_EQ(&t[0], addr);
    EXPECT_EQ(kept.id, 7u);
    EXPECT_EQ(t.size(), 10'001u);
    EXPECT_EQ(t[10'000].id, 100u + 9'999u);
}

TEST(ChunkedTable, IteratesInIndexOrder)
{
    ChunkedTable<Rec> t;
    const std::size_t n = 3 * ChunkedTable<Rec>::kPerChunk + 11;
    for (std::size_t i = 0; i < n; ++i) {
        Rec r;
        r.id = i;
        t.push_back(r);
    }
    std::size_t expect = 0;
    for (const Rec &r : t)
        EXPECT_EQ(r.id, expect++);
    EXPECT_EQ(expect, n);
    for (Rec &r : t)
        r.payload[1] = r.id + 1;
    const ChunkedTable<Rec> &ct = t;
    expect = 0;
    for (auto it = ct.begin(); it != ct.end(); ++it, ++expect)
        EXPECT_EQ(it->payload[1], expect + 1);
    EXPECT_EQ(expect, n);

    ChunkedTable<Rec> empty;
    EXPECT_TRUE(empty.begin() == empty.end());
}

} // namespace
} // namespace eaao::support
