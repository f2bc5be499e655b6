/**
 * @file
 * Tournament tree over per-position load counters.
 *
 * The orchestrator's placement decisions repeatedly ask "which is the
 * first position within a prefix of this preference order whose load
 * is minimal (and whose host still has capacity)?". Re-scanning the
 * prefix per decision made placement O(prefix) with a map lookup per
 * candidate; this tree answers the same query in O(log n) for the
 * common case, with loads updated incrementally as instances come and
 * go.
 *
 * Each leaf holds the key `(load << 32) | position`; internal nodes
 * hold the minimum key of their subtree. Because the position is the
 * low part of the key, the tree's minimum is exactly the *first*
 * position carrying the minimal load — the same host the legacy
 * first-strict-improvement scan selects, which is what keeps indexed
 * placement byte-identical to the reference scan.
 */

#ifndef EAAO_SUPPORT_MIN_LOAD_TREE_HPP
#define EAAO_SUPPORT_MIN_LOAD_TREE_HPP

#include <algorithm>
#include <bit>
#include <cstdint>
#include <optional>
#include <vector>

namespace eaao::support {

/**
 * Min-tournament over (load, position) keys with prefix-restricted,
 * predicate-filtered argmin queries.
 */
class MinLoadTree
{
  public:
    /** Rebuild over @p loads (position i gets loads[i]); O(n). */
    void
    assign(const std::vector<std::uint32_t> &loads)
    {
        n_ = loads.size();
        leaves_ = n_ == 0 ? 0 : std::bit_ceil(n_);
        tree_.assign(2 * leaves_, kInf);
        for (std::size_t i = 0; i < n_; ++i)
            tree_[leaves_ + i] = key(loads[i], i);
        for (std::size_t node = leaves_; node-- > 1;)
            tree_[node] = std::min(tree_[2 * node], tree_[2 * node + 1]);
    }

    std::size_t size() const { return n_; }

    /**
     * First position carrying the minimal load — the root's key, O(1).
     * Precondition: size() > 0.
     */
    std::size_t
    argmin() const
    {
        return static_cast<std::size_t>(tree_[1] & 0xffffffffULL);
    }

    /**
     * Set position @p pos to @p load; O(log n), bottom-up. The climb
     * stops at the first ancestor whose minimum is unchanged, since
     * nothing above it can change either.
     */
    void
    update(std::size_t pos, std::uint32_t load)
    {
        std::size_t node = leaves_ + pos;
        tree_[node] = key(load, pos);
        for (node /= 2; node >= 1; node /= 2) {
            const std::uint64_t m =
                std::min(tree_[2 * node], tree_[2 * node + 1]);
            if (tree_[node] == m)
                break;
            tree_[node] = m;
        }
    }

    /**
     * First position in [0, prefix) with minimal load among positions
     * @p accept allows, or nullopt if none qualifies. The predicate is
     * evaluated lazily during the descent: when the true minimum
     * qualifies (the common case — hosts rarely run out of capacity)
     * only O(log n) nodes are visited.
     */
    template <typename Accept>
    std::optional<std::size_t>
    minInPrefix(std::size_t prefix, Accept &&accept) const
    {
        if (n_ == 0 || prefix == 0)
            return std::nullopt;
        if (prefix > n_)
            prefix = n_;
        std::uint64_t best = kInf;
        query(1, 0, leaves_, prefix, best, accept);
        if (best == kInf)
            return std::nullopt;
        return static_cast<std::size_t>(best & 0xffffffffULL);
    }

  private:
    static constexpr std::uint64_t kInf = ~0ULL;

    static std::uint64_t
    key(std::uint32_t load, std::size_t pos)
    {
        return (static_cast<std::uint64_t>(load) << 32) |
               static_cast<std::uint64_t>(pos);
    }

    /**
     * Left-first descent pruned by the best accepted key so far. A
     * subtree whose minimum cannot beat the current best — or that
     * lies wholly beyond the prefix — is never entered.
     */
    template <typename Accept>
    void
    query(std::size_t node, std::size_t l, std::size_t r,
          std::size_t prefix, std::uint64_t &best, Accept &accept) const
    {
        if (l >= prefix || tree_[node] >= best)
            return;
        if (r - l == 1) {
            if (accept(l))
                best = tree_[node];
            return;
        }
        const std::size_t mid = l + (r - l) / 2;
        query(2 * node, l, mid, prefix, best, accept);
        query(2 * node + 1, mid, r, prefix, best, accept);
    }

    std::size_t n_ = 0;
    std::size_t leaves_ = 0; //!< bit_ceil(n_): padding leaves hold kInf
    /** 1-based heap layout: node i has children 2i and 2i + 1, leaf
     *  p sits at leaves_ + p; tree_[0] is unused. */
    std::vector<std::uint64_t> tree_;
};

} // namespace eaao::support

#endif // EAAO_SUPPORT_MIN_LOAD_TREE_HPP
