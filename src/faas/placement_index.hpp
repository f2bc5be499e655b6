/**
 * @file
 * Incremental placement index: a min-load view over one host order.
 *
 * Wraps a support::MinLoadTree over a host preference order so that a
 * placement can find the least-loaded host of a prefix without
 * re-scanning the prefix and re-querying the per-host load tables per
 * candidate. The orchestrator keeps one per account over its base
 * order, keyed by the account's load (cold placement, `pickBaseHost`),
 * and two per hot service over its helper order and its account's
 * base order, keyed by the service's load (`pickHelperHost`). Loads
 * are folded in incrementally on every instance create/terminate; a
 * view is rebuilt whenever the order it mirrors is reassigned (at most
 * once per launch — the same cadence at which the order was already
 * being rebuilt).
 *
 * Selection semantics are identical to the legacy scan: first position
 * in order carrying the minimal load, skipping hosts without capacity
 * (see min_load_tree.hpp for why the tree's argmin reproduces the
 * first-strict-improvement tie-break).
 */

#ifndef EAAO_FAAS_PLACEMENT_INDEX_HPP
#define EAAO_FAAS_PLACEMENT_INDEX_HPP

#include <cstdint>
#include <optional>
#include <vector>

#include "hw/host.hpp"
#include "support/min_load_tree.hpp"

namespace eaao::faas {

/** Min-load view over one host preference order. */
class PlacementMinIndex
{
  public:
    /**
     * Rebuild for a (possibly re-jittered) preference @p order.
     * @p load_of returns the current live-instance count the view is
     * keyed by on a host. @p fleet_size bounds host ids.
     */
    template <typename LoadOf>
    void
    rebuild(const std::vector<hw::HostId> &order, std::size_t fleet_size,
            LoadOf &&load_of)
    {
        if (pos_of_host_.size() != fleet_size)
            pos_of_host_.assign(fleet_size, -1);
        // Preference orders are permutations of a fixed membership (the
        // account's home shard), so overwriting the members' slots
        // leaves no stale positions behind.
        loads_.resize(order.size());
        for (std::size_t i = 0; i < order.size(); ++i) {
            pos_of_host_[order[i]] = static_cast<std::int32_t>(i);
            loads_[i] = load_of(order[i]);
        }
        tree_.assign(loads_);
    }

    /** Fold in @p host's new load (no-op for hosts off the order). */
    void
    noteLoad(hw::HostId host, std::uint32_t load)
    {
        if (host >= pos_of_host_.size())
            return;
        const std::int32_t pos = pos_of_host_[host];
        if (pos >= 0)
            tree_.update(static_cast<std::size_t>(pos), load);
    }

    /**
     * First host of order[0..prefix) with minimal load that @p accept
     * allows, or nullopt when every prefix host is rejected.
     */
    template <typename Accept>
    std::optional<hw::HostId>
    pickMin(const std::vector<hw::HostId> &order, std::size_t prefix,
            Accept &&accept) const
    {
        const auto pos = tree_.minInPrefix(
            prefix, [&](std::size_t p) { return accept(order[p]); });
        if (!pos)
            return std::nullopt;
        return order[*pos];
    }

  private:
    std::vector<std::int32_t> pos_of_host_;
    std::vector<std::uint32_t> loads_; //!< rebuild scratch
    support::MinLoadTree tree_;
};

} // namespace eaao::faas

#endif // EAAO_FAAS_PLACEMENT_INDEX_HPP
