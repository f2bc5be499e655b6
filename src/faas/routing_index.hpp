/**
 * @file
 * Incremental request-routing index.
 *
 * `routeRequest` used to scan a service's whole active list per
 * request to find the least-loaded instance with spare concurrency —
 * O(active instances) per request, the dominant cost of request-heavy
 * campaigns. This index keeps each service's active instances in flat
 * arrays in activation order (seq, id, in_flight) under a
 * support::MinLoadTree keyed `(in_flight << 32 | position)`, so the
 * least-loaded instance is the tree's root and a load change is one
 * binary search on seq plus one O(log n) leaf update — no node
 * allocation per request.
 *
 * Determinism: the legacy scan picks the *first* instance in
 * active-list order among those with the minimal `in_flight`. An
 * instance's position in the active list is fixed at activation
 * (entries are only appended and erased, never reordered), so a
 * monotonically increasing activation sequence number reproduces the
 * list order exactly. Positions follow seq order: removal only marks a
 * position dead (its load reads as kDead, above every real load), and
 * dead positions are compacted order-preserving once they make up half
 * of a full array. The tree's minimum is therefore the same instance
 * the scan finds, byte for byte.
 */

#ifndef EAAO_FAAS_ROUTING_INDEX_HPP
#define EAAO_FAAS_ROUTING_INDEX_HPP

#include <algorithm>
#include <cstdint>
#include <limits>
#include <tuple>
#include <vector>

#include "faas/types.hpp"
#include "support/logging.hpp"
#include "support/min_load_tree.hpp"

namespace eaao::faas {

/** Per-service flat arrays for O(1) least-loaded routing. */
class RoutingIndex
{
  public:
    /** Register a newly activated instance; returns its sequence key. */
    std::uint64_t
    add(ServiceId service, InstanceId id, std::uint32_t in_flight)
    {
        const std::uint64_t seq = next_seq_++;
        Routes &r = routesOf(service);
        if (r.seq.size() == r.load.size())
            makeRoom(r);
        const std::size_t pos = r.seq.size();
        r.seq.push_back(seq);
        r.id.push_back(id);
        r.load[pos] = in_flight;
        r.tree.update(pos, in_flight);
        return seq;
    }

    /** Record an instance's new in_flight count. */
    void
    reindex(ServiceId service, std::uint64_t seq, std::uint32_t in_flight)
    {
        Routes &r = routes_[service];
        const std::size_t pos = position(r, seq);
        r.load[pos] = in_flight;
        r.tree.update(pos, in_flight);
    }

    /** Drop a deactivating instance. */
    void
    remove(ServiceId service, std::uint64_t seq)
    {
        Routes &r = routes_[service];
        const std::size_t pos = position(r, seq);
        r.load[pos] = kDead;
        r.tree.update(pos, kDead);
        ++r.dead;
    }

    /**
     * Least-loaded active instance of @p service with spare
     * concurrency under @p max_concurrency, or kNoInstance.
     */
    InstanceId
    leastLoaded(ServiceId service, std::uint32_t max_concurrency) const
    {
        if (service >= routes_.size() || routes_[service].seq.empty())
            return kNoInstance;
        const Routes &r = routes_[service];
        const std::size_t pos = r.tree.argmin();
        return r.load[pos] < max_concurrency ? r.id[pos] : kNoInstance;
    }

    /** Next activation sequence key (checkpoint capture). */
    std::uint64_t nextSeq() const { return next_seq_; }

    /** Dead-position compactions so far (tests). */
    std::uint64_t compactions() const { return compactions_; }

    /**
     * Reset to empty with @p next_seq as the next activation key;
     * entries are re-inserted from restored instance records via
     * insertRestored(), then finishRestore() (checkpoint restore).
     */
    void
    resetForRestore(std::uint64_t next_seq)
    {
        routes_.clear();
        next_seq_ = next_seq;
    }

    /** Re-insert an entry with its original sequence key, any order. */
    void
    insertRestored(ServiceId service, InstanceId id, std::uint32_t in_flight,
                   std::uint64_t seq)
    {
        Routes &r = routesOf(service);
        r.seq.push_back(seq);
        r.id.push_back(id);
        r.load.push_back(in_flight);
    }

    /**
     * Put every service's restored entries in seq order and build its
     * tree. Instances arrive in id order, and a low id re-activated
     * after a higher one holds the later seq, so this sort is what
     * makes positions follow activation order again.
     */
    void
    finishRestore()
    {
        std::vector<std::tuple<std::uint64_t, InstanceId, std::uint32_t>> tmp;
        for (Routes &r : routes_) {
            tmp.clear();
            for (std::size_t i = 0; i < r.seq.size(); ++i)
                tmp.emplace_back(r.seq[i], r.id[i], r.load[i]);
            std::sort(tmp.begin(), tmp.end());
            for (std::size_t i = 0; i < tmp.size(); ++i)
                std::tie(r.seq[i], r.id[i], r.load[i]) = tmp[i];
            r.tree.assign(r.load);
        }
    }

  private:
    /** Load of a removed position: above every real in_flight. */
    static constexpr std::uint32_t kDead =
        std::numeric_limits<std::uint32_t>::max();

    /**
     * One service's instances in activation order. seq and id hold the
     * used positions; load (and the tree over it) spans the whole
     * capacity, padded with kDead.
     */
    struct Routes
    {
        std::vector<std::uint64_t> seq;
        std::vector<InstanceId> id;
        std::vector<std::uint32_t> load;
        support::MinLoadTree tree;
        std::size_t dead = 0; //!< used positions marked kDead
    };

    Routes &
    routesOf(ServiceId service)
    {
        if (service >= routes_.size())
            routes_.resize(service + 1);
        return routes_[service];
    }

    static std::size_t
    position(const Routes &r, std::uint64_t seq)
    {
        const auto it = std::lower_bound(r.seq.begin(), r.seq.end(), seq);
        EAAO_ASSERT(it != r.seq.end() && *it == seq,
                    "routing index has no entry with seq ", seq);
        return static_cast<std::size_t>(it - r.seq.begin());
    }

    /**
     * Free a position in a full array: compact dead positions out
     * (order-preserving) when they are at least half of it, otherwise
     * double the capacity; then rebuild the tree.
     */
    void
    makeRoom(Routes &r)
    {
        const std::size_t used = r.seq.size();
        if (used > 0 && 2 * r.dead >= used) {
            std::size_t w = 0;
            for (std::size_t i = 0; i < used; ++i) {
                if (r.load[i] == kDead)
                    continue;
                r.seq[w] = r.seq[i];
                r.id[w] = r.id[i];
                r.load[w] = r.load[i];
                ++w;
            }
            r.seq.resize(w);
            r.id.resize(w);
            std::fill(r.load.begin() + static_cast<std::ptrdiff_t>(w),
                      r.load.end(), kDead);
            r.dead = 0;
            ++compactions_;
        } else {
            r.load.resize(std::max<std::size_t>(8, 2 * used), kDead);
        }
        r.tree.assign(r.load);
    }

    std::uint64_t next_seq_ = 1;
    std::uint64_t compactions_ = 0;
    std::vector<Routes> routes_; //!< by ServiceId
};

} // namespace eaao::faas

#endif // EAAO_FAAS_ROUTING_INDEX_HPP
