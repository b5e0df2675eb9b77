/**
 * @file
 * Winner (tournament) tree: the engine's argmin structure for both its
 * ready queue and its remote-op commit queue.
 *
 * The tree has one leaf per core id. A leaf holds that core's packed
 * key — (time << idShift) | id, so one integer compare is the
 * (time, id) order with ties to the lower id — or kAbsent when the core
 * is not queued. Every internal node holds the smaller of its two
 * children, so the root is the global minimum. Because a core's leaf
 * position is its id, no positional index is needed: insert, erase and
 * key change are all one set(), which rewrites the leaf and replays the
 * log2(P) matches above it with conditional selects (no data-dependent
 * branches), and the minimum excluding one core is the least sibling
 * along that core's leaf-to-root path.
 */

#ifndef SPMRT_SIM_WINNER_TREE_HPP
#define SPMRT_SIM_WINNER_TREE_HPP

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/bits.hpp"

namespace spmrt {

/**
 * Min-winner tree over a fixed number of leaves keyed by uint64_t.
 */
class WinnerTree
{
  public:
    using Key = uint64_t;

    /** Leaf value of a core that is not queued. Callers keep every real
     *  key below it, so an absent leaf never wins a match. */
    static constexpr Key kAbsent = ~Key(0);

    /** Resize to @p leaves leaves, all absent. */
    void
    reset(uint32_t leaves)
    {
        width_ = leaves <= 1 ? 1 : uint32_t(1) << ceilLog2(leaves);
        // nodes_[1] is the root; leaves occupy [width_, 2 * width_).
        nodes_.assign(2 * static_cast<size_t>(width_), kAbsent);
    }

    /** Mark every leaf absent. */
    void clear() { std::fill(nodes_.begin(), nodes_.end(), kAbsent); }

    /** Smallest key in the tree; kAbsent when no leaf is present. */
    Key min() const { return nodes_[1]; }

    /** True when no leaf is present. */
    bool empty() const { return nodes_[1] == kAbsent; }

    /** Key held by leaf @p i (kAbsent when not present). */
    Key leaf(uint32_t i) const { return nodes_[width_ + i]; }

    /** Store @p key at leaf @p i (kAbsent erases) and replay its path. */
    void
    set(uint32_t i, Key key)
    {
        uint32_t pos = width_ + i;
        nodes_[pos] = key;
        while (pos > 1) {
            const Key sibling = nodes_[pos ^ 1];
            key = sibling < key ? sibling : key;
            pos >>= 1;
            nodes_[pos] = key;
        }
    }

    /** Erase leaf @p i. */
    void erase(uint32_t i) { set(i, kAbsent); }

    /** Smallest key over every leaf except @p i; kAbsent when none. */
    Key
    minExcluding(uint32_t i) const
    {
        Key best = kAbsent;
        for (uint32_t pos = width_ + i; pos > 1; pos >>= 1) {
            const Key sibling = nodes_[pos ^ 1];
            best = sibling < best ? sibling : best;
        }
        return best;
    }

  private:
    uint32_t width_ = 1; ///< leaf count rounded up to a power of two
    std::vector<Key> nodes_ = std::vector<Key>(2, kAbsent);
};

} // namespace spmrt

#endif // SPMRT_SIM_WINNER_TREE_HPP
