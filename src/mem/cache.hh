/**
 * @file
 * Generic set-associative, true-LRU cache array with per-line MESI
 * state. Private L1s use the full MESI vocabulary; the shared L2 uses
 * Exclusive/Modified as clean/dirty.
 */

#ifndef CRITMEM_MEM_CACHE_HH
#define CRITMEM_MEM_CACHE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "sim/config.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace critmem
{

/** Per-line coherence/dirtiness state. */
enum class LineState : std::uint8_t
{
    Invalid,
    Shared,
    Exclusive, ///< clean, sole copy
    Modified,  ///< dirty
};

/**
 * A set-associative cache array (tags + state only; no data), stored
 * structure-of-arrays so a set's tags are contiguous.
 */
class Cache
{
  public:
    /** Information about a line displaced by insert(). */
    struct Victim
    {
        bool valid = false;
        Addr addr = 0;
        bool dirty = false;
        bool prefetched = false;
    };

    Cache(const CacheConfig &cfg, const std::string &name,
          stats::Group &parent);

    /** @return the line's state without touching LRU. */
    LineState probe(Addr addr) const;

    /**
     * LRU-updating lookup.
     * @return true on hit (state != Invalid).
     */
    bool access(Addr addr);

    /** Change a resident line's state; no-op when absent. */
    void setState(Addr addr, LineState state);

    /** @return true when the line is resident and was prefetched in. */
    bool wasPrefetched(Addr addr) const;

    /** Clear a resident line's prefetched flag. */
    void clearPrefetched(Addr addr);

    /**
     * Insert a block, evicting the set's LRU line when needed.
     * @return the displaced victim, if any.
     */
    Victim insert(Addr addr, LineState state, bool prefetched = false);

    /** Drop a line (coherence invalidation / inclusion victim). */
    void invalidate(Addr addr);

    std::uint32_t blockBytes() const { return cfg_.blockBytes; }

    Addr
    blockAlign(Addr addr) const
    {
        return addr & ~static_cast<Addr>(cfg_.blockBytes - 1);
    }

    /** Cache statistics (hits/misses counted by access()). */
    struct Stats
    {
        Stats(stats::Group &parent, const std::string &name);

        stats::Group group;
        stats::Scalar hits;
        stats::Scalar misses;
        stats::Scalar evictions;
        stats::Scalar writebacks;
        stats::Scalar invalidations;
    };

    Stats &cacheStats() { return stats_; }

  private:
    /** Tag of an invalid way: no block address shifts to all-ones. */
    static constexpr Addr kInvalidTag = ~Addr{0};

    static constexpr std::size_t kNoLine = ~std::size_t{0};

    /**
     * Line index of @p addr's resident line, or kNoLine. Scans one
     * set's contiguous tags; an invalid way holds kInvalidTag, so the
     * scan never reads the state array.
     */
    std::size_t find(Addr addr) const;

    std::uint32_t
    setIndex(Addr addr) const
    {
        return static_cast<std::uint32_t>(addr >> blockShift_) &
            (numSets_ - 1);
    }

    std::size_t
    setBase(Addr addr) const
    {
        return static_cast<std::size_t>(setIndex(addr)) * cfg_.ways;
    }

    Addr tagOf(Addr addr) const { return addr >> blockShift_; }

    CacheConfig cfg_;
    std::uint32_t numSets_;
    std::uint32_t blockShift_;
    std::uint64_t useCounter_ = 0;
    // Structure of arrays, one element per line (set-major, ways
    // contiguous): 8 + 8 + 1 + 1 bytes per line.
    std::vector<Addr> tags_;
    std::vector<std::uint64_t> lastUse_;
    std::vector<LineState> states_;
    std::vector<std::uint8_t> prefetched_;
    Stats stats_;
};

} // namespace critmem

#endif // CRITMEM_MEM_CACHE_HH
