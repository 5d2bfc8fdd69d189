#include "mem/cache.hh"

#include <bit>

#include "sim/log.hh"

namespace critmem
{

Cache::Stats::Stats(stats::Group &parent, const std::string &name)
    : group(name, &parent),
      hits(group, "hits", "accesses that hit"),
      misses(group, "misses", "accesses that missed"),
      evictions(group, "evictions", "lines displaced by fills"),
      writebacks(group, "writebacks", "dirty lines displaced"),
      invalidations(group, "invalidations",
                    "lines dropped by coherence/inclusion")
{
}

Cache::Cache(const CacheConfig &cfg, const std::string &name,
             stats::Group &parent)
    : cfg_(cfg), numSets_(cfg.sets()),
      blockShift_(static_cast<std::uint32_t>(
          std::bit_width(cfg.blockBytes) - 1)),
      tags_(static_cast<std::size_t>(numSets_) * cfg.ways, kInvalidTag),
      lastUse_(tags_.size(), 0),
      states_(tags_.size(), LineState::Invalid),
      prefetched_(tags_.size(), 0),
      stats_(parent, name)
{
    if (!std::has_single_bit(cfg.blockBytes))
        fatal("cache block size must be a power of two");
    if (numSets_ == 0 || !std::has_single_bit(numSets_))
        fatal("cache set count must be a nonzero power of two");
}

std::size_t
Cache::find(Addr addr) const
{
    const Addr tag = tagOf(addr);
    const std::size_t base = setBase(addr);
    const Addr *tags = &tags_[base];
    for (std::uint32_t w = 0; w < cfg_.ways; ++w) {
        if (tags[w] == tag)
            return base + w;
    }
    return kNoLine;
}

LineState
Cache::probe(Addr addr) const
{
    const std::size_t line = find(addr);
    return line != kNoLine ? states_[line] : LineState::Invalid;
}

bool
Cache::access(Addr addr)
{
    const std::size_t line = find(addr);
    if (line != kNoLine) {
        lastUse_[line] = ++useCounter_;
        ++stats_.hits;
        return true;
    }
    ++stats_.misses;
    return false;
}

void
Cache::setState(Addr addr, LineState state)
{
    const std::size_t line = find(addr);
    if (line == kNoLine)
        return;
    states_[line] = state;
    if (state == LineState::Invalid)
        tags_[line] = kInvalidTag;
}

bool
Cache::wasPrefetched(Addr addr) const
{
    const std::size_t line = find(addr);
    return line != kNoLine && prefetched_[line] != 0;
}

void
Cache::clearPrefetched(Addr addr)
{
    const std::size_t line = find(addr);
    if (line != kNoLine)
        prefetched_[line] = 0;
}

Cache::Victim
Cache::insert(Addr addr, LineState state, bool prefetched)
{
    Victim victim;
    std::size_t dest = find(addr);
    if (dest == kNoLine) {
        const std::size_t base = setBase(addr);
        dest = base;
        for (std::uint32_t w = 1; w < cfg_.ways; ++w) {
            if (states_[base + w] == LineState::Invalid) {
                dest = base + w;
                break;
            }
            if (states_[dest] != LineState::Invalid &&
                lastUse_[base + w] < lastUse_[dest]) {
                dest = base + w;
            }
        }
        if (states_[dest] != LineState::Invalid) {
            victim.valid = true;
            victim.addr = tags_[dest] << blockShift_;
            victim.dirty = states_[dest] == LineState::Modified;
            victim.prefetched = prefetched_[dest] != 0;
            ++stats_.evictions;
            if (victim.dirty)
                ++stats_.writebacks;
        }
    }
    tags_[dest] = state == LineState::Invalid ? kInvalidTag : tagOf(addr);
    states_[dest] = state;
    lastUse_[dest] = ++useCounter_;
    prefetched_[dest] = prefetched ? 1 : 0;
    return victim;
}

void
Cache::invalidate(Addr addr)
{
    const std::size_t line = find(addr);
    if (line != kNoLine) {
        states_[line] = LineState::Invalid;
        tags_[line] = kInvalidTag;
        ++stats_.invalidations;
    }
}

} // namespace critmem
