/**
 * @file
 * Host-speed probe. On a shared host, co-tenants switch a core
 * between contention states that last tens of seconds; on a 4-vCPU
 * Xeon VM (2 MiB L2 per core) the simulator ran about 40% slower in
 * the slow state, enough to flip a whole 20-s run. A fixed pointer
 * chase through an L2-resident ring slows down with it, so every job is
 * bracketed by two probes and its host times are scaled by how fast
 * the probe ran (hostScale).
 */

#include <algorithm>
#include <chrono>
#include <stdexcept>

#include "perfbench.hh"

namespace perfbench
{

namespace
{

/** Entries of the chased ring: 128 KiB, past L1 and inside L2. */
constexpr std::uint32_t kEntries = 32 << 10;
/** Timed steps of the chase per probe. */
constexpr std::uint32_t kSteps = 400'000;

/**
 * A single-cycle random permutation of @p entries indices (Sattolo's
 * algorithm with a fixed LCG), so a chase visits every entry.
 */
std::vector<std::uint32_t>
ring(std::uint32_t entries)
{
    std::vector<std::uint32_t> next(entries);
    for (std::uint32_t i = 0; i < entries; ++i)
        next[i] = i;
    std::uint64_t state = 1;
    for (std::uint32_t i = entries - 1; i > 0; --i) {
        state = state * 6364136223846793005ull + 1442695040888963407ull;
        std::swap(next[i], next[(state >> 33) % i]);
    }
    return next;
}

} // namespace

double
probeSeconds()
{
    static const std::vector<std::uint32_t> next = ring(kEntries);
    // One untimed lap brings the ring back into L2 after a job evicted
    // it, so the timed laps see L2 contention and not L3 latency.
    std::uint32_t at = 0;
    for (std::uint32_t n = 0; n < kEntries; ++n)
        at = next[at];
    const auto start = std::chrono::steady_clock::now();
    for (std::uint32_t n = 0; n < kSteps; ++n)
        at = next[at];
    const double seconds = std::chrono::duration<double>(
                               std::chrono::steady_clock::now() - start)
                               .count();
    // Keeps the chase observable so it is not elided.
    if (at == kEntries)
        throw std::logic_error("unreachable");
    return seconds;
}

double
hostScale(double probeBefore, double probeAfter)
{
    return kProbeReferenceSeconds / std::min(probeBefore, probeAfter);
}

} // namespace perfbench
