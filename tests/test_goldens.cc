/** @file Result goldens for the hot path's edge-case configurations:
 *  the stats tree of a full run must hash to digests recorded before
 *  the core and hierarchy data structures were last rebuilt
 *  (scripts/check_goldens.sh pins the CLI's paper workloads). */

#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>

#include "system/experiment.hh"
#include "system/system.hh"
#include "trace/workloads.hh"

using namespace critmem;

namespace
{

std::uint64_t
fnv1a(const std::string &bytes)
{
    std::uint64_t hash = 0xcbf29ce484222325ull;
    for (const char c : bytes) {
        hash ^= static_cast<std::uint8_t>(c);
        hash *= 0x100000001b3ull;
    }
    return hash;
}

/** Runs @p app through the standard methodology; digests the stats. */
std::uint64_t
statsDigest(const SystemConfig &cfg, const char *app)
{
    System sys(cfg, appParams(app));
    runSystem(sys, 6000, 3000);
    std::ostringstream os;
    sys.statsRoot().printJson(os);
    return fnv1a(os.str());
}

SystemConfig
critConfig()
{
    SystemConfig cfg = SystemConfig::parallelDefault();
    cfg.sched.algo = SchedAlgo::CasRasCrit;
    cfg.crit.predictor = CritPredictor::CbpMaxStall;
    return cfg;
}

} // namespace

// A ROB size that is not a power of two: slot indices wrap by
// compare-and-subtract, never by masking.
TEST(Goldens, RobEntries96)
{
    SystemConfig cfg = critConfig();
    cfg.core.robEntries = 96;
    EXPECT_EQ(statsDigest(cfg, "art"), 0x5b0b6c0624642523ull);
    EXPECT_EQ(statsDigest(cfg, "ep"), 0xbe8527c39cc67156ull);
}

// Zero-latency L1s: a hit scheduled after the hierarchy drained the
// current cycle fires first on the next tick.
TEST(Goldens, ZeroLatencyL1s)
{
    SystemConfig cfg = critConfig();
    cfg.dl1.latency = 0;
    cfg.il1.latency = 0;
    EXPECT_EQ(statsDigest(cfg, "art"), 0xfd063b1af45121d3ull);
    EXPECT_EQ(statsDigest(cfg, "ep"), 0xf25df6cb4a9444a6ull);
}

// Every cache level at latency 0: an L2 hit found while a cycle's
// events drain is delivered in that same drain.
TEST(Goldens, ZeroLatencyAllLevels)
{
    SystemConfig cfg = critConfig();
    cfg.dl1.latency = 0;
    cfg.il1.latency = 0;
    cfg.l2.latency = 0;
    EXPECT_EQ(statsDigest(cfg, "art"), 0x45bf02debac80180ull);
    EXPECT_EQ(statsDigest(cfg, "mg"), 0xe52c92df3a9b1a87ull);
}
