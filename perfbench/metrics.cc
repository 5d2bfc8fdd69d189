/**
 * @file
 * Metrics derived from a measured stats tree, the output digest, and
 * failure accounting.
 */

#include <algorithm>
#include <stdexcept>

#include "perfbench.hh"

namespace perfbench
{

namespace
{

using critmem::stats::Group;

std::uint64_t
scalar(const Group &root, const std::string &path)
{
    const critmem::stats::Scalar *stat = root.findScalar(path);
    if (stat == nullptr)
        throw std::runtime_error("stats tree lacks scalar " + path);
    return stat->value();
}

/** Sum of @p stat over the groups prefix0, prefix1, ... that exist. */
std::uint64_t
sumOver(const Group &root, const std::string &prefix,
        const std::string &stat)
{
    std::uint64_t sum = 0;
    for (std::uint32_t i = 0;
         root.findScalar(prefix + std::to_string(i) + "." + stat) != nullptr;
         ++i)
        sum += scalar(root, prefix + std::to_string(i) + "." + stat);
    return sum;
}

double
ratio(double num, double den)
{
    return den == 0.0 ? 0.0 : num / den;
}

} // namespace

std::uint64_t
fnv1a(const std::string &bytes)
{
    std::uint64_t hash = 0xcbf29ce484222325ull;
    for (const char c : bytes) {
        hash ^= static_cast<unsigned char>(c);
        hash *= 0x100000001b3ull;
    }
    return hash;
}

std::vector<Metric>
modelMetrics(const Group &root)
{
    const auto core = [&](const std::string &stat) {
        return static_cast<double>(sumOver(root, "core", stat));
    };
    const auto dram = [&](const std::string &stat) {
        return static_cast<double>(sumOver(root, "dram.channel", stat));
    };
    const auto mem = [&](const std::string &stat) {
        return static_cast<double>(scalar(root, "hier." + stat));
    };

    // Channel-weighted means: each channel's Average/Histogram sums.
    double occSum = 0.0, occCount = 0.0, latSum = 0.0, latCount = 0.0;
    for (std::uint32_t c = 0;; ++c) {
        const std::string ch = "dram.channel" + std::to_string(c) + ".";
        const critmem::stats::Average *occ =
            root.findAverage(ch + "readQueueOcc");
        const critmem::stats::Histogram *lat =
            root.findHistogram(ch + "readLatency");
        if (occ == nullptr || lat == nullptr)
            break;
        occSum += occ->sum();
        occCount += static_cast<double>(occ->count());
        latSum += lat->mean() * static_cast<double>(lat->count());
        latCount += static_cast<double>(lat->count());
    }
    const critmem::stats::Average *crit =
        root.findAverage("hier.mem.l2MissLatCrit");
    const critmem::stats::Average *noncrit =
        root.findAverage("hier.mem.l2MissLatNonCrit");
    if (crit == nullptr || noncrit == nullptr || occCount == 0.0)
        throw std::runtime_error("stats tree lacks latency averages");

    const double reads = dram("reads");
    const double writes = dram("writes");
    const double rejects = mem("mem.dramRejects");
    const double rowHits = dram("rowHits");
    return {
        {"cpu.committed_ops", core("committedOps"), "uop"},
        {"cpu.rob_head_blocked_share",
         ratio(core("robHeadBlockedCycles"), core("cycles")), "share"},
        {"cpu.lq_full_cycles", core("lqFullCycles"), "cycles"},
        {"cpu.load_retries", core("loadRetries"), "count"},
        {"crit.crit_loads_issued", core("critLoadsIssued"), "count"},
        {"mem.l2_misses", mem("l2.misses"), "count"},
        {"mem.l2_writebacks", mem("l2.writebacks"), "count"},
        {"mem.l2_miss_lat_crit", crit->mean(), "cycles"},
        {"mem.l2_miss_lat_noncrit", noncrit->mean(), "cycles"},
        {"mem.dram_rejects", rejects, "count"},
        // Issued reads and writes stand in for accepted enqueues.
        {"mem.dram_accept_ratio",
         ratio(reads + writes, reads + writes + rejects), "ratio"},
        {"mem.l1_mshr_full", mem("mem.l1MshrFull"), "count"},
        {"mem.l2_mshr_full", mem("mem.l2MshrFull"), "count"},
        {"dram.reads", reads, "count"},
        {"dram.writes", writes, "count"},
        {"dram.commands",
         dram("activates") + reads + writes + dram("precharges") +
             dram("refreshes"),
         "count"},
        {"dram.row_hit_ratio", ratio(rowHits, rowHits + dram("rowMisses")),
         "ratio"},
        // readQueueOcc samples once per channel per DRAM cycle.
        {"dram.read_queue_occ", ratio(occSum, occCount), "entries"},
        {"dram.idle_no_candidate", dram("idleNoCandidate"), "dram_cycles"},
        {"dram.data_bus_busy_share",
         ratio(dram("busyDataCycles"), occCount), "share"},
        {"dram.read_latency_mean", ratio(latSum, latCount), "dram_cycles"},
    };
}

Accounting
account(const std::vector<JobResult> &jobs)
{
    Accounting acc;
    acc.attempted = jobs.size();
    // Per seed and digest: how many jobs produced it, and the first.
    struct Tally
    {
        std::size_t count = 0;
        std::size_t first = 0;
    };
    std::map<std::uint64_t, std::map<std::uint64_t, Tally>> tallies;
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        const JobResult &job = jobs[i];
        if (!job.error.empty())
            continue;
        Tally &t = tallies[job.seed][job.digest];
        if (t.count++ == 0)
            t.first = i;
    }
    for (const auto &[seed, byDigest] : tallies) {
        const Tally *best = nullptr;
        for (const auto &[digest, t] : byDigest) {
            if (best == nullptr || t.count > best->count ||
                (t.count == best->count && t.first < best->first))
                best = &t;
        }
        acc.reference[seed] = best->first;
    }
    std::string digests;
    for (const auto &[seed, index] : acc.reference)
        digests += std::to_string(seed) + ':' +
            std::to_string(jobs[index].digest) + ';';
    acc.digest = fnv1a(digests);

    for (std::size_t i = 0; i < jobs.size(); ++i) {
        const JobResult &job = jobs[i];
        std::string reason = job.error;
        const auto ref = acc.reference.find(job.seed);
        if (reason.empty() && jobs[ref->second].digest != job.digest)
            reason = "stats digest differs from the seed's other jobs'";
        if (reason.empty())
            continue;
        ++acc.failed;
        acc.reasons.push_back("job " + std::to_string(i) + " (seed " +
                              std::to_string(job.seed) +
                              (job.traced ? ", traced): " : "): ") + reason);
    }
    return acc;
}

double
median(std::vector<double> values)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const std::size_t mid = values.size() / 2;
    return values.size() % 2 != 0 ? values[mid]
                                  : (values[mid - 1] + values[mid]) / 2.0;
}

} // namespace perfbench
