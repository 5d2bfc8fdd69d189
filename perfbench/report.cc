/**
 * @file
 * A run's reported metrics, derived from its jobs. Host times are
 * scaled by each job's hostScale, then taken as medians per seed and
 * over the seed set; simulated metrics come from each seed's
 * reference job.
 */

#include <functional>
#include <stdexcept>

#include "perfbench.hh"

namespace perfbench
{

namespace
{

/**
 * Median over the seed set of each seed's median @p fn over its
 * completed jobs of the given kind.
 */
double
overSeeds(const std::vector<JobResult> &jobs, bool traced,
          const std::function<double(const JobResult &)> &fn)
{
    std::map<std::uint64_t, std::vector<double>> bySeed;
    for (const JobResult &job : jobs) {
        if (job.error.empty() && job.traced == traced)
            bySeed[job.seed].push_back(fn(job));
    }
    std::vector<double> values;
    for (const auto &[seed, perJob] : bySeed)
        values.push_back(median(perJob));
    return median(values);
}

/** @p seconds of @p job's host time at the reference host speed. */
double
scaled(const JobResult &job, double seconds)
{
    return seconds * job.hostScale;
}

std::vector<const JobResult *>
referenceJobs(const std::vector<JobResult> &jobs, const Accounting &acc)
{
    std::vector<const JobResult *> refs;
    for (const auto &[seed, index] : acc.reference)
        refs.push_back(&jobs[index]);
    if (refs.empty())
        throw std::runtime_error("no job completed");
    return refs;
}

} // namespace

double
findMetric(const std::vector<Metric> &metrics, const std::string &name)
{
    for (const Metric &m : metrics) {
        if (m.name == name)
            return m.value;
    }
    throw std::out_of_range("no metric " + name);
}

std::vector<Metric>
endToEndMetrics(const std::vector<JobResult> &jobs, const Accounting &acc,
                double peakRssMb)
{
    // Aggregate IPC of the seed set: all measured ops over all cycles.
    double ops = 0.0, cycles = 0.0;
    for (const JobResult *job : referenceJobs(jobs, acc)) {
        ops += static_cast<double>(job->measuredOps);
        cycles += static_cast<double>(job->measuredCycles);
    }
    // A typical job's simulated work over a typical job's host seconds
    // in run(): two medians, as a median of per-seed rates tracks the
    // seeds' mix more than the host's speed.
    const double runSeconds = overSeeds(jobs, false, [](const JobResult &j) {
        return scaled(j, j.phase.warmup + j.phase.measured);
    });
    const auto perRunSecond = [&](const std::function<double(
                                      const JobResult &)> &amount) {
        return overSeeds(jobs, false, amount) / runSeconds;
    };
    return {
        {"wall_s", overSeeds(jobs, false, [](const JobResult &j) {
             return scaled(j, j.phase.total());
         }), "s"},
        {"setup_s", overSeeds(jobs, false, [](const JobResult &j) {
             return scaled(j, j.phase.construct + j.phase.prewarm);
         }), "s"},
        {"sim_instr_per_s", perRunSecond([](const JobResult &j) {
             return static_cast<double>(j.warmupOps + j.measuredOps);
         }), "uop/s"},
        {"sim_cycles_per_s", perRunSecond([](const JobResult &j) {
             return static_cast<double>(j.warmupCycles + j.measuredCycles);
         }), "cycle/s"},
        {"peak_rss_mb", peakRssMb, "MB"},
        {"sim_ipc", ops / cycles, "uop/cycle"},
    };
}

std::vector<Metric>
perLayerMetrics(const std::vector<JobResult> &jobs, const Accounting &acc,
                const std::map<std::uint64_t, double> &traceNsPerOp,
                std::uint32_t numCores)
{
    // Layer figures are time-weighted: sums over every traced job, so
    // a seed that runs ten times longer weighs ten times as much in
    // where the host time went.
    LayerTimes sum;
    double tracedNs = 0.0;
    // Per seed, the measured windows of its untraced and traced jobs.
    std::map<std::uint64_t, std::vector<double>> plainS, tracedS;
    for (const JobResult &job : jobs) {
        if (!job.error.empty())
            continue;
        const double measured = scaled(job, job.phase.measured);
        (job.traced ? tracedS : plainS)[job.seed].push_back(measured);
        if (!job.traced)
            continue;
        const LayerTimes &t = job.layers;
        const auto ns = [&](std::int64_t raw) {
            return static_cast<std::int64_t>(
                static_cast<double>(raw) * job.hostScale);
        };
        sum.cpuNs += ns(t.cpuNs);
        sum.memNs += ns(t.memNs);
        sum.dramNs += ns(t.dramNs);
        sum.coreTicks += t.coreTicks;
        sum.memTicks += t.memTicks;
        sum.dramTicks += t.dramTicks;
        sum.tickedCycles += t.tickedCycles;
        sum.simCycles += t.simCycles;
        tracedNs += measured * 1e9;
    }
    // The overhead compares, over the seeds that have both, each seed's
    // median traced and median untraced measured window.
    double pairedTracedS = 0.0, pairedPlainS = 0.0;
    for (const auto &[seed, traced] : tracedS) {
        const auto plain = plainS.find(seed);
        if (plain == plainS.end())
            continue;
        pairedTracedS += median(traced);
        pairedPlainS += median(plain->second);
    }
    const auto share = [&](std::int64_t ns) {
        return tracedNs == 0.0 ? 0.0 : static_cast<double>(ns) / tracedNs;
    };
    const auto perTick = [](std::int64_t ns, std::uint64_t ticks) {
        return ticks == 0
            ? 0.0
            : static_cast<double>(ns) / static_cast<double>(ticks);
    };
    double genNs = 0.0;
    for (const auto &[seed, ns] : traceNsPerOp)
        genNs += ns / static_cast<double>(traceNsPerOp.size());
    // Phase times decompose wall_s, so they are medians like it.
    const auto phase = [&](double PhaseTimes::*field) {
        return overSeeds(jobs, false, [field](const JobResult &j) {
            return scaled(j, j.phase.*field);
        });
    };
    const double sim = static_cast<double>(sum.simCycles);

    std::vector<Metric> metrics{
        {"cpu.host_share", share(sum.cpuNs), "share"},
        {"mem.host_share", share(sum.memNs), "share"},
        {"dram.host_share", share(sum.dramNs), "share"},
        // The residual: traced measured time outside every timed call
        // (System's own loop, clock crossing, skip arithmetic).
        {"system.host_share",
         1.0 - share(sum.cpuNs + sum.memNs + sum.dramNs), "share"},
        {"cpu.ns_per_tick", perTick(sum.cpuNs, sum.coreTicks), "ns"},
        {"mem.ns_per_tick", perTick(sum.memNs, sum.memTicks), "ns"},
        {"dram.ns_per_tick", perTick(sum.dramNs, sum.dramTicks), "ns"},
        {"trace.ns_per_op", genNs, "ns"},
        {"system.ticked_share",
         sim == 0.0 ? 0.0 : static_cast<double>(sum.tickedCycles) / sim,
         "share"},
        {"cpu.tick_share",
         sim == 0.0 ? 0.0
                    : static_cast<double>(sum.coreTicks) /
                 (sim * static_cast<double>(numCores)),
         "share"},
        {"system.construct_s", phase(&PhaseTimes::construct), "s"},
        {"system.prewarm_s", phase(&PhaseTimes::prewarm), "s"},
        {"system.warmup_s", phase(&PhaseTimes::warmup), "s"},
        {"system.measured_s", phase(&PhaseTimes::measured), "s"},
        {"stats.emit_s", phase(&PhaseTimes::emit), "s"},
        {"tracing.overhead_share",
         pairedPlainS == 0.0 ? 0.0 : pairedTracedS / pairedPlainS - 1.0,
         "share"},
    };

    // Modelled metrics: each one's mean over the seed set.
    const std::vector<const JobResult *> refs = referenceJobs(jobs, acc);
    for (std::size_t m = 0; m < refs.front()->model.size(); ++m) {
        Metric mean = refs.front()->model[m];
        mean.value = 0.0;
        for (const JobResult *job : refs)
            mean.value += job->model[m].value;
        mean.value /= static_cast<double>(refs.size());
        metrics.push_back(mean);
    }
    return metrics;
}

} // namespace perfbench
