/**
 * @file
 * The benchmark's workloads. Why each was chosen is recorded in
 * BENCHMARK.json and README.md; lengths are fixed because host rates
 * depend on run length (fft8-crit's writeback retry list keeps
 * growing), so numbers from different lengths never compare.
 */

#include "perfbench.hh"

#include <stdexcept>

#include "trace/workloads.hh"

namespace perfbench
{

namespace
{

Workload
parallelWorkload(std::string name, const std::string &app,
                 critmem::SchedAlgo sched, critmem::CritPredictor pred,
                 std::uint64_t quota, std::uint32_t seedsPerRun)
{
    Workload wl;
    wl.name = std::move(name);
    wl.cfg = critmem::SystemConfig::parallelDefault();
    wl.cfg.sched.algo = sched;
    wl.cfg.crit.predictor = pred;
    wl.perCore.assign(wl.cfg.numCores, critmem::appParams(app));
    wl.parallel = true;
    wl.quota = quota;
    wl.warmup = quota / 2;
    wl.seedsPerRun = seedsPerRun;
    return wl;
}

/**
 * A Table 4 bundle built as runBundle and the sweep engine build it:
 * multiprogDefault() (4 cores, 2 channels, 32 L2 MSHRs) and the
 * multiprogrammed methodology (stopAtQuota=false). critmem-sim
 * --bundle without --preset multiprog keeps the 8-core preset's 4
 * channels and 64 L2 MSHRs, so it is not used as the reference.
 */
Workload
bundleWorkload(std::string name, const std::string &bundle,
               critmem::SchedAlgo sched, critmem::CritPredictor pred,
               std::uint64_t quota, std::uint32_t seedsPerRun)
{
    const critmem::Bundle *b = critmem::findBundle(bundle);
    if (b == nullptr)
        throw std::logic_error("unknown bundle " + bundle);
    Workload wl;
    wl.name = std::move(name);
    wl.cfg = critmem::SystemConfig::multiprogDefault();
    wl.cfg.sched.algo = sched;
    wl.cfg.crit.predictor = pred;
    for (const std::string &app : b->apps)
        wl.perCore.push_back(critmem::appParams(app));
    wl.parallel = false;
    wl.quota = quota;
    wl.warmup = quota / 2;
    wl.seedsPerRun = seedsPerRun;
    return wl;
}

} // namespace

const std::vector<Workload> &
workloads()
{
    using critmem::CritPredictor;
    using critmem::SchedAlgo;
    static const std::vector<Workload> all{
        parallelWorkload("art8-crit", "art", SchedAlgo::CasRasCrit,
                         CritPredictor::CbpMaxStall, 25'000, 64),
        parallelWorkload("fft8-crit", "fft", SchedAlgo::CasRasCrit,
                         CritPredictor::CbpMaxStall, 10'000, 96),
        parallelWorkload("ep8-frfcfs", "ep", SchedAlgo::FrFcfs,
                         CritPredictor::None, 50'000, 64),
        bundleWorkload("rgtm-critrl", "RGTM", SchedAlgo::CritRl,
                       CritPredictor::CbpMaxStall, 25'000, 64),
    };
    return all;
}

std::vector<std::uint64_t>
jobSeeds(const Workload &wl, std::uint64_t seed)
{
    std::vector<std::uint64_t> seeds;
    for (std::uint32_t j = 0; j < wl.seedsPerRun; ++j)
        seeds.push_back(seed * wl.seedsPerRun + j);
    return seeds;
}

const Workload *
findWorkload(const std::string &name)
{
    for (const Workload &wl : workloads()) {
        if (wl.name == name)
            return &wl;
    }
    return nullptr;
}

std::unique_ptr<critmem::System>
makeSystem(const Workload &wl, std::uint64_t seed)
{
    critmem::SystemConfig cfg = wl.cfg;
    cfg.seed = seed;
    if (wl.parallel)
        return std::make_unique<critmem::System>(cfg, wl.perCore.front());
    return std::make_unique<critmem::System>(cfg, wl.perCore);
}

} // namespace perfbench
