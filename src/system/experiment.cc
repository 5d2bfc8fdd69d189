#include "system/experiment.hh"

#include <algorithm>

#include "sim/log.hh"

namespace critmem
{

RunResult
collect(System &sys)
{
    // With checking enabled, a run only yields numbers after the
    // checker signs off (requests still queued at the quota are in
    // flight, not lost, so drainage is not required here).
    sys.finalizeChecks(/*requireDrained=*/false);

    RunResult result;
    result.cycles = sys.windowCycles();

    for (std::uint32_t i = 0; i < sys.numCores(); ++i) {
        const Core &core = sys.core(i);
        const Core::Stats &cs = core.coreStats();
        const Cycle fin = core.finishCycle();
        result.finishCycles.push_back(
            fin == kNoCycle ? kNoCycle : fin - sys.windowStart());
        result.committed.push_back(cs.committedOps.value());
        result.dynamicLoads += cs.committedLoads.value();
        result.blockingLoads += cs.blockingLoads.value();
        result.robBlockedCycles += cs.robHeadBlockedCycles.value();
        result.coreCycles += cs.cycles.value();
        result.loadsIssued += cs.loadsIssued.value();
        result.critLoadsIssued += cs.critLoadsIssued.value();
        result.lqFullCycles += cs.lqFullCycles.value();
        if (const CommitBlockPredictor *cbp = core.cbp()) {
            result.maxCbpValue =
                std::max(result.maxCbpValue, cbp->maxObserved());
            result.cbpPopulated += cbp->populatedEntries();
        }
    }

    const MemHierarchy::Stats &ms = sys.hierarchy().memStats();
    result.l2MissLatCrit = ms.l2MissLatCrit.mean();
    result.l2MissLatNonCrit = ms.l2MissLatNonCrit.mean();
    result.demandMisses = ms.demandMisses.value();
    result.critMissCount = ms.l2MissLatCrit.count();
    result.nonCritMissCount = ms.l2MissLatNonCrit.count();

    DramSystem &dram = sys.dram();
    for (std::uint32_t c = 0; c < dram.numChannels(); ++c) {
        const DramChannel::Stats &ds = dram.channel(c).channelStats();
        result.rowHits += ds.rowHits.value();
        result.rowMisses += ds.rowMisses.value();
        result.dramReads += ds.reads.value();
    }
    return result;
}

RunResult
runSystem(System &sys, std::uint64_t quota, std::uint64_t warmup,
          bool stopAtQuota)
{
    sys.prewarmCaches();
    const std::uint64_t w =
        warmup == kDefaultWarmup ? defaultWarmup(quota) : warmup;
    if (w) {
        sys.run(w, /*stopAtQuota=*/false);
        sys.resetStatsWindow();
    }
    sys.run(quota, stopAtQuota);
    return collect(sys);
}

RunResult
runParallel(const SystemConfig &cfg, const AppParams &app,
            std::uint64_t quota, std::uint64_t warmup)
{
    validateOrFatal(cfg);
    System sys(cfg, app);
    return runSystem(sys, quota, warmup, /*stopAtQuota=*/true);
}

RunResult
runBundle(const SystemConfig &cfg, const Bundle &bundle,
          std::uint64_t quota, std::uint64_t warmup)
{
    validateOrFatal(cfg);
    if (cfg.numCores != bundle.apps.size())
        fatal("bundle '", bundle.name, "' needs ", bundle.apps.size(),
              " cores, config has ", cfg.numCores);
    std::vector<AppParams> perCore;
    for (const std::string &name : bundle.apps)
        perCore.push_back(appParams(name));
    System sys(cfg, perCore);
    return runSystem(sys, quota, warmup, /*stopAtQuota=*/false);
}

RunResult
runAloneResult(const SystemConfig &cfg, const AppParams &app,
               std::uint64_t quota, std::uint64_t warmup)
{
    validateOrFatal(cfg);
    std::vector<AppParams> perCore(cfg.numCores);
    perCore[0] = app;
    // Remaining cores stay idle: default AppParams with empty name.
    System sys(cfg, perCore);
    return runSystem(sys, quota, warmup, /*stopAtQuota=*/true);
}

double
runAlone(const SystemConfig &cfg, const AppParams &app,
         std::uint64_t quota)
{
    return runAloneResult(cfg, app, quota).ipc(0, quota);
}

} // namespace critmem
