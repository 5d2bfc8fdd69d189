/**
 * @file
 * Shared helpers for the bench binaries whose settings no sweep spec
 * key reaches (bench_table5_widths, bench_ablation, bench_ext_cbp):
 * the paper's baseline configuration and quota handling.
 * CRITMEM_INSTRS (and CRITMEM_WARMUP) scale simulation length. Every
 * figure that a spec can express is a .sweep file under specs/.
 */

#ifndef CRITMEM_BENCH_BENCH_UTIL_HH
#define CRITMEM_BENCH_BENCH_UTIL_HH

#include <cstdio>

#include "sim/config.hh"
#include "sim/log.hh"
#include "system/experiment.hh"
#include "trace/workloads.hh"

namespace critmem::bench
{

/** Default per-core quota for bench runs (scaled by CRITMEM_INSTRS). */
inline std::uint64_t
quota(std::uint64_t fallback = 24000)
{
    return defaultQuota(fallback);
}

/** The paper's 8-core baseline: FR-FCFS, no criticality. */
inline SystemConfig
parallelBase()
{
    SystemConfig cfg = SystemConfig::parallelDefault();
    cfg.sched.algo = SchedAlgo::FrFcfs;
    cfg.crit.predictor = CritPredictor::None;
    return cfg;
}

/** Attach a criticality predictor + scheduler to a configuration. */
inline SystemConfig
withPredictor(SystemConfig cfg, CritPredictor pred,
              std::uint32_t entries = 64,
              SchedAlgo algo = SchedAlgo::CasRasCrit)
{
    cfg.crit.predictor = pred;
    cfg.crit.tableEntries = entries;
    cfg.sched.algo = algo;
    return cfg;
}

} // namespace critmem::bench

#endif // CRITMEM_BENCH_BENCH_UTIL_HH
