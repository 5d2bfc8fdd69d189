/**
 * @file
 * Paper-workload benchmark: runs one workload's standard
 * methodology (construct, L2 prewarm, warmup window, measured window,
 * stats emission) through System's public API, either untraced
 * (System::run) or traced (TracedLoop, a replica of System::run that
 * times each component call), and derives the benchmark's metrics.
 */

#ifndef CRITMEM_PERFBENCH_PERFBENCH_HH
#define CRITMEM_PERFBENCH_PERFBENCH_HH

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "sim/config.hh"
#include "sim/stats.hh"
#include "system/system.hh"
#include "trace/synthetic.hh"

namespace perfbench
{

using critmem::Cycle;
using critmem::DramCycle;

/** One benchmark workload: a paper configuration at a fixed length. */
struct Workload
{
    std::string name;
    /** Base config; the run's seed goes into cfg.seed and nowhere else. */
    critmem::SystemConfig cfg;
    /** Core i's application (all equal for a parallel workload). */
    std::vector<critmem::AppParams> perCore;
    /** SPMD threads of one app (stopAtQuota) vs a bundle (not). */
    bool parallel = true;
    std::uint64_t quota = 0;  ///< measured commit quota per core
    std::uint64_t warmup = 0; ///< warmup commit quota per core
    /**
     * Workload seeds per benchmark seed. The seed changes the
     * synthetic program itself, and simulated IPC and host rates vary
     * widely between programs, so one benchmark run covers a set of
     * them (see jobSeeds) to be comparable with a run of another seed.
     */
    std::uint32_t seedsPerRun = 1;
};

/**
 * The SystemConfig::seed of each job of benchmark seed @p seed:
 * seed * seedsPerRun + j for j in [0, seedsPerRun).
 */
std::vector<std::uint64_t> jobSeeds(const Workload &wl, std::uint64_t seed);

/** The benchmark's workloads, in BENCHMARK.json order. */
const std::vector<Workload> &workloads();

/** @return the workload called @p name, or nullptr. */
const Workload *findWorkload(const std::string &name);

/** Build @p wl's System with @p seed as SystemConfig::seed. */
std::unique_ptr<critmem::System> makeSystem(const Workload &wl,
                                            std::uint64_t seed);

/** Host nanoseconds spent inside each layer's public calls. */
struct LayerTimes
{
    std::int64_t cpuNs = 0;  ///< Core::skipTo/tick/nextEventCycle
    std::int64_t memNs = 0;  ///< MemHierarchy::tick/nextEventCycle/skipTo
    std::int64_t dramNs = 0; ///< DramSystem::tick/nextEventCycle/skipTo
    std::uint64_t coreTicks = 0;
    std::uint64_t memTicks = 0;
    std::uint64_t dramTicks = 0;
    std::uint64_t tickedCycles = 0; ///< CPU cycles run through a tick
    std::uint64_t simCycles = 0;    ///< CPU cycles advanced in total
};

/**
 * System::run replica that drives the System's components through
 * their public calls in run()'s order, with the same lazy core ticking
 * and event-driven fast-forward schedule, and times every call. Ends
 * in the same state (and stats tree) as System::run. Supports systems
 * without the protocol checker, fault injector or abort flag.
 */
class TracedLoop
{
  public:
    explicit TracedLoop(critmem::System &sys);

    /**
     * Same contract as System::run.
     * @return CPU cycles advanced by this call.
     */
    Cycle run(std::uint64_t quotaPerCore, bool stopAtQuota);

    const LayerTimes &times() const { return times_; }
    void resetTimes() { times_ = LayerTimes{}; }

  private:
    void tickOnce();
    void fastForward(Cycle limit);

    critmem::System &sys_;
    LayerTimes times_;
    std::vector<Cycle> coreNext_;
    bool lazyTick_ = false;
    Cycle cycle_ = 0;
    std::uint64_t dramAccum_ = 0;
    DramCycle dramCycle_ = 0;
};

/** One named benchmark metric. */
struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

/** Host seconds of each methodology phase. */
struct PhaseTimes
{
    double construct = 0.0;
    double prewarm = 0.0;
    double warmup = 0.0;
    double measured = 0.0;
    double emit = 0.0; ///< collect() + statsRoot().printJson()

    /** The whole job, construction to stats emission. */
    double total() const { return construct + prewarm + warmup + measured + emit; }
};

/** Outcome of one job (one pass of the methodology). */
struct JobResult
{
    std::uint64_t seed = 0; ///< SystemConfig::seed
    bool traced = false;
    /** Empty on success; else why the job failed. */
    std::string error;
    std::uint64_t digest = 0; ///< FNV-1a of the measured stats JSON
    PhaseTimes phase;
    std::uint64_t warmupOps = 0;
    std::uint64_t measuredOps = 0;
    Cycle warmupCycles = 0;
    Cycle measuredCycles = 0;
    /** Modelled metrics of the measured window (see modelMetrics). */
    std::vector<Metric> model;
    /** Measured window only; zero for untraced jobs. */
    LayerTimes layers;
    /** Multiplies the job's host times (see hostScale()). */
    double hostScale = 1.0;
};

/**
 * The probe's time on the host the benchmark was calibrated on, a
 * 4-vCPU Xeon VM with 2 MiB of L2 per core, in its fast state. Host
 * times scaled by hostScale() are seconds at that host speed.
 */
constexpr double kProbeReferenceSeconds = 0.0021;

/**
 * Host seconds of one pass of the host-speed probe: a fixed pointer
 * chase through L2-resident rings, which slows down with the
 * simulator when co-tenants contend for the core.
 */
double probeSeconds();

/**
 * kProbeReferenceSeconds over the faster of the probes run just
 * before and just after a job: how much faster than measured the job
 * would have run at the reference host speed.
 */
double hostScale(double probeBefore, double probeAfter);

/**
 * Why @p sys's last run stopped short: the first active core that
 * committed fewer than @p quota micro-ops, which only happens when
 * run() hits its safety limit. Empty when every core met the quota.
 */
std::string quotaShortfall(const critmem::System &sys, std::uint64_t quota);

/** Run one job; never throws (failures land in JobResult::error). */
JobResult runJob(const Workload &wl, std::uint64_t seed, bool traced);

/**
 * Host nanoseconds per SyntheticApp::next() for @p wl's generators,
 * built as the System builds them, over @p opsPerCore ops each,
 * scaled by hostScale().
 */
double traceNsPerOp(const Workload &wl, std::uint64_t seed,
                    std::uint64_t opsPerCore);

/** 64-bit FNV-1a. */
std::uint64_t fnv1a(const std::string &bytes);

/**
 * Modelled metrics of a measured stats tree ("cpu.committed_ops",
 * "dram.row_hit_ratio", ...). Exact for a given (workload, seed).
 * @throws std::runtime_error when the tree lacks a needed statistic.
 */
std::vector<Metric> modelMetrics(const critmem::stats::Group &root);

/** Pass/fail tally over a run's jobs. */
struct Accounting
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    /** Per job seed, the index of its first job with the reference digest. */
    std::map<std::uint64_t, std::size_t> reference;
    /** FNV-1a over every seed's reference digest, in seed order. */
    std::uint64_t digest = 0;
    /** Why each failed job failed. */
    std::vector<std::string> reasons;
};

/**
 * Count failures: a job fails when it reported an error or when its
 * digest differs from the reference digest of its seed, the one most
 * of that seed's jobs (traced ones included) agree on, ties going to
 * the earliest job.
 */
Accounting account(const std::vector<JobResult> &jobs);

/** Median of @p values (mean of the middle two); 0 when empty. */
double median(std::vector<double> values);

/** @return the value of @p name in @p metrics. @throws std::out_of_range */
double findMetric(const std::vector<Metric> &metrics, const std::string &name);

/**
 * The --trace 0 metrics of a run (BENCHMARK.json "end_to_end"): host
 * times of the untraced jobs scaled by their hostScale, as each seed's
 * median over its jobs and then the median over the seed set; the
 * simulation rates as the median simulated work over the median host
 * seconds in run(); and the seed set's aggregate simulated IPC.
 * @throws std::runtime_error when no job completed.
 */
std::vector<Metric> endToEndMetrics(const std::vector<JobResult> &jobs,
                                    const Accounting &acc, double peakRssMb);

/**
 * The --trace 1 metrics of a run (BENCHMARK.json "per_layer"): layer
 * shares and rates summed over every traced job (so they are
 * time-weighted over the seed set), phase times as medians like
 * endToEndMetrics' host times, and the modelled metrics' and
 * generator costs' means over the seed set. Host times are scaled by
 * each job's hostScale.
 * @param traceNsPerOp Per seed, its median traceNsPerOp() figure.
 * @throws std::runtime_error when no job completed.
 */
std::vector<Metric>
perLayerMetrics(const std::vector<JobResult> &jobs, const Accounting &acc,
                const std::map<std::uint64_t, double> &traceNsPerOp,
                std::uint32_t numCores);

} // namespace perfbench

#endif // CRITMEM_PERFBENCH_PERFBENCH_HH
