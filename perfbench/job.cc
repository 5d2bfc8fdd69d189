/**
 * @file
 * One job of the standard methodology, untraced or traced, and the
 * traced replica of System::run.
 */

#include <algorithm>
#include <chrono>
#include <exception>
#include <sstream>
#include <stdexcept>
#include <type_traits>

#include "perfbench.hh"
#include "system/experiment.hh"

namespace perfbench
{

namespace
{

using Clock = std::chrono::steady_clock;

std::int64_t
nsBetween(Clock::time_point from, Clock::time_point to)
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(to - from)
        .count();
}

double
secondsSince(Clock::time_point from)
{
    return std::chrono::duration<double>(Clock::now() - from).count();
}

/** Adds the host time of one call to a layer's total. */
template <typename Fn>
auto
timed(std::int64_t &total, Fn &&fn)
{
    const Clock::time_point start = Clock::now();
    if constexpr (std::is_void_v<decltype(fn())>) {
        fn();
        total += nsBetween(start, Clock::now());
    } else {
        auto result = fn();
        total += nsBetween(start, Clock::now());
        return result;
    }
}

std::uint64_t
committedOps(critmem::System &sys)
{
    std::uint64_t ops = 0;
    for (std::uint32_t i = 0; i < sys.numCores(); ++i)
        ops += sys.core(i).committed();
    return ops;
}

} // namespace

TracedLoop::TracedLoop(critmem::System &sys) : sys_(sys)
{
    // Neither hook is reachable through the public API, and both
    // change run()'s schedule: refuse rather than diverge.
    if (sys.checker() != nullptr || sys.faultInjector() != nullptr)
        throw std::logic_error(
            "TracedLoop supports systems without checker or injector");
    if (sys.cycle() != 0)
        throw std::logic_error("TracedLoop needs a System that never ran");
}

// Mirrors System::tickOnce(), timing each component call.
void
TracedLoop::tickOnce()
{
    ++cycle_;
    ++times_.tickedCycles;
    ++times_.simCycles;
    ++times_.memTicks;
    timed(times_.memNs, [&] { sys_.hierarchy().tick(cycle_); });
    for (std::uint32_t i = 0; i < sys_.numCores(); ++i) {
        critmem::Core &core = sys_.core(i);
        if (lazyTick_ && !core.poked() && coreNext_[i] > cycle_)
            continue;
        ++times_.coreTicks;
        timed(times_.cpuNs, [&] {
            if (lazyTick_) {
                core.skipTo(cycle_ - 1);
                core.clearPoked();
            }
            core.tick(cycle_);
            if (lazyTick_)
                coreNext_[i] = core.nextEventCycle(cycle_);
        });
    }
    const critmem::SystemConfig &cfg = sys_.config();
    dramAccum_ += cfg.dram.busMHz;
    if (dramAccum_ >= cfg.core.freqMHz) {
        dramAccum_ -= cfg.core.freqMHz;
        ++times_.dramTicks;
        const DramCycle now = ++dramCycle_;
        timed(times_.dramNs, [&] { sys_.dram().tick(now); });
    }
}

// Mirrors System::fastForward() without the poll bound (no abort flag
// and no commit watchdog are attached).
void
TracedLoop::fastForward(Cycle limit)
{
    Cycle target = limit;
    for (const Cycle bound : coreNext_) {
        target = std::min(target, bound);
        if (target <= cycle_ + 1)
            return;
    }
    target = std::min(target, timed(times_.memNs, [&] {
                          return sys_.hierarchy().nextEventCycle(cycle_);
                      }));
    if (target <= cycle_ + 1)
        return;

    const critmem::SystemConfig &cfg = sys_.config();
    const DramCycle e = timed(times_.dramNs, [&] {
        return sys_.dram().nextEventCycle(dramCycle_);
    });
    if (e != critmem::kNoCycle) {
        if (e <= dramCycle_)
            return;
        const std::uint64_t m = e - dramCycle_;
        const std::uint64_t need = m * cfg.core.freqMHz - dramAccum_;
        const std::uint64_t k =
            (need + cfg.dram.busMHz - 1) / cfg.dram.busMHz;
        target = std::min(target, cycle_ + k);
    }
    if (target <= cycle_ + 1)
        return;

    const Cycle stop = target - 1;
    timed(times_.memNs, [&] { sys_.hierarchy().skipTo(stop); });
    const std::uint64_t cpuCycles = stop - cycle_;
    const std::uint64_t total = dramAccum_ + cpuCycles * cfg.dram.busMHz;
    const std::uint64_t dramTicks = total / cfg.core.freqMHz;
    dramAccum_ = total % cfg.core.freqMHz;
    if (dramTicks != 0) {
        dramCycle_ += dramTicks;
        timed(times_.dramNs, [&] { sys_.dram().skipTo(dramCycle_); });
    }
    times_.simCycles += cpuCycles;
    cycle_ = stop;
}

// Mirrors System::run() and runLoop().
Cycle
TracedLoop::run(std::uint64_t quotaPerCore, bool stopAtQuota)
{
    const Cycle start = cycle_;
    const Cycle limit = cycle_ + quotaPerCore * 4000 + 10'000'000;
    for (std::uint32_t i = 0; i < sys_.numCores(); ++i) {
        sys_.core(i).setQuota(quotaPerCore);
        sys_.core(i).setStopAtQuota(stopAtQuota);
    }
    const bool skip = sys_.config().fastForward;
    lazyTick_ = skip;
    coreNext_.assign(sys_.numCores(), 0);

    const auto allFinished = [&] {
        for (std::uint32_t i = 0; i < sys_.numCores(); ++i) {
            if (!sys_.core(i).finished())
                return false;
        }
        return true;
    };
    while (!allFinished() && cycle_ < limit) {
        tickOnce();
        if (skip && !allFinished())
            fastForward(limit);
    }
    if (lazyTick_) {
        for (std::uint32_t i = 0; i < sys_.numCores(); ++i)
            timed(times_.cpuNs, [&] { sys_.core(i).skipTo(cycle_); });
        lazyTick_ = false;
    }
    return cycle_ - start;
}

std::string
quotaShortfall(const critmem::System &sys, std::uint64_t quota)
{
    for (std::uint32_t i = 0; i < sys.numCores(); ++i) {
        const critmem::Core &core = sys.core(i);
        if (core.active() && core.committed() < quota) {
            return "core " + std::to_string(i) + " committed " +
                std::to_string(core.committed()) + " of its " +
                std::to_string(quota) +
                " micro-ops (run() safety limit hit)";
        }
    }
    return "";
}

JobResult
runJob(const Workload &wl, std::uint64_t seed, bool traced)
{
    JobResult job;
    job.seed = seed;
    job.traced = traced;
    const double probeBefore = probeSeconds();
    try {
        Clock::time_point t = Clock::now();
        const std::unique_ptr<critmem::System> sys = makeSystem(wl, seed);
        job.phase.construct = secondsSince(t);

        t = Clock::now();
        sys->prewarmCaches();
        job.phase.prewarm = secondsSince(t);

        std::unique_ptr<TracedLoop> loop;
        if (traced)
            loop = std::make_unique<TracedLoop>(*sys);
        const bool stopAtQuota = wl.parallel;
        const auto runWindow = [&](std::uint64_t quota, bool stop) {
            if (loop)
                return loop->run(quota, stop);
            const Cycle before = sys->cycle();
            return sys->run(quota, stop) - before;
        };

        t = Clock::now();
        job.warmupCycles = runWindow(wl.warmup, false);
        job.phase.warmup = secondsSince(t);
        if (const std::string err = quotaShortfall(*sys, wl.warmup);
            !err.empty())
            throw std::runtime_error("warmup window: " + err);
        job.warmupOps = committedOps(*sys);
        sys->resetStatsWindow();

        if (loop)
            loop->resetTimes();
        t = Clock::now();
        job.measuredCycles = runWindow(wl.quota, stopAtQuota);
        job.phase.measured = secondsSince(t);
        if (loop)
            job.layers = loop->times();

        t = Clock::now();
        const critmem::RunResult result = critmem::collect(*sys);
        std::ostringstream json;
        sys->statsRoot().printJson(json);
        job.phase.emit = secondsSince(t);

        if (const std::string err = quotaShortfall(*sys, wl.quota);
            !err.empty())
            throw std::runtime_error("measured window: " + err);
        for (const std::uint64_t ops : result.committed)
            job.measuredOps += ops;
        job.digest = fnv1a(json.str());
        job.model = modelMetrics(sys->statsRoot());
    } catch (const std::exception &err) {
        job.error = err.what();
    }
    job.hostScale = hostScale(probeBefore, probeSeconds());
    return job;
}

double
traceNsPerOp(const Workload &wl, std::uint64_t seed,
             std::uint64_t opsPerCore)
{
    // The generators System::build() makes, one per core.
    const std::uint32_t cores = wl.cfg.numCores;
    std::vector<std::unique_ptr<critmem::SyntheticApp>> gens;
    for (std::uint32_t i = 0; i < cores; ++i) {
        if (wl.parallel) {
            gens.push_back(std::make_unique<critmem::SyntheticApp>(
                wl.perCore[i], i, cores, 0, seed));
        } else {
            gens.push_back(std::make_unique<critmem::SyntheticApp>(
                wl.perCore[i], 0, 1, static_cast<critmem::Addr>(i) << 40,
                seed + i * 977));
        }
    }
    critmem::MicroOp op;
    std::uint64_t sink = 0;
    const double probeBefore = probeSeconds();
    const Clock::time_point start = Clock::now();
    for (std::uint64_t n = 0; n < opsPerCore; ++n) {
        for (const auto &gen : gens) {
            gen->next(op);
            sink += op.pc ^ op.addr;
        }
    }
    const std::int64_t ns = nsBetween(start, Clock::now());
    const double scale = hostScale(probeBefore, probeSeconds());
    // Keeps the generated stream observable so next() is not elided.
    if (sink == 1)
        throw std::logic_error("unreachable");
    return static_cast<double>(ns) * scale /
        static_cast<double>(opsPerCore * cores);
}

} // namespace perfbench
