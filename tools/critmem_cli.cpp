/**
 * @file
 * critmem-sim: command-line front end for single simulations.
 *
 * Runs one workload / configuration and prints either a summary line
 * or the full statistics tree — the "drive anything without writing
 * C++" entry point for downstream users.
 *
 *   critmem-sim --app art --sched casras-crit --predictor maxstall \
 *               --instrs 50000 --stats
 *   critmem-sim --bundle RFGI --sched parbs --instrs 20000
 *   critmem-sim --app swim --ranks 1 --speed ddr3-1600 --prefetch
 *   critmem-sim --app mg --alone --stats-json mg.json
 */

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <optional>
#include <string>

#include "exec/settings.hh"
#include "fair/baseline_cache.hh"
#include "fair/fairness_stats.hh"
#include "sched/registry.hh"
#include "sim/log.hh"
#include "sim/stats.hh"
#include "system/experiment.hh"
#include "trace/workloads.hh"

using namespace critmem;

namespace
{

[[noreturn]] void
usage()
{
    std::fprintf(
        stderr,
        "usage: critmem-sim [options]\n"
        "  --app NAME         parallel application (see"
        " --list-workloads)\n"
        "  --bundle NAME      Table 4 bundle instead (AELV CMLI GAMV"
        " GDPC GSMV RFEV RFGI RGTM)\n"
        "  --trace [NAME=]PATH\n"
        "                     register an external trace file as a\n"
        "                     workload (repeatable; default name is\n"
        "                     the file stem); with no --app it is also\n"
        "                     the workload to run\n"
        "  --trace-format F   auto (default) | text | binary\n"
        "  --trace-policy P   fail (default) | skip-record |"
        " truncate\n"
        "  --trace-skip-budget N\n"
        "                     damaged records tolerated per pass under"
        " skip-record (default 64)\n"
        "  --alone            run --app on core 0 with the other cores"
        " idle\n"
        "  --fairness         (with --bundle) also run each bundle app\n"
        "                     alone, derive weighted/harmonic speedup,\n"
        "                     max slowdown and unfairness, and attach\n"
        "                     them as the 'fair' stats group\n"
        "  --preset NAME      base config: parallel (default) |"
        " multiprog\n"
        "  --instrs N         commit quota per core (default 24000)\n"
        "  --warmup N         warmup instructions (default half)\n"
        "  --stats            dump the full statistics tree\n"
        "  --stats-json FILE  write the stats tree as JSON;"
        " '-' = stdout\n"
        "  --perf             add a host-dependent 'perf' stats group\n"
        "                     (wall ms, cycles/sec, DRAM cmds/sec);\n"
        "                     off by default so stats output stays\n"
        "                     deterministic\n"
        "  --no-cycle-skip    force the tick-every-cycle loop (results\n"
        "                     are identical either way; this only\n"
        "                     changes simulator speed)\n"
        "  --cycle-skip       re-enable event-driven cycle skipping\n"
        "  --list-workloads   print every registered workload and"
        " exit\n"
        "  --list-schedulers  print schedulers and predictors and"
        " exit\n"
        "  --quiet            suppress informational logging\n"
        "  --check            enable the DRAM protocol invariant\n"
        "                     checker and forward-progress watchdog\n"
        "                     (exit 2 on violation)\n"
        "settings (each is also a spec variant key, KEY=VALUE):\n"
        "%s",
        exec::settingsUsage().c_str());
    std::exit(1);
}

void
listWorkloads()
{
    std::printf("parallel applications (--app):\n");
    for (const AppParams &app : parallelApps())
        std::printf("  %s\n", app.name.c_str());
    std::printf("single-threaded applications (--app, bundles):\n");
    for (const AppParams &app : singleApps())
        std::printf("  %s\n", app.name.c_str());
    std::printf("multiprogrammed bundles (--bundle):\n");
    for (const Bundle &bundle : multiprogBundles()) {
        std::printf("  %-5s = %s + %s + %s + %s\n",
                    bundle.name.c_str(), bundle.apps[0].c_str(),
                    bundle.apps[1].c_str(), bundle.apps[2].c_str(),
                    bundle.apps[3].c_str());
    }
    if (!traceWorkloads().empty()) {
        std::printf("trace-backed workloads (--trace / --app):\n");
        for (const TraceWorkload &wl : traceWorkloads()) {
            std::printf("  %-12s %s  (%u cores, %llu records",
                        wl.name.c_str(), wl.path.c_str(), wl.numCores,
                        static_cast<unsigned long long>(wl.records));
            if (wl.dropped != 0) {
                std::printf(", %llu dropped",
                            static_cast<unsigned long long>(
                                wl.dropped));
            }
            std::printf(")\n");
        }
    }
}

void
listSchedulers()
{
    // Column widths track the registry so long scheduler names
    // (dyn-thresh-crit, ...) never squeeze the description off-grid.
    int cliWidth = 0;
    int displayWidth = 0;
    for (const SchedInfo &info : schedulerRegistry()) {
        cliWidth = std::max(cliWidth,
                            static_cast<int>(std::strlen(info.cliName)));
        displayWidth = std::max(
            displayWidth,
            static_cast<int>(std::strlen(info.displayName)));
    }
    std::printf("schedulers (--sched):\n");
    for (const SchedInfo &info : schedulerRegistry()) {
        std::printf("  %-*s %-*s %s\n", cliWidth, info.cliName,
                    displayWidth, info.displayName, info.desc);
    }
    std::printf("criticality predictors (--predictor):\n");
    for (const PredictorInfo &info : predictorRegistry())
        std::printf("  %-14s %s\n", info.cliName, info.desc);
}

} // namespace

int
main(int argc, char **argv)
{
    // The preset decides the base config every other flag overrides,
    // so resolve it before the main flag pass.
    bool multiprogPreset = false;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--preset") == 0 && i + 1 < argc)
            multiprogPreset =
                std::strcmp(argv[i + 1], "multiprog") == 0;
    }

    std::string app;
    std::string bundleName;
    std::string statsJsonPath;
    SystemConfig cfg = multiprogPreset
        ? SystemConfig::multiprogDefault()
        : SystemConfig::parallelDefault();
    std::uint64_t instrs = 24000;
    std::uint64_t warmup = ~std::uint64_t{0};
    bool dumpStats = false;
    bool perfStats = false;
    bool alone = false;
    bool fairness = false;
    // Trace sources register after the flag pass so the recovery
    // flags apply no matter where they appear on the command line,
    // and so --list-workloads can include them.
    std::vector<std::pair<std::string, std::string>> traceArgs;
    ingest::IngestOptions traceOpts;
    bool doListWorkloads = false;
    bool doListSchedulers = false;

    auto nextArg = [&](int &i) -> const char * {
        if (i + 1 >= argc)
            usage();
        return argv[++i];
    };
    auto number = [&](int &i) -> std::uint64_t {
        const std::string flag = argv[i];
        const std::string value = nextArg(i);
        try {
            return exec::parseUint(flag, value);
        } catch (const std::exception &err) {
            fatal(err.what());
        }
    };

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--app") {
            app = nextArg(i);
        } else if (arg == "--bundle") {
            bundleName = nextArg(i);
        } else if (arg == "--trace") {
            const std::string spec = nextArg(i);
            const std::size_t eq = spec.find('=');
            std::string name;
            std::string path;
            if (eq != std::string::npos) {
                name = spec.substr(0, eq);
                path = spec.substr(eq + 1);
            } else {
                path = spec;
                const std::size_t slash = path.find_last_of('/');
                name = slash == std::string::npos
                    ? path
                    : path.substr(slash + 1);
                const std::size_t dot = name.find('.');
                if (dot != std::string::npos)
                    name = name.substr(0, dot);
            }
            if (name.empty() || path.empty())
                fatal("--trace needs [NAME=]PATH, got '", spec, "'");
            traceArgs.emplace_back(name, path);
        } else if (arg == "--trace-format") {
            const std::string name = nextArg(i);
            if (!ingest::findTraceFormat(name, traceOpts.format))
                fatal("unknown trace format '", name, "'");
        } else if (arg == "--trace-policy") {
            const std::string name = nextArg(i);
            if (!ingest::findRecoveryPolicy(name, traceOpts.policy))
                fatal("unknown trace recovery policy '", name, "'");
        } else if (arg == "--trace-skip-budget") {
            traceOpts.skipBudget = number(i);
        } else if (arg == "--alone") {
            alone = true;
        } else if (arg == "--fairness") {
            fairness = true;
        } else if (arg == "--preset") {
            const std::string preset = nextArg(i);
            if (preset != "parallel" && preset != "multiprog")
                fatal("unknown preset '", preset, "'");
        } else if (arg == "--instrs") {
            instrs = number(i);
        } else if (arg == "--warmup") {
            warmup = number(i);
        } else if (arg == "--perf") {
            perfStats = true;
        } else if (arg == "--no-cycle-skip") {
            cfg.fastForward = false;
        } else if (arg == "--cycle-skip") {
            cfg.fastForward = true;
        } else if (arg == "--stats") {
            dumpStats = true;
        } else if (arg == "--stats-json") {
            statsJsonPath = nextArg(i);
        } else if (arg == "--list-workloads") {
            doListWorkloads = true;
        } else if (arg == "--list-schedulers") {
            doListSchedulers = true;
        } else if (arg == "--check") {
            cfg.check.enabled = true;
        } else if (arg == "--quiet") {
            setQuiet(true);
        } else {
            try {
                if (!exec::applySettingFlag(cfg, argc, argv, i))
                    usage();
            } catch (const std::exception &err) {
                fatal(err.what());
            }
        }
    }
    // Register trace sources before anything that can consult the
    // registry (the listings below, workload resolution).
    for (const auto &[name, path] : traceArgs) {
        try {
            registerTraceWorkload(name, path, traceOpts);
        } catch (const std::exception &err) {
            fatal("cannot register trace '", name, "': ", err.what());
        }
    }
    if (doListWorkloads || doListSchedulers) {
        if (doListWorkloads)
            listWorkloads();
        if (doListSchedulers)
            listSchedulers();
        return 0;
    }
    // A lone --trace with neither --app nor --bundle is itself the
    // workload to run.
    if (app.empty() && bundleName.empty() && traceArgs.size() == 1)
        app = traceArgs[0].first;
    if (app.empty() == bundleName.empty())
        usage(); // exactly one of --app / --bundle / a lone --trace
    if (alone && app.empty())
        fatal("--alone requires --app");
    if (fairness && bundleName.empty())
        fatal("--fairness requires --bundle");

    if (warmup == ~std::uint64_t{0})
        warmup = instrs / 2;

    validateOrFatal(cfg);

    std::unique_ptr<System> sys;
    if (!app.empty()) {
        if (const TraceWorkload *wl = findTraceWorkload(app)) {
            if (alone)
                fatal("--alone does not apply to trace workloads");
            // The trace file dictates the core count.
            cfg.numCores = wl->numCores;
            sys = std::make_unique<System>(cfg, *wl);
        } else if (!haveApp(app)) {
            fatal("unknown application '", app, "'");
        } else if (alone) {
            std::vector<AppParams> perCore(cfg.numCores);
            perCore[0] = appParams(app);
            sys = std::make_unique<System>(cfg, perCore);
        } else {
            sys = std::make_unique<System>(cfg, appParams(app));
        }
    } else {
        const Bundle *bundle = findBundle(bundleName);
        if (!bundle)
            fatal("unknown bundle '", bundleName, "'");
        cfg.numCores = 4;
        std::vector<AppParams> perCore;
        for (const std::string &name : bundle->apps)
            perCore.push_back(appParams(name));
        sys = std::make_unique<System>(cfg, perCore);
    }

    double wallMs = 0.0;
    try {
        sys->prewarmCaches();
        if (warmup > 0) {
            sys->run(warmup, /*stopAtQuota=*/false);
            sys->resetStatsWindow();
        }
        // lint:allow(wall-clock): host throughput measurement for the
        // opt-in --perf group; never feeds simulated behaviour.
        const auto wallStart = std::chrono::steady_clock::now();
        sys->run(instrs,
                 /*stopAtQuota=*/!bundleName.empty() ? false : true);
        // lint:allow(wall-clock): see above.
        const auto wallEnd = std::chrono::steady_clock::now();
        wallMs = std::chrono::duration<double, std::milli>(
                     wallEnd - wallStart)
                     .count();
        // Requests still queued at the quota are in flight, not lost.
        sys->finalizeChecks(/*requireDrained=*/false);
    } catch (const CheckViolation &err) {
        std::fprintf(stderr, "CHECK FAILED: %s\n", err.what());
        if (sys->checker())
            std::fputs(sys->checker()->report().c_str(), stderr);
        return 2;
    }
    if (sys->checker()) {
        if (sys->checker()->totalViolations() != 0) {
            std::fputs(sys->checker()->report().c_str(), stderr);
            return 2;
        }
        std::fprintf(stderr, "checker: 0 violations%s\n",
                     cfg.check.fault != FaultKind::None
                         ? " (fault injection armed but never fired)"
                         : "");
    }

    const RunResult r = collect(*sys);
    // An alone run only commits on core 0; everything else reports
    // whole-machine throughput.
    const double ipc = alone
        ? static_cast<double>(instrs) /
              static_cast<double>(r.finishCycles[0])
        : static_cast<double>(instrs) * cfg.numCores /
              static_cast<double>(r.cycles);
    std::printf("workload=%s sched=%s predictor=%s cycles=%llu "
                "ipc=%.4f\n",
                app.empty() ? bundleName.c_str() : app.c_str(),
                toString(cfg.sched.algo), toString(cfg.crit.predictor),
                static_cast<unsigned long long>(r.cycles), ipc);
    std::printf("loads=%llu blocking=%llu (%.2f%%) robBlocked=%.2f%% "
                "l2missLat crit/non = %.1f / %.1f\n",
                static_cast<unsigned long long>(r.dynamicLoads),
                static_cast<unsigned long long>(r.blockingLoads),
                100.0 * static_cast<double>(r.blockingLoads) /
                    static_cast<double>(std::max<std::uint64_t>(
                        r.dynamicLoads, 1)),
                100.0 * static_cast<double>(r.robBlockedCycles) /
                    static_cast<double>(
                        std::max<std::uint64_t>(r.coreCycles, 1)),
                r.l2MissLatCrit, r.l2MissLatNonCrit);

    // --fairness: run each bundle app alone (deduped through the
    // baseline cache, so a bundle with repeated apps runs each
    // baseline once), derive the fairness metrics against the shared
    // run, and attach them to the stats tree before either dump.
    std::optional<fair::FairnessStats> fairStats;
    if (fairness) {
        const Bundle &bundle = *findBundle(bundleName);
        fair::AloneBaselineCache baselines;
        std::vector<double> aloneIpc;
        aloneIpc.reserve(bundle.apps.size());
        for (const std::string &name : bundle.apps) {
            aloneIpc.push_back(baselines.getOrCompute(
                name, cfg, instrs, [&] {
                    return runAlone(cfg, appParams(name), instrs);
                }));
        }
        const fair::FairnessMetrics m = fair::computeFairness(
            fair::sharedIpcs(r, instrs, cfg.numCores), aloneIpc);
        fairStats.emplace(&sys->statsRoot(), cfg.numCores);
        fairStats->set(m);
        if (m.valid) {
            std::printf("fair: ws=%.4f hs=%.4f maxslow=%.4f "
                        "unfair=%.4f (%llu alone runs)\n",
                        m.weightedSpeedup, m.harmonicSpeedup,
                        m.maxSlowdown, m.unfairness,
                        static_cast<unsigned long long>(
                            baselines.runsExecuted()));
        } else {
            std::printf(
                "fair: invalid (a core never reached its quota)\n");
        }
    }

    // Host-throughput group, opt-in (--perf): these
    // values are wall-clock-dependent, so keeping them out of the
    // default output preserves the byte-identical stats-json
    // determinism contract. Lives here so it outlasts both dumps.
    struct PerfGroup
    {
        PerfGroup(stats::Group &parent)
            : group("perf", &parent),
              wallMs(group, "wallMs",
                     "host milliseconds for the measured run"),
              cyclesPerSec(group, "cyclesPerSec",
                           "simulated CPU cycles per host second"),
              dramCmdsPerSec(group, "dramCmdsPerSec",
                             "DRAM commands issued per host second")
        {
        }

        stats::Group group;
        stats::Scalar wallMs;
        stats::Scalar cyclesPerSec;
        stats::Scalar dramCmdsPerSec;
    };
    std::optional<PerfGroup> perf;
    if (perfStats) {
        std::uint64_t dramCmds = 0;
        for (std::uint32_t c = 0; c < sys->dram().numChannels(); ++c) {
            const auto &ch = sys->dram().channel(c).channelStats();
            dramCmds += ch.activates.value() + ch.reads.value() +
                        ch.writes.value() + ch.precharges.value() +
                        ch.refreshes.value();
        }
        const double wallSec = std::max(wallMs, 1e-6) / 1000.0;
        perf.emplace(sys->statsRoot());
        perf->wallMs.set(static_cast<std::uint64_t>(
            std::llround(wallMs)));
        perf->cyclesPerSec.set(static_cast<std::uint64_t>(
            static_cast<double>(r.cycles) / wallSec));
        perf->dramCmdsPerSec.set(static_cast<std::uint64_t>(
            static_cast<double>(dramCmds) / wallSec));
        std::fprintf(stderr,
                     "perf: wall=%.1fms cycles/s=%.3g dramCmds/s=%.3g\n",
                     wallMs, static_cast<double>(r.cycles) / wallSec,
                     static_cast<double>(dramCmds) / wallSec);
    }

    if (dumpStats)
        sys->statsRoot().print(std::cout);
    if (!statsJsonPath.empty()) {
        if (statsJsonPath == "-") {
            sys->statsRoot().printJson(std::cout);
            std::cout << '\n';
        } else {
            // Atomic temp+fsync+rename write: a crash mid-dump never
            // leaves a truncated JSON file at the target path.
            try {
                stats::writeJsonFile(statsJsonPath, sys->statsRoot());
            } catch (const std::exception &err) {
                fatal("cannot write --stats-json file '",
                      statsJsonPath, "': ", err.what());
            }
        }
    }
    return 0;
}
