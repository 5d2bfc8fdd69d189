/**
 * @file
 * perfbench --workload NAME --seed N --seconds S --trace 0|1
 *
 * Runs NAME's methodology round-robin over its seed set (jobSeeds:
 * SystemConfig::seed = N * seedsPerRun + j) for S seconds of host
 * time, checks that every seed's jobs produced one stats digest and
 * met their quotas, and prints one JSON result as the last stdout
 * line: the end-to-end metrics with --trace 0, the per-layer metrics
 * with --trace 1. Host times are scaled to the reference host speed by
 * the probe run around each job; the summary line gives the median
 * scale. Trace 0 ends with one traced job so the traced
 * loop's digest is checked too; trace 1 runs an untraced and a traced
 * job per seed visit, so the tracing overhead compares like with like.
 */

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "perfbench.hh"

namespace
{

using perfbench::JobResult;
using perfbench::Metric;

struct Args
{
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 0.0;
    bool trace = false;
};

[[noreturn]] void
usage(const std::string &problem)
{
    std::cerr << "perfbench: " << problem
              << "\nusage: perfbench --workload NAME --seed N "
                 "--seconds S --trace 0|1\nworkloads:";
    for (const perfbench::Workload &wl : perfbench::workloads())
        std::cerr << ' ' << wl.name;
    std::cerr << '\n';
    std::exit(2);
}

std::uint64_t
parseUint(const std::string &flag, const std::string &text)
{
    std::size_t used = 0;
    try {
        const unsigned long long v = std::stoull(text, &used, 10);
        if (used == text.size() && text[0] != '-')
            return v;
    } catch (const std::exception &) {
    }
    usage(flag + " needs a whole number, got '" + text + "'");
}

Args
parseArgs(int argc, char **argv)
{
    Args args;
    bool haveWorkload = false, haveSeed = false, haveSeconds = false,
         haveTrace = false;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            usage(flag + " needs a value");
        const std::string value = argv[++i];
        if (flag == "--workload") {
            args.workload = value;
            haveWorkload = true;
        } else if (flag == "--seed") {
            args.seed = parseUint(flag, value);
            haveSeed = true;
        } else if (flag == "--seconds") {
            args.seconds = static_cast<double>(parseUint(flag, value));
            haveSeconds = args.seconds > 0;
        } else if (flag == "--trace") {
            if (value != "0" && value != "1")
                usage("--trace takes 0 or 1");
            args.trace = value == "1";
            haveTrace = true;
        } else {
            usage("unknown option " + flag);
        }
    }
    if (!haveWorkload || !haveSeed || !haveSeconds || !haveTrace)
        usage("--workload, --seed, --seconds (> 0) and --trace are required");
    return args;
}

void
printResult(bool correct, const perfbench::Accounting &acc,
            const std::vector<Metric> &metrics)
{
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                correct ? "true" : "false",
                static_cast<unsigned long long>(acc.attempted),
                static_cast<unsigned long long>(acc.failed));
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        std::printf("%s\"%s\": {\"value\": %.*g, \"unit\": \"%s\"}",
                    i == 0 ? "" : ", ", metrics[i].name.c_str(),
                    std::numeric_limits<double>::max_digits10,
                    metrics[i].value, metrics[i].unit.c_str());
    }
    std::printf("}}\n");
}

} // namespace

int
main(int argc, char **argv)
{
    const Args args = parseArgs(argc, argv);
    const perfbench::Workload *wl = perfbench::findWorkload(args.workload);
    if (wl == nullptr)
        usage("unknown workload '" + args.workload + "'");

    using Clock = std::chrono::steady_clock;
    const Clock::time_point deadline =
        Clock::now() + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(args.seconds));
    // Round-robin over the seed set until the deadline, covering every
    // seed at least once.
    const std::vector<std::uint64_t> seeds = perfbench::jobSeeds(*wl, args.seed);
    std::vector<JobResult> jobs;
    std::map<std::uint64_t, std::vector<double>> traceNs; // per seed
    for (std::size_t n = 0; n < seeds.size() || Clock::now() < deadline;
         ++n) {
        const std::uint64_t seed = seeds[n % seeds.size()];
        jobs.push_back(perfbench::runJob(*wl, seed, false));
        if (args.trace) {
            jobs.push_back(perfbench::runJob(*wl, seed, true));
            traceNs[seed].push_back(
                perfbench::traceNsPerOp(*wl, seed, 20'000));
        }
    }
    if (!args.trace)
        jobs.push_back(perfbench::runJob(*wl, seeds.front(), true));

    const perfbench::Accounting acc = perfbench::account(jobs);
    std::size_t traced = 0;
    std::vector<double> scales;
    for (const JobResult &job : jobs) {
        traced += job.traced ? 1 : 0;
        scales.push_back(job.hostScale);
    }
    std::printf("perfbench workload=%s seed=%llu job_seeds=%llu..%llu "
                "quota=%llu warmup=%llu jobs=%zu traced=%zu failed=%llu "
                "failed_share=%.4f digest=%016llx host_scale=%.3f\n",
                wl->name.c_str(), static_cast<unsigned long long>(args.seed),
                static_cast<unsigned long long>(seeds.front()),
                static_cast<unsigned long long>(seeds.back()),
                static_cast<unsigned long long>(wl->quota),
                static_cast<unsigned long long>(wl->warmup), jobs.size(),
                traced, static_cast<unsigned long long>(acc.failed),
                static_cast<double>(acc.failed) /
                    static_cast<double>(acc.attempted),
                static_cast<unsigned long long>(acc.digest),
                perfbench::median(scales));
    for (const std::string &reason : acc.reasons)
        std::printf("FAILED %s\n", reason.c_str());
    if (acc.reference.size() != seeds.size()) {
        std::fprintf(stderr, "perfbench: a seed had no completed job\n");
        return 1;
    }
    std::vector<Metric> metrics;
    if (!args.trace) {
        rusage ru{};
        getrusage(RUSAGE_SELF, &ru);
        metrics = perfbench::endToEndMetrics(
            jobs, acc, static_cast<double>(ru.ru_maxrss) / 1024.0);
    } else {
        std::map<std::uint64_t, double> medianTraceNs;
        for (const auto &[seed, ns] : traceNs)
            medianTraceNs[seed] = perfbench::median(ns);
        metrics = perfbench::perLayerMetrics(jobs, acc, medianTraceNs,
                                             wl->cfg.numCores);
        std::printf("tracing: the traced loop follows System::run's "
                    "cycle-skip schedule; overhead_share=%.4f, residual "
                    "outside the timed calls (system.host_share)=%.4f\n",
                    perfbench::findMetric(metrics, "tracing.overhead_share"),
                    perfbench::findMetric(metrics, "system.host_share"));
    }
    printResult(acc.failed == 0, acc, metrics);
    return 0;
}
