/**
 * @file
 * Tests of the benchmark's own code: metric derivation from a
 * stats tree, host-speed scaling, digest and failure accounting, and
 * the traced loop's equivalence with System::run.
 */

#include <gtest/gtest.h>

#include <stdexcept>

#include "perfbench.hh"
#include "system/experiment.hh"

namespace perfbench
{
namespace
{

using critmem::stats::Average;
using critmem::stats::Group;
using critmem::stats::Histogram;
using critmem::stats::Scalar;

/** The slice of a System stats tree that modelMetrics reads. */
struct MiniTree
{
    struct CoreStats
    {
        CoreStats(Group &root, int id)
            : group("core" + std::to_string(id), &root),
              committedOps(group, "committedOps", ""),
              cycles(group, "cycles", ""),
              robHeadBlockedCycles(group, "robHeadBlockedCycles", ""),
              lqFullCycles(group, "lqFullCycles", ""),
              loadRetries(group, "loadRetries", ""),
              critLoadsIssued(group, "critLoadsIssued", "")
        {
        }
        Group group;
        Scalar committedOps, cycles, robHeadBlockedCycles, lqFullCycles,
            loadRetries, critLoadsIssued;
    };

    struct ChannelStats
    {
        explicit ChannelStats(Group &dram)
            : group("channel0", &dram), activates(group, "activates", ""),
              reads(group, "reads", ""), writes(group, "writes", ""),
              precharges(group, "precharges", ""),
              refreshes(group, "refreshes", ""),
              rowHits(group, "rowHits", ""),
              rowMisses(group, "rowMisses", ""),
              busyDataCycles(group, "busyDataCycles", ""),
              idleNoCandidate(group, "idleNoCandidate", ""),
              readLatency(group, "readLatency", ""),
              readQueueOcc(group, "readQueueOcc", "")
        {
        }
        Group group;
        Scalar activates, reads, writes, precharges, refreshes, rowHits,
            rowMisses, busyDataCycles, idleNoCandidate;
        Histogram readLatency;
        Average readQueueOcc;
    };

    MiniTree()
        : root("sys"), core0(root, 0), core1(root, 1), hier("hier", &root),
          mem("mem", &hier), l2("l2", &hier),
          l1MshrFull(mem, "l1MshrFull", ""),
          l2MshrFull(mem, "l2MshrFull", ""),
          dramRejects(mem, "dramRejects", ""),
          l2MissLatCrit(mem, "l2MissLatCrit", ""),
          l2MissLatNonCrit(mem, "l2MissLatNonCrit", ""),
          misses(l2, "misses", ""), writebacks(l2, "writebacks", ""),
          dram("dram", &root), ch0(dram)
    {
    }

    Group root;
    CoreStats core0, core1;
    Group hier, mem, l2;
    Scalar l1MshrFull, l2MshrFull, dramRejects;
    Average l2MissLatCrit, l2MissLatNonCrit;
    Scalar misses, writebacks;
    Group dram;
    ChannelStats ch0;
};

TEST(PerfbenchMetrics, DerivedFromStatsTree)
{
    MiniTree t;
    t.core0.committedOps.set(100);
    t.core1.committedOps.set(50);
    t.core0.cycles.set(200);
    t.core1.cycles.set(200);
    t.core0.robHeadBlockedCycles.set(100);
    t.core1.robHeadBlockedCycles.set(0);
    t.core1.critLoadsIssued.set(7);
    t.dramRejects.set(30);
    t.l2MissLatCrit.sample(100.0);
    t.l2MissLatCrit.sample(200.0);
    t.ch0.reads.set(60);
    t.ch0.writes.set(10);
    t.ch0.activates.set(5);
    t.ch0.precharges.set(4);
    t.ch0.refreshes.set(1);
    t.ch0.rowHits.set(3);
    t.ch0.rowMisses.set(1);
    t.ch0.busyDataCycles.set(25);
    t.ch0.readQueueOcc.sampleN(2.0, 50);
    t.ch0.readQueueOcc.sampleN(4.0, 50);
    t.ch0.readLatency.sample(40);
    t.ch0.readLatency.sample(60);

    const std::vector<Metric> m = modelMetrics(t.root);
    EXPECT_EQ(findMetric(m, "cpu.committed_ops"), 150.0);
    EXPECT_EQ(findMetric(m, "cpu.rob_head_blocked_share"), 0.25);
    EXPECT_EQ(findMetric(m, "crit.crit_loads_issued"), 7.0);
    EXPECT_EQ(findMetric(m, "mem.l2_miss_lat_crit"), 150.0);
    EXPECT_EQ(findMetric(m, "mem.l2_miss_lat_noncrit"), 0.0);
    EXPECT_EQ(findMetric(m, "mem.dram_rejects"), 30.0);
    EXPECT_EQ(findMetric(m, "mem.dram_accept_ratio"), 70.0 / 100.0);
    EXPECT_EQ(findMetric(m, "dram.commands"), 80.0);
    EXPECT_EQ(findMetric(m, "dram.row_hit_ratio"), 0.75);
    EXPECT_EQ(findMetric(m, "dram.read_queue_occ"), 3.0);
    EXPECT_EQ(findMetric(m, "dram.data_bus_busy_share"), 0.25);
    EXPECT_EQ(findMetric(m, "dram.read_latency_mean"), 50.0);
}

TEST(PerfbenchMetrics, MissingStatisticThrows)
{
    Group root("sys");
    EXPECT_THROW(modelMetrics(root), std::runtime_error);
}

Workload
shortWorkload(const std::string &name, std::uint64_t quota)
{
    Workload wl = *findWorkload(name);
    wl.quota = quota;
    wl.warmup = quota / 2;
    return wl;
}

TEST(PerfbenchMetrics, AgreeWithCollectOnARealRun)
{
    const Workload wl = shortWorkload("art8-crit", 2000);
    const std::unique_ptr<critmem::System> sys = makeSystem(wl, 3);
    const critmem::RunResult r =
        critmem::runSystem(*sys, wl.quota, wl.warmup, true);
    const std::vector<Metric> m = modelMetrics(sys->statsRoot());
    std::uint64_t committed = 0;
    for (const std::uint64_t ops : r.committed)
        committed += ops;
    EXPECT_EQ(findMetric(m, "cpu.committed_ops"), static_cast<double>(committed));
    EXPECT_EQ(findMetric(m, "crit.crit_loads_issued"),
              static_cast<double>(r.critLoadsIssued));
    EXPECT_EQ(findMetric(m, "cpu.lq_full_cycles"),
              static_cast<double>(r.lqFullCycles));
    EXPECT_EQ(findMetric(m, "dram.reads"), static_cast<double>(r.dramReads));
    EXPECT_EQ(findMetric(m, "dram.row_hit_ratio"),
              static_cast<double>(r.rowHits) /
                  static_cast<double>(r.rowHits + r.rowMisses));
    EXPECT_EQ(findMetric(m, "mem.l2_miss_lat_crit"), r.l2MissLatCrit);
    EXPECT_EQ(findMetric(m, "mem.l2_miss_lat_noncrit"), r.l2MissLatNonCrit);
}

JobResult
okJob(std::uint64_t seed, std::uint64_t digest, bool traced = false)
{
    JobResult job;
    job.seed = seed;
    job.digest = digest;
    job.traced = traced;
    return job;
}

TEST(PerfbenchAccounting, AgreeingJobsPass)
{
    // Seeds differ in digest; only jobs of one seed must agree.
    const Accounting acc = account(
        {okJob(1, 5), okJob(2, 6), okJob(1, 5), okJob(2, 6), okJob(1, 5, true)});
    EXPECT_EQ(acc.attempted, 5u);
    EXPECT_EQ(acc.failed, 0u);
    EXPECT_EQ(acc.reference.at(1), 0u);
    EXPECT_EQ(acc.reference.at(2), 1u);
    EXPECT_EQ(acc.digest, fnv1a("1:5;2:6;"));
}

TEST(PerfbenchAccounting, DigestMismatchAndErrorsFail)
{
    JobResult thrown = okJob(1, 0);
    thrown.error = "boom";
    const Accounting acc = account(
        {okJob(1, 5), okJob(1, 9, true), okJob(1, 5), thrown, okJob(2, 7)});
    EXPECT_EQ(acc.attempted, 5u);
    EXPECT_EQ(acc.failed, 2u);
    EXPECT_EQ(acc.reference.at(1), 0u);
    ASSERT_EQ(acc.reasons.size(), 2u);
    EXPECT_NE(acc.reasons[0].find("traced"), std::string::npos);
    EXPECT_NE(acc.reasons[0].find("digest"), std::string::npos);
    EXPECT_NE(acc.reasons[1].find("boom"), std::string::npos);
}

TEST(PerfbenchAccounting, TieGoesToTheEarliestJob)
{
    const Accounting acc = account({okJob(1, 9), okJob(1, 5)});
    EXPECT_EQ(acc.failed, 1u);
    EXPECT_EQ(acc.reference.at(1), 0u);
    EXPECT_NE(acc.reasons[0].find("job 1 "), std::string::npos);
}

TEST(PerfbenchAccounting, SeedWithoutCompletedJobHasNoReference)
{
    JobResult thrown = okJob(1, 0);
    thrown.error = "boom";
    const Accounting acc = account({thrown});
    EXPECT_EQ(acc.failed, 1u);
    EXPECT_TRUE(acc.reference.empty());
}

/** A completed job of @p seed whose phases sum to @p wall seconds. */
JobResult
timedJob(std::uint64_t seed, bool traced, double wall)
{
    JobResult job = okJob(seed, 40 + seed, traced);
    job.phase.construct = 0.01;
    job.phase.prewarm = 0.01;
    job.phase.warmup = (wall - 0.03) / 2.0;
    job.phase.measured = (wall - 0.03) / 2.0;
    job.phase.emit = 0.01;
    job.warmupOps = 100;
    job.measuredOps = 100 * seed;
    job.warmupCycles = 50;
    job.measuredCycles = 400;
    job.model = {{"dram.reads", 10.0 * static_cast<double>(seed), "count"}};
    if (traced) {
        const auto ns = static_cast<std::int64_t>(job.phase.measured * 1e9);
        job.layers.cpuNs = ns / 2;
        job.layers.memNs = ns / 4;
        job.layers.dramNs = ns / 8;
        job.layers.coreTicks = 100;
        job.layers.memTicks = 50;
        job.layers.dramTicks = 25;
        job.layers.tickedCycles = 50;
        job.layers.simCycles = 400;
    }
    return job;
}

TEST(PerfbenchReport, EndToEndUsesScaledMediansPerSeed)
{
    // Seed 1's jobs take 1.03, 2.03 and 1.53 s, so its median is 1.53 s.
    // Seed 2's job took 4.03 s at half the reference host speed: 2.015 s.
    // Seed 3's takes 3.03 s. The traced job does not count.
    std::vector<JobResult> jobs{
        timedJob(1, false, 1.03), timedJob(1, false, 2.03),
        timedJob(1, false, 1.53), timedJob(2, false, 4.03),
        timedJob(3, false, 3.03), timedJob(1, true, 0.5)};
    jobs[3].hostScale = 0.5;
    const Accounting acc = account(jobs);
    ASSERT_EQ(acc.failed, 0u);
    const std::vector<Metric> m = endToEndMetrics(jobs, acc, 13.5);
    EXPECT_DOUBLE_EQ(findMetric(m, "wall_s"), 2.015);
    // Seeds' setups take 0.02, 0.01 (scaled) and 0.02 s.
    EXPECT_DOUBLE_EQ(findMetric(m, "setup_s"), 0.02);
    // Median ops per seed, 300, over the median warmup + measured
    // seconds, 2.0 (seeds: 1.5, 2.0 scaled, 3.0); cycles are 450 for all.
    EXPECT_DOUBLE_EQ(findMetric(m, "sim_instr_per_s"), 150.0);
    EXPECT_DOUBLE_EQ(findMetric(m, "sim_cycles_per_s"), 225.0);
    EXPECT_EQ(findMetric(m, "peak_rss_mb"), 13.5);
    // (100 + 200 + 300) ops over 3 * 400 cycles.
    EXPECT_DOUBLE_EQ(findMetric(m, "sim_ipc"), 0.5);
    EXPECT_EQ(m.size(), 6u);
}

TEST(PerfbenchReport, PerLayerSharesOverheadAndModelMeans)
{
    // Traced jobs measure 0.75 s (seed 1), 2.25 s and, scaled from
    // 4.5 s at half the reference host speed, 2.25 s (seed 2).
    std::vector<JobResult> jobs{
        timedJob(1, false, 1.03), timedJob(1, true, 1.53),
        timedJob(2, false, 3.03), timedJob(2, true, 4.53),
        timedJob(2, true, 9.03)};
    jobs[3].layers.cpuNs = 0; // all of this job's time is mem and dram
    jobs[3].layers.memNs = 2'000'000'000;
    jobs[3].layers.dramNs = 250'000'000;
    jobs[4].hostScale = 0.5;
    const Accounting acc = account(jobs);
    const std::vector<Metric> m =
        perLayerMetrics(jobs, acc, {{1, 7.0}, {2, 9.0}}, 8);
    // Time-weighted over 5.25 s traced: cpu 0.375 + 0 + 1.125 s, mem
    // 0.1875 + 2 + 0.5625 s, dram 0.09375 + 0.25 + 0.28125 s.
    EXPECT_NEAR(findMetric(m, "cpu.host_share"), 1.5 / 5.25, 1e-9);
    EXPECT_NEAR(findMetric(m, "mem.host_share"), 2.75 / 5.25, 1e-9);
    EXPECT_NEAR(findMetric(m, "dram.host_share"), 0.625 / 5.25, 1e-9);
    EXPECT_NEAR(findMetric(m, "system.host_share"), 0.375 / 5.25, 1e-9);
    EXPECT_NEAR(findMetric(m, "cpu.ns_per_tick"), 1.5e9 / 300, 1e-3);
    EXPECT_NEAR(findMetric(m, "mem.ns_per_tick"), 2.75e9 / 150, 1e-3);
    EXPECT_EQ(findMetric(m, "trace.ns_per_op"), 8.0);
    EXPECT_EQ(findMetric(m, "system.ticked_share"), 0.125);
    EXPECT_EQ(findMetric(m, "cpu.tick_share"), 300.0 / (1200.0 * 8.0));
    // Median of the untraced measured windows, 0.5 s and 1.5 s.
    EXPECT_DOUBLE_EQ(findMetric(m, "system.measured_s"), 1.0);
    // Seed medians: traced 0.75 and 2.25 s against untraced 0.5 and 1.5.
    EXPECT_DOUBLE_EQ(findMetric(m, "tracing.overhead_share"), 0.5);
    EXPECT_EQ(findMetric(m, "dram.reads"), 15.0);
}

TEST(PerfbenchReport, HostScaleUsesTheFasterProbe)
{
    EXPECT_DOUBLE_EQ(hostScale(kProbeReferenceSeconds * 2.0,
                               kProbeReferenceSeconds * 4.0),
                     0.5);
    EXPECT_DOUBLE_EQ(hostScale(kProbeReferenceSeconds,
                               kProbeReferenceSeconds / 2.0),
                     2.0);
    const double probe = probeSeconds();
    EXPECT_GT(probe, 0.0);
    EXPECT_LT(probe, 1.0);
}

TEST(PerfbenchAccounting, Median)
{
    EXPECT_EQ(median({}), 0.0);
    EXPECT_EQ(median({3.0, 1.0, 2.0}), 2.0);
    EXPECT_EQ(median({4.0, 1.0, 2.0, 3.0}), 2.5);
}

TEST(PerfbenchJob, SeedGoesIntoTheConfigOnly)
{
    const Workload &wl = *findWorkload("rgtm-critrl");
    EXPECT_EQ(makeSystem(wl, 42)->config().seed, 42u);
    EXPECT_EQ(wl.cfg.numCores, 4u);
    EXPECT_EQ(wl.cfg.dram.channels, 2u);
    EXPECT_FALSE(wl.parallel);
}

TEST(PerfbenchJob, JobSeedsAreDisjointPerBenchmarkSeed)
{
    Workload wl = *findWorkload("art8-crit");
    wl.seedsPerRun = 3;
    EXPECT_EQ(jobSeeds(wl, 1), (std::vector<std::uint64_t>{3, 4, 5}));
    EXPECT_EQ(jobSeeds(wl, 2), (std::vector<std::uint64_t>{6, 7, 8}));
}

TEST(PerfbenchJob, ForcedDigestMismatch)
{
    // Two real jobs of different seeds, accounted as one seed's.
    const Workload wl = shortWorkload("ep8-frfcfs", 1000);
    JobResult a = runJob(wl, 1, false);
    JobResult b = runJob(wl, 2, false);
    ASSERT_TRUE(a.error.empty()) << a.error;
    EXPECT_GT(a.hostScale, 0.0);
    ASSERT_TRUE(b.error.empty()) << b.error;
    EXPECT_NE(a.digest, b.digest);
    EXPECT_EQ(account({a, b}).failed, 0u);
    b.seed = a.seed;
    EXPECT_EQ(account({a, a, b}).failed, 1u);
}

TEST(PerfbenchJob, QuotaShortfallIsReported)
{
    const Workload wl = shortWorkload("rgtm-critrl", 1000);
    const std::unique_ptr<critmem::System> sys = makeSystem(wl, 1);
    EXPECT_NE(quotaShortfall(*sys, 1).find("core 0 committed 0"),
              std::string::npos);
    sys->run(1000, false);
    EXPECT_EQ(quotaShortfall(*sys, 1000), "");
}

TEST(PerfbenchJob, ThrowingJobIsReportedNotThrown)
{
    // The traced loop refuses a checker-enabled system.
    Workload wl = shortWorkload("ep8-frfcfs", 1000);
    wl.cfg.check.enabled = true;
    const JobResult job = runJob(wl, 1, true);
    EXPECT_NE(job.error.find("checker"), std::string::npos);
    EXPECT_EQ(account({job}).failed, 1u);
}

class TracedEquivalence : public ::testing::TestWithParam<const char *>
{
};

TEST_P(TracedEquivalence, SameStatsTreeAsSystemRun)
{
    const Workload wl = shortWorkload(GetParam(), 3000);
    const JobResult plain = runJob(wl, 5, false);
    const JobResult traced = runJob(wl, 5, true);
    ASSERT_TRUE(plain.error.empty()) << plain.error;
    ASSERT_TRUE(traced.error.empty()) << traced.error;
    EXPECT_EQ(plain.digest, traced.digest);
    EXPECT_EQ(plain.warmupCycles, traced.warmupCycles);
    EXPECT_EQ(plain.measuredCycles, traced.measuredCycles);
    EXPECT_EQ(plain.measuredOps, traced.measuredOps);

    const LayerTimes &t = traced.layers;
    EXPECT_EQ(t.simCycles, traced.measuredCycles);
    EXPECT_LE(t.tickedCycles, t.simCycles);
    EXPECT_EQ(t.memTicks, t.tickedCycles);
    EXPECT_GT(t.coreTicks, 0u);
    EXPECT_GT(t.dramTicks, 0u);
    EXPECT_GT(t.cpuNs, 0);
    EXPECT_GT(t.memNs, 0);
    EXPECT_GT(t.dramNs, 0);
    EXPECT_EQ(plain.layers.simCycles, 0u);
}

INSTANTIATE_TEST_SUITE_P(Workloads, TracedEquivalence,
                         ::testing::Values("art8-crit", "fft8-crit",
                                           "ep8-frfcfs", "rgtm-critrl"));

TEST(PerfbenchJob, TracedLoopSkipsOnArtAndTicksEveryCycleWithoutSkip)
{
    Workload wl = shortWorkload("art8-crit", 3000);
    const JobResult skipping = runJob(wl, 5, true);
    ASSERT_TRUE(skipping.error.empty()) << skipping.error;
    EXPECT_LT(skipping.layers.tickedCycles, skipping.layers.simCycles);

    wl.cfg.fastForward = false;
    const JobResult plain = runJob(wl, 5, true);
    ASSERT_TRUE(plain.error.empty()) << plain.error;
    EXPECT_EQ(plain.layers.tickedCycles, plain.layers.simCycles);
    EXPECT_EQ(plain.layers.coreTicks,
              plain.layers.simCycles * wl.cfg.numCores);
    EXPECT_EQ(plain.digest, skipping.digest);
}

TEST(PerfbenchJob, TraceGeneratorTiming)
{
    const Workload &wl = *findWorkload("rgtm-critrl");
    EXPECT_GT(traceNsPerOp(wl, 1, 1000), 0.0);
}

} // namespace
} // namespace perfbench
