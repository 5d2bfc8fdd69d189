/**
 * @file
 * critmem-sweep's post-run reports (exec/report.hh) over hand-built
 * records: the parallel speedup table (also over a listed subset of
 * variants), the multiprog weighted-speedup cell, metric: columns
 * (averaged and peak), the skipped-row notice and the checks that
 * refuse a report before a campaign runs.
 */

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "exec/report.hh"

using namespace critmem;

namespace
{

exec::SweepSpec
specWith(exec::SweepSpec::Mode mode, bool alone,
         std::initializer_list<const char *> variants)
{
    exec::SweepSpec spec;
    spec.mode = mode;
    spec.alone = alone;
    spec.quota = 1000;
    for (const char *name : variants)
        spec.variants.push_back({name, {}});
    return spec;
}

exec::JobRecord
record(const std::string &workload, const std::string &variant)
{
    exec::JobRecord rec;
    rec.spec.name = workload + "/" + variant;
    rec.spec.workload = workload;
    rec.spec.tags["workload"] = workload;
    rec.spec.tags["variant"] = variant;
    return rec;
}

exec::JobRecord
parallelRecord(const std::string &workload, const std::string &variant,
               Cycle cycles)
{
    exec::JobRecord rec = record(workload, variant);
    rec.spec.kind = exec::RunKind::Parallel;
    rec.result.cycles = cycles;
    return rec;
}

exec::JobRecord
bundleRecord(const std::string &workload, const std::string &variant,
             double weightedSpeedup, double maxSlowdown)
{
    exec::JobRecord rec = record(workload, variant);
    rec.spec.kind = exec::RunKind::Bundle;
    rec.fairness.valid = true;
    rec.fairness.weightedSpeedup = weightedSpeedup;
    rec.fairness.maxSlowdown = maxSlowdown;
    return rec;
}

std::string
render(const std::string &report, const exec::SweepSpec &spec,
       const exec::MemorySink &memory)
{
    exec::checkReport(report, spec);
    return exec::renderReport(report, spec, memory,
                              memory.records().size());
}

TEST(ExecReport, ParallelSpeedupIsACycleRatio)
{
    const exec::SweepSpec spec =
        specWith(exec::SweepSpec::Mode::Parallel, false,
                 {"base", "fast"});
    exec::MemorySink memory;
    memory.consume(parallelRecord("art", "base", 1000));
    memory.consume(parallelRecord("art", "fast", 800));
    memory.consume(parallelRecord("swim", "base", 600));
    memory.consume(parallelRecord("swim", "fast", 400));

    EXPECT_EQ(render("speedup:base", spec, memory),
              "# speedup vs base (quota=1000/core)\n"
              "app                fast\n"
              "art              1.2500\n"
              "swim             1.5000\n"
              "Average          1.3750\n");
}

TEST(ExecReport, SpeedupNamesTheRowsItSkips)
{
    const exec::SweepSpec spec =
        specWith(exec::SweepSpec::Mode::Parallel, false,
                 {"base", "fast"});
    exec::MemorySink memory;
    memory.consume(parallelRecord("art", "base", 1000));
    memory.consume(parallelRecord("art", "fast", 800));
    memory.consume(parallelRecord("swim", "base", 600));
    exec::JobRecord failed = parallelRecord("swim", "fast", 0);
    failed.status = exec::JobStatus::CheckViolation;
    memory.consume(failed);

    // The Average covers art alone, and the report says why.
    EXPECT_EQ(render("speedup:base", spec, memory),
              "# speedup vs base (quota=1000/core)\n"
              "app                fast\n"
              "art              1.2500\n"
              "# skipped swim: fast failed\n"
              "Average          1.2500\n");
}

TEST(ExecReport, MultiprogSpeedupDividesWeightedSpeedups)
{
    const exec::SweepSpec spec =
        specWith(exec::SweepSpec::Mode::Multiprog, true,
                 {"parbs", "crit"});
    exec::MemorySink memory;
    exec::JobRecord alone;
    alone.spec.name = "alone/mcf";
    alone.spec.kind = exec::RunKind::Alone;
    alone.spec.workload = "mcf";
    memory.consume(alone);
    memory.consume(bundleRecord("RFGI", "parbs", 2.0, 1.5));
    memory.consume(bundleRecord("RFGI", "crit", 2.5, 1.2));
    exec::JobRecord bare = bundleRecord("RGTM", "parbs", 0.0, 0.0);
    bare.fairness = fair::FairnessMetrics{};
    memory.consume(bare);
    memory.consume(bundleRecord("RGTM", "crit", 2.0, 1.0));

    EXPECT_EQ(render("speedup:parbs", spec, memory),
              "# weighted speedup vs parbs (quota=1000/core)\n"
              "bundle             crit\n"
              "RFGI             1.2500\n"
              "# skipped RGTM: parbs has no fairness metrics\n"
              "Average          1.2500\n");
}

TEST(ExecReport, MetricColumnsArePerVariant)
{
    const exec::SweepSpec spec =
        specWith(exec::SweepSpec::Mode::Parallel, false, {"a", "b"});
    exec::MemorySink memory;
    exec::JobRecord a = parallelRecord("art", "a", 100);
    a.result.dynamicLoads = 200;
    a.result.blockingLoads = 10;
    exec::JobRecord b = parallelRecord("art", "b", 100);
    b.result.dynamicLoads = 400;
    b.result.blockingLoads = 10;
    memory.consume(a);
    memory.consume(b);

    EXPECT_EQ(render("metric:rob-block-loads", spec, memory),
              "# metrics (quota=1000/core)\n"
              "app        a:rob-block-loads b:rob-block-loads\n"
              "art                     5.00              2.50\n"
              "Average                 5.00              2.50\n");
}

TEST(ExecReport, SpeedupColumnListPicksItsOwnBase)
{
    // Two baselines in one spec: each report divides by its own.
    const exec::SweepSpec spec =
        specWith(exec::SweepSpec::Mode::Parallel, false,
                 {"a-frf", "a-crit", "b-frf", "b-crit"});
    exec::MemorySink memory;
    memory.consume(parallelRecord("art", "a-frf", 1000));
    memory.consume(parallelRecord("art", "a-crit", 800));
    memory.consume(parallelRecord("art", "b-frf", 600));
    memory.consume(parallelRecord("art", "b-crit", 400));

    EXPECT_EQ(render("speedup:b-frf:b-crit", spec, memory),
              "# speedup vs b-frf (quota=1000/core)\n"
              "app              b-crit\n"
              "art              1.5000\n"
              "Average          1.5000\n");
}

TEST(ExecReport, PeakMetricsEndInAMaxRow)
{
    const exec::SweepSpec spec =
        specWith(exec::SweepSpec::Mode::Parallel, false, {"max"});
    exec::MemorySink memory;
    exec::JobRecord art = parallelRecord("art", "max", 100);
    art.result.maxCbpValue = 4855;
    exec::JobRecord swim = parallelRecord("swim", "max", 100);
    swim.result.maxCbpValue = 1000;
    memory.consume(art);
    memory.consume(swim);

    EXPECT_EQ(render("metric:cbp-max,cbp-bits", spec, memory),
              "# metrics (quota=1000/core)\n"
              "app         max:cbp-max max:cbp-bits\n"
              "art                4855           13\n"
              "swim               1000           10\n"
              "Max                4855           13\n");
}

TEST(ExecReport, RefusesReportsItCannotRender)
{
    const exec::SweepSpec parallel =
        specWith(exec::SweepSpec::Mode::Parallel, false, {"base"});
    const exec::SweepSpec bundles =
        specWith(exec::SweepSpec::Mode::Multiprog, false, {"base"});
    EXPECT_THROW(exec::checkReport("speedup:nosuch", parallel),
                 std::runtime_error);
    EXPECT_THROW(exec::checkReport("metric:nosuch", parallel),
                 std::runtime_error);
    EXPECT_THROW(exec::checkReport("metric:", parallel),
                 std::runtime_error);
    EXPECT_THROW(exec::checkReport("table", parallel),
                 std::runtime_error);
    // Weighted speedup and max slowdown need the alone runs.
    EXPECT_THROW(exec::checkReport("speedup:base", bundles),
                 std::runtime_error);
    EXPECT_THROW(exec::checkReport("metric:max-slowdown", parallel),
                 std::runtime_error);
    EXPECT_THROW(exec::checkReport("speedup:base:nosuch", parallel),
                 std::runtime_error);
    EXPECT_THROW(exec::checkReport("speedup::base", parallel),
                 std::runtime_error);
    // A Max row and an Average row cannot close one table.
    EXPECT_THROW(exec::checkReport("metric:cbp-max,lq-full", parallel),
                 std::runtime_error);
    EXPECT_NO_THROW(exec::checkReport("speedup:base", parallel));
    EXPECT_NO_THROW(exec::checkReport("speedup:base:base", parallel));
    EXPECT_NO_THROW(exec::checkReport("metric:lq-full", bundles));
    EXPECT_NO_THROW(exec::checkReport("failures", parallel));
}

} // namespace
