#include "exec/report.hh"

#include <algorithm>
#include <array>
#include <cstdarg>
#include <cstdio>
#include <map>
#include <stdexcept>
#include <utility>
#include <vector>

#include "crit/overhead.hh"
#include "fair/metrics.hh"

namespace critmem::exec
{

namespace
{

[[noreturn]] void
bad(const std::string &what)
{
    throw std::runtime_error(what);
}

__attribute__((format(printf, 2, 3))) void
appendf(std::string &out, const char *fmt, ...)
{
    char buffer[512];
    va_list args;
    va_start(args, fmt);
    const int n = std::vsnprintf(buffer, sizeof(buffer), fmt, args);
    va_end(args);
    if (n > 0)
        out.append(buffer, std::min<std::size_t>(
                               static_cast<std::size_t>(n),
                               sizeof(buffer) - 1));
}

std::vector<std::string>
splitNames(const std::string &text)
{
    std::vector<std::string> names;
    std::size_t from = 0;
    while (from <= text.size()) {
        const std::size_t comma = std::min(text.find(',', from),
                                           text.size());
        if (comma > from)
            names.push_back(text.substr(from, comma - from));
        from = comma + 1;
    }
    return names;
}

/** One metric:NAME column source. */
struct Metric
{
    const char *name;
    int precision;
    /** Read from the fairness annotation (needs alone = 1). */
    bool fairness;
    /** A peak: the table's summary row is the Max, not the Average. */
    bool peak;
    double (*value)(const JobRecord &rec);
};

double
percent(std::uint64_t part, std::uint64_t whole)
{
    return whole == 0 ? 0.0
                      : 100.0 * static_cast<double>(part) /
            static_cast<double>(whole);
}

const std::array<Metric, 8> kMetrics = {{
    // Fig. 1: % of dynamic loads that block the ROB head, and % of
    // core cycles the head is blocked by a load.
    {"rob-block-loads", 2, false, false,
     [](const JobRecord &rec) {
         return percent(rec.result.blockingLoads,
                        rec.result.dynamicLoads);
     }},
    {"rob-block-time", 2, false, false,
     [](const JobRecord &rec) {
         return percent(rec.result.robBlockedCycles,
                        rec.result.coreCycles);
     }},
    // Fig. 6: mean L2 miss latency (CPU cycles) by criticality.
    {"l2-lat-crit", 1, false, false,
     [](const JobRecord &rec) { return rec.result.l2MissLatCrit; }},
    {"l2-lat-noncrit", 1, false, false,
     [](const JobRecord &rec) { return rec.result.l2MissLatNonCrit; }},
    // Fig. 9: % of core cycles the load queue is full.
    {"lq-full", 4, false, false,
     [](const JobRecord &rec) {
         return percent(rec.result.lqFullCycles, rec.result.coreCycles);
     }},
    // Table 5: the largest CBP counter value observed, and the bits
    // needed to hold it. counterWidth is monotone, so the Max row's
    // width is the width of the Max row's value.
    {"cbp-max", 0, false, true,
     [](const JobRecord &rec) {
         return static_cast<double>(rec.result.maxCbpValue);
     }},
    {"cbp-bits", 0, false, true,
     [](const JobRecord &rec) {
         return static_cast<double>(
             counterWidth(rec.result.maxCbpValue));
     }},
    // Fig. 12: the largest per-application slowdown of a bundle.
    {"max-slowdown", 4, true, false,
     [](const JobRecord &rec) { return rec.fairness.maxSlowdown; }},
}};

const Metric *
findMetric(const std::string &name)
{
    for (const Metric &metric : kMetrics) {
        if (name == metric.name)
            return &metric;
    }
    return nullptr;
}

/**
 * A figure table: a label column, one fixed-width column per series,
 * then a summary row over the rows it printed: their Average, or
 * their Max for a table of peaks.
 */
class Table
{
  public:
    Table(std::string &out, const std::vector<std::string> &columns,
          std::vector<int> precisions, const char *first,
          bool peak = false)
        : out_(out), precisions_(std::move(precisions)), peak_(peak),
          sums_(columns.size(), 0.0), maxes_(columns.size(), 0.0)
    {
        appendf(out_, "%-10s", first);
        for (const std::string &col : columns) {
            widths_.push_back(
                std::max(12, static_cast<int>(col.size())));
            appendf(out_, " %*s", widths_.back(), col.c_str());
        }
        out_ += '\n';
    }

    void
    row(const std::string &label, const std::vector<double> &values)
    {
        print(label, values);
        for (std::size_t i = 0; i < values.size(); ++i) {
            sums_[i] += values[i];
            maxes_[i] = rows_ == 0 ? values[i]
                                   : std::max(maxes_[i], values[i]);
        }
        ++rows_;
    }

    void
    skip(const std::string &label, const std::string &why)
    {
        appendf(out_, "# skipped %s: %s\n", label.c_str(), why.c_str());
    }

    void
    summary()
    {
        if (rows_ == 0) {
            out_ += "# no complete rows to summarize\n";
            return;
        }
        if (peak_) {
            print("Max", maxes_);
            return;
        }
        std::vector<double> avg(sums_);
        for (double &value : avg)
            value /= static_cast<double>(rows_);
        print("Average", avg);
    }

  private:
    void
    print(const std::string &label, const std::vector<double> &values)
    {
        appendf(out_, "%-10s", label.c_str());
        for (std::size_t i = 0; i < values.size(); ++i)
            appendf(out_, " %*.*f", widths_[i], precisions_[i],
                    values[i]);
        out_ += '\n';
    }

    std::string &out_;
    std::vector<int> widths_;
    std::vector<int> precisions_;
    bool peak_;
    std::vector<double> sums_;
    std::vector<double> maxes_;
    std::size_t rows_ = 0;
};

/** Workloads with variant records, in submission order. */
std::vector<std::string>
workloadRows(const MemorySink &memory)
{
    std::vector<std::string> order;
    for (const JobRecord &rec : memory.records()) {
        if (rec.spec.tags.count("variant") != 0 &&
            std::find(order.begin(), order.end(), rec.spec.workload) ==
                order.end())
            order.push_back(rec.spec.workload);
    }
    return order;
}

/**
 * The records of @p workload under each of @p variants, or an empty
 * vector with @p why naming the first one a table cannot use.
 */
std::vector<const JobRecord *>
rowRecords(const MemorySink &memory, const std::string &workload,
           const std::vector<std::string> &variants, bool fairness,
           std::string &why)
{
    std::vector<const JobRecord *> recs;
    for (const std::string &variant : variants) {
        const JobRecord *rec = memory.find(workload + "/" + variant);
        if (rec == nullptr)
            why = variant + " did not run";
        else if (!rec->ok())
            why = variant + " failed";
        else if (fairness && !rec->fairness.valid)
            why = variant + " has no fairness metrics";
        else {
            recs.push_back(rec);
            continue;
        }
        return {};
    }
    return recs;
}

const char *
rowLabel(const SweepSpec &spec)
{
    return spec.mode == SweepSpec::Mode::Multiprog ? "bundle" : "app";
}

/** The BASE and COL list of a "speedup:BASE[:COL,...]" report. */
struct SpeedupArgs
{
    std::string base;
    /** The variants to compare; every one but BASE when empty. */
    std::vector<std::string> columns;
};

SpeedupArgs
speedupArgs(const std::string &report)
{
    const std::string args = report.substr(8);
    const std::size_t colon = args.find(':');
    if (colon == std::string::npos)
        return {args, {}};
    return {args.substr(0, colon), splitNames(args.substr(colon + 1))};
}

std::string
speedupReport(const SpeedupArgs &args, const SweepSpec &spec,
              const MemorySink &memory)
{
    const bool bundles = spec.mode == SweepSpec::Mode::Multiprog;
    const std::string &base = args.base;
    std::vector<std::string> variants{base};
    if (args.columns.empty()) {
        for (const SweepVariant &variant : spec.variants) {
            if (variant.name != base)
                variants.push_back(variant.name);
        }
    } else {
        variants.insert(variants.end(), args.columns.begin(),
                        args.columns.end());
    }
    const std::vector<std::string> columns(variants.begin() + 1,
                                           variants.end());

    std::string out;
    appendf(out, "# %s vs %s (quota=%llu/core)\n",
            bundles ? "weighted speedup" : "speedup", base.c_str(),
            static_cast<unsigned long long>(spec.quota));
    Table table(out, columns, std::vector<int>(columns.size(), 4),
                rowLabel(spec));
    for (const std::string &workload : workloadRows(memory)) {
        std::string why;
        const std::vector<const JobRecord *> recs =
            rowRecords(memory, workload, variants, bundles, why);
        if (recs.empty()) {
            table.skip(workload, why);
            continue;
        }
        std::vector<double> row;
        for (std::size_t i = 1; i < recs.size(); ++i) {
            // Parallel: execution-time ratio. Bundles: weighted
            // speedup ratio against the same alone runs.
            row.push_back(bundles
                              ? recs[i]->fairness.weightedSpeedup /
                                  recs[0]->fairness.weightedSpeedup
                              : static_cast<double>(
                                    recs[0]->result.cycles) /
                                  static_cast<double>(
                                      recs[i]->result.cycles));
        }
        table.row(workload, row);
    }
    table.summary();
    return out;
}

std::string
metricReport(const std::vector<std::string> &names,
             const SweepSpec &spec, const MemorySink &memory)
{
    std::vector<const Metric *> metrics;
    bool fairness = false;
    for (const std::string &name : names) {
        metrics.push_back(findMetric(name));
        fairness = fairness || metrics.back()->fairness;
    }
    // checkReport() refuses a table mixing peaks with averages.
    const bool peak = metrics.front()->peak;
    std::vector<std::string> variants;
    std::vector<std::string> columns;
    std::vector<int> precisions;
    for (const SweepVariant &variant : spec.variants) {
        variants.push_back(variant.name);
        for (const Metric *metric : metrics) {
            columns.push_back(variant.name + ":" + metric->name);
            precisions.push_back(metric->precision);
        }
    }

    std::string out;
    appendf(out, "# metrics (quota=%llu/core)\n",
            static_cast<unsigned long long>(spec.quota));
    Table table(out, columns, precisions, rowLabel(spec), peak);
    for (const std::string &workload : workloadRows(memory)) {
        std::string why;
        const std::vector<const JobRecord *> recs =
            rowRecords(memory, workload, variants, fairness, why);
        if (recs.empty()) {
            table.skip(workload, why);
            continue;
        }
        std::vector<double> row;
        for (const JobRecord *rec : recs) {
            for (const Metric *metric : metrics)
                row.push_back(metric->value(*rec));
        }
        table.row(workload, row);
    }
    table.summary();
    return out;
}

/** One scheduler's metrics on one workload. */
struct ArenaCell
{
    std::string variant;
    fair::FairnessMetrics metrics;
};

void
printRanking(std::string &out, const std::vector<ArenaCell> &cells)
{
    appendf(out, "  %4s %-18s %10s %10s %10s %10s\n", "rank", "sched",
            "ws", "hs", "maxslow", "unfair");
    for (std::size_t i = 0; i < cells.size(); ++i) {
        const fair::FairnessMetrics &m = cells[i].metrics;
        appendf(out, "  %4zu %-18s %10.4f %10.4f %10.4f %10.4f\n",
                i + 1, cells[i].variant.c_str(), m.weightedSpeedup,
                m.harmonicSpeedup, m.maxSlowdown, m.unfairness);
    }
}

/** Rank by weighted speedup (desc), then name — fully deterministic. */
void
sortCells(std::vector<ArenaCell> &cells)
{
    std::sort(cells.begin(), cells.end(),
              [](const ArenaCell &a, const ArenaCell &b) {
                  if (a.metrics.weightedSpeedup !=
                      b.metrics.weightedSpeedup) {
                      return a.metrics.weightedSpeedup >
                          b.metrics.weightedSpeedup;
                  }
                  return a.variant < b.variant;
              });
}

std::string
arenaReport(const SweepSpec &spec, const MemorySink &memory)
{
    // Group valid bundle records by workload, in submission order so
    // the report bytes are independent of thread count.
    std::vector<std::string> workloadOrder;
    std::map<std::string, std::vector<ArenaCell>> byWorkload;
    for (const JobRecord &rec : memory.records()) {
        if (rec.spec.kind != RunKind::Bundle || !rec.fairness.valid)
            continue;
        const auto tag = rec.spec.tags.find("variant");
        if (tag == rec.spec.tags.end())
            continue;
        auto [it, fresh] = byWorkload.try_emplace(rec.spec.workload);
        if (fresh)
            workloadOrder.push_back(rec.spec.workload);
        it->second.push_back({tag->second, rec.fairness});
    }

    std::string out;
    appendf(out, "# arena leaderboard (quota=%llu/core, %zu workloads)\n",
            static_cast<unsigned long long>(spec.quota),
            workloadOrder.size());
    for (const std::string &workload : workloadOrder) {
        std::vector<ArenaCell> &cells = byWorkload[workload];
        sortCells(cells);
        appendf(out, "== %s ==\n", workload.c_str());
        printRanking(out, cells);
    }

    // Overall: mean metrics per scheduler across the workloads it
    // completed, ranked like the per-workload tables.
    std::map<std::string, std::pair<fair::FairnessMetrics, std::size_t>>
        totals;
    for (const std::string &workload : workloadOrder) {
        for (const ArenaCell &cell : byWorkload[workload]) {
            auto &[sum, count] = totals[cell.variant];
            sum.weightedSpeedup += cell.metrics.weightedSpeedup;
            sum.harmonicSpeedup += cell.metrics.harmonicSpeedup;
            sum.maxSlowdown += cell.metrics.maxSlowdown;
            sum.unfairness += cell.metrics.unfairness;
            ++count;
        }
    }
    std::vector<ArenaCell> overall;
    overall.reserve(totals.size());
    for (const auto &[variant, total] : totals) {
        ArenaCell cell{variant, total.first};
        const double n = static_cast<double>(total.second);
        cell.metrics.weightedSpeedup /= n;
        cell.metrics.harmonicSpeedup /= n;
        cell.metrics.maxSlowdown /= n;
        cell.metrics.unfairness /= n;
        overall.push_back(std::move(cell));
    }
    sortCells(overall);
    out += "== overall (mean across workloads) ==\n";
    printRanking(out, overall);
    return out;
}

std::string
failuresReport(const MemorySink &memory, std::size_t totalJobs)
{
    // The map sorts the summary cells, so two runs of the same
    // campaign print identical bytes for any --jobs.
    std::map<std::array<std::string, 3>, std::size_t> cells;
    std::size_t failures = 0;
    for (const JobRecord &rec : memory.records()) {
        if (rec.ok())
            continue;
        ++failures;
        const auto tag = rec.spec.tags.find("variant");
        ++cells[{toString(rec.status),
                 tag != rec.spec.tags.end() ? tag->second : "-",
                 rec.spec.workload}];
    }
    std::string out;
    if (failures == 0)
        return "# failures: none\n";
    appendf(out, "# failures: %zu of %zu job(s)\n", failures, totalJobs);
    appendf(out, "%-10s %-14s %-16s %s\n", "status", "variant",
            "workload", "count");
    for (const auto &cell : cells)
        appendf(out, "%-10s %-14s %-16s %zu\n", cell.first[0].c_str(),
                cell.first[1].c_str(), cell.first[2].c_str(),
                cell.second);
    out += "# repro\n";
    for (const JobRecord &rec : memory.records()) {
        if (!rec.ok())
            out += reproCommand(rec.spec) + "\n";
    }
    return out;
}

} // namespace

void
checkReport(const std::string &report, const SweepSpec &spec)
{
    const bool haveAlone =
        spec.mode == SweepSpec::Mode::Multiprog && spec.alone;
    if (report == "arena" || report == "failures")
        return;
    if (report.rfind("speedup:", 0) == 0) {
        const SpeedupArgs args = speedupArgs(report);
        if (args.base.empty())
            bad("report '" + report + "' names no base variant");
        std::vector<std::string> named{args.base};
        named.insert(named.end(), args.columns.begin(),
                     args.columns.end());
        for (const std::string &name : named) {
            if (std::none_of(spec.variants.begin(), spec.variants.end(),
                             [&](const SweepVariant &variant) {
                                 return variant.name == name;
                             }))
                bad("report '" + report +
                    "': the spec has no variant '" + name + "'");
        }
        if (spec.mode == SweepSpec::Mode::Multiprog && !haveAlone)
            bad("report '" + report + "': a multiprog speedup "
                "compares weighted speedups and needs alone = 1");
        return;
    }
    if (report.rfind("metric:", 0) == 0) {
        const std::vector<std::string> names =
            splitNames(report.substr(7));
        if (names.empty())
            bad("report '" + report + "' names no metric");
        for (const std::string &name : names) {
            const Metric *metric = findMetric(name);
            if (metric == nullptr) {
                std::string known;
                for (const Metric &each : kMetrics)
                    known += std::string(known.empty() ? "" : ", ") +
                        each.name;
                bad("report '" + report + "': unknown metric '" + name +
                    "' (known: " + known + ")");
            }
            if (metric->fairness && !haveAlone)
                bad("report '" + report + "': " + name +
                    " needs a multiprog sweep with alone = 1");
            if (metric->peak != findMetric(names.front())->peak)
                bad("report '" + report + "': peak metrics (Max row) "
                    "and averaged metrics need separate reports");
        }
        return;
    }
    bad("unknown report '" + report +
        "' (arena, failures, speedup:BASE[:COL[,COL...]], "
        "metric:NAME[,NAME...])");
}

std::string
renderReport(const std::string &report, const SweepSpec &spec,
             const MemorySink &memory, std::size_t totalJobs)
{
    if (report == "arena")
        return arenaReport(spec, memory);
    if (report == "failures")
        return failuresReport(memory, totalJobs);
    if (report.rfind("speedup:", 0) == 0)
        return speedupReport(speedupArgs(report), spec, memory);
    return metricReport(splitNames(report.substr(7)), spec, memory);
}

} // namespace critmem::exec
