/**
 * @file
 * Post-campaign reports behind `critmem-sweep --report`: text tables
 * built from a finished campaign's in-memory records, in the layout
 * every reproduced figure and table prints (one row per workload,
 * then an Average row, or a Max row for a table of peaks). Each
 * figure's spec under specs/ names the reports that print it.
 *
 *   speedup:BASE      speedup of every other variant over variant
 *                     BASE. Parallel sweeps divide cycles (BASE /
 *                     variant); multiprog sweeps divide weighted
 *                     speedups (variant / BASE) taken from the
 *                     fairness annotation, so they need alone = 1.
 *   speedup:BASE:COL[,COL...]
 *                     the same for the listed variants only, so one
 *                     spec can hold several baselines.
 *   metric:NAME[,..]  one column per (variant, NAME); the names are
 *                     the rows of kMetrics in report.cc. The peak
 *                     metrics (cbp-max, cbp-bits) end in a Max row
 *                     and cannot share a table with averaged ones.
 *   arena             the scheduler leaderboard: per-workload
 *                     rankings and the overall table by the fairness
 *                     metrics (needs alone = 1 bundle sweeps).
 *   failures          the failure summary (status x variant x
 *                     workload) plus a repro line per failed job.
 *
 * A workload whose row lacks a record it needs (a failed job, or a
 * bundle without fairness metrics) is left out of the table and of
 * its Average, and a "# skipped WORKLOAD: ..." line says so.
 * Reports read the records in submission order, so their bytes never
 * depend on the number of worker threads.
 */

#ifndef CRITMEM_EXEC_REPORT_HH
#define CRITMEM_EXEC_REPORT_HH

#include <cstddef>
#include <string>

#include "exec/result_sink.hh"
#include "exec/sweep.hh"

namespace critmem::exec
{

/**
 * Refuse a report that cannot be rendered for @p spec: an unknown
 * mode or metric name, a BASE that names no variant, or a fairness
 * report on a sweep without alone-run baselines. Throws
 * std::runtime_error; drivers call it before running the campaign.
 */
void checkReport(const std::string &report, const SweepSpec &spec);

/**
 * Render @p report (already accepted by checkReport) over the
 * records of a finished campaign. @p totalJobs is the campaign size,
 * quoted by the failures report.
 */
std::string renderReport(const std::string &report,
                         const SweepSpec &spec, const MemorySink &memory,
                         std::size_t totalJobs);

} // namespace critmem::exec

#endif // CRITMEM_EXEC_REPORT_HH
