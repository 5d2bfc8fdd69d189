/**
 * @file
 * Extension experiment: the CBP counter options Section 5.3 mentions
 * but does not explore — saturating counters narrower than the
 * worst-case width of Table 5, and probabilistic accumulation (Riley
 * & Zilles [21]) for the accumulating annotations. The question: how
 * much performance does shaving counter bits actually cost, i.e. was
 * the paper right that sizing for the observed maximum is not
 * essential?
 */

#include <map>
#include <tuple>
#include <vector>

#include "bench/bench_util.hh"

using namespace critmem;
using namespace critmem::bench;

namespace
{

/**
 * Mean speedup over FR-FCFS across the parallel apps, per counter
 * setting. The FR-FCFS baselines are simulated once, and a setting
 * that appears in both tables (the exact counters) only once.
 */
class CounterSweep
{
  public:
    explicit CounterSweep(std::uint64_t q) : q_(q)
    {
        for (const AppParams &app : parallelApps())
            bases_.push_back(runParallel(parallelBase(), app, q_));
    }

    double
    avgSpeedup(CritPredictor pred, std::uint32_t width,
               std::uint32_t probShift)
    {
        const auto key = std::make_tuple(pred, width, probShift);
        if (const auto it = cells_.find(key); it != cells_.end())
            return it->second;
        SystemConfig cfg = withPredictor(parallelBase(), pred, 64);
        cfg.crit.counterWidth = width;
        cfg.crit.probShift = probShift;
        double sum = 0.0;
        const auto &apps = parallelApps();
        for (std::size_t i = 0; i < apps.size(); ++i)
            sum += speedup(bases_[i], runParallel(cfg, apps[i], q_));
        const double mean = sum / static_cast<double>(apps.size());
        cells_.emplace(key, mean);
        return mean;
    }

  private:
    std::uint64_t q_;
    std::vector<RunResult> bases_;
    std::map<std::tuple<CritPredictor, std::uint32_t, std::uint32_t>,
             double>
        cells_;
};

} // namespace

int
main()
{
    setQuiet(true);
    const std::uint64_t q = quota(16000);
    std::printf("# Extension: saturating / probabilistic CBP counters "
                "(quota=%llu/core)\n",
                static_cast<unsigned long long>(q));

    CounterSweep sweep(q);
    std::printf("%-16s %10s %10s %10s %10s\n", "annotation", "full",
                "8-bit", "6-bit", "4-bit");
    for (const CritPredictor pred :
         {CritPredictor::CbpMaxStall, CritPredictor::CbpTotalStall,
          CritPredictor::CbpBlockCount}) {
        std::printf("%-16s %10.4f %10.4f %10.4f %10.4f\n",
                    toString(pred), sweep.avgSpeedup(pred, 0, 0),
                    sweep.avgSpeedup(pred, 8, 0),
                    sweep.avgSpeedup(pred, 6, 0),
                    sweep.avgSpeedup(pred, 4, 0));
    }

    std::printf("\n%-16s %10s %10s %10s\n", "annotation", "exact",
                "prob 2^-2", "prob 2^-4");
    for (const CritPredictor pred :
         {CritPredictor::CbpTotalStall, CritPredictor::CbpBlockCount}) {
        std::printf("%-16s %10.4f %10.4f %10.4f\n", toString(pred),
                    sweep.avgSpeedup(pred, 0, 0),
                    sweep.avgSpeedup(pred, 10, 2),
                    sweep.avgSpeedup(pred, 8, 4));
    }
    std::printf("# the magnitudes only feed an ordering comparator, "
                "so modest truncation should cost little — the\n"
                "# paper's Table 5 worst-case sizing is conservative\n");
    return 0;
}
