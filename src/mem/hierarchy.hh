/**
 * @file
 * The full cache hierarchy: per-core iL1/dL1 with MSHRs, an inclusive
 * shared L2 with MSHRs, a MESI-style invalidation directory, the L2
 * stream prefetcher, and the connection to the DRAM subsystem.
 *
 * Timing model: a dL1 hit completes after the configured round-trip
 * latency. A dL1 miss reaches the L2 after the dL1 latency; an L2 hit
 * returns after the L2 round-trip latency; an L2 miss pays a quarter
 * of the L2 latency to the controller, the DRAM service time, and a
 * quarter of the L2 latency back. MSHR capacity and DRAM queue
 * capacity exert backpressure through retry lists.
 */

#ifndef CRITMEM_MEM_HIERARCHY_HH
#define CRITMEM_MEM_HIERARCHY_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "dram/dram.hh"
#include "mem/cache.hh"
#include "mem/prefetcher.hh"
#include "mem/request.hh"
#include "sim/config.hh"
#include "sim/flat_table.hh"
#include "sim/stats.hh"
#include "sim/timing_wheel.hh"
#include "sim/types.hh"

namespace critmem
{

/**
 * The record a finished core-side access hands back to its core: what
 * finished and which core it belongs to, plus the load's ROB slot or
 * the address the store or fetch was issued with.
 */
struct Completion
{
    enum class Kind : std::uint8_t
    {
        Load,
        Store,
        Fetch,
    };

    Addr addr = 0;           ///< store/fetch: the issued address
    CoreId core = 0;
    std::uint32_t slot = 0;  ///< load: the issuing ROB slot
    Kind kind = Kind::Load;
};

/** Receives one core's completions (the Core itself, or a test). */
class CompletionSink
{
  public:
    virtual void complete(const Completion &done) = 0;

  protected:
    ~CompletionSink() = default;
};

/**
 * Caches + directory + prefetcher + DRAM connection. The hierarchy is
 * its DRAM system's sink: a finished read or prefetch fills the L2.
 */
class MemHierarchy : public DramSink
{
  public:
    MemHierarchy(const SystemConfig &cfg, DramSystem &dram,
                 stats::Group &parent);

    /**
     * Route @p core's completions to @p sink, which must outlive the
     * hierarchy's use of that core. Every core that issues accesses
     * needs a sink.
     */
    void attach(CoreId core, CompletionSink &sink);

    /**
     * Issue a data load; completes as Completion{Load, @p slot}.
     * @param crit Criticality magnitude to piggyback on an L2 miss.
     * @return false when the dL1 MSHR file is full (retry next cycle).
     */
    bool load(CoreId core, Addr addr, CritLevel crit, std::uint32_t slot);

    /**
     * Issue a committed store (write-allocate, write-back); completes
     * as Completion{Store, @p addr}.
     */
    bool store(CoreId core, Addr addr);

    /**
     * Issue an instruction fetch for the block holding @p pc;
     * completes as Completion{Fetch, @p pc}.
     */
    bool fetch(CoreId core, Addr pc);

    /**
     * Pipelined-fetch fast path: probe the iL1 for @p pc's block,
     * touching LRU on a hit.
     * @return true on an iL1 hit (no stall needed).
     */
    bool fetchProbe(CoreId core, Addr pc);

    /** Advance one CPU cycle: fire due events, run retry lists. */
    void tick(Cycle now);

    /**
     * Earliest CPU cycle > @p now at which tick() would do anything
     * besides counting rejected DRAM retries: the next scheduled
     * event, or "next cycle" while an L2 MSHR retry is waiting or a
     * DRAM channel some retry waits on has dequeued since the retries
     * were last offered. kNoCycle when fully quiescent.
     */
    Cycle nextEventCycle(Cycle now) const;

    /**
     * Advance the clock across a certified-idle skip window, counting
     * the DRAM retries every skipped tick would have had rejected.
     */
    void skipTo(Cycle to);

    /** A DRAM read or prefetch finished: fill its L2 block. */
    void dramComplete(const MemRequest &req) override;

    /**
     * Raise the criticality of an in-flight L2 miss (Section 5.1
     * naive forwarding). No effect if the block is no longer queued.
     */
    void promote(CoreId core, Addr addr, CritLevel crit);

    /** @return true when no access is in flight anywhere. */
    bool quiescent() const;

    Cycle now() const { return now_; }

    /** Aggregate statistics. */
    struct Stats
    {
        explicit Stats(stats::Group &parent);

        stats::Group group;
        stats::Scalar loads;
        stats::Scalar stores;
        stats::Scalar fetches;
        stats::Scalar l1MshrFull;
        stats::Scalar l2MshrFull;
        stats::Scalar dramRejects;
        stats::Scalar demandMisses;
        stats::Scalar coherenceTransfers;
        stats::Scalar prefetchUseful;
        stats::Average l2MissLatCrit;
        stats::Average l2MissLatNonCrit;
    };

    const Stats &memStats() const { return stats_; }

    Cache &dl1(CoreId core) { return *dl1_[core]; }
    Cache &l2() { return *l2_; }

  private:
    /** A miss outstanding at L1 level (one per core x block). */
    struct L1Entry
    {
        ListPool<Completion>::List waiters;
        CritLevel crit = 0;
        bool rfo = false; ///< a store needs exclusive ownership
    };

    /** Per-core L1 MSHRs, keyed by the L1-aligned block address. */
    using L1MshrTable = FlatTable<L1Entry>;

    /** Identifies one L1 MSHR entry waiting on an L2 fill. */
    struct L2Waiter
    {
        Addr l1Block = 0;
        CoreId core = 0;
        bool isInst = false;
        bool rfo = false;
    };

    /** A miss outstanding at L2 level (one per L2 block). */
    struct L2Entry
    {
        ListPool<L2Waiter>::List waiters;
        CritLevel crit = 0;
        bool demand = false;
        bool sentToDram = false;
        Cycle started = 0;
        CoreId firstCore = 0;
    };

    /**
     * One scheduled hierarchy action: a finished access to hand back
     * (Complete), an L1 miss reaching the L2 (L2Access), or an L2
     * response reaching an L1 (Deliver). Complete carries the
     * Completion's fields; the others carry an L2Waiter's.
     */
    struct Event
    {
        enum class Kind : std::uint8_t
        {
            Complete,
            L2Access,
            Deliver,
        };

        Addr addr = 0; ///< Complete: the issued address; else l1Block
        CoreId core = 0;
        std::uint32_t slot = 0; ///< Complete: the load's ROB slot
        Kind kind = Kind::Complete;
        Completion::Kind done = Completion::Kind::Load; ///< Complete
        bool isInst = false;    ///< L2Access, Deliver
        bool rfo = false;       ///< L2Access, Deliver
    };

    void scheduleDone(Cycle at, const Completion &done);
    void scheduleL2(Cycle at, Event::Kind kind, const L2Waiter &waiter);
    void fire(const Event &event);
    void complete(const Completion &done);
    void l2Access(CoreId core, Addr l1Block, bool isInst, bool rfo);
    void l2Fill(Addr l2Block);
    void deliverToL1(const L2Waiter &waiter);
    bool sendToDram(Addr l2Block, L2Entry &entry);
    void writebackToDram(Addr l2Block, CoreId core);
    /** Count a DRAM retry of @p block on its channel. */
    void noteRetry(Addr block);
    /** @return true when re-offering the DRAM retries could succeed. */
    bool retryDue() const;
    /** Re-offer every DRAM retry, in list order. */
    void retryDram();
    /** Count @p ticks rounds of certainly-rejected DRAM retries. */
    void rejectRetries(std::uint64_t ticks);
    void issuePrefetches(Addr l2Block);
    void evictFromL2(const Cache::Victim &victim);
    void invalidateSharers(Addr l1Block, CoreId except);
    /** @return core holding @p l1Block modified, or kNoCore. */
    CoreId modifiedOwner(Addr l1Block, CoreId except) const;

    SystemConfig cfg_;
    DramSystem &dram_;
    stats::Group group_;

    std::vector<std::unique_ptr<Cache>> il1_;
    std::vector<std::unique_ptr<Cache>> dl1_;
    std::unique_ptr<Cache> l2_;
    std::unique_ptr<StreamPrefetcher> prefetcher_;

    std::vector<CompletionSink *> sinks_;

    std::vector<L1MshrTable> iMshr_;
    std::vector<L1MshrTable> dMshr_;
    FlatTable<L2Entry> l2Mshr_;
    /** Waiters of every L1 and L2 MSHR entry, recycled. */
    ListPool<Completion> l1Waiters_;
    ListPool<L2Waiter> l2Waiters_;

    /** dL1-block address -> bitmask of cores with a copy. */
    FlatTable<std::uint32_t> directory_;

    /** (core, l1Block, isInst, rfo) waiting for an L2 MSHR slot. */
    std::vector<L2Waiter> l2MshrRetry_;
    /** L2 blocks whose DRAM enqueue was rejected. */
    std::vector<Addr> dramRetry_;
    /** L2 blocks whose writeback DRAM enqueue was rejected. */
    std::vector<Addr> writebackRetry_;

    /**
     * Per DRAM channel: how many entries of the two DRAM retry lists
     * target it, and its dequeue count when they were last offered.
     * A rejected entry's queue stays full until that count moves, so
     * until then each tick's retry round is counted in bulk instead of
     * re-offered (DESIGN.md §11).
     */
    struct RetryChannel
    {
        std::uint64_t waiting = 0;
        std::uint64_t dequeuesSeen = 0;
    };
    std::vector<RetryChannel> retryChannels_;

    /**
     * tick()'s drain loops swap the retry lists into these persistent
     * scratch buffers; reusing their capacity keeps the per-cycle
     * path free of heap allocation (the hot-path-alloc lint rule).
     */
    std::vector<L2Waiter> l2RetryScratch_;
    std::vector<Addr> dramRetryScratch_;
    std::vector<Addr> wbRetryScratch_;

    /** Pending events, popped in (cycle, schedule order) order. */
    TimingWheel<Event> events_;
    Cycle now_ = 0;
    std::vector<Addr> prefetchScratch_;

    Stats stats_;
};

} // namespace critmem

#endif // CRITMEM_MEM_HIERARCHY_HH
