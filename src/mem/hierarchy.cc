#include "mem/hierarchy.hh"

#include <algorithm>

#include "sim/log.hh"

namespace critmem
{

MemHierarchy::Stats::Stats(stats::Group &parent)
    : group("mem", &parent),
      loads(group, "loads", "data loads issued to the hierarchy"),
      stores(group, "stores", "stores issued to the hierarchy"),
      fetches(group, "fetches", "instruction fetch accesses"),
      l1MshrFull(group, "l1MshrFull", "accesses rejected: L1 MSHR full"),
      l2MshrFull(group, "l2MshrFull", "misses delayed: L2 MSHR full"),
      dramRejects(group, "dramRejects",
                  "DRAM enqueue attempts rejected (queue full)"),
      demandMisses(group, "demandMisses", "demand L2 misses sent to DRAM"),
      coherenceTransfers(group, "coherenceTransfers",
                         "dirty cache-to-cache transfers"),
      prefetchUseful(group, "prefetchUseful",
                     "demand hits on prefetched L2 lines"),
      l2MissLatCrit(group, "l2MissLatCrit",
                    "L2 miss latency, critical loads (CPU cycles)"),
      l2MissLatNonCrit(group, "l2MissLatNonCrit",
                       "L2 miss latency, non-critical (CPU cycles)")
{
}

MemHierarchy::MemHierarchy(const SystemConfig &cfg, DramSystem &dram,
                           stats::Group &parent)
    : cfg_(cfg), dram_(dram), group_("hier", &parent),
      sinks_(cfg.numCores, nullptr),
      iMshr_(cfg.numCores, L1MshrTable(cfg.il1.mshrs)),
      dMshr_(cfg.numCores, L1MshrTable(cfg.dl1.mshrs)),
      l2Mshr_(cfg.l2.mshrs),
      directory_(static_cast<std::size_t>(cfg.numCores) *
                 (cfg.dl1.sizeBytes / cfg.dl1.blockBytes)),
      retryChannels_(dram.numChannels()),
      // Every event is scheduled one cache latency ahead (a fill's
      // return, l2.latency / 4 but at least 1, is the shortest).
      events_(std::max({cfg.il1.latency, cfg.dl1.latency, cfg.l2.latency,
                        1u})),
      stats_(group_)
{
    dram_.setSink(this);
    for (std::uint32_t c = 0; c < cfg.numCores; ++c) {
        il1_.push_back(std::make_unique<Cache>(
            cfg.il1, "il1_" + std::to_string(c), group_));
        dl1_.push_back(std::make_unique<Cache>(
            cfg.dl1, "dl1_" + std::to_string(c), group_));
    }
    l2_ = std::make_unique<Cache>(cfg.l2, "l2", group_);
    if (cfg.prefetch.enabled) {
        prefetcher_ = std::make_unique<StreamPrefetcher>(
            cfg.prefetch, cfg.l2.blockBytes, group_);
    }
}

void
MemHierarchy::attach(CoreId core, CompletionSink &sink)
{
    sinks_.at(core) = &sink;
}

void
MemHierarchy::scheduleDone(Cycle at, const Completion &done)
{
    Event event;
    event.addr = done.addr;
    event.core = done.core;
    event.slot = done.slot;
    event.kind = Event::Kind::Complete;
    event.done = done.kind;
    events_.schedule(at, event);
}

void
MemHierarchy::scheduleL2(Cycle at, Event::Kind kind,
                         const L2Waiter &waiter)
{
    Event event;
    event.addr = waiter.l1Block;
    event.core = waiter.core;
    event.kind = kind;
    event.isInst = waiter.isInst;
    event.rfo = waiter.rfo;
    events_.schedule(at, event);
}

void
MemHierarchy::fire(const Event &event)
{
    switch (event.kind) {
      case Event::Kind::Complete:
        complete(Completion{event.addr, event.core, event.slot,
                            event.done});
        break;
      case Event::Kind::L2Access:
        l2Access(event.core, event.addr, event.isInst, event.rfo);
        break;
      case Event::Kind::Deliver:
        deliverToL1(L2Waiter{event.addr, event.core, event.isInst,
                             event.rfo});
        break;
    }
}

void
MemHierarchy::complete(const Completion &done)
{
    CompletionSink *sink = sinks_[done.core];
    if (!sink)
        panic("completion for core ", done.core, " with no sink");
    sink->complete(done);
}

bool
MemHierarchy::load(CoreId core, Addr addr, CritLevel crit,
                   std::uint32_t slot)
{
    ++stats_.loads;
    const Completion done{addr, core, slot, Completion::Kind::Load};
    const Addr l1Block = dl1_[core]->blockAlign(addr);
    if (dl1_[core]->access(l1Block)) {
        scheduleDone(now_ + cfg_.dl1.latency, done);
        return true;
    }
    auto &mshr = dMshr_[core];
    if (L1Entry *entry = mshr.find(l1Block)) {
        l1Waiters_.push(entry->waiters, done);
        if (crit > entry->crit) {
            entry->crit = crit;
            promote(core, addr, crit);
        }
        return true;
    }
    if (mshr.size() >= cfg_.dl1.mshrs) {
        ++stats_.l1MshrFull;
        return false;
    }
    L1Entry &entry = mshr[l1Block];
    l1Waiters_.push(entry.waiters, done);
    entry.crit = crit;
    scheduleL2(now_ + cfg_.dl1.latency, Event::Kind::L2Access,
               L2Waiter{l1Block, core, false, false});
    return true;
}

bool
MemHierarchy::store(CoreId core, Addr addr)
{
    ++stats_.stores;
    const Completion done{addr, core, 0, Completion::Kind::Store};
    const Addr l1Block = dl1_[core]->blockAlign(addr);
    const LineState state = dl1_[core]->probe(l1Block);
    if (state != LineState::Invalid) {
        dl1_[core]->access(l1Block);
        if (state == LineState::Shared)
            invalidateSharers(l1Block, core);
        dl1_[core]->setState(l1Block, LineState::Modified);
        scheduleDone(now_ + cfg_.dl1.latency, done);
        return true;
    }
    dl1_[core]->access(l1Block); // count the miss
    auto &mshr = dMshr_[core];
    if (L1Entry *entry = mshr.find(l1Block)) {
        l1Waiters_.push(entry->waiters, done);
        entry->rfo = true;
        return true;
    }
    if (mshr.size() >= cfg_.dl1.mshrs) {
        ++stats_.l1MshrFull;
        return false;
    }
    L1Entry &entry = mshr[l1Block];
    l1Waiters_.push(entry.waiters, done);
    entry.rfo = true;
    scheduleL2(now_ + cfg_.dl1.latency, Event::Kind::L2Access,
               L2Waiter{l1Block, core, false, true});
    return true;
}

bool
MemHierarchy::fetchProbe(CoreId core, Addr pc)
{
    const Addr block = il1_[core]->blockAlign(pc);
    if (il1_[core]->probe(block) != LineState::Invalid) {
        il1_[core]->access(block);
        return true;
    }
    return false;
}

bool
MemHierarchy::fetch(CoreId core, Addr pc)
{
    ++stats_.fetches;
    const Completion done{pc, core, 0, Completion::Kind::Fetch};
    const Addr block = il1_[core]->blockAlign(pc);
    if (il1_[core]->access(block)) {
        scheduleDone(now_ + cfg_.il1.latency, done);
        return true;
    }
    auto &mshr = iMshr_[core];
    if (L1Entry *entry = mshr.find(block)) {
        l1Waiters_.push(entry->waiters, done);
        return true;
    }
    if (mshr.size() >= cfg_.il1.mshrs) {
        ++stats_.l1MshrFull;
        return false;
    }
    l1Waiters_.push(mshr[block].waiters, done);
    scheduleL2(now_ + cfg_.il1.latency, Event::Kind::L2Access,
               L2Waiter{block, core, true, false});
    return true;
}

CoreId
MemHierarchy::modifiedOwner(Addr l1Block, CoreId except) const
{
    const std::uint32_t *sharers = directory_.find(l1Block);
    if (!sharers)
        return kNoCore;
    for (CoreId c = 0; c < cfg_.numCores; ++c) {
        if (c != except && (*sharers & (1u << c)) &&
            dl1_[c]->probe(l1Block) == LineState::Modified) {
            return c;
        }
    }
    return kNoCore;
}

void
MemHierarchy::invalidateSharers(Addr l1Block, CoreId except)
{
    std::uint32_t *sharers = directory_.find(l1Block);
    if (!sharers)
        return;
    for (CoreId c = 0; c < cfg_.numCores; ++c) {
        if (c != except && (*sharers & (1u << c))) {
            // A modified copy's data lives on in the inclusive L2.
            if (dl1_[c]->probe(l1Block) == LineState::Modified)
                l2_->setState(l2_->blockAlign(l1Block),
                              LineState::Modified);
            dl1_[c]->invalidate(l1Block);
        }
    }
    *sharers &= 1u << except;
    if (*sharers == 0)
        directory_.erase(l1Block);
}

void
MemHierarchy::l2Access(CoreId core, Addr l1Block, bool isInst, bool rfo)
{
    const Addr l2Block = l2_->blockAlign(l1Block);

    if (!isInst) {
        const CoreId owner = modifiedOwner(l1Block, core);
        if (owner != kNoCore) {
            // Dirty cache-to-cache transfer through the shared L2. The
            // inclusive L2 absorbs the dirty data; the owner is
            // downgraded (or invalidated on a store miss).
            ++stats_.coherenceTransfers;
            l2_->access(l2Block);
            l2_->setState(l2Block, LineState::Modified);
            if (rfo)
                dl1_[owner]->invalidate(l1Block);
            else
                dl1_[owner]->setState(l1Block, LineState::Shared);
            scheduleL2(now_ + cfg_.l2.latency, Event::Kind::Deliver,
                       L2Waiter{l1Block, core, isInst, false});
            return;
        }
    }

    if (l2_->access(l2Block)) {
        if (l2_->wasPrefetched(l2Block)) {
            ++stats_.prefetchUseful;
            l2_->clearPrefetched(l2Block);
            if (prefetcher_)
                prefetcher_->onUseful();
        }
        scheduleL2(now_ + cfg_.l2.latency, Event::Kind::Deliver,
                   L2Waiter{l1Block, core, isInst, false});
        return;
    }

    // L2 miss.
    const CritLevel crit = [&]() -> CritLevel {
        if (isInst)
            return 0;
        const L1Entry *l1 = dMshr_[core].find(l1Block);
        return l1 ? l1->crit : 0;
    }();

    if (L2Entry *entry = l2Mshr_.find(l2Block)) {
        l2Waiters_.push(entry->waiters,
                        L2Waiter{l1Block, core, isInst, rfo});
        if (!entry->demand) {
            // A prefetch in flight just turned into a demand miss.
            entry->demand = true;
            entry->started = now_;
        }
        if (crit > entry->crit) {
            entry->crit = crit;
            dram_.promote(l2Block, entry->firstCore, crit);
        }
        return;
    }
    if (l2Mshr_.size() >= cfg_.l2.mshrs) {
        ++stats_.l2MshrFull;
        l2MshrRetry_.push_back(L2Waiter{l1Block, core, isInst, rfo});
        return;
    }

    L2Entry &entry = l2Mshr_[l2Block];
    l2Waiters_.push(entry.waiters, L2Waiter{l1Block, core, isInst, rfo});
    entry.demand = true;
    entry.started = now_;
    entry.firstCore = core;
    entry.crit = crit;
    ++stats_.demandMisses;
    sendToDram(l2Block, entry);

    if (prefetcher_ && !isInst)
        issuePrefetches(l2Block);
}

bool
MemHierarchy::sendToDram(Addr l2Block, L2Entry &entry)
{
    MemRequest req;
    req.addr = l2Block;
    req.type = entry.demand ? ReqType::Read : ReqType::Prefetch;
    req.core = entry.firstCore;
    req.crit = entry.crit;
    if (dram_.enqueue(req)) {
        entry.sentToDram = true;
        return true;
    }
    ++stats_.dramRejects;
    // Prefetches are best-effort: the caller drops them instead.
    if (entry.demand) {
        dramRetry_.push_back(l2Block);
        noteRetry(l2Block);
    }
    return false;
}

void
MemHierarchy::writebackToDram(Addr l2Block, CoreId core)
{
    MemRequest req;
    req.addr = l2Block;
    req.type = ReqType::Write;
    req.core = core;
    if (!dram_.enqueue(req)) {
        ++stats_.dramRejects;
        writebackRetry_.push_back(l2Block);
        noteRetry(l2Block);
    }
}

void
MemHierarchy::noteRetry(Addr block)
{
    ++retryChannels_[dram_.addressMap().decode(block).channel].waiting;
}

bool
MemHierarchy::retryDue() const
{
    for (std::uint32_t c = 0; c < retryChannels_.size(); ++c) {
        const RetryChannel &ch = retryChannels_[c];
        if (ch.waiting != 0 &&
            dram_.channel(c).dequeues() != ch.dequeuesSeen) {
            return true;
        }
    }
    return false;
}

void
MemHierarchy::rejectRetries(std::uint64_t ticks)
{
    for (std::uint32_t c = 0; c < retryChannels_.size(); ++c) {
        const std::uint64_t n = retryChannels_[c].waiting * ticks;
        if (n != 0) {
            dram_.reject(c, n);
            stats_.dramRejects += n;
        }
    }
}

void
MemHierarchy::retryDram()
{
    // Every entry is re-counted as it is re-queued below.
    for (RetryChannel &ch : retryChannels_)
        ch.waiting = 0;
    if (!dramRetry_.empty()) {
        dramRetryScratch_.clear();
        dramRetryScratch_.swap(dramRetry_);
        for (const Addr block : dramRetryScratch_) {
            L2Entry *entry = l2Mshr_.find(block);
            if (entry && !entry->sentToDram)
                sendToDram(block, *entry);
        }
    }
    if (!writebackRetry_.empty()) {
        wbRetryScratch_.clear();
        wbRetryScratch_.swap(writebackRetry_);
        for (const Addr block : wbRetryScratch_)
            writebackToDram(block, kNoCore);
    }
    // Whatever is still listed was just rejected by a full queue.
    for (std::uint32_t c = 0; c < retryChannels_.size(); ++c)
        retryChannels_[c].dequeuesSeen = dram_.channel(c).dequeues();
}

void
MemHierarchy::issuePrefetches(Addr l2Block)
{
    prefetchScratch_.clear();
    prefetcher_->onDemandMiss(l2Block, prefetchScratch_);
    // Keep a demand reserve: prefetches never take the last MSHRs.
    const std::size_t prefetchCap =
        cfg_.l2.mshrs - std::min<std::size_t>(cfg_.l2.mshrs / 4, 16);
    for (const Addr target : prefetchScratch_) {
        if (l2_->probe(target) != LineState::Invalid)
            continue;
        if (l2Mshr_.contains(target))
            continue;
        if (l2Mshr_.size() >= prefetchCap)
            break;
        L2Entry &entry = l2Mshr_[target];
        entry.demand = false;
        entry.started = now_;
        entry.firstCore = 0;
        if (!sendToDram(target, entry))
            l2Mshr_.erase(target);
    }
}

void
MemHierarchy::evictFromL2(const Cache::Victim &victim)
{
    bool dirty = victim.dirty;
    // Inclusion: purge every L1 copy of the victim's sub-blocks; a
    // modified L1 copy folds into the writeback.
    for (Addr sub = victim.addr; sub < victim.addr + cfg_.l2.blockBytes;
         sub += cfg_.dl1.blockBytes) {
        if (const std::uint32_t *sharers = directory_.find(sub)) {
            for (CoreId c = 0; c < cfg_.numCores; ++c) {
                if (*sharers & (1u << c)) {
                    if (dl1_[c]->probe(sub) == LineState::Modified)
                        dirty = true;
                    dl1_[c]->invalidate(sub);
                }
            }
            directory_.erase(sub);
        }
        for (CoreId c = 0; c < cfg_.numCores; ++c)
            il1_[c]->invalidate(sub);
    }
    if (dirty)
        writebackToDram(victim.addr, kNoCore);
}

void
MemHierarchy::dramComplete(const MemRequest &req)
{
    l2Fill(req.addr);
}

void
MemHierarchy::l2Fill(Addr l2Block)
{
    const L2Entry *found = l2Mshr_.find(l2Block);
    if (!found)
        panic("DRAM fill for unknown L2 MSHR block");
    L2Entry entry = *found;
    l2Mshr_.erase(l2Block);

    if (entry.demand) {
        auto &stat = entry.crit > 0 ? stats_.l2MissLatCrit
                                    : stats_.l2MissLatNonCrit;
        stat.sample(static_cast<double>(now_ - entry.started));
    }

    const Cache::Victim victim =
        l2_->insert(l2Block, LineState::Exclusive, !entry.demand);
    if (victim.valid)
        evictFromL2(victim);

    const Cycle returnLat = std::max<Cycle>(cfg_.l2.latency / 4, 1);
    for (std::uint32_t n = entry.waiters.head; n != l2Waiters_.kNil;
         n = l2Waiters_.next(n)) {
        scheduleL2(now_ + returnLat, Event::Kind::Deliver,
                   l2Waiters_.value(n));
    }
    l2Waiters_.release(entry.waiters);
}

void
MemHierarchy::deliverToL1(const L2Waiter &waiter)
{
    auto &mshr =
        waiter.isInst ? iMshr_[waiter.core] : dMshr_[waiter.core];
    const L1Entry *found = mshr.find(waiter.l1Block);
    if (!found)
        return; // already satisfied (e.g. duplicate delivery)
    L1Entry entry = *found;
    mshr.erase(waiter.l1Block);

    if (waiter.isInst) {
        il1_[waiter.core]->insert(waiter.l1Block, LineState::Shared);
    } else {
        if (entry.rfo)
            invalidateSharers(waiter.l1Block, waiter.core);
        bool sharedElsewhere = false;
        if (const std::uint32_t *sharers =
                directory_.find(waiter.l1Block)) {
            sharedElsewhere = (*sharers & ~(1u << waiter.core)) != 0;
        }
        const LineState state = entry.rfo
            ? LineState::Modified
            : (sharedElsewhere ? LineState::Shared
                               : LineState::Exclusive);
        if (sharedElsewhere && !entry.rfo) {
            // Demote the other copies from E to S.
            for (CoreId c = 0; c < cfg_.numCores; ++c) {
                if (c != waiter.core &&
                    dl1_[c]->probe(waiter.l1Block) ==
                        LineState::Exclusive) {
                    dl1_[c]->setState(waiter.l1Block, LineState::Shared);
                }
            }
        }
        const Cache::Victim victim =
            dl1_[waiter.core]->insert(waiter.l1Block, state);
        if (victim.valid) {
            if (std::uint32_t *sharers = directory_.find(victim.addr)) {
                *sharers &= ~(1u << waiter.core);
                if (*sharers == 0)
                    directory_.erase(victim.addr);
            }
            if (victim.dirty) {
                l2_->setState(l2_->blockAlign(victim.addr),
                              LineState::Modified);
            }
        }
        directory_[waiter.l1Block] |= 1u << waiter.core;
    }

    // The sink may issue new accesses, so read each node before the
    // call and release the list only after the last one.
    for (std::uint32_t n = entry.waiters.head; n != l1Waiters_.kNil;
         n = l1Waiters_.next(n)) {
        const Completion done = l1Waiters_.value(n);
        complete(done);
    }
    l1Waiters_.release(entry.waiters);
}

void
MemHierarchy::promote(CoreId core, Addr addr, CritLevel crit)
{
    const Addr l2Block = l2_->blockAlign(addr);
    L2Entry *entry = l2Mshr_.find(l2Block);
    if (!entry)
        return;
    if (crit > entry->crit) {
        entry->crit = crit;
        dram_.promote(l2Block, entry->firstCore, crit);
    }
    (void)core;
}

bool
MemHierarchy::quiescent() const
{
    if (!events_.empty() || !l2Mshr_.empty() || !l2MshrRetry_.empty() ||
        !dramRetry_.empty() || !writebackRetry_.empty()) {
        return false;
    }
    for (const auto &mshr : dMshr_) {
        if (!mshr.empty())
            return false;
    }
    for (const auto &mshr : iMshr_) {
        if (!mshr.empty())
            return false;
    }
    return true;
}

Cycle
MemHierarchy::nextEventCycle(Cycle now) const
{
    if (!l2MshrRetry_.empty() || retryDue())
        return now + 1;
    const Cycle next = events_.nextCycle();
    if (next == kNoCycle)
        return kNoCycle;
    return std::max(next, now + 1);
}

void
MemHierarchy::tick(Cycle now)
{
    now_ = now;
    Event event;
    while (events_.popDue(now, event))
        fire(event);

    // The retry lists swap into persistent scratch buffers instead of
    // per-tick locals so the steady state never touches the heap (the
    // retry loops may push back into the live lists).
    if (!l2MshrRetry_.empty()) {
        l2RetryScratch_.clear();
        l2RetryScratch_.swap(l2MshrRetry_);
        for (const L2Waiter &waiter : l2RetryScratch_)
            l2Access(waiter.core, waiter.l1Block, waiter.isInst,
                     waiter.rfo);
    }
    if (dramRetry_.empty() && writebackRetry_.empty())
        return;
    if (retryDue())
        retryDram();
    else
        rejectRetries(1);
}

void
MemHierarchy::skipTo(Cycle to)
{
    // A skip window holds no DRAM dequeue, so every skipped tick would
    // have had its whole retry round rejected.
    if (to > now_)
        rejectRetries(to - now_);
    now_ = to;
}

} // namespace critmem
