/** @file Randomized reference tests for the hot path's containers:
 *  each must behave exactly like the standard structure it replaced
 *  (the hierarchy's event heap, the core's (cycle, seq) completion
 *  heap, and std::unordered_map). */

#include <gtest/gtest.h>

#include <cstdint>
#include <deque>
#include <functional>
#include <queue>
#include <random>
#include <tuple>
#include <unordered_map>
#include <vector>

#include "cpu/completion_ring.hh"
#include "sim/flat_table.hh"
#include "sim/timing_wheel.hh"

using namespace critmem;

namespace
{

/** (at, order, id) min-heap: the hierarchy's former event queue. */
using EventHeap =
    std::priority_queue<std::tuple<Cycle, std::uint64_t, std::uint64_t>,
                        std::vector<std::tuple<Cycle, std::uint64_t,
                                               std::uint64_t>>,
                        std::greater<>>;

/**
 * Drives a TimingWheel and the heap through one random schedule:
 * per tick, drain everything due (each popped event may schedule
 * more, with delay 0 landing in the bucket being drained), then
 * schedule a few more after the drain (delay 0 = already-drained
 * cycle), then sometimes skip ahead to just before the next event,
 * as System::fastForward does.
 */
void
runWheelSchedule(std::uint64_t seed, Cycle maxDelay)
{
    std::mt19937_64 rng(seed);
    TimingWheel<std::uint64_t> wheel(maxDelay);
    EventHeap heap;
    std::uint64_t order = 0;
    std::uint64_t nextId = 0;
    Cycle now = 0;

    const auto delay = [&] {
        // Favour the edge delays: 0, 1 and the horizon.
        switch (rng() % 4) {
          case 0: return Cycle{0};
          case 1: return std::min<Cycle>(1, maxDelay);
          case 2: return maxDelay;
          default: return static_cast<Cycle>(rng() % (maxDelay + 1));
        }
    };
    const auto schedule = [&](Cycle at) {
        const std::uint64_t id = nextId++;
        wheel.schedule(at, id);
        heap.emplace(at, order++, id);
    };

    for (int step = 0; step < 4000; ++step) {
        ++now;
        std::uint64_t got = 0;
        while (wheel.popDue(now, got)) {
            ASSERT_FALSE(heap.empty());
            ASSERT_LE(std::get<0>(heap.top()), now);
            ASSERT_EQ(got, std::get<2>(heap.top())) << "step " << step;
            heap.pop();
            if (rng() % 3 == 0)
                schedule(now + delay()); // scheduled while draining
        }
        ASSERT_TRUE(heap.empty() || std::get<0>(heap.top()) > now);

        const int fresh = static_cast<int>(rng() % 4);
        for (int i = 0; i < fresh; ++i)
            schedule(now + delay()); // after the drain

        const Cycle next =
            heap.empty() ? kNoCycle : std::get<0>(heap.top());
        ASSERT_EQ(wheel.nextCycle(), next);
        ASSERT_EQ(wheel.size(), heap.size());
        if (rng() % 5 == 0 && next != kNoCycle && next > now + 1)
            now = next - 1 - rng() % (next - now - 1); // certified skip
        else if (rng() % 7 == 0 && next == kNoCycle)
            now += rng() % (8 * maxDelay + 8); // idle gap
    }
}

/** The core's former FU completion queue. */
using FuHeap = std::priority_queue<std::pair<Cycle, SeqNum>,
                                   std::vector<std::pair<Cycle, SeqNum>>,
                                   std::greater<>>;

/**
 * Drives a CompletionRing and the heap like a lazily ticked core: at
 * each tick drain what is due, dispatch ops into free ROB slots, and
 * issue waiting ops in random order with random latencies (0..255).
 * Out-of-order issue makes a younger op join a cycle's bucket before
 * an older one, and latency 0 lands on the cycle just drained; ticks
 * come every cycle or jump, sometimes past pending completions.
 */
void
runRingSchedule(std::uint64_t seed, std::uint32_t slots)
{
    std::mt19937_64 rng(seed);
    CompletionRing ring(slots);
    FuHeap heap;
    std::vector<std::uint32_t> freeSlots;
    std::vector<std::uint32_t> slotOfSeq;
    std::vector<SeqNum> waiting; ///< dispatched, not yet issued
    for (std::uint32_t s = slots; s-- > 0;)
        freeSlots.push_back(s);
    SeqNum nextSeq = 0;
    Cycle now = 0;

    for (int step = 0; step < 6000; ++step) {
        std::uint32_t slot = 0;
        while (ring.popDue(now, slot)) {
            ASSERT_FALSE(heap.empty());
            ASSERT_LE(heap.top().first, now);
            ASSERT_EQ(slot, slotOfSeq[heap.top().second])
                << "step " << step;
            heap.pop();
            freeSlots.push_back(slot);
        }
        ASSERT_TRUE(heap.empty() || heap.top().first > now);

        const auto dispatch = static_cast<std::uint32_t>(rng() % 5);
        for (std::uint32_t i = 0; i < dispatch && !freeSlots.empty();
             ++i) {
            slotOfSeq.push_back(freeSlots.back());
            freeSlots.pop_back();
            waiting.push_back(nextSeq++);
        }
        const auto issue = static_cast<std::uint32_t>(rng() % 5);
        for (std::uint32_t i = 0; i < issue && !waiting.empty(); ++i) {
            const std::size_t pick = rng() % waiting.size();
            const SeqNum seq = waiting[pick];
            waiting.erase(waiting.begin() +
                          static_cast<std::ptrdiff_t>(pick));
            const Cycle lat = rng() % 3 == 0 ? rng() % 4 : rng() % 256;
            ring.push(slotOfSeq[seq], now + lat, seq);
            heap.emplace(now + lat, seq);
        }

        const Cycle next = heap.empty() ? kNoCycle : heap.top().first;
        ASSERT_EQ(ring.nextCycle(), next);
        ASSERT_EQ(ring.empty(), heap.empty());
        switch (rng() % 6) {
          case 0: // lazy tick: jump to the next completion
            now = next == kNoCycle ? now + 1 + rng() % 1000 : next;
            break;
          case 1: // late tick, past some pending completions
            now += 1 + rng() % 300;
            break;
          default:
            ++now;
            break;
        }
    }
}

/** Random find/insert/erase against std::unordered_map. */
template <typename KeyFn>
void
runTableOps(std::uint64_t seed, std::size_t bound, KeyFn key)
{
    std::mt19937_64 rng(seed);
    FlatTable<std::uint32_t> table(bound);
    std::unordered_map<Addr, std::uint32_t> ref;
    for (int step = 0; step < 20000; ++step) {
        const Addr k = key(rng);
        switch (rng() % 4) {
          case 0:
          case 1:
            if (ref.size() < bound || ref.contains(k)) {
                ++table[k];
                ++ref[k];
            }
            break;
          case 2:
            table.erase(k);
            ref.erase(k);
            break;
          default:
            break;
        }
        const std::uint32_t *got = table.find(k);
        const auto it = ref.find(k);
        ASSERT_EQ(got != nullptr, it != ref.end()) << "step " << step;
        if (got) {
            ASSERT_EQ(*got, it->second);
        }
        ASSERT_EQ(table.size(), ref.size());
        ASSERT_EQ(table.empty(), ref.empty());
    }
    // Every surviving key is still reachable after the erase shifts.
    for (const auto &[k, v] : ref) {
        ASSERT_NE(table.find(k), nullptr);
        EXPECT_EQ(*table.find(k), v);
    }
}

} // namespace

TEST(TimingWheelRef, MatchesHeapOrder)
{
    for (std::uint64_t seed = 1; seed <= 20; ++seed)
        runWheelSchedule(seed, 1 + seed % 40);
}

TEST(TimingWheelRef, ZeroMaxDelayMatchesHeap)
{
    for (std::uint64_t seed = 1; seed <= 5; ++seed)
        runWheelSchedule(seed, 0);
}

TEST(TimingWheelRef, HorizonFitsEveryDelay)
{
    // 64 buckets minimum; a 200-cycle delay needs 256.
    for (std::uint64_t seed = 1; seed <= 5; ++seed)
        runWheelSchedule(seed, 200);
}

TEST(CompletionRingRef, MatchesCycleSeqHeap)
{
    for (std::uint64_t seed = 1; seed <= 20; ++seed)
        runRingSchedule(seed, seed % 2 ? 96 : 128);
}

TEST(CompletionRingRef, TinyRob)
{
    for (std::uint64_t seed = 1; seed <= 5; ++seed)
        runRingSchedule(seed, 3);
}

TEST(FlatTableRef, RandomKeysMatchUnorderedMap)
{
    for (std::uint64_t seed = 1; seed <= 10; ++seed) {
        runTableOps(seed, 32, [](std::mt19937_64 &rng) {
            return static_cast<Addr>(rng() % 200) * 64;
        });
    }
}

TEST(FlatTableRef, CollidingKeysMatchUnorderedMap)
{
    // Keys that differ only in high bits share few home slots, so the
    // probe runs are long and erase's backward shift does real work.
    for (std::uint64_t seed = 1; seed <= 10; ++seed) {
        runTableOps(seed, 16, [](std::mt19937_64 &rng) {
            return (static_cast<Addr>(rng() % 64) << 58) |
                (rng() % 2 ? 0x40 : 0);
        });
    }
}

TEST(FlatTableRef, FillEraseAllAndReinsert)
{
    FlatTable<std::uint32_t> table(8);
    for (int round = 0; round < 3; ++round) {
        for (Addr k = 0; k < 8; ++k)
            table[k * 32] = static_cast<std::uint32_t>(k + round);
        EXPECT_EQ(table.size(), 8u);
        for (Addr k = 0; k < 8; ++k) {
            ASSERT_NE(table.find(k * 32), nullptr);
            EXPECT_EQ(*table.find(k * 32), k + round);
        }
        for (Addr k = 0; k < 8; ++k)
            table.erase(k * 32);
        EXPECT_TRUE(table.empty());
        EXPECT_EQ(table.find(0), nullptr);
    }
}

TEST(FlatTableRef, GrowsPastItsBound)
{
    FlatTable<std::uint32_t> table(4);
    std::unordered_map<Addr, std::uint32_t> ref;
    for (Addr k = 0; k < 1000; ++k) {
        table[k * 8] = static_cast<std::uint32_t>(k);
        ref[k * 8] = static_cast<std::uint32_t>(k);
    }
    EXPECT_EQ(table.size(), ref.size());
    for (const auto &[k, v] : ref)
        EXPECT_EQ(*table.find(k), v);
}

TEST(ListPoolRef, ListsMatchDeques)
{
    std::mt19937_64 rng(7);
    ListPool<std::uint32_t> pool;
    std::vector<ListPool<std::uint32_t>::List> lists(8);
    std::vector<std::deque<std::uint32_t>> ref(8);
    for (int step = 0; step < 5000; ++step) {
        const std::size_t i = rng() % lists.size();
        if (rng() % 4 == 0) {
            std::vector<std::uint32_t> got;
            for (std::uint32_t n = lists[i].head; n != pool.kNil;
                 n = pool.next(n))
                got.push_back(pool.value(n));
            ASSERT_EQ(got, std::vector<std::uint32_t>(ref[i].begin(),
                                                      ref[i].end()));
            pool.release(lists[i]);
            ref[i].clear();
            EXPECT_TRUE(lists[i].empty());
        } else {
            const auto v = static_cast<std::uint32_t>(rng());
            pool.push(lists[i], v);
            ref[i].push_back(v);
        }
    }
}
