/**
 * @file
 * A timing wheel: a calendar queue of events keyed by cycle, drained
 * in exactly the order of a (cycle, insertion) min-heap.
 *
 * Each cycle hashes to one bucket (cycle & mask), a FIFO vector that
 * keeps its capacity across uses, and an occupancy bitmap finds the
 * next non-empty bucket without scanning empty ones. Scheduling and
 * popping are O(1) and never allocate in steady state; a
 * std::priority_queue of type-erased events paid a heap sift and a
 * std::function per event.
 *
 * Order. Every pending event lies in the window [cursor, cursor +
 * buckets), so each bucket holds a single cycle and its FIFO order is
 * insertion order. Popping walks buckets in cycle order. An event
 * scheduled at the cycle being drained joins the back of that
 * bucket and pops in the same drain, as a heap pops a new top that is
 * still due. An event scheduled for an already-drained cycle (a
 * zero-delay event after the drain) rewinds the cursor, so it pops
 * first at the next drain, ahead of that cycle's own events, exactly
 * as its smaller cycle stamp orders it in a heap.
 */

#ifndef CRITMEM_SIM_TIMING_WHEEL_HH
#define CRITMEM_SIM_TIMING_WHEEL_HH

#include <algorithm>
#include <bit>
#include <cstdint>
#include <utility>
#include <vector>

#include "sim/log.hh"
#include "sim/types.hh"

namespace critmem
{

/**
 * One occupancy bit per bucket of a power-of-two wheel (at least 64
 * buckets), to find the next non-empty bucket without visiting the
 * empty ones.
 */
class BucketBitmap
{
  public:
    explicit BucketBitmap(std::size_t buckets)
        : words_(buckets / 64, 0), mask_(buckets - 1)
    {
    }

    void set(std::size_t b) { words_[b / 64] |= bit(b); }
    void clear(std::size_t b) { words_[b / 64] &= ~bit(b); }
    bool test(std::size_t b) const { return words_[b / 64] & bit(b); }

    /**
     * Buckets from @p start to the first set one at or after it,
     * wrapping around. At least one bit must be set.
     */
    std::size_t
    distanceToNext(std::size_t start) const
    {
        const std::size_t words = words_.size();
        std::size_t w = start / 64;
        std::uint64_t bits = words_[w] & (~std::uint64_t{0} << (start % 64));
        for (std::size_t n = 0; n <= words; ++n) {
            if (bits != 0) {
                const std::size_t b = w * 64 +
                    static_cast<std::size_t>(std::countr_zero(bits));
                return (b - start) & mask_;
            }
            w = (w + 1) & (words - 1);
            bits = words_[w];
        }
        panic("BucketBitmap: no bucket is occupied");
    }

  private:
    static std::uint64_t
    bit(std::size_t b)
    {
        return std::uint64_t{1} << (b % 64);
    }

    std::vector<std::uint64_t> words_;
    std::size_t mask_;
};

template <typename T>
class TimingWheel
{
  public:
    /**
     * @param maxDelay Largest (at - now) any caller schedules, where
     *        now is the last cycle passed to popDue() (or any later
     *        cycle the caller has certified idle).
     */
    explicit TimingWheel(Cycle maxDelay)
        : buckets_(std::bit_ceil(std::max<Cycle>(maxDelay + 2, 64))),
          occupied_(buckets_.size()), mask_(buckets_.size() - 1)
    {
    }

    bool empty() const { return count_ == 0; }
    std::size_t size() const { return count_; }

    /** Queue @p item for cycle @p at. */
    void
    schedule(Cycle at, const T &item)
    {
        if (count_ == 0) {
            cursor_ = at;
        } else if (at < cursor_) {
            if (head_ != 0)
                panic("TimingWheel: rewind during a partial drain");
            cursor_ = at;
        }
        if (at - cursor_ > mask_)
            panic("TimingWheel: event at ", at, " beyond the horizon");
        const std::size_t b = at & mask_;
        buckets_[b].push_back(item);
        occupied_.set(b);
        ++count_;
    }

    /**
     * Pop the next event due at or before @p now into @p out, in
     * (cycle, insertion) order. Events scheduled between calls are
     * seen by the next call.
     * @return false when no event is due.
     */
    bool
    popDue(Cycle now, T &out)
    {
        if (count_ == 0)
            return false;
        std::size_t b = cursor_ & mask_;
        if (!occupied_.test(b)) {
            cursor_ = nextOccupied();
            b = cursor_ & mask_;
        }
        if (cursor_ > now)
            return false;
        std::vector<T> &bucket = buckets_[b];
        out = std::move(bucket[head_++]);
        --count_;
        if (head_ == bucket.size()) {
            bucket.clear();
            head_ = 0;
            occupied_.clear(b);
        }
        return true;
    }

    /** Cycle of the earliest pending event; kNoCycle when empty. */
    Cycle
    nextCycle() const
    {
        return count_ == 0 ? kNoCycle : nextOccupied();
    }

  private:
    /** First occupied bucket's cycle at or after the cursor. */
    Cycle
    nextOccupied() const
    {
        return cursor_ + occupied_.distanceToNext(cursor_ & mask_);
    }

    std::vector<std::vector<T>> buckets_;
    BucketBitmap occupied_;
    std::size_t mask_;
    Cycle cursor_ = 0;      ///< cycle of the bucket being drained
    std::size_t head_ = 0;  ///< items of that bucket already popped
    std::size_t count_ = 0;
};

} // namespace critmem

#endif // CRITMEM_SIM_TIMING_WHEEL_HH
