/**
 * @file
 * The core's functional-unit completion ring: a 256-bucket timing
 * wheel of ROB slots, drained in exactly the order of a
 * (cycle, seq) min-heap.
 *
 * Completions are scheduled at most 255 cycles ahead (MicroOp::latency
 * is a uint8_t; a forwarded load completes one cycle after issue), so
 * 256 buckets give every pending completion its own cycle's bucket.
 * Each bucket is an intrusive singly linked list threaded through
 * per-ROB-slot link words, kept sorted by seq, so nothing allocates
 * and a cycle's completions pop oldest first. An occupancy bitmap
 * finds the next non-empty bucket for nextEventCycle().
 *
 * As in TimingWheel, a completion scheduled for the cycle just drained
 * (latency 0) rewinds the cursor and pops first at the next drain,
 * ahead of that cycle's own completions, as its smaller cycle stamp
 * orders it in a heap.
 */

#ifndef CRITMEM_CPU_COMPLETION_RING_HH
#define CRITMEM_CPU_COMPLETION_RING_HH

#include <array>
#include <cstdint>
#include <vector>

#include "sim/log.hh"
#include "sim/timing_wheel.hh"
#include "sim/types.hh"

namespace critmem
{

class CompletionRing
{
  public:
    static constexpr std::uint32_t kBuckets = 256;

    /** @param slots ROB entries; slot ids are in [0, slots). */
    explicit CompletionRing(std::uint32_t slots)
        : occupied_(kBuckets), next_(slots, kNil), seq_(slots, 0)
    {
        heads_.fill(kNil);
        tails_.fill(kNil);
    }

    bool empty() const { return count_ == 0; }

    /** Schedule ROB @p slot (holding @p seq) to complete at @p at. */
    void
    push(std::uint32_t slot, Cycle at, SeqNum seq)
    {
        if (count_ == 0 || at < cursor_)
            cursor_ = at;
        if (at - cursor_ >= kBuckets)
            panic("CompletionRing: completion at ", at,
                  " beyond the 256-cycle horizon");
        const std::uint32_t b = static_cast<std::uint32_t>(at) & kMask;
        seq_[slot] = seq;
        const std::uint32_t tail = tails_[b];
        if (tail == kNil) {
            next_[slot] = kNil;
            heads_[b] = tails_[b] = slot;
            occupied_.set(b);
        } else if (seq_[tail] < seq) {
            next_[slot] = kNil;
            next_[tail] = slot;
            tails_[b] = slot;
        } else {
            // Out-of-order issue: a younger op with a shorter latency
            // completes in the same cycle as an older one.
            std::uint32_t *link = &heads_[b];
            while (seq_[*link] < seq)
                link = &next_[*link];
            next_[slot] = *link;
            *link = slot;
        }
        ++count_;
    }

    /**
     * Pop the next completion due at or before @p now, in (cycle, seq)
     * order.
     * @return false when none is due.
     */
    bool
    popDue(Cycle now, std::uint32_t &slot)
    {
        if (count_ == 0)
            return false;
        if (heads_[static_cast<std::uint32_t>(cursor_) & kMask] == kNil)
            cursor_ = nextOccupied();
        if (cursor_ > now)
            return false;
        const std::uint32_t b = static_cast<std::uint32_t>(cursor_) & kMask;
        slot = heads_[b];
        heads_[b] = next_[slot];
        if (heads_[b] == kNil) {
            tails_[b] = kNil;
            occupied_.clear(b);
        }
        --count_;
        return true;
    }

    /** Cycle of the earliest pending completion; kNoCycle if none. */
    Cycle
    nextCycle() const
    {
        return count_ == 0 ? kNoCycle : nextOccupied();
    }

  private:
    static constexpr std::uint32_t kNil = ~std::uint32_t{0};
    static constexpr std::uint32_t kMask = kBuckets - 1;

    /** First occupied bucket's cycle at or after the cursor. */
    Cycle
    nextOccupied() const
    {
        return cursor_ + occupied_.distanceToNext(cursor_ & kMask);
    }

    std::array<std::uint32_t, kBuckets> heads_;
    std::array<std::uint32_t, kBuckets> tails_;
    BucketBitmap occupied_;
    std::vector<std::uint32_t> next_; ///< per ROB slot: next in bucket
    std::vector<SeqNum> seq_;         ///< per ROB slot: its seq
    Cycle cursor_ = 0; ///< cycle of the bucket drained next
    std::uint32_t count_ = 0;
};

} // namespace critmem

#endif // CRITMEM_CPU_COMPLETION_RING_HH
