/**
 * @file
 * Flat, division-free containers for the per-micro-op hot path.
 *
 * FlatTable is an open-addressing (linear probing) hash table keyed
 * by an address. Its capacity is a power of two sized from the
 * caller's entry bound, so a probe is one multiply and one shift
 * (Fibonacci hashing) instead of std::unordered_map's modulo by a
 * prime bucket count, and its slots live in one array instead of a
 * node per entry. Erase shifts the probe run back, so no tombstones
 * accumulate. The simulator only ever finds, inserts and erases: it
 * never iterates a table, so slot order can never reach a result.
 *
 * ListPool holds many short FIFO lists (MSHR waiters, ROB wakeup
 * lists) in one node array with a free list. The array grows to the
 * most nodes ever live at once; after that a list that is filled and
 * released every few cycles reuses nodes instead of allocating.
 */

#ifndef CRITMEM_SIM_FLAT_TABLE_HH
#define CRITMEM_SIM_FLAT_TABLE_HH

#include <algorithm>
#include <bit>
#include <cstdint>
#include <utility>
#include <vector>

#include "sim/log.hh"
#include "sim/types.hh"

namespace critmem
{

/** Address-keyed open-addressing hash table (see file comment). */
template <typename V>
class FlatTable
{
  public:
    /**
     * @param bound Entries the caller expects to hold at most. The
     *        table starts at twice that (load factor <= 1/2) and only
     *        grows if a caller ever exceeds 3/4 of its capacity.
     */
    explicit FlatTable(std::size_t bound = 8) { rehash(slotsFor(bound)); }

    std::size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }

    /** @return the entry for @p key, or nullptr. */
    V *
    find(Addr key)
    {
        for (std::size_t i = home(key);; i = (i + 1) & mask_) {
            if (keys_[i] == key)
                return &values_[i];
            if (keys_[i] == kNoAddr)
                return nullptr;
        }
    }

    const V *
    find(Addr key) const
    {
        return const_cast<FlatTable *>(this)->find(key);
    }

    bool contains(Addr key) const { return find(key) != nullptr; }

    /**
     * The entry for @p key, value-initialized and inserted when
     * absent (std::unordered_map::operator[] semantics).
     */
    V &
    operator[](Addr key)
    {
        if (key == kNoAddr)
            panic("FlatTable: the empty-slot key cannot be stored");
        std::size_t i = home(key);
        for (;; i = (i + 1) & mask_) {
            if (keys_[i] == key)
                return values_[i];
            if (keys_[i] == kNoAddr)
                break;
        }
        if (4 * (size_ + 1) > 3 * keys_.size()) {
            rehash(keys_.size() * 2);
            return (*this)[key];
        }
        keys_[i] = key;
        values_[i] = V{};
        ++size_;
        return values_[i];
    }

    /** Remove @p key; no-op when absent. */
    void
    erase(Addr key)
    {
        std::size_t i = home(key);
        for (;; i = (i + 1) & mask_) {
            if (keys_[i] == key)
                break;
            if (keys_[i] == kNoAddr)
                return;
        }
        // Backward-shift deletion: pull every later entry of the probe
        // run whose home does not lie cyclically in (i, j] into the
        // hole, so lookups never need a tombstone.
        for (std::size_t j = (i + 1) & mask_; keys_[j] != kNoAddr;
             j = (j + 1) & mask_) {
            const std::size_t h = home(keys_[j]);
            if (((j - h) & mask_) >= ((j - i) & mask_)) {
                keys_[i] = keys_[j];
                values_[i] = std::move(values_[j]);
                i = j;
            }
        }
        keys_[i] = kNoAddr;
        --size_;
    }

  private:
    static std::size_t
    slotsFor(std::size_t bound)
    {
        return std::bit_ceil(std::max<std::size_t>(2 * bound, 8));
    }

    std::size_t
    home(Addr key) const
    {
        return static_cast<std::size_t>(
            (key * 0x9e3779b97f4a7c15ull) >> shift_);
    }

    void
    rehash(std::size_t slots)
    {
        std::vector<Addr> keys(slots, kNoAddr);
        std::vector<V> values(slots);
        keys.swap(keys_);
        values.swap(values_);
        mask_ = slots - 1;
        shift_ = 64 - static_cast<unsigned>(std::countr_zero(slots));
        size_ = 0;
        for (std::size_t i = 0; i < keys.size(); ++i) {
            if (keys[i] != kNoAddr)
                (*this)[keys[i]] = std::move(values[i]);
        }
    }

    std::vector<Addr> keys_;
    std::vector<V> values_;
    std::size_t mask_ = 0;
    unsigned shift_ = 64;
    std::size_t size_ = 0;
};

/** Many FIFO lists sharing one recycled node array (file comment). */
template <typename T>
class ListPool
{
  public:
    static constexpr std::uint32_t kNil = ~std::uint32_t{0};

    /** One list's handle; an empty list owns no nodes. */
    struct List
    {
        std::uint32_t head = kNil;
        std::uint32_t tail = kNil;

        bool empty() const { return head == kNil; }
    };

    /** Append @p value to @p list. */
    void
    push(List &list, const T &value)
    {
        std::uint32_t n;
        if (free_ != kNil) {
            n = free_;
            free_ = nodes_[n].next;
            nodes_[n] = Node{value, kNil};
        } else {
            n = static_cast<std::uint32_t>(nodes_.size());
            nodes_.push_back(Node{value, kNil});
        }
        if (list.tail == kNil)
            list.head = n;
        else
            nodes_[list.tail].next = n;
        list.tail = n;
    }

    /** The value at node @p n (a List's head or a next() result). */
    const T &value(std::uint32_t n) const { return nodes_[n].value; }

    /** The node after @p n, or kNil. */
    std::uint32_t next(std::uint32_t n) const { return nodes_[n].next; }

    /** Return every node of @p list to the free list; empties it. */
    void
    release(List &list)
    {
        if (list.head == kNil)
            return;
        nodes_[list.tail].next = free_;
        free_ = list.head;
        list = List{};
    }

  private:
    struct Node
    {
        T value;
        std::uint32_t next;
    };

    std::vector<Node> nodes_;
    std::uint32_t free_ = kNil;
};

} // namespace critmem

#endif // CRITMEM_SIM_FLAT_TABLE_HH
