/**
 * @file
 * FlatU64Map: an open-addressing hash map from 64-bit keys to
 * values, stored in one flat table.
 *
 * Linear probing with backward-shift deletion (no tombstones); the
 * table doubles when it reaches half full and never shrinks, so a
 * map whose population cycles in steady state (live shadow-arena
 * blocks, open request flows) stops touching the heap once it has
 * reached its high-water mark. Iteration follows table order, not
 * key order. The all-ones key is reserved as the empty marker.
 */

#ifndef BMHIVE_BASE_FLAT_MAP_HH
#define BMHIVE_BASE_FLAT_MAP_HH

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "base/logging.hh"

namespace bmhive {

template <typename V>
class FlatU64Map
{
  public:
    static constexpr std::uint64_t emptyKey = ~std::uint64_t(0);

    std::size_t size() const { return size_; }

    V *
    find(std::uint64_t key)
    {
        if (size_ == 0)
            return nullptr;
        for (std::size_t i = home(key);; i = next(i)) {
            if (slots_[i].key == key)
                return &slots_[i].value;
            if (slots_[i].key == emptyKey)
                return nullptr;
        }
    }

    const V *
    find(std::uint64_t key) const
    {
        return const_cast<FlatU64Map *>(this)->find(key);
    }

    /** Value for @p key, inserted default-constructed if absent. */
    V &
    operator[](std::uint64_t key)
    {
        panic_if(key == emptyKey, "FlatU64Map: reserved key");
        if (V *v = find(key))
            return *v;
        if ((size_ + 1) * 2 > slots_.size())
            grow();
        std::size_t i = home(key);
        while (slots_[i].key != emptyKey)
            i = next(i);
        slots_[i].key = key;
        slots_[i].value = V();
        ++size_;
        return slots_[i].value;
    }

    /** @return true if @p key was present. */
    bool
    erase(std::uint64_t key)
    {
        if (size_ == 0)
            return false;
        for (std::size_t i = home(key);; i = next(i)) {
            if (slots_[i].key == key) {
                eraseSlot(i);
                return true;
            }
            if (slots_[i].key == emptyKey)
                return false;
        }
    }

    /** Erase every entry for which @p pred(key, value) holds;
     *  returns how many were erased. */
    template <typename Pred>
    std::size_t
    eraseIf(Pred pred)
    {
        std::size_t n = 0;
        for (std::size_t i = 0; i < slots_.size();) {
            // Backward shift only moves later entries into the
            // hole at i (or entries from the wrapped start to the
            // end, already visited), so re-examine i after erasing.
            if (slots_[i].key != emptyKey &&
                pred(slots_[i].key, slots_[i].value)) {
                eraseSlot(i);
                ++n;
            } else {
                ++i;
            }
        }
        return n;
    }

  private:
    struct Slot
    {
        std::uint64_t key = emptyKey;
        V value{};
    };

    std::size_t
    home(std::uint64_t key) const
    {
        // MurmurHash3 finalizer: spreads aligned addresses and
        // packed (fn, q, head) keys over the whole table.
        key ^= key >> 33;
        key *= 0xff51afd7ed558ccdull;
        key ^= key >> 33;
        key *= 0xc4ceb9fe1a85ec53ull;
        key ^= key >> 33;
        return std::size_t(key) & (slots_.size() - 1);
    }

    std::size_t next(std::size_t i) const
    {
        return (i + 1) & (slots_.size() - 1);
    }

    void
    eraseSlot(std::size_t hole)
    {
        // Backward shift: pull later entries of the probe run into
        // the hole whenever that does not move them before their
        // home slot.
        for (std::size_t j = next(hole);; j = next(j)) {
            if (slots_[j].key == emptyKey)
                break;
            std::size_t h = home(slots_[j].key);
            bool movable = hole <= j ? (h <= hole || h > j)
                                     : (h <= hole && h > j);
            if (movable) {
                slots_[hole] = std::move(slots_[j]);
                hole = j;
            }
        }
        slots_[hole].key = emptyKey;
        --size_;
    }

    void
    grow()
    {
        std::vector<Slot> old;
        old.swap(slots_);
        slots_.resize(old.empty() ? 16 : old.size() * 2);
        for (auto &s : old) {
            if (s.key == emptyKey)
                continue;
            std::size_t i = home(s.key);
            while (slots_[i].key != emptyKey)
                i = next(i);
            slots_[i] = std::move(s);
        }
    }

    std::vector<Slot> slots_;
    std::size_t size_ = 0;
};

} // namespace bmhive

#endif // BMHIVE_BASE_FLAT_MAP_HH
