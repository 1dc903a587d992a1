/**
 * @file
 * RingQueue: a double-ended FIFO over one power-of-two ring that
 * grows (doubling) when full and never shrinks.
 *
 * std::deque allocates and frees a block every few elements as a
 * FIFO slides through it; a queue that cycles in steady state
 * (pending rx frames, DMA transfers, tracer logs) should touch the
 * heap only while it reaches its high-water mark. pop_front()
 * leaves the old value in its slot until a later push overwrites
 * it; emplaceBack()/emplaceFront() hand that old value back so the
 * caller can refill it in place, and buffers inside it keep their
 * capacity.
 */

#ifndef BMHIVE_BASE_RING_QUEUE_HH
#define BMHIVE_BASE_RING_QUEUE_HH

#include <cstddef>
#include <utility>
#include <vector>

namespace bmhive {

template <typename T>
class RingQueue
{
  public:
    std::size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }

    /** Element @p i counted from the front. */
    T &operator[](std::size_t i) { return slots_[slot(i)]; }
    const T &operator[](std::size_t i) const
    {
        return slots_[slot(i)];
    }

    T &front() { return slots_[head_]; }
    const T &front() const { return slots_[head_]; }
    T &back() { return (*this)[size_ - 1]; }
    const T &back() const { return (*this)[size_ - 1]; }

    void
    push_back(T v)
    {
        grow();
        slots_[slot(size_)] = std::move(v);
        ++size_;
    }

    /**
     * Append the slot after the back and return it as it was left
     * by its last pop (or default-constructed): the caller
     * overwrites every field, reusing any storage the old value
     * owns.
     */
    T &
    emplaceBack()
    {
        grow();
        ++size_;
        return back();
    }

    /** Prepend a slot before the front; see emplaceBack(). */
    T &
    emplaceFront()
    {
        grow();
        head_ = (head_ + slots_.size() - 1) & (slots_.size() - 1);
        ++size_;
        return front();
    }

    void
    pop_front()
    {
        head_ = (head_ + 1) & (slots_.size() - 1);
        --size_;
    }

    /** Drop every element (capacity stays). */
    void
    clear()
    {
        while (size_ > 0) {
            front() = T();
            pop_front();
        }
        head_ = 0;
    }

  private:
    std::size_t
    slot(std::size_t i) const
    {
        return (head_ + i) & (slots_.size() - 1);
    }

    void
    grow()
    {
        if (size_ < slots_.size())
            return;
        std::vector<T> bigger(slots_.empty() ? 8 : slots_.size() * 2);
        for (std::size_t i = 0; i < size_; ++i)
            bigger[i] = std::move(slots_[slot(i)]);
        slots_.swap(bigger);
        head_ = 0;
    }

    std::vector<T> slots_;
    std::size_t head_ = 0;
    std::size_t size_ = 0;
};

} // namespace bmhive

#endif // BMHIVE_BASE_RING_QUEUE_HH
