#include "mem/pool_allocator.hh"

#include <algorithm>

#include "base/logging.hh"

namespace bmhive {

PoolAllocator::PoolAllocator(Addr base, Bytes size)
    : size_(size), free_(size)
{
    panic_if(size == 0, "empty pool");
    extents_.push_back({base, size});
}

bool
PoolAllocator::fits(const Extent &e, Bytes len, Bytes align)
{
    Addr aligned = (e.start + align - 1) & ~(align - 1);
    return e.len >= (aligned - e.start) + len;
}

PoolAllocator::Hint &
PoolAllocator::hintFor(Bytes len, Bytes align)
{
    for (Hint &h : hints_)
        if (h.len == len && h.align == align)
            return h;
    // A new request shape evicts the oldest hint and starts its
    // search from the lowest address.
    Hint &h = hints_[nextHint_];
    nextHint_ = (nextHint_ + 1) % hints_.size();
    h = Hint{len, align, 0};
    return h;
}

void
PoolAllocator::shiftHints(std::size_t pos, int delta)
{
    for (Hint &h : hints_)
        if (h.from > pos)
            h.from = std::size_t(std::ptrdiff_t(h.from) + delta);
}

void
PoolAllocator::grewAt(std::size_t i)
{
    for (Hint &h : hints_)
        if (h.from > i && h.len != 0 && fits(extents_[i], h.len, h.align))
            h.from = i;
}

Addr
PoolAllocator::alloc(Bytes len, Bytes align)
{
    panic_if(len == 0, "zero-length allocation");
    panic_if(align == 0 || (align & (align - 1)) != 0,
             "bad alignment: ", align);
    Hint &hint = hintFor(len, align);
    for (std::size_t i = hint.from; i < extents_.size(); ++i) {
        Extent &e = extents_[i];
        if (!fits(e, len, align))
            continue;
        hint.from = i;
        Addr aligned = (e.start + align - 1) & ~(align - 1);
        Bytes waste = aligned - e.start;
        // Carve [aligned, aligned+len) out of the extent. The
        // pre-waste stays in place; the tail follows it. What is
        // left of the extent is a sub-range of it, so it fits no
        // request the whole extent did not: hints before i hold.
        Bytes tail = e.len - waste - len;
        if (waste > 0 && tail > 0) {
            e.len = waste;
            extents_.insert(extents_.begin() + std::ptrdiff_t(i) + 1,
                            Extent{aligned + len, tail});
            shiftHints(i, +1);
        } else if (waste > 0) {
            e.len = waste;
        } else if (tail > 0) {
            e = Extent{aligned + len, tail};
        } else {
            extents_.erase(extents_.begin() + std::ptrdiff_t(i));
            shiftHints(i, -1);
        }
        live_[aligned] = len;
        free_ -= len;
        return aligned;
    }
    hint.from = extents_.size();
    return nullAddr;
}

void
PoolAllocator::free(Addr addr)
{
    const Bytes *found = live_.find(addr);
    panic_if(found == nullptr, "freeing unknown address ", addr);
    Bytes len = *found;
    live_.erase(addr);
    free_ += len;

    // Insert in address order and coalesce with the neighbours.
    // The extent that grows may now fit requests whose search
    // would have skipped it: pull their hints back to it.
    auto next = std::lower_bound(
        extents_.begin(), extents_.end(), addr,
        [](const Extent &e, Addr a) { return e.start < a; });
    std::size_t p = std::size_t(next - extents_.begin());
    bool join_prev = p > 0 &&
                     extents_[p - 1].start + extents_[p - 1].len == addr;
    bool join_next = p < extents_.size() &&
                     addr + len == extents_[p].start;
    if (join_prev && join_next) {
        extents_[p - 1].len += len + extents_[p].len;
        extents_.erase(next);
        shiftHints(p, -1);
        grewAt(p - 1);
    } else if (join_prev) {
        extents_[p - 1].len += len;
        grewAt(p - 1);
    } else if (join_next) {
        extents_[p].start = addr;
        extents_[p].len += len;
        grewAt(p);
    } else {
        extents_.insert(next, Extent{addr, len});
        shiftHints(p, +1);
        grewAt(p);
    }
}

} // namespace bmhive
