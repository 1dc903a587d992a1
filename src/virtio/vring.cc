#include "virtio/vring.hh"

#include "base/logging.hh"

namespace bmhive {
namespace virtio {

namespace {

constexpr Addr
alignUp(Addr a, Addr align)
{
    return (a + align - 1) & ~(align - 1);
}

} // namespace

VringLayout
VringLayout::contiguous(std::uint16_t size, Addr base)
{
    panic_if(size == 0 || (size & (size - 1)) != 0,
             "vring size must be a power of two, got ", size);
    Addr desc = alignUp(base, 16);
    Addr avail = alignUp(desc + Bytes(size) * vringDescSize, 2);
    // avail: flags + idx + ring[size] + used_event
    Addr used = alignUp(avail + 4 + 2 * Bytes(size) + 2, 4);
    return VringLayout(size, desc, avail, used);
}

Bytes
VringLayout::bytesNeeded(std::uint16_t size)
{
    VringLayout l = contiguous(size, 0);
    return l.usedAddr() + l.usedBytes();
}

bool
VringLayout::fitsIn(Bytes mem_size) const
{
    auto area_ok = [mem_size](Addr base, Bytes len) {
        return base + len >= base && base + len <= mem_size;
    };
    return valid() && area_ok(desc_, descBytes()) &&
           area_ok(avail_, availBytes()) &&
           area_ok(used_, usedBytes());
}

void
VringLayout::indexOutOfRange(const char *what, unsigned i)
{
    panic(what, " out of range: ", i);
}

} // namespace virtio
} // namespace bmhive
