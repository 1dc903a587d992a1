#include "mem/guest_memory.hh"

#include <utility>

namespace bmhive {

void
GuestMemory::read(Addr addr, void *dst, Bytes len) const
{
    panic_if(addr + len > data_.size() || addr + len < addr,
             name_, ": out-of-bounds read [", addr, ", ", addr + len,
             ") of ", data_.size(), " bytes");
    std::memcpy(dst, data_.data() + addr, len);
}

void
GuestMemory::write(Addr addr, const void *src, Bytes len)
{
    panic_if(addr + len > data_.size() || addr + len < addr,
             name_, ": out-of-bounds write [", addr, ", ", addr + len,
             ") of ", data_.size(), " bytes");
    std::memcpy(data_.data() + addr, src, len);
}

const std::uint8_t *
GuestMemory::span(Addr addr, Bytes len) const
{
    panic_if(addr + len > data_.size() || addr + len < addr,
             name_, ": out-of-bounds span [", addr, ", ", addr + len,
             ") of ", data_.size(), " bytes");
    return data_.data() + addr;
}

std::uint8_t *
GuestMemory::span(Addr addr, Bytes len)
{
    return const_cast<std::uint8_t *>(
        std::as_const(*this).span(addr, len));
}

void
GuestMemory::fill(Addr addr, Bytes len, std::uint8_t value)
{
    panic_if(addr + len > data_.size() || addr + len < addr,
             name_, ": out-of-bounds fill");
    std::memset(data_.data() + addr, value, len);
}

std::vector<std::uint8_t>
GuestMemory::readBlob(Addr addr, Bytes len) const
{
    std::vector<std::uint8_t> blob(len);
    read(addr, blob.data(), len);
    return blob;
}

void
GuestMemory::writeBlob(Addr addr, const std::vector<std::uint8_t> &blob)
{
    write(addr, blob.data(), blob.size());
}

Addr
BumpAllocator::alloc(Bytes len, Bytes align)
{
    panic_if(align == 0 || (align & (align - 1)) != 0,
             "alignment must be a power of two: ", align);
    Addr aligned = (next_ + align - 1) & ~(align - 1);
    panic_if(aligned + len > mem_->size(),
             mem_->name(), ": bump allocator exhausted (",
             aligned + len, " > ", mem_->size(), ")");
    next_ = aligned + len;
    return aligned;
}

} // namespace bmhive
