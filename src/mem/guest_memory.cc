#include "mem/guest_memory.hh"

namespace bmhive {

void
GuestMemory::outOfBounds(const char *op, Addr addr, Bytes len) const
{
    panic(name_, ": out-of-bounds ", op, " [", addr, ", ", addr + len,
          ") of ", data_.size(), " bytes");
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
