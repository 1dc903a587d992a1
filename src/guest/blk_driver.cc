#include "guest/blk_driver.hh"

#include "base/logging.hh"
#include "cloud/dif.hh"

namespace bmhive {
namespace guest {

using namespace virtio;

BlkDriver::BlkDriver(GuestOs &os, int slot) : VirtioDriver(os, slot)
{
}

void
BlkDriver::start(std::uint16_t queue_size, Bytes max_io)
{
    wanted_ = VIRTIO_BLK_F_SEG_MAX | VIRTIO_BLK_F_FLUSH |
              VIRTIO_BLK_F_MQ | VIRTIO_RING_F_INDIRECT_DESC;
    queueSize_ = queue_size;
    initialize(wanted_, queue_size);
    maxIo_ = max_io;

    // blk-mq: use every submission queue the device exposes (the
    // config field is authoritative when F_MQ is negotiated).
    activeQueues_ = 1;
    if (features_ & VIRTIO_BLK_F_MQ) {
        activeQueues_ = cfgRead(
            deviceCfgOffset + VirtioBlkConfig::numQueuesOffset, 2);
        activeQueues_ =
            std::max(1u, std::min(activeQueues_, numQueues()));
    }

    std::uint16_t n = queue(0).layout().size();
    // Keep the in-flight window modest so the bounce arena stays
    // small; 64 concurrent requests far exceeds fio's 8 jobs.
    std::uint16_t inflight = std::min<std::uint16_t>(n, 64);
    slots_.resize(inflight);
    slotOfHead_.assign(activeQueues_, {});
    for (unsigned q = 0; q < activeQueues_; ++q) {
        slotOfHead_[q].assign(queue(q).layout().size(), 0);
        onQueueInterrupt(q,
                         [this, q] { completionInterrupt(q); });
    }
    for (std::uint16_t i = 0; i < inflight; ++i) {
        slots_[i].hdr = os_.allocator().alloc(
            VirtioBlkReqHdr::wireSize, 16);
        // Headroom for DIF tags so integrity can be toggled
        // without reshaping the arena.
        slots_[i].data = os_.allocator().alloc(
            cloud::difWireBytes(max_io), 512);
        slots_[i].status = os_.allocator().alloc(1, 1);
        freeSlots_.push_back(i);
    }
}

std::uint64_t
BlkDriver::capacitySectors()
{
    std::uint64_t lo = cfgRead(
        deviceCfgOffset + VirtioBlkConfig::capacityOffset, 4);
    std::uint64_t hi = cfgRead(
        deviceCfgOffset + VirtioBlkConfig::capacityOffset + 4, 4);
    return lo | (hi << 32);
}

bool
BlkDriver::read(std::uint64_t sector, Bytes len,
                hw::CpuExecutor &cpu_ctx, IoCallback cb)
{
    return submitIo(VIRTIO_BLK_T_IN, sector, len, nullptr, cpu_ctx,
                    std::move(cb));
}

bool
BlkDriver::write(std::uint64_t sector, Bytes len,
                 const std::vector<std::uint8_t> *data,
                 hw::CpuExecutor &cpu_ctx, IoCallback cb)
{
    return submitIo(VIRTIO_BLK_T_OUT, sector, len, data, cpu_ctx,
                    std::move(cb));
}

unsigned
BlkDriver::queueForCpu(const hw::CpuExecutor &cpu_ctx) const
{
    if (activeQueues_ <= 1)
        return 0;
    // The issuing vCPU owns a queue (vCPU index mod queue count),
    // the blk-mq software->hardware context map.
    for (unsigned i = 0; i < os_.cpuCount(); ++i) {
        if (&os_.cpu(i) == &cpu_ctx)
            return i % activeQueues_;
    }
    return 0; // non-vCPU context (firmware, tests): queue 0
}

bool
BlkDriver::submitIo(std::uint32_t type, std::uint64_t sector,
                    Bytes len, const std::vector<std::uint8_t> *data,
                    hw::CpuExecutor &cpu_ctx, IoCallback cb)
{
    panic_if(len > maxIo_, "I/O larger than the arena: ", len);
    panic_if(len % blkSectorSize != 0,
             "I/O must be sector-aligned: ", len);
    if (freeSlots_.empty())
        return false;
    std::uint16_t slot = freeSlots_.back();
    Slot &s = slots_[slot];

    VirtioBlkReqHdr hdr;
    hdr.type = type;
    hdr.sector = sector;
    hdr.writeTo(os_.memory(), s.hdr);
    if (type == VIRTIO_BLK_T_OUT && data != nullptr) {
        panic_if(data->size() > len, "write data exceeds length");
        os_.memory().writeBlob(s.data, *data);
    }
    if (integrity_ && type == VIRTIO_BLK_T_OUT && len > 0) {
        // Seal the payload: per-sector guard/ref tags appended
        // after it, verified by the backend before persisting.
        std::uint8_t *wire =
            os_.memory().span(s.data, cloud::difWireBytes(len));
        cloud::difBuildTags(wire, len, sector, wire + len);
    }

    s.type = type;
    s.sector = sector;
    s.len = len;
    s.retries = 0;
    s.q = queueForCpu(cpu_ctx);

    if (!resubmit(slot))
        return false;
    freeSlots_.pop_back();
    s.cb = std::move(cb);

    if (queue(s.q).shouldKick())
        kick(s.q, cpu_ctx);
    return true;
}

bool
BlkDriver::resubmit(std::uint16_t slot)
{
    Slot &s = slots_[slot];
    // Poison the status byte before every attempt: a completion
    // whose status still reads as the sentinel means the device
    // never wrote it (lost or malformed on the device side), which
    // must surface as an error — the arena's initial zero would
    // otherwise read as a stale VIRTIO_BLK_S_OK.
    os_.memory().write8(s.status, statusUnwritten);
    bool is_write = (s.type == VIRTIO_BLK_T_OUT);
    auto data_len = std::uint32_t(
        integrity_ ? cloud::difWireBytes(s.len) : s.len);
    Segment out[2] = {
        {s.hdr, std::uint32_t(VirtioBlkReqHdr::wireSize), false}};
    Segment in[2];
    std::size_t nout = 1, nin = 0;
    if (s.len > 0) {
        Segment dataseg{s.data, data_len, !is_write};
        if (is_write)
            out[nout++] = dataseg;
        else
            in[nin++] = dataseg;
    }
    in[nin++] = {s.status, 1, true};

    auto head = queue(s.q).submit({out, nout}, {in, nin}, slot);
    if (!head)
        return false;
    slotOfHead_[s.q][*head] = slot;
    return true;
}

void
BlkDriver::resetAndReinit()
{
    // Whatever was in flight on the old ring is gone. Reinitialize
    // first so the failure callbacks fired below can resubmit onto
    // the fresh ring.
    std::vector<std::pair<IoCallback, Addr>> failed;
    for (auto &s : slots_) {
        if (s.cb) {
            failed.emplace_back(std::move(s.cb), s.data);
            s.cb = nullptr;
        }
    }
    teardownForReset();
    initialize(wanted_, queueSize_);
    slotOfHead_.assign(activeQueues_, {});
    for (unsigned q = 0; q < activeQueues_; ++q)
        slotOfHead_[q].assign(queue(q).layout().size(), 0);
    freeSlots_.clear();
    for (std::uint16_t i = 0; i < slots_.size(); ++i)
        freeSlots_.push_back(i);
    resets_.inc();
    for (auto &[cb, data] : failed) {
        errors_.inc();
        done_.inc();
        cb(VIRTIO_BLK_S_IOERR, data);
    }
}

void
BlkDriver::completionInterrupt(unsigned q)
{
    if (deviceNeedsReset()) {
        resetAndReinit();
        return;
    }
    bool resubmitted = false;
    // A completion callback may reset the driver (tearing the
    // queue down) or submit more work; the reaped list lives here.
    queue(q).collectUsed(used_);
    for (const auto &c : used_) {
        std::uint16_t slot = slotOfHead_[q][c.head];
        Slot &s = slots_[slot];
        std::uint8_t status = os_.memory().read8(s.status);
        if (status == statusUnwritten)
            status = VIRTIO_BLK_S_IOERR;
        if (integrity_ && status == VIRTIO_BLK_S_OK &&
            s.type == VIRTIO_BLK_T_IN && s.len > 0) {
            // Verify the returned payload against its tags: a
            // corruption on the completion path (shadow ring, DMA
            // back to us) surfaces here instead of in the data.
            Bytes wire = cloud::difWireBytes(s.len);
            if (cloud::difCheck(os_.memory().span(s.data, wire), wire,
                                s.sector) >= 0) {
                difDetects_.inc();
                status = VIRTIO_BLK_S_IOERR;
            }
        }
        if (integrity_ && status != VIRTIO_BLK_S_OK &&
            s.retries < maxIntegrityRetries) {
            // Heal before the caller sees anything: the bounce
            // buffer still holds the pristine payload (writes),
            // and storage still holds the good copy (reads).
            ++s.retries;
            difRetries_.inc();
            if (resubmit(slot)) {
                resubmitted = true;
                continue;
            }
            // Ring full: fall through and report the error.
        }
        done_.inc();
        if (status != VIRTIO_BLK_S_OK)
            errors_.inc();
        IoCallback cb = std::move(s.cb);
        s.cb = nullptr;
        freeSlots_.push_back(slot);
        if (cb)
            cb(status, s.data);
    }
    if (resubmitted && queue(q).shouldKick())
        kick(q, os_.cpu(0));
}

} // namespace guest
} // namespace bmhive
