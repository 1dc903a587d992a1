/**
 * @file
 * Layer probes for traced runs. Each probe calls one layer's public
 * function on inputs shaped like the workload that just ran and
 * times it with the wall clock. Probe cost times the run's exported
 * call count estimates the host ms that layer took; whatever the
 * estimates do not cover is reported as unattributed. These are
 * estimates: a probe runs with warm caches and without the rest of
 * the simulator around it.
 */

#include <algorithm>
#include <cstdint>
#include <vector>

#include "base/paper_constants.hh"
#include "base/random.hh"
#include "cloud/block_service.hh"
#include "cloud/dif.hh"
#include "cloud/packet.hh"
#include "cloud/vswitch.hh"
#include "harness.hh"
#include "mem/dma_engine.hh"
#include "mem/guest_memory.hh"
#include "mem/pool_allocator.hh"

namespace perfbench {

using namespace bmhive;

namespace {

/** Wall ns per call of @p calls invocations timed by @p body. */
template <typename Fn>
double
nsPerCall(std::uint64_t calls, Fn &&body)
{
    auto t0 = Clock::now();
    body();
    return secondsSince(t0) * 1e9 / double(calls);
}

/** DmaEngine::copy with ECRC on, at the workload's mean transfer
 *  size; returns ns per KiB moved. */
double
probeDma(double seg_bytes)
{
    const Bytes seg = std::clamp<Bytes>(Bytes(seg_bytes), 64, 256 * KiB);
    const Bytes span = 8 * MiB;
    const std::uint64_t n =
        std::clamp<std::uint64_t>((64 * MiB) / seg, 256, 20000);
    Simulation sim(1);
    GuestMemory src("probe.src", span), dst("probe.dst", span);
    DmaEngine dma(sim, "probe.dma",
                  Bandwidth::gbps(paper::ioBondDmaGbps));
    dma.setIntegrity(true);
    double ns = nsPerCall(n, [&] {
        for (std::uint64_t i = 0; i < n; ++i) {
            Addr off = (i * seg) % (span - seg);
            dma.copy(src, off, dst, off, seg, [] {});
            if (i % 64 == 63)
                sim.run();
        }
        sim.run();
    });
    return ns / (double(seg) / 1024.0);
}

/** PoolAllocator::alloc + free at the workload's buffer sizes, in
 *  batches freed in shuffled order; returns ns per alloc/free. */
double
probePool(const std::vector<std::uint64_t> &sizes)
{
    PoolAllocator pool(0, 256 * MiB);
    Rng rng(7);
    const unsigned batch = 64, rounds = 400;
    std::vector<Addr> live;
    live.reserve(batch);
    return nsPerCall(std::uint64_t(batch) * rounds, [&] {
        for (unsigned r = 0; r < rounds; ++r) {
            for (unsigned i = 0; i < batch; ++i)
                live.push_back(
                    pool.alloc(sizes[(r + i) % sizes.size()]));
            for (unsigned i = batch; i > 1; --i)
                std::swap(live[i - 1], live[rng.uniformInt(0, i - 1)]);
            for (Addr a : live)
                pool.free(a);
            live.clear();
        }
    });
}

/** Typed GuestMemory reads (vring-field sized) at random aligned
 *  addresses; returns ns per read. */
double
probeGuestReads()
{
    const Bytes size = 32 * MiB;
    GuestMemory mem("probe.mem", size);
    Rng rng(11);
    std::vector<Addr> addrs(4096);
    for (auto &a : addrs)
        a = rng.uniformInt(0, size / 8 - 1) * 8;
    const std::uint64_t n = 1 << 21;
    std::uint64_t sink = 0;
    double ns = nsPerCall(n, [&] {
        for (std::uint64_t i = 0; i < n; i += 3) {
            Addr a = addrs[i % addrs.size()];
            sink += mem.read16(a) + mem.read32(a) + mem.read64(a);
        }
    });
    volatile std::uint64_t keep = sink;
    (void)keep;
    return ns;
}

/** VSwitch::send of sealed 1-byte UDP frames through forward (and
 *  its checksum verification) to a port; returns ns per frame. */
double
probeVswitch()
{
    Simulation sim(1);
    cloud::VSwitch vs(sim, "probe.vswitch");
    std::uint64_t got = 0;
    cloud::PortId a = vs.addPort(0xa, [](const cloud::Packet &) {});
    vs.addPort(0xb, [&got](const cloud::Packet &) { ++got; });
    const std::uint64_t n = 200000;
    return nsPerCall(n, [&] {
        for (std::uint64_t i = 0; i < n; ++i) {
            cloud::Packet p;
            p.src = 0xa;
            p.dst = 0xb;
            p.len = cloud::udpFrameBytes(1);
            p.seq = i;
            cloud::sealPacket(p);
            vs.send(a, p);
            if (i % 256 == 255)
                sim.run();
        }
        sim.run();
    });
}

/** Volume::readTags / writeTags at the workload's I/O sizes over
 *  written data; returns {ns per readTags, ns per writeTags}. */
std::pair<double, double>
probeVolume(const std::vector<std::uint64_t> &sizes)
{
    cloud::Volume vol("probe.vol", 64 * MiB);
    Rng rng(13);
    struct Io
    {
        std::uint64_t lba;
        Bytes len;
        std::vector<std::uint8_t> tags;
    };
    std::vector<Io> ios;
    for (unsigned i = 0; i < 64; ++i) {
        Bytes len = sizes[i % sizes.size()];
        std::uint64_t lba = rng.uniformInt(0, 60 * MiB / len) * (len / 512);
        std::vector<std::uint8_t> data(len);
        for (auto &b : data)
            b = std::uint8_t(rng.uniformInt(0, 255));
        vol.writeData(lba, data);
        ios.push_back({lba, len, cloud::difBuildTags(data, lba)});
    }
    const unsigned rounds = 40;
    const std::uint64_t n = std::uint64_t(rounds) * ios.size();
    std::uint64_t sink = 0;
    double wr = nsPerCall(n, [&] {
        for (unsigned r = 0; r < rounds; ++r)
            for (const Io &io : ios)
                vol.writeTags(io.lba, io.tags);
    });
    double rd = nsPerCall(n, [&] {
        for (unsigned r = 0; r < rounds; ++r)
            for (const Io &io : ios)
                sink += vol.readTags(io.lba, io.len).size();
    });
    volatile std::uint64_t keep = sink;
    (void)keep;
    return {rd, wr};
}

} // namespace

void
runProbes(Report &r, const std::vector<std::uint64_t> &io_bytes,
          double drive_ms)
{
    const double transfers = r.layer("mem.dma.transfers");
    double dma_ns_kib = probeDma(
        transfers > 0 ? r.layer("mem.dma.bytes") / transfers : 4096.0);
    double pool_ns = probePool(io_bytes);
    double read_ns = probeGuestReads();
    double vsw_ns = probeVswitch();
    auto [rtags_ns, wtags_ns] = probeVolume(io_bytes);

    r.set("mem.dma.host_ns_per_kib", dma_ns_kib);
    r.set("mem.pool.host_ns_per_alloc", pool_ns);
    r.set("mem.guest.host_ns_per_read", read_ns);
    r.set("cloud.vswitch.host_ns_per_frame", vsw_ns);
    r.set("cloud.volume.host_ns_per_read_tags", rtags_ns);
    r.set("cloud.volume.host_ns_per_write_tags", wtags_ns);

    // Estimates only where the run exports the probed call count.
    // The pool and guest-memory layers export none, so their probe
    // costs stand alone and their time stays in the remainder.
    double dma_ms = dma_ns_kib * r.layer("mem.dma.bytes") / 1024.0 / 1e6;
    double vsw_ms = vsw_ns * r.layer("cloud.vswitch.forwarded") / 1e6;
    double vol_ms = (rtags_ns * r.layer("cloud.storage.reads") +
                     wtags_ns * r.layer("cloud.storage.writes")) /
                    1e6;
    r.set("est.mem.dma_host_ms", dma_ms);
    r.set("est.cloud.vswitch_host_ms", vsw_ms);
    r.set("est.cloud.volume_host_ms", vol_ms);
    r.set("est.unattributed_host_ms",
          drive_ms - dma_ms - vsw_ms - vol_ms);
}

} // namespace perfbench
