/**
 * @file
 * Unit tests for the guest-OS layer: PCI enumeration, the virtio
 * driver initialization state machine, the net driver's tx/rx and
 * NAPI behaviour, the blk driver's chain format, the packet wire
 * format, and the boot firmware (including failure injection).
 *
 * A vhost-style vm-guest is the harness: it exercises the same
 * driver code a bm-guest runs, against a software backend.
 */

#include <gtest/gtest.h>

#include "base/logging.hh"
#include "cloud/vswitch.hh"
#include "guest/firmware.hh"
#include "guest/packet_wire.hh"
#include "vmsim/vm_guest.hh"

namespace bmhive {
namespace {

using guest::installImage;
using guest::packPacket;
using guest::unpackPacket;
using guest::VirtioBootFirmware;

class GuestStackTest : public ::testing::Test
{
  protected:
    GuestStackTest()
        : sim(99), vswitch(sim, "vswitch"), storage(sim, "storage"),
          vol(&storage.createVolume("v", 64 * MiB))
    {
        vmsim::VmGuestParams pa;
        pa.mac = 0xA;
        pa.volumeSectors = vol->capacity() / 512;
        a = std::make_unique<vmsim::VmGuest>(sim, "a", pa, vswitch,
                                             &storage, vol);
        a->bringUp();

        vmsim::VmGuestParams pb;
        pb.mac = 0xB;
        b = std::make_unique<vmsim::VmGuest>(sim, "b", pb, vswitch);
        b->bringUp();
        sim.run(sim.now() + msToTicks(1));
    }

    Simulation sim;
    cloud::VSwitch vswitch;
    cloud::BlockService storage;
    cloud::Volume *vol;
    std::unique_ptr<vmsim::VmGuest> a, b;
};

TEST_F(GuestStackTest, EnumerationProgrammedBars)
{
    // bringUp() enumerated; both devices must decode MMIO.
    auto &bus = a->bus();
    std::uint32_t bar_net =
        bus.configRead(vmsim::VmGuest::netSlot, pci::REG_BAR0, 4);
    std::uint32_t bar_blk =
        bus.configRead(vmsim::VmGuest::blkSlot, pci::REG_BAR0, 4);
    EXPECT_NE(bar_net & ~0xfu, 0u);
    EXPECT_NE(bar_blk & ~0xfu, 0u);
    EXPECT_NE(bar_net, bar_blk);
    // Both enabled for memory + bus mastering.
    for (int slot :
         {vmsim::VmGuest::netSlot, vmsim::VmGuest::blkSlot}) {
        auto cmd = bus.configRead(slot, pci::REG_COMMAND, 2);
        EXPECT_TRUE(cmd & pci::CMD_MEM_SPACE);
        EXPECT_TRUE(cmd & pci::CMD_BUS_MASTER);
    }
}

TEST_F(GuestStackTest, DriverNegotiatedModernFeatures)
{
    EXPECT_TRUE(a->net().features() & virtio::VIRTIO_F_VERSION_1);
    EXPECT_TRUE(a->net().features() &
                virtio::VIRTIO_RING_F_INDIRECT_DESC);
    EXPECT_TRUE(a->net().features() & virtio::VIRTIO_NET_F_MAC);
    EXPECT_TRUE(a->blk()->features() & virtio::VIRTIO_F_VERSION_1);
}

TEST_F(GuestStackTest, BlkCapacityFromDeviceConfig)
{
    EXPECT_EQ(a->blk()->capacitySectors(),
              vol->capacity() / 512);
}

TEST_F(GuestStackTest, PacketRoundTripPreservesMetadata)
{
    std::vector<cloud::Packet> got;
    b->net().setRxHandler(
        [&](const cloud::Packet &p) { got.push_back(p); });
    cloud::Packet p;
    p.src = 0xA;
    p.dst = 0xB;
    p.len = 700;
    p.created = sim.now();
    p.seq = 0xfeedface;
    ASSERT_TRUE(a->net().sendPacket(p, true, a->os().cpu(1)));
    sim.run(sim.now() + msToTicks(2));
    ASSERT_EQ(got.size(), 1u);
    EXPECT_EQ(got[0].seq, 0xfeedfaceu);
    EXPECT_EQ(got[0].len, 700u);
    EXPECT_EQ(got[0].src, 0xAu);
}

TEST_F(GuestStackTest, TxRingExhaustionRecovers)
{
    // Queue far more packets than the ring holds; with tx-reap on
    // send the driver recycles slots and everything gets through.
    std::uint64_t delivered = 0;
    b->net().setRxHandler(
        [&](const cloud::Packet &) { ++delivered; });
    unsigned submitted = 0;
    std::function<void()> pump = [&] {
        for (int burst = 0; burst < 64 && submitted < 2000;
             ++burst) {
            cloud::Packet p;
            p.src = 0xA;
            p.dst = 0xB;
            p.len = 64;
            p.seq = submitted;
            if (!a->net().sendPacket(p, false, a->os().cpu(1)))
                break;
            ++submitted;
        }
        a->net().kickTx(a->os().cpu(1));
        if (submitted < 2000) {
            auto *ev = new OneShotEvent(pump, "pump");
            sim.eventq().schedule(ev, sim.now() + usToTicks(50));
        }
    };
    pump();
    sim.run(sim.now() + msToTicks(50));
    EXPECT_EQ(submitted, 2000u);
    EXPECT_EQ(delivered, 2000u);
    // With tx interrupts suppressed, completions are reaped
    // lazily in the xmit path: at most one ring's worth remains.
    EXPECT_GE(a->net().txCompleted(), 2000u - 256u);
}

TEST_F(GuestStackTest, RxSequenceIsOrdered)
{
    // Packets between one pair must arrive in order (single path,
    // FIFO at every stage).
    std::vector<std::uint64_t> seqs;
    b->net().setRxHandler(
        [&](const cloud::Packet &p) { seqs.push_back(p.seq); });
    for (unsigned i = 0; i < 300; ++i) {
        cloud::Packet p;
        p.src = 0xA;
        p.dst = 0xB;
        p.len = 64;
        p.seq = i;
        while (!a->net().sendPacket(p, true, a->os().cpu(1)))
            sim.run(sim.now() + usToTicks(20));
    }
    sim.run(sim.now() + msToTicks(20));
    ASSERT_EQ(seqs.size(), 300u);
    for (unsigned i = 0; i < 300; ++i)
        ASSERT_EQ(seqs[i], i);
}

TEST_F(GuestStackTest, BlkWriteReadDataIntegrity)
{
    std::vector<std::uint8_t> data(8192);
    for (std::size_t i = 0; i < data.size(); ++i)
        data[i] = std::uint8_t((i * 13) ^ (i >> 7));

    bool wrote = false, read = false;
    a->blk()->write(64, 8192, &data, a->os().cpu(1),
                    [&](std::uint8_t st, Addr) {
                        EXPECT_EQ(st, virtio::VIRTIO_BLK_S_OK);
                        wrote = true;
                    });
    sim.run(sim.now() + msToTicks(30));
    ASSERT_TRUE(wrote);

    a->blk()->read(64, 8192, a->os().cpu(1),
                   [&](std::uint8_t st, Addr addr) {
                       EXPECT_EQ(st, virtio::VIRTIO_BLK_S_OK);
                       EXPECT_EQ(a->os().memory().readBlob(addr,
                                                           8192),
                                 data);
                       read = true;
                   });
    sim.run(sim.now() + msToTicks(30));
    EXPECT_TRUE(read);
    EXPECT_EQ(a->blk()->errors(), 0u);
    // And the volume itself holds the bytes.
    EXPECT_EQ(vol->readData(64, 8192), data);
}

TEST_F(GuestStackTest, ManyConcurrentBlockIos)
{
    unsigned done = 0;
    for (unsigned i = 0; i < 48; ++i) {
        ASSERT_TRUE(a->blk()->read(
            i * 8, 4 * KiB, a->os().cpu(1 + i % 8),
            [&](std::uint8_t st, Addr) {
                EXPECT_EQ(st, virtio::VIRTIO_BLK_S_OK);
                ++done;
            }));
    }
    sim.run(sim.now() + msToTicks(100));
    EXPECT_EQ(done, 48u);
}

TEST_F(GuestStackTest, UnalignedIoPanics)
{
    Logger::global().setThrowOnDeath(true);
    EXPECT_THROW(a->blk()->read(0, 1000, a->os().cpu(0),
                                [](std::uint8_t, Addr) {}),
                 PanicError);
    Logger::global().setThrowOnDeath(false);
}

TEST_F(GuestStackTest, BootFromInstalledImage)
{
    installImage(*vol, 128 * KiB, "test-image");
    bool ok = false;
    std::string ver;
    VirtioBootFirmware fw(a->os(), *a->blk());
    fw.boot([&](bool b, const std::string &v) {
        ok = b;
        ver = v;
    });
    sim.run(sim.now() + secToTicks(2));
    EXPECT_TRUE(ok);
    EXPECT_EQ(ver, "test-image");
}

TEST_F(GuestStackTest, BootRejectsMissingImage)
{
    // No image installed on this fresh volume: bad magic.
    bool called = false, ok = true;
    VirtioBootFirmware fw(a->os(), *a->blk());
    fw.boot([&](bool b, const std::string &) {
        called = true;
        ok = b;
    });
    sim.run(sim.now() + secToTicks(1));
    EXPECT_TRUE(called);
    EXPECT_FALSE(ok);
}

TEST_F(GuestStackTest, BootDetectsCorruptKernel)
{
    installImage(*vol, 128 * KiB, "test-image");
    // Flip bytes in the middle of the kernel.
    std::vector<std::uint8_t> garbage(512, 0x00);
    vol->writeData(guest::ImageLayout::kernelSector + 100, garbage);
    bool ok = true;
    VirtioBootFirmware fw(a->os(), *a->blk());
    fw.boot([&](bool b, const std::string &) { ok = b; });
    sim.run(sim.now() + secToTicks(2));
    EXPECT_FALSE(ok);
}

TEST(PacketWireTest, PackUnpackRoundTrip)
{
    GuestMemory m("m", 256);
    cloud::Packet p;
    p.src = 0x112233445566ull;
    p.dst = 0xaabbccddeeffull;
    p.len = 1442;
    p.created = 0x123456789abcull;
    p.seq = 42;
    p.flow = 0xf10f;
    p.csum = 0xc5c5c5c5u;
    packPacket(m, 16, p);
    cloud::Packet q = unpackPacket(m, 16);
    EXPECT_EQ(q.src, p.src);
    EXPECT_EQ(q.dst, p.dst);
    EXPECT_EQ(q.len, p.len);
    EXPECT_EQ(q.created, p.created);
    EXPECT_EQ(q.seq, p.seq);
    EXPECT_EQ(q.flow, p.flow);
    EXPECT_EQ(q.csum, p.csum);
    // Wire format: five little-endian words, then checksum and flow
    // sharing the sixth (checksum in the low half).
    EXPECT_EQ(m.read64(16 + 0), p.src);
    EXPECT_EQ(m.read64(16 + 32), p.seq);
    EXPECT_EQ(m.read64(16 + 40),
              std::uint64_t(p.csum) | (std::uint64_t(p.flow) << 32));
    EXPECT_EQ(m.read8(16 + guest::packetWireBytes), 0u);
}

TEST(PacketWireTest, RxChainTooSmallRejected)
{
    GuestMemory m("m", 4096);
    virtio::DescChain chain;
    chain.segs.push_back({0x100, 16, true}); // smaller than hdr+meta
    cloud::Packet p;
    p.len = 64;
    EXPECT_EQ(guest::writePacketToRxChain(m, chain, p), 0u);
}

TEST(PacketWireTest, TxChainSkipsWritableSegs)
{
    GuestMemory m("m", 4096);
    cloud::Packet p;
    p.seq = 7;
    p.len = 64;
    packPacket(m, 0x100 + virtio::VirtioNetHdr::wireSize, p);
    virtio::DescChain chain;
    chain.segs.push_back({0x800, 128, true}); // writable: skip
    chain.segs.push_back({0x100, 128, false});
    auto ext = guest::readPacketFromTxChain(m, chain);
    ASSERT_TRUE(ext.ok);
    EXPECT_EQ(ext.pkt.seq, 7u);
}

} // namespace
} // namespace bmhive
