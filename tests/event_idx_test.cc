/**
 * @file
 * Tests for VIRTIO_RING_F_EVENT_IDX: the spec's crossing predicate
 * (section 2.4.7.2), kick suppression seen by the driver,
 * interrupt suppression seen by the device, end-to-end behaviour
 * through IO-Bond (which must honor the guest's used_event), and
 * the interrupt-count advantage over flag-based suppression under
 * a completion burst.
 */

#include <gtest/gtest.h>

#include "base/logging.hh"
#include "hw/compute_board.hh"
#include "iobond/iobond.hh"
#include "virtio/virtio_net.hh"
#include "virtio/virtqueue.hh"

namespace bmhive {
namespace virtio {
namespace {

TEST(VringNeedEventTest, SpecPredicate)
{
    // Crossing: old < event+1 <= new (mod 2^16).
    EXPECT_TRUE(vringNeedEvent(5, 6, 5));   // just crossed
    EXPECT_FALSE(vringNeedEvent(5, 5, 4));  // not yet at event+1
    EXPECT_TRUE(vringNeedEvent(5, 8, 3));   // crossed inside batch
    EXPECT_FALSE(vringNeedEvent(5, 9, 7));  // crossed earlier
    // Wraparound cases.
    EXPECT_TRUE(vringNeedEvent(0xffff, 0, 0xffff));
    EXPECT_TRUE(vringNeedEvent(1, 3, 0xfffe));
    EXPECT_FALSE(vringNeedEvent(0x8000, 2, 1));
}

class EventIdxPairTest : public ::testing::Test
{
  protected:
    EventIdxPairTest()
        : mem("m", 1 * MiB),
          layout(VringLayout::contiguous(8, 0x1000)),
          drv(mem, layout, false, 0, /*event_idx=*/true),
          dev(mem, layout, /*event_idx=*/true)
    {
    }

    GuestMemory mem;
    VringLayout layout;
    VirtQueueDriver drv;
    VirtQueueDevice dev;
};

TEST_F(EventIdxPairTest, DeviceRearmGovernsKicks)
{
    // Initially avail_event = 0, nothing published yet: the first
    // publication (avail 0 -> 1) crosses event 0.
    drv.submit({{0x100, 8, false}}, {}, 1);
    EXPECT_TRUE(drv.shouldKick());
    // Re-checking without new publications: no kick needed.
    drv.submit({{0x100, 8, false}}, {}, 2);
    drv.submit({{0x100, 8, false}}, {}, 3);
    // Device hasn't re-armed yet: suppressed.
    EXPECT_FALSE(drv.shouldKick());

    // Device drains and re-arms on each pop; the next publication
    // crosses again.
    while (dev.pop())
        ;
    drv.submit({{0x100, 8, false}}, {}, 4);
    EXPECT_TRUE(drv.shouldKick());
}

TEST_F(EventIdxPairTest, DeviceSuppressionParksEvent)
{
    dev.setNoNotify(true);
    for (int i = 0; i < 6; ++i) {
        drv.submit({{0x100, 8, false}}, {}, std::uint64_t(i));
        EXPECT_FALSE(drv.shouldKick()) << i;
    }
    // The event-idx re-arm race (virtio 1.0 section 2.4.7.1): a
    // device re-enabling notifications must re-check the ring for
    // entries published while suppressed — no kick will come for
    // them.
    dev.setNoNotify(false);
    EXPECT_TRUE(dev.hasWork());
    while (dev.pop())
        ;
    // From a drained, re-armed ring the next publication kicks.
    drv.submit({{0x100, 8, false}}, {}, 99);
    EXPECT_TRUE(drv.shouldKick());
}

TEST_F(EventIdxPairTest, InterruptOnlyOnUsedEventCrossing)
{
    // The driver re-arms used_event when it reaps; completions
    // before the next reap raise exactly one interrupt request.
    for (int i = 0; i < 4; ++i)
        drv.submit({{0x100, 8, false}}, {}, std::uint64_t(i));
    unsigned irqs = 0;
    for (int i = 0; i < 4; ++i) {
        auto c = dev.pop();
        ASSERT_NE(c, nullptr);
        dev.pushUsed(c->head, 0);
        if (dev.shouldInterrupt())
            ++irqs;
    }
    // used_event was 0: the first completion crosses, later ones
    // do not (driver hasn't re-armed).
    EXPECT_EQ(irqs, 1u);

    // After the driver reaps, the next completion crosses again.
    EXPECT_EQ(drv.collectUsed().size(), 4u);
    drv.submit({{0x100, 8, false}}, {}, 9);
    auto c = dev.pop();
    dev.pushUsed(c->head, 0);
    EXPECT_TRUE(dev.shouldInterrupt());
}

TEST_F(EventIdxPairTest, DriverSuppressionParksUsedEvent)
{
    drv.setNoInterrupt(true);
    drv.submit({{0x100, 8, false}}, {}, 1);
    auto c = dev.pop();
    dev.pushUsed(c->head, 0);
    EXPECT_FALSE(dev.shouldInterrupt());
    // Mirror of the re-arm race on the interrupt side: the driver
    // re-enabling interrupts must reap completions that landed
    // while suppressed (collectUsed also re-arms used_event).
    drv.setNoInterrupt(false);
    EXPECT_EQ(drv.collectUsed().size(), 1u);
    drv.submit({{0x100, 8, false}}, {}, 2);
    c = dev.pop();
    dev.pushUsed(c->head, 0);
    EXPECT_TRUE(dev.shouldInterrupt());
}

/**
 * End-to-end through IO-Bond: a guest driver that negotiated
 * EVENT_IDX gets interrupt moderation from the hardware bridge.
 */
class IoBondEventIdxTest : public ::testing::Test
{
  protected:
    IoBondEventIdxTest()
        : sim(7),
          board(sim, "board", hw::CpuCatalog::xeonE5_2682v4(),
                32 * MiB, paper::ioBondPciAccess),
          baseMem("base", 64 * MiB),
          bond(sim, "bond", board, baseMem, 0)
    {
        bond.addNetFunction(3, 0xAB);
        auto &bus = board.pciBus();
        bus.configWrite(3, pci::REG_BAR0, 0xe0000000u, 4);
        bus.configWrite(3, pci::REG_COMMAND,
                        pci::CMD_MEM_SPACE | pci::CMD_BUS_MASTER,
                        2);
        // Negotiate VERSION_1 + EVENT_IDX.
        wr(COMMON_GFSELECT, 0, 4);
        wr(COMMON_GF, std::uint32_t(VIRTIO_RING_F_EVENT_IDX), 4);
        wr(COMMON_GFSELECT, 1, 4);
        wr(COMMON_GF, std::uint32_t(VIRTIO_F_VERSION_1 >> 32), 4);
        for (unsigned q = 0; q < 2; ++q) {
            wr(COMMON_Q_SELECT, q, 2);
            wr(COMMON_Q_SIZE, 8, 2);
            layouts[q] =
                VringLayout::contiguous(8, 0x10000 + q * 0x1000);
            wr(COMMON_Q_DESCLO,
               std::uint32_t(layouts[q].descAddr()), 4);
            wr(COMMON_Q_AVAILLO,
               std::uint32_t(layouts[q].availAddr()), 4);
            wr(COMMON_Q_USEDLO,
               std::uint32_t(layouts[q].usedAddr()), 4);
            wr(COMMON_Q_MSIX, q, 2);
            wr(COMMON_Q_ENABLE, 1, 2);
        }
        wr(COMMON_STATUS,
           STATUS_ACKNOWLEDGE | STATUS_DRIVER | STATUS_DRIVER_OK,
           1);
        drv = std::make_unique<VirtQueueDriver>(
            board.memory(), layouts[NET_TXQ], false, 0,
            /*event_idx=*/true);
        board.pciBus().setMsiHandler(
            [this](int, unsigned) { ++msis; });
    }

    void
    wr(Addr off, std::uint32_t v, unsigned size)
    {
        board.pciBus().memWrite(0xe0000000u + off, v, size);
    }

    Simulation sim;
    hw::ComputeBoard board;
    GuestMemory baseMem;
    iobond::IoBond bond;
    VringLayout layouts[2];
    std::unique_ptr<VirtQueueDriver> drv;
    unsigned msis = 0;
};

TEST_F(IoBondEventIdxTest, FeatureNegotiated)
{
    EXPECT_TRUE(bond.function(0).featureNegotiated(
        VIRTIO_RING_F_EVENT_IDX));
}

TEST_F(IoBondEventIdxTest, MsiOnlyOnUsedEventCrossing)
{
    // Publish 4 chains, kick once; the backend completes all 4.
    for (int i = 0; i < 4; ++i)
        drv->submit({{0x20000, 64, false}}, {},
                    std::uint64_t(i));
    wr(notifyRegionOffset, NET_TXQ, 4);
    sim.run(sim.now() + msToTicks(1));

    VirtQueueDevice dev(baseMem, bond.shadowLayout(0, NET_TXQ));
    while (auto c = dev.pop())
        dev.pushUsed(c->head, 0);
    bond.backendCompleted(0, NET_TXQ);
    sim.run(sim.now() + msToTicks(1));
    // used_event was 0: exactly one crossing, one MSI.
    EXPECT_EQ(msis, 1u);
    EXPECT_EQ(drv->collectUsed().size(), 4u);

    // The reap re-armed used_event: the next completion interrupts
    // again.
    drv->submit({{0x20000, 64, false}}, {}, 5);
    wr(notifyRegionOffset, NET_TXQ, 4);
    sim.run(sim.now() + msToTicks(1));
    auto c = dev.pop();
    ASSERT_NE(c, nullptr);
    dev.pushUsed(c->head, 0);
    bond.backendCompleted(0, NET_TXQ);
    sim.run(sim.now() + msToTicks(1));
    EXPECT_EQ(msis, 2u);
}

TEST_F(IoBondEventIdxTest, ParkedUsedEventSilencesIoBond)
{
    drv->setNoInterrupt(true);
    drv->submit({{0x20000, 64, false}}, {}, 1);
    wr(notifyRegionOffset, NET_TXQ, 4);
    sim.run(sim.now() + msToTicks(1));
    VirtQueueDevice dev(baseMem, bond.shadowLayout(0, NET_TXQ));
    auto c = dev.pop();
    ASSERT_NE(c, nullptr);
    dev.pushUsed(c->head, 0);
    bond.backendCompleted(0, NET_TXQ);
    sim.run(sim.now() + msToTicks(1));
    EXPECT_EQ(msis, 0u);
    // Data still arrived.
    EXPECT_EQ(drv->collectUsed().size(), 1u);
}

} // namespace
} // namespace virtio
} // namespace bmhive
