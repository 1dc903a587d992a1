/**
 * @file
 * Fault-injection and recovery tests:
 *
 *  - plan parsing and kind-name round trips;
 *  - hostile indirect descriptor tables (cyclic, self-referencing,
 *    out-of-table next pointers) terminate and drop, never hang;
 *  - a scripted chaos schedule (DMA errors, lost/delayed block
 *    I/O, link flaps, dropped doorbells, a port stall, and one
 *    bm-hypervisor crash) under concurrent PacketFlood and fio:
 *    the simulation finishes, every tracked block request
 *    completes exactly once, the guest driver observes
 *    DEVICE_NEEDS_RESET and reinitializes, the watchdog respawns
 *    the crashed process within a bounded time;
 *  - determinism: same seed + same plan => identical metrics.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "base/logging.hh"
#include "bench/common.hh"
#include "fault/fault_injector.hh"
#include "virtio/virtqueue.hh"
#include "workloads/fio.hh"
#include "workloads/net_perf.hh"

namespace bmhive {
namespace {

using namespace virtio;
using fault::FaultInjector;
using fault::FaultKind;
using fault::FaultSpec;

FaultSpec
spec(FaultKind k, unsigned count = 1, Tick dur = 0,
     double mag = 0.0)
{
    FaultSpec s;
    s.kind = k;
    s.count = count;
    s.duration = dur;
    s.magnitude = mag;
    return s;
}

TEST(FaultPlanTest, KindNamesRoundTrip)
{
    for (auto k :
         {FaultKind::DmaCorrupt, FaultKind::DmaFail,
          FaultKind::LinkFlap, FaultKind::DropDoorbell,
          FaultKind::FunctionFail, FaultKind::BlockLose,
          FaultKind::BlockDelay, FaultKind::PortStall,
          FaultKind::HvStall, FaultKind::HvCrash}) {
        auto back = FaultInjector::kindFromName(
            FaultInjector::kindName(k));
        ASSERT_TRUE(back.has_value())
            << FaultInjector::kindName(k);
        EXPECT_EQ(*back, k);
    }
    EXPECT_FALSE(
        FaultInjector::kindFromName("no_such_kind").has_value());
}

TEST(FaultPlanTest, LoadPlanParsesAndRejectsAtomically)
{
    const char *path = "/tmp/bmhive_fault_plan_ok.txt";
    std::FILE *f = std::fopen(path, "w");
    ASSERT_NE(f, nullptr);
    std::fputs("# comment line\n"
               "1500 server.guest0.iobond link_flap dur_us=80\n"
               "\n"
               "2000 storage block_lose count=3\n"
               "2500 vswitch port_stall dur_us=50 mag=1\n",
               f);
    std::fclose(f);

    Simulation sim(1);
    FaultInjector inj(sim, "inj");
    ASSERT_TRUE(inj.loadPlan(path));
    ASSERT_EQ(inj.plan().size(), 3u);
    EXPECT_EQ(inj.plan()[0].at, usToTicks(1500));
    EXPECT_EQ(inj.plan()[0].target, "server.guest0.iobond");
    EXPECT_EQ(inj.plan()[0].spec.kind, FaultKind::LinkFlap);
    EXPECT_EQ(inj.plan()[0].spec.duration, usToTicks(80));
    EXPECT_EQ(inj.plan()[1].spec.count, 3u);
    EXPECT_DOUBLE_EQ(inj.plan()[2].spec.magnitude, 1.0);

    const char *bad = "/tmp/bmhive_fault_plan_bad.txt";
    f = std::fopen(bad, "w");
    ASSERT_NE(f, nullptr);
    std::fputs("1000 storage block_lose\n"
               "2000 storage no_such_kind\n",
               f);
    std::fclose(f);
    // One malformed line rejects the whole file, atomically.
    EXPECT_FALSE(inj.loadPlan(bad));
    EXPECT_EQ(inj.plan().size(), 3u);
    EXPECT_FALSE(inj.loadPlan("/nonexistent/plan"));
}

TEST(FaultPlanTest, UnmatchedTargetCountedNotFatal)
{
    Simulation sim(2);
    FaultInjector inj(sim, "inj");
    inj.at(usToTicks(10), "no.such.component",
           spec(FaultKind::LinkFlap));
    inj.arm();
    sim.run(usToTicks(20));
    EXPECT_EQ(inj.injected(), 0u);
    EXPECT_EQ(inj.unmatched(), 1u);
}

// --- Hostile indirect descriptor tables (satellite: walkDescChain
// hardening). Each shape must terminate, count a bad chain, and
// complete the head with len 0 so the driver's descriptors are
// not leaked.

class HostileIndirect : public ::testing::Test
{
  protected:
    HostileIndirect()
        : mem("m", 64 * KiB),
          l(VringLayout::contiguous(4, 0)), dev(mem, l)
    {
    }

    void
    writeIndirect(unsigned i, std::uint64_t addr,
                  std::uint32_t len, std::uint16_t flags,
                  std::uint16_t next)
    {
        Addr a = tbl + Addr(i) * vringDescSize;
        mem.write64(a, addr);
        mem.write32(a + 8, len);
        mem.write16(a + 12, flags);
        mem.write16(a + 14, next);
    }

    void
    publishHead(std::uint32_t table_len)
    {
        l.writeDesc(mem, 0,
                    {tbl, table_len, VRING_DESC_F_INDIRECT, 0});
        l.setAvailRing(mem, 0, 0);
        l.setAvailIdx(mem, 1);
    }

    void
    expectDropped()
    {
        EXPECT_EQ(dev.pop(), nullptr);
        EXPECT_EQ(dev.badChains(), 1u);
        EXPECT_EQ(l.usedIdx(mem), 1u);
        EXPECT_EQ(l.usedRing(mem, 0).len, 0u);
    }

    GuestMemory mem;
    VringLayout l;
    VirtQueueDevice dev;
    static constexpr Addr tbl = 0x4000;
};

TEST_F(HostileIndirect, CyclicTableTerminates)
{
    writeIndirect(0, 0x100, 8, VRING_DESC_F_NEXT, 1);
    writeIndirect(1, 0x200, 8, VRING_DESC_F_NEXT, 0); // cycle
    publishHead(2 * vringDescSize);
    expectDropped();
}

TEST_F(HostileIndirect, SelfReferencingEntryTerminates)
{
    writeIndirect(0, 0x100, 8, VRING_DESC_F_NEXT, 0); // self
    publishHead(vringDescSize);
    expectDropped();
}

TEST_F(HostileIndirect, NextOutsideTableDropped)
{
    writeIndirect(0, 0x100, 8, VRING_DESC_F_NEXT, 7);
    writeIndirect(1, 0x200, 8, 0, 0);
    publishHead(2 * vringDescSize);
    expectDropped();
}

TEST_F(HostileIndirect, LongCycleInLargeTableTerminates)
{
    // 0 -> 1 -> 2 -> 3 -> 1: the cycle does not include the entry
    // point, so only the step bound can catch it.
    writeIndirect(0, 0x100, 8, VRING_DESC_F_NEXT, 1);
    writeIndirect(1, 0x110, 8, VRING_DESC_F_NEXT, 2);
    writeIndirect(2, 0x120, 8, VRING_DESC_F_NEXT, 3);
    writeIndirect(3, 0x130, 8, VRING_DESC_F_NEXT, 1);
    publishHead(4 * vringDescSize);
    expectDropped();
}

// --- Scripted chaos under live workloads.

TEST(ChaosTest, ScriptedFaultsRecoverExactlyOnce)
{
    bench::Testbed bed(7);
    auto a = bed.bmGuest(0xA, 64);
    auto b = bed.bmGuest(0xB, 0);
    bed.sim.run(bed.sim.now() + msToTicks(1.0));

    hv::BmHypervisor &hv = bed.server.guest(0).hypervisor();
    FaultInjector chaos(bed.sim, "chaos");
    Tick t0 = bed.sim.now();
    chaos.at(t0 + msToTicks(2.0), "storage",
             spec(FaultKind::BlockLose, 4));
    chaos.at(t0 + msToTicks(3.0), "storage",
             spec(FaultKind::BlockDelay, 4, usToTicks(300)));
    chaos.at(t0 + msToTicks(4.0), "server.guest0.iobond.dma",
             spec(FaultKind::DmaFail));
    // Function 1 is guest 0's blk function: the guest's BlkDriver
    // must observe DEVICE_NEEDS_RESET and reinitialize.
    chaos.at(t0 + msToTicks(5.0), "server.guest0.iobond",
             spec(FaultKind::FunctionFail, 1, 0, 1.0));
    chaos.at(t0 + msToTicks(6.0), "server.guest0.iobond",
             spec(FaultKind::LinkFlap, 1, usToTicks(100)));
    chaos.at(t0 + usToTicks(6500), "server.guest0.iobond",
             spec(FaultKind::DropDoorbell, 2));
    chaos.at(t0 + msToTicks(7.0), "vswitch",
             spec(FaultKind::PortStall, 1, usToTicks(200), 1.0));
    chaos.at(t0 + msToTicks(8.0), "server.guest0.hv",
             spec(FaultKind::HvCrash));
    chaos.arm();
    bed.server.startWatchdog(usToTicks(500));

    // Tracked block requests: exactly-once delivery is asserted
    // per request id, across losses, resets, and the crash.
    const unsigned total = 120;
    std::vector<unsigned> completions(total, 0);
    unsigned issued = 0, finished = 0;
    Rng rng(123);
    std::function<void()> pump = [&] {
        unsigned burst = unsigned(rng.uniformInt(1, 4));
        for (unsigned i = 0; i < burst && issued < total; ++i) {
            unsigned id = issued;
            bool ok = a.blk->read(
                rng.uniformInt(0, 1000) * 8, 4096, a.cpu(0),
                [&completions, &finished, id](std::uint8_t,
                                              Addr) {
                    ++completions[id];
                    ++finished;
                });
            if (!ok)
                break;
            ++issued;
        }
        if (issued < total) {
            auto *ev = new OneShotEvent(pump, "pump");
            bed.sim.eventq().schedule(
                ev, bed.sim.now() +
                        Tick(rng.uniformInt(20000, 300000)));
        }
    };
    pump();

    // PacketFlood A->B runs nested inside fio's event loop.
    workloads::PacketFloodParams fp;
    fp.flows = 2;
    fp.batch = 16;
    fp.warmup = msToTicks(1.0);
    fp.window = msToTicks(25.0);
    workloads::PacketFlood flood(bed.sim, "flood", a, b, fp);
    workloads::PacketFloodResult fr;
    auto *flood_ev = new OneShotEvent(
        [&] { fr = flood.run(); }, "flood.start");
    bed.sim.eventq().schedule(flood_ev,
                              bed.sim.now() + usToTicks(100));

    workloads::FioParams fpp;
    fpp.jobs = 4;
    fpp.warmup = msToTicks(1.0);
    fpp.window = msToTicks(28.0);
    workloads::FioRunner fio(bed.sim, "fio", a, fpp);
    auto res = fio.run();

    // Let retries, resets, and the respawn settle out.
    for (int s = 0; s < 300 && finished < issued; ++s)
        bed.sim.run(bed.sim.now() + msToTicks(1.0));

    // The system stayed available through the schedule.
    EXPECT_GT(res.completed, 0u);
    EXPECT_GT(fr.received, 0u);

    // Every fault found its component.
    EXPECT_EQ(chaos.unmatched(), 0u);
    EXPECT_GE(chaos.injected(), 6u);

    // Exactly-once block completion.
    EXPECT_EQ(issued, total);
    EXPECT_EQ(finished, issued);
    for (unsigned i = 0; i < issued; ++i)
        EXPECT_EQ(completions[i], 1u) << "request " << i;

    // The guest saw DEVICE_NEEDS_RESET and reinitialized.
    EXPECT_GE(a.blk->resets(), 1u);

    // The watchdog respawned the crashed process and the recovery
    // time is exported and bounded (crash-to-respawn is at most a
    // couple of watchdog periods).
    EXPECT_GE(hv.respawns(), 1u);
    EXPECT_GE(bed.server.watchdogRespawns(), 1u);
    auto &lat = bed.sim.metrics().latency(
        "server.watchdog.recovery_ticks");
    ASSERT_GE(lat.count(), 1u);
    EXPECT_LT(lat.maxUs(), 5000.0);
}

TEST(ChaosTest, RespawnAloneRecoversInflightIo)
{
    bench::Testbed bed(11);
    auto a = bed.bmGuest(0xA, 64);
    bed.sim.run(bed.sim.now() + msToTicks(1.0));
    hv::BmHypervisor &hv = bed.server.guest(0).hypervisor();

    unsigned done = 0;
    const unsigned total = 24;
    for (unsigned i = 0; i < total; ++i) {
        ASSERT_TRUE(a.blk->read(
            8 * i, 4096, a.cpu(0),
            [&done](std::uint8_t st, Addr) {
                EXPECT_EQ(st, VIRTIO_BLK_S_OK);
                ++done;
            }));
    }
    // Crash while all of it is in flight; no watchdog — respawn
    // directly, as a management action would.
    hv.crash();
    EXPECT_TRUE(hv.crashed());
    bed.sim.run(bed.sim.now() + usToTicks(50));
    hv.respawn();
    EXPECT_FALSE(hv.crashed());
    for (int s = 0; s < 100 && done < total; ++s)
        bed.sim.run(bed.sim.now() + msToTicks(1.0));
    // The republished shadow-ring window was re-served: every
    // request completed successfully, none twice (the callback
    // count can only reach `total` if each fired exactly once).
    EXPECT_EQ(done, total);
    EXPECT_EQ(hv.respawns(), 1u);
}

// A full tx ring is reaped in the xmit path. When that reap finds
// DEVICE_NEEDS_RESET it rebuilds every queue, and the frame must go
// out on the new ring, not through the torn-down one (the ASan tree
// reports a heap-use-after-free otherwise).
TEST(ChaosTest, SendThatResetsTheNicUsesTheNewRing)
{
    bench::Testbed bed(13);
    auto a = bed.bmGuest(0xA, 0);
    auto b = bed.bmGuest(0xB, 0);
    bed.sim.run(bed.sim.now() + msToTicks(1.0));
    std::uint64_t delivered = 0;
    b.net->setRxHandler([&](const cloud::Packet &) { ++delivered; });
    cloud::Packet p;
    p.src = 0xA;
    p.dst = 0xB;
    p.len = 64;
    // Nothing is kicked, so nothing completes: the ring fills and
    // the next send has to reap.
    unsigned queued = 0;
    while (a.net->sendPacket(p, false, a.cpu(0)))
        ++queued;
    ASSERT_GT(queued, 0u);
    bed.server.guest(0).bond().failFunction(0); // the NIC
    EXPECT_TRUE(a.net->sendPacket(p, true, a.cpu(0)));
    EXPECT_EQ(a.net->resets(), 1u);
    bed.sim.run(bed.sim.now() + msToTicks(1.0));
    EXPECT_EQ(delivered, 1u);
}

TEST(ChaosTest, DeterministicGivenSeedAndPlan)
{
    auto run_once = [](std::uint64_t &completed,
                       std::string &json) {
        bench::Testbed bed(42);
        auto a = bed.bmGuest(0xA, 64);
        bed.sim.run(bed.sim.now() + msToTicks(1.0));
        FaultInjector chaos(bed.sim, "chaos");
        std::vector<FaultInjector::RandomTarget> targets = {
            {"server.guest0.iobond",
             {FaultKind::LinkFlap, FaultKind::DropDoorbell}},
            {"server.guest0.iobond.dma",
             {FaultKind::DmaCorrupt, FaultKind::DmaFail}},
            {"server.guest0.hv",
             {FaultKind::HvStall, FaultKind::HvCrash}},
            {"storage",
             {FaultKind::BlockLose, FaultKind::BlockDelay}},
            {"vswitch", {FaultKind::PortStall}},
        };
        chaos.randomPlan(9, targets, msToTicks(15.0), 10);
        chaos.arm();
        bed.server.startWatchdog(msToTicks(1.0));
        workloads::FioParams p;
        p.jobs = 4;
        p.warmup = msToTicks(1.0);
        p.window = msToTicks(15.0);
        workloads::FioRunner fio(bed.sim, "fio", a, p);
        completed = fio.run().completed;
        bed.sim.run(bed.sim.now() + msToTicks(20.0));
        json = bed.sim.metrics().toJson();
    };
    std::uint64_t c1 = 0, c2 = 0;
    std::string j1, j2;
    run_once(c1, j1);
    run_once(c2, j2);
    EXPECT_GT(c1, 0u);
    EXPECT_EQ(c1, c2);
    // Same seed + same plan => identical trace, down to every
    // counter and latency percentile in the registry.
    EXPECT_EQ(j1, j2);
}

} // namespace
} // namespace bmhive
