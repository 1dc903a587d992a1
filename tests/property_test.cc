/**
 * @file
 * Property-based tests (parameterized sweeps + randomized fuzz
 * with reference models):
 *
 *  - virtqueue fuzz against an oracle queue across ring sizes and
 *    descriptor modes;
 *  - IO-Bond mirror fidelity for random chains and payloads;
 *  - token-bucket long-run rate across a rate sweep;
 *  - end-to-end exactly-once, in-order, content-intact delivery
 *    for random packet schedules;
 *  - rack-scale: exactly-once and in-order across repeated live
 *    migrations under a seeded chaos schedule, with same-seed
 *    fleet runs byte-identical in their metrics snapshots.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <deque>

#include "base/logging.hh"
#include "bench/common.hh"
#include "core/instance_catalog.hh"
#include "fleet/fleet_controller.hh"
#include "hw/compute_board.hh"
#include "iobond/iobond.hh"
#include "virtio/virtqueue.hh"
#include "workloads/adversarial.hh"

namespace bmhive {
namespace {

using namespace virtio;

struct RingParam
{
    std::uint16_t size;
    bool indirect;
    bool eventIdx;
};

class VirtqueueFuzz : public ::testing::TestWithParam<RingParam>
{
};

TEST_P(VirtqueueFuzz, RandomSubmitCompleteAgainstOracle)
{
    const RingParam p = GetParam();
    GuestMemory mem("m", 4 * MiB);
    auto layout = VringLayout::contiguous(p.size, 0x1000);
    VirtQueueDriver drv(mem, layout, p.indirect, 0x100000,
                        p.eventIdx);
    VirtQueueDevice dev(mem, layout, p.eventIdx);
    Rng rng(1000 + p.size + (p.indirect ? 1 : 0));

    // Oracle: FIFO of (cookie, expected write length).
    std::deque<std::pair<std::uint64_t, std::uint32_t>> oracle;
    std::uint64_t next_cookie = 1;
    std::uint64_t completed = 0;

    for (int step = 0; step < 20000; ++step) {
        double dice = rng.uniform();
        if (dice < 0.5) {
            // Submit a random chain shape.
            unsigned n_out = unsigned(rng.uniformInt(0, 3));
            unsigned n_in = unsigned(rng.uniformInt(0, 3));
            if (n_out + n_in == 0)
                n_out = 1;
            std::vector<Segment> out, in;
            std::uint32_t wlen = 0;
            for (unsigned i = 0; i < n_out; ++i)
                out.push_back(
                    {0x200000 + 4096 * i,
                     std::uint32_t(rng.uniformInt(1, 512)),
                     false});
            for (unsigned i = 0; i < n_in; ++i) {
                auto len =
                    std::uint32_t(rng.uniformInt(1, 512));
                in.push_back(
                    {0x280000 + 4096 * i, len, true});
                wlen += len;
            }
            auto head = drv.submit(out, in, next_cookie);
            if (head)
                oracle.push_back({next_cookie++, wlen});
        } else if (dice < 0.8) {
            // Device: pop one and complete it in FIFO order.
            if (auto chain = dev.pop()) {
                ASSERT_FALSE(oracle.empty());
                dev.pushUsed(chain->head, chain->writeLen());
            }
        } else {
            // Driver: reap everything completed.
            for (const auto &c : drv.collectUsed()) {
                ASSERT_FALSE(oracle.empty());
                auto [cookie, wlen] = oracle.front();
                // Device completes in pop order == submit order.
                if (c.cookie == cookie) {
                    EXPECT_EQ(c.len, wlen);
                    oracle.pop_front();
                    ++completed;
                }
            }
        }
    }
    // Drain.
    while (auto chain = dev.pop())
        dev.pushUsed(chain->head, chain->writeLen());
    for (const auto &c : drv.collectUsed()) {
        ASSERT_FALSE(oracle.empty());
        EXPECT_EQ(c.cookie, oracle.front().first);
        EXPECT_EQ(c.len, oracle.front().second);
        oracle.pop_front();
        ++completed;
    }
    EXPECT_TRUE(oracle.empty());
    EXPECT_GT(completed, 1000u);
    EXPECT_EQ(dev.badChains(), 0u);
    EXPECT_EQ(drv.freeDescs(), p.size);
}

INSTANTIATE_TEST_SUITE_P(
    Rings, VirtqueueFuzz,
    ::testing::Values(RingParam{2, false, false},
                      RingParam{4, false, false},
                      RingParam{8, true, false},
                      RingParam{64, false, true},
                      RingParam{256, true, false},
                      RingParam{256, true, true},
                      RingParam{1024, false, false}),
    [](const auto &info) {
        return "sz" + std::to_string(info.param.size) +
               (info.param.indirect ? "_ind" : "_dir") +
               (info.param.eventIdx ? "_evt" : "_flag");
    });

class IoBondMirrorFuzz : public ::testing::TestWithParam<int>
{
};

TEST_P(IoBondMirrorFuzz, RandomChainsMirroredByteExact)
{
    Simulation sim(GetParam());
    hw::ComputeBoard board(sim, "board",
                           hw::CpuCatalog::xeonE5_2682v4(),
                           32 * MiB, paper::ioBondPciAccess);
    GuestMemory baseMem("base", 64 * MiB);
    iobond::IoBond bond(sim, "bond", board, baseMem, 0);
    bond.addNetFunction(3, 0x1);
    auto &bus = board.pciBus();
    bus.configWrite(3, pci::REG_BAR0, 0xe0000000u, 4);
    bus.configWrite(3, pci::REG_COMMAND,
                    pci::CMD_MEM_SPACE | pci::CMD_BUS_MASTER, 2);
    auto wr = [&](Addr off, std::uint32_t v, unsigned size) {
        bus.memWrite(0xe0000000u + off, v, size);
    };
    auto layout = VringLayout::contiguous(64, 0x10000);
    wr(COMMON_Q_SELECT, NET_TXQ, 2);
    wr(COMMON_Q_SIZE, 64, 2);
    wr(COMMON_Q_DESCLO, std::uint32_t(layout.descAddr()), 4);
    wr(COMMON_Q_AVAILLO, std::uint32_t(layout.availAddr()), 4);
    wr(COMMON_Q_USEDLO, std::uint32_t(layout.usedAddr()), 4);
    wr(COMMON_Q_ENABLE, 1, 2);
    wr(COMMON_STATUS,
       STATUS_ACKNOWLEDGE | STATUS_DRIVER | STATUS_DRIVER_OK, 1);

    bool use_indirect = GetParam() % 2 == 0;
    VirtQueueDriver drv(board.memory(), layout, use_indirect,
                        0x40000);
    VirtQueueDevice dev(baseMem, bond.shadowLayout(0, NET_TXQ));
    Rng &rng = sim.rng();

    for (int round = 0; round < 60; ++round) {
        // Random payload in random guest location.
        Bytes len = rng.uniformInt(1, 2000);
        Addr src = 0x100000 + rng.uniformInt(0, 64) * 4096;
        std::vector<std::uint8_t> payload(len);
        for (auto &b : payload)
            b = std::uint8_t(rng.uniformInt(0, 255));
        board.memory().writeBlob(src, payload);

        unsigned parts = unsigned(rng.uniformInt(1, 3));
        std::vector<Segment> out;
        Bytes off = 0;
        for (unsigned i = 0; i < parts; ++i) {
            Bytes n = (i + 1 == parts)
                          ? len - off
                          : std::min<Bytes>(
                                len - off,
                                rng.uniformInt(0, len / parts) + 1);
            if (n == 0)
                continue;
            out.push_back({src + off, std::uint32_t(n), false});
            off += n;
        }
        auto head = drv.submit(out, {}, round);
        ASSERT_TRUE(head.has_value());
        wr(notifyRegionOffset, NET_TXQ, 4);
        sim.run(sim.now() + msToTicks(1));

        auto chain = dev.pop();
        ASSERT_NE(chain, nullptr) << round;
        // Reassemble from shadow memory: must match byte for byte.
        std::vector<std::uint8_t> got;
        for (const auto &seg : chain->segs) {
            auto blob = baseMem.readBlob(seg.addr, seg.len);
            got.insert(got.end(), blob.begin(), blob.end());
        }
        ASSERT_EQ(got, payload) << round;
        dev.pushUsed(chain->head, 0);
        bond.backendCompleted(0, NET_TXQ);
        sim.run(sim.now() + msToTicks(1));
        drv.collectUsed();
    }
    EXPECT_EQ(bond.malformedChains(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, IoBondMirrorFuzz,
                         ::testing::Values(1, 2, 3, 4));

class TokenBucketRateSweep : public ::testing::TestWithParam<double>
{
};

TEST_P(TokenBucketRateSweep, LongRunRateMatchesConfig)
{
    double rate = GetParam();
    // Burst must cover the arrival quantization or a drop-style
    // consumer loses tokens to the cap (not a pacing bug).
    TokenBucket b(rate, std::max(rate / 100.0, 8.0));
    Rng rng(7);
    Tick now = 0;
    std::uint64_t admitted = 0;
    // Offer at ~3x the configured rate with random gaps; bound the
    // iteration count so high rates stay fast.
    double secs = std::min(20.0, 2e6 / (3.0 * rate));
    Tick horizon = secToTicks(secs);
    double offer_gap_sec = 1.0 / (3.0 * rate);
    while (now < horizon) {
        now += Tick(rng.exponential(offer_gap_sec * tickSec));
        if (b.tryConsume(now, 1.0))
            ++admitted;
    }
    double measured = double(admitted) / ticksToSec(now);
    // The initial burst allowance drains once; account for it.
    double expected = rate + b.burst() / ticksToSec(now);
    EXPECT_NEAR(measured, expected, rate * 0.04);
}

INSTANTIATE_TEST_SUITE_P(Rates, TokenBucketRateSweep,
                         ::testing::Values(100.0, 5000.0, 250000.0,
                                           4.0e6),
                         [](const auto &info) {
                             return "r" + std::to_string(
                                              long(info.param));
                         });

class EndToEndDelivery : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(EndToEndDelivery, ExactlyOnceInOrderContentIntact)
{
    bench::Testbed bed(500 + GetParam());
    auto a = bed.bmGuest(0xA, 0);
    auto b = bed.bmGuest(0xB, 0);
    bed.sim.run(bed.sim.now() + msToTicks(1));

    Rng &rng = bed.sim.rng();
    std::vector<std::uint64_t> seqs;
    std::uint64_t bad_fields = 0;
    b.net->setRxHandler([&](const cloud::Packet &p) {
        seqs.push_back(p.seq);
        if (p.src != 0xA || p.dst != 0xB)
            ++bad_fields;
    });

    const unsigned total = 500;
    unsigned sent = 0;
    std::function<void()> pump = [&] {
        unsigned burst = unsigned(rng.uniformInt(1, 24));
        for (unsigned i = 0; i < burst && sent < total; ++i) {
            cloud::Packet p;
            p.src = 0xA;
            p.dst = 0xB;
            p.len = cloud::udpFrameBytes(rng.uniformInt(1, 1300));
            p.seq = sent;
            p.created = bed.sim.now();
            if (!a.net->sendPacket(p, false, a.cpu(1)))
                break;
            ++sent;
        }
        a.net->kickTx(a.cpu(1));
        if (sent < total) {
            auto *ev = new OneShotEvent(pump, "pump");
            bed.sim.eventq().schedule(
                ev, bed.sim.now() +
                        Tick(rng.uniformInt(1000, 200000)));
        }
    };
    pump();
    bed.sim.run(bed.sim.now() + msToTicks(100));

    ASSERT_EQ(sent, total);
    ASSERT_EQ(seqs.size(), total);
    for (unsigned i = 0; i < total; ++i)
        ASSERT_EQ(seqs[i], i);
    EXPECT_EQ(bad_fields, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, EndToEndDelivery,
                         ::testing::Values(1u, 2u, 3u));

class FaultScheduleFuzz : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(FaultScheduleFuzz, TokensConservedIndicesMonotonic)
{
    bench::Testbed bed(900 + GetParam());
    auto g = bed.bmGuest(0xC, 16);
    bed.sim.run(bed.sim.now() + msToTicks(1.0));
    ASSERT_NE(g.blk, nullptr);

    fault::FaultInjector chaos(bed.sim, "chaos");
    std::vector<fault::FaultInjector::RandomTarget> targets = {
        {"server.guest0.iobond",
         {fault::FaultKind::LinkFlap,
          fault::FaultKind::DropDoorbell}},
        {"server.guest0.iobond.dma",
         {fault::FaultKind::DmaCorrupt,
          fault::FaultKind::DmaFail}},
        {"server.guest0.hv",
         {fault::FaultKind::HvStall, fault::FaultKind::HvCrash}},
        {"storage",
         {fault::FaultKind::BlockLose,
          fault::FaultKind::BlockDelay}},
        {"vswitch", {fault::FaultKind::PortStall}},
    };
    chaos.randomPlan(GetParam(), targets, msToTicks(30.0), 14);
    chaos.arm();
    bed.server.startWatchdog(msToTicks(1.0));

    // Token conservation: every block request issued must complete
    // exactly once — OK or IOERR — no matter what the schedule
    // injects (losses retry, crashes respawn, resets fail-fast).
    const unsigned total = 160;
    std::vector<unsigned> completions(total, 0);
    unsigned issued = 0, finished = 0;
    Rng rng(77 + GetParam());
    std::function<void()> pump = [&] {
        unsigned burst = unsigned(rng.uniformInt(1, 6));
        for (unsigned i = 0; i < burst && issued < total; ++i) {
            unsigned id = issued;
            bool ok = g.blk->read(
                rng.uniformInt(0, 1000) * 8, 4096, g.cpu(0),
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
                        Tick(rng.uniformInt(10000, 400000)));
        }
    };
    pump();

    // Index monotonicity: the guest-visible avail and used indices
    // of the blk ring only move forward (mod 2^16) within a device
    // generation; a DEVICE_NEEDS_RESET reinit legitimately starts
    // a fresh ring at zero.
    const Tick stop_at = bed.sim.now() + msToTicks(40.0);
    std::uint16_t last_avail = 0, last_used = 0;
    std::uint64_t last_gen = ~std::uint64_t(0);
    std::uint64_t violations = 0;
    std::function<void()> sample = [&] {
        if (g.blk->initialized()) {
            if (g.blk->resets() != last_gen) {
                last_gen = g.blk->resets();
                last_avail = 0;
                last_used = 0;
            }
            GuestMemory &m = g.os->memory();
            const auto &lay = g.blk->queue(0).layout();
            std::uint16_t a = lay.availIdx(m);
            std::uint16_t u = lay.usedIdx(m);
            if (std::uint16_t(a - last_avail) >= 0x8000)
                ++violations;
            if (std::uint16_t(u - last_used) >= 0x8000)
                ++violations;
            last_avail = a;
            last_used = u;
        }
        if (bed.sim.now() < stop_at) {
            auto *ev = new OneShotEvent(sample, "sample");
            bed.sim.eventq().schedule(
                ev, bed.sim.now() + usToTicks(20.0));
        }
    };
    sample();

    bed.sim.run(stop_at);
    // Let retries, watchdog respawns, and reset recovery settle.
    for (int spin = 0; spin < 200 && finished < issued; ++spin)
        bed.sim.run(bed.sim.now() + msToTicks(1.0));

    EXPECT_EQ(issued, total);
    EXPECT_EQ(finished, issued);
    for (unsigned i = 0; i < issued; ++i)
        EXPECT_EQ(completions[i], 1u) << "request " << i;
    EXPECT_EQ(violations, 0u);
    EXPECT_GT(chaos.injected(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FaultScheduleFuzz,
                         ::testing::Values(1u, 2u, 3u, 4u));

class HostileNeighbor : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(HostileNeighbor, HonestTenantsKeepTheirInvariants)
{
    // One adversarial tenant, three honest ones. The attacker may
    // cost itself its own devices (quarantine, resets); the honest
    // guests' exactly-once and in-order invariants must hold as if
    // it were not there.
    bench::Testbed bed(700 + GetParam());
    bed.bmGuest(0xE, 0); // attacker, guest 0
    auto a = bed.bmGuest(0xA, 0);
    auto b = bed.bmGuest(0xB, 0);
    auto c = bed.bmGuest(0xC, 16);
    bed.sim.run(bed.sim.now() + msToTicks(1));
    ASSERT_NE(c.blk, nullptr);

    workloads::AdversarialGuestParams ap;
    ap.seed = 40 + GetParam();
    ap.period = usToTicks(1.0);
    workloads::AdversarialGuest adv(
        bed.sim, "adv", bed.server.guest(0).board(), ap);
    adv.start();

    // Honest net pair: exactly-once, in-order a -> b.
    Rng rng(33 + GetParam());
    std::vector<std::uint64_t> seqs;
    b.net->setRxHandler(
        [&](const cloud::Packet &p) { seqs.push_back(p.seq); });
    const unsigned total_pkts = 300;
    unsigned sent = 0;
    std::function<void()> net_pump = [&] {
        unsigned burst = unsigned(rng.uniformInt(1, 16));
        for (unsigned i = 0; i < burst && sent < total_pkts; ++i) {
            cloud::Packet p;
            p.src = 0xA;
            p.dst = 0xB;
            p.len = cloud::udpFrameBytes(rng.uniformInt(1, 1300));
            p.seq = sent;
            p.created = bed.sim.now();
            if (!a.net->sendPacket(p, false, a.cpu(1)))
                break;
            ++sent;
        }
        a.net->kickTx(a.cpu(1));
        if (sent < total_pkts) {
            auto *ev = new OneShotEvent(net_pump, "net_pump");
            bed.sim.eventq().schedule(
                ev, bed.sim.now() +
                        Tick(rng.uniformInt(1000, 100000)));
        }
    };
    net_pump();

    // Honest blk tenant: every request completes exactly once.
    const unsigned total_reqs = 120;
    std::vector<unsigned> completions(total_reqs, 0);
    unsigned issued = 0, finished = 0;
    std::function<void()> blk_pump = [&] {
        unsigned burst = unsigned(rng.uniformInt(1, 6));
        for (unsigned i = 0; i < burst && issued < total_reqs;
             ++i) {
            unsigned id = issued;
            bool ok = c.blk->read(
                rng.uniformInt(0, 1000) * 8, 4096, c.cpu(0),
                [&completions, &finished, id](std::uint8_t,
                                              Addr) {
                    ++completions[id];
                    ++finished;
                });
            if (!ok)
                break;
            ++issued;
        }
        if (issued < total_reqs) {
            auto *ev = new OneShotEvent(blk_pump, "blk_pump");
            bed.sim.eventq().schedule(
                ev, bed.sim.now() +
                        Tick(rng.uniformInt(10000, 300000)));
        }
    };
    blk_pump();

    bed.sim.run(bed.sim.now() + msToTicks(20.0));
    adv.stop();
    for (int spin = 0; spin < 200 && finished < issued; ++spin)
        bed.sim.run(bed.sim.now() + msToTicks(1.0));

    // The attacker was actually attacking, and was contained.
    EXPECT_GT(adv.attacks(), 1000u);
    EXPECT_GT(bed.server.guest(0).bond().guestFaultsTotal(), 0u);

    // Honest invariants, unharmed.
    ASSERT_EQ(sent, total_pkts);
    ASSERT_EQ(seqs.size(), total_pkts);
    for (unsigned i = 0; i < total_pkts; ++i)
        ASSERT_EQ(seqs[i], i);
    EXPECT_EQ(issued, total_reqs);
    EXPECT_EQ(finished, issued);
    for (unsigned i = 0; i < issued; ++i)
        EXPECT_EQ(completions[i], 1u) << "request " << i;
    // Containment never touched the honest guests' devices.
    EXPECT_EQ(a.net->resets(), 0u);
    EXPECT_EQ(b.net->resets(), 0u);
    EXPECT_EQ(c.net->resets(), 0u);
    EXPECT_EQ(c.blk->resets(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, HostileNeighbor,
                         ::testing::Values(1u, 2u));

class MultiQueueChaos : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(MultiQueueChaos, PerFlowOrderAndExactlyOnceAcrossQueues)
{
    // A 4-pair/2-queue guest under a doorbell-drop + link-flap
    // chaos schedule: RSS spreads the flows over the rx queues and
    // blk-mq spreads requests over the submission queues, yet every
    // flow stays in order and every block request completes exactly
    // once — multi-queue must not weaken the single-queue delivery
    // invariants.
    core::BmServerParams sp;
    sp.maxBoards = 4;
    sp.schedMode = core::SchedMode::Shared;
    sp.pollCores = 2;
    sp.netQueuePairs = 4;
    sp.blkQueues = 2;
    bench::Testbed bed(900 + GetParam(), sp);
    auto a = bed.bmGuest(0xA, 16);
    auto b = bed.bmGuest(0xB, 0);
    bed.sim.run(bed.sim.now() + msToTicks(1));
    ASSERT_EQ(a.net->activeQueuePairs(), 4u);
    ASSERT_NE(a.blk, nullptr);
    ASSERT_EQ(a.blk->activeQueues(), 2u);

    fault::FaultInjector chaos(bed.sim, "chaos");
    std::vector<fault::FaultInjector::RandomTarget> targets = {
        {"server.guest0.iobond",
         {fault::FaultKind::LinkFlap,
          fault::FaultKind::DropDoorbell}},
    };
    chaos.randomPlan(40 + GetParam(), targets, msToTicks(30.0),
                     16);
    chaos.arm();
    bed.server.startWatchdog(msToTicks(2.0));

    // Multi-flow net pump: per-flow sequence numbers; XPS on tx
    // and RSS on rx steer each flow onto its own queue pair.
    constexpr unsigned flows = 8;
    constexpr unsigned per_flow = 60;
    Rng rng(50 + GetParam());
    std::array<std::uint64_t, flows> next_seq{};
    std::array<std::vector<std::uint64_t>, flows> got;
    unsigned sent = 0;
    b.net->setRxHandler([&](const cloud::Packet &p) {
        ASSERT_LT(p.flow, flows);
        got[p.flow].push_back(p.seq);
    });
    std::function<void()> net_pump = [&] {
        unsigned burst = unsigned(rng.uniformInt(1, 16));
        for (unsigned i = 0;
             i < burst && sent < flows * per_flow; ++i) {
            unsigned flow = unsigned(rng.uniformInt(0, flows - 1));
            if (next_seq[flow] >= per_flow)
                continue; // this flow is done; burst slot forfeited
            cloud::Packet p;
            p.src = 0xA;
            p.dst = 0xB;
            p.len = cloud::udpFrameBytes(rng.uniformInt(1, 1300));
            p.flow = flow;
            p.seq = next_seq[flow];
            p.created = bed.sim.now();
            if (!a.net->sendPacket(p, false, a.cpu(1 + flow % 4)))
                break;
            ++next_seq[flow];
            ++sent;
        }
        a.net->kickTx(a.cpu(1));
        if (sent < flows * per_flow) {
            auto *ev = new OneShotEvent(net_pump, "net_pump");
            bed.sim.eventq().schedule(
                ev, bed.sim.now() +
                        Tick(rng.uniformInt(1000, 100000)));
        }
    };
    net_pump();

    // blk-mq pump: requests issued from four vCPUs ride both
    // submission queues; each must complete exactly once.
    const unsigned total_reqs = 200;
    std::vector<unsigned> completions(total_reqs, 0);
    unsigned issued = 0, finished = 0;
    std::function<void()> blk_pump = [&] {
        unsigned burst = unsigned(rng.uniformInt(1, 6));
        for (unsigned i = 0; i < burst && issued < total_reqs;
             ++i) {
            unsigned id = issued;
            bool ok = a.blk->read(
                rng.uniformInt(0, 1000) * 8, 4096,
                a.cpu(id % 4),
                [&completions, &finished, id](std::uint8_t,
                                              Addr) {
                    ++completions[id];
                    ++finished;
                });
            if (!ok)
                break; // ring full mid-drain: retry next pump
            ++issued;
        }
        if (issued < total_reqs) {
            auto *ev = new OneShotEvent(blk_pump, "blk_pump");
            bed.sim.eventq().schedule(
                ev, bed.sim.now() +
                        Tick(rng.uniformInt(10000, 300000)));
        }
    };
    blk_pump();

    bed.sim.run(bed.sim.now() + msToTicks(40.0));
    std::uint64_t received = 0;
    auto tally = [&] {
        received = 0;
        for (const auto &g : got)
            received += g.size();
    };
    tally();
    for (int spin = 0;
         spin < 300 && (finished < issued ||
                        issued < total_reqs ||
                        sent < flows * per_flow ||
                        received < flows * per_flow);
         ++spin) {
        bed.sim.run(bed.sim.now() + msToTicks(1.0));
        tally();
    }

    EXPECT_GT(chaos.injected(), 0u);

    // Exactly-once, in-order within every flow. Cross-flow order
    // is deliberately unconstrained — that is what RSS trades away.
    ASSERT_EQ(sent, flows * per_flow);
    for (unsigned f = 0; f < flows; ++f) {
        ASSERT_EQ(got[f].size(), per_flow) << "flow " << f;
        for (unsigned i = 0; i < per_flow; ++i) {
            ASSERT_EQ(got[f][i], i)
                << "flow " << f << " packet " << i;
        }
    }

    // Exactly-once for every block request on every queue.
    EXPECT_EQ(issued, total_reqs);
    EXPECT_EQ(finished, issued);
    for (unsigned i = 0; i < issued; ++i)
        EXPECT_EQ(completions[i], 1u) << "request " << i;
}

INSTANTIATE_TEST_SUITE_P(Seeds, MultiQueueChaos,
                         ::testing::Values(1u, 2u));

/** One seeded fleet scenario: a loaded guest ping-pongs between
 *  base servers while a chaos schedule (doorbell drops, link
 *  flaps, backend stalls/crashes, storage delays/losses, port
 *  stalls) fires around it. Returns the end-of-run metrics
 *  snapshot so same-seed runs can be compared byte for byte. */
struct FleetChaosOutcome
{
    std::uint64_t migrations = 0;
    std::uint64_t aborts = 0;
    std::string metricsJson;
};

FleetChaosOutcome
runFleetChaos(unsigned seed)
{
    FleetChaosOutcome out;
    Simulation sim(seed);
    cloud::VSwitch vswitch(sim, "vswitch");
    cloud::BlockService storage(sim, "storage");
    fleet::FleetParams fp;
    fp.servers = 3;
    fp.server.maxBoards = 2;
    fleet::FleetController fc(sim, "fleet", vswitch, &storage,
                              fp);
    auto &vol = storage.createVolume("v", 16 * MiB);
    fleet::GuestId mover =
        fc.place(core::InstanceCatalog::evaluated(), 0xA, &vol);
    fleet::GuestId sink =
        fc.place(core::InstanceCatalog::evaluated(), 0xB);
    EXPECT_NE(mover, fleet::invalidGuest);
    EXPECT_NE(sink, fleet::invalidGuest);
    if (mover == fleet::invalidGuest || sink == fleet::invalidGuest)
        return out;
    EXPECT_EQ(fc.serverOf(mover), 0u); // chaos targets assume s0
    sim.run(sim.now() + msToTicks(1));

    // The driver objects live inside the BmGuest, which travels by
    // unique_ptr across export/adopt: these pointers stay valid
    // through every migration (unlike FleetController::guest(),
    // which panics inside the export->adopt window).
    guest::BlkDriver *blk = fc.guest(mover).blk();
    guest::NetDriver *net = &fc.guest(mover).net();
    guest::NetDriver *rx = &fc.guest(sink).net();
    hw::CpuExecutor &blk_cpu = fc.guest(mover).os().cpu(0);
    hw::CpuExecutor &net_cpu = fc.guest(mover).os().cpu(1);

    fault::FaultInjector chaos(sim, "chaos");
    std::vector<fault::FaultInjector::RandomTarget> targets = {
        {"fleet.s0.guest0.iobond",
         {fault::FaultKind::LinkFlap,
          fault::FaultKind::DropDoorbell}},
        {"fleet.s0.guest0.hv",
         {fault::FaultKind::HvStall, fault::FaultKind::HvCrash}},
        {"storage",
         {fault::FaultKind::BlockLose,
          fault::FaultKind::BlockDelay}},
        {"vswitch", {fault::FaultKind::PortStall}},
    };
    chaos.randomPlan(seed, targets, msToTicks(50.0), 12);
    chaos.arm();

    Rng rng(40 + seed);
    std::vector<std::uint64_t> seqs;
    rx->setRxHandler(
        [&](const cloud::Packet &p) { seqs.push_back(p.seq); });

    const unsigned total_reqs = 1000;
    std::vector<unsigned> completions(total_reqs, 0);
    unsigned issued = 0, finished = 0;
    std::function<void()> blk_pump = [&] {
        unsigned burst = unsigned(rng.uniformInt(1, 8));
        for (unsigned i = 0; i < burst && issued < total_reqs;
             ++i) {
            unsigned id = issued;
            bool ok = blk->read(
                rng.uniformInt(0, 1000) * 8, 4096, blk_cpu,
                [&completions, &finished, id](std::uint8_t,
                                              Addr) {
                    ++completions[id];
                    ++finished;
                });
            if (!ok)
                break; // ring full mid-drain: retry next pump
            ++issued;
        }
        if (issued < total_reqs) {
            auto *ev = new OneShotEvent(blk_pump, "blk_pump");
            sim.eventq().schedule(
                ev, sim.now() +
                        Tick(rng.uniformInt(50000, 300000)));
        }
    };
    blk_pump();

    const unsigned total_pkts = 600;
    unsigned sent = 0;
    std::function<void()> net_pump = [&] {
        unsigned burst = unsigned(rng.uniformInt(1, 16));
        for (unsigned i = 0; i < burst && sent < total_pkts;
             ++i) {
            cloud::Packet p;
            p.src = 0xA;
            p.dst = 0xB;
            p.len = cloud::udpFrameBytes(rng.uniformInt(1, 1300));
            p.seq = sent;
            p.created = sim.now();
            if (!net->sendPacket(p, false, net_cpu))
                break;
            ++sent;
        }
        net->kickTx(net_cpu);
        if (sent < total_pkts) {
            auto *ev = new OneShotEvent(net_pump, "net_pump");
            sim.eventq().schedule(
                ev, sim.now() +
                        Tick(rng.uniformInt(20000, 200000)));
        }
    };
    net_pump();

    // Ping-pong the loaded guest between servers for the whole
    // run; a tick that catches it mid-migration just skips.
    bool workload_live = true;
    std::function<void()> mig_tick = [&] {
        if (fc.alive(mover) && !fc.migrating(mover)) {
            unsigned cur = fc.serverOf(mover);
            for (unsigned k = 1; k < fc.serverCount(); ++k) {
                unsigned t = (cur + k) % fc.serverCount();
                if (fc.serverDead(t))
                    continue;
                fc.migrate(mover, t);
                break;
            }
        }
        if (workload_live) {
            auto *ev = new OneShotEvent(mig_tick, "mig_tick");
            sim.eventq().schedule(ev,
                                  sim.now() + usToTicks(1200));
        }
    };
    mig_tick();

    sim.run(sim.now() + msToTicks(60.0));
    workload_live = false;
    for (int spin = 0;
         spin < 300 && (finished < issued || issued < total_reqs ||
                        sent < total_pkts ||
                        seqs.size() < total_pkts ||
                        fc.migrating(mover));
         ++spin)
        sim.run(sim.now() + msToTicks(1.0));

    // Exactly-once for every block request, across every blackout,
    // rollback, and respawn the schedule produced.
    EXPECT_EQ(issued, total_reqs);
    EXPECT_EQ(finished, issued);
    for (unsigned i = 0; i < issued; ++i)
        EXPECT_EQ(completions[i], 1u) << "request " << i;

    // Exactly-once, in-order for the packet flood.
    EXPECT_EQ(sent, total_pkts);
    EXPECT_EQ(seqs.size(), total_pkts);
    for (unsigned i = 0; i < seqs.size(); ++i) {
        EXPECT_EQ(seqs[i], i) << "packet " << i;
        if (seqs[i] != i)
            break; // one report; the rest would cascade
    }

    // The run actually migrated under load, repeatedly.
    EXPECT_GE(fc.migrationsDone(), 5u);
    EXPECT_GT(chaos.injected(), 0u);

    out.migrations = fc.migrationsDone();
    out.aborts = fc.migrationAborts();
    out.metricsJson = sim.metrics().toJson();
    return out;
}

class FleetMigrationChaos
    : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(FleetMigrationChaos, MigrationExactlyOnce)
{
    FleetChaosOutcome first = runFleetChaos(GetParam());
    if (::testing::Test::HasFatalFailure())
        return;
    // Determinism: the whole fleet — placement, migrations,
    // chaos, failovers — replays bit-exact from the seed; the
    // metrics snapshots (every counter, histogram bucket, and
    // latency percentile) must match byte for byte.
    FleetChaosOutcome second = runFleetChaos(GetParam());
    EXPECT_EQ(first.migrations, second.migrations);
    EXPECT_EQ(first.aborts, second.aborts);
    EXPECT_EQ(first.metricsJson, second.metricsJson);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FleetMigrationChaos,
                         ::testing::Values(1u, 2u));

/** One seeded corruption storm: randomized corruption-only chaos
 *  (DMA payload flips, shadow-metadata rot, storage- and
 *  net-fabric flips) over concurrent fio and a packet flood. The
 *  integrity layer may drop or delay — it must never deliver a
 *  corrupted byte, complete a block request other than exactly
 *  once, or reorder the honest packet stream. */
struct IntegrityChaosOutcome
{
    std::uint64_t detections = 0;
    std::string metricsJson;
};

IntegrityChaosOutcome
runIntegrityChaos(unsigned seed)
{
    IntegrityChaosOutcome out;
    bench::Testbed bed(8800 + seed);
    auto a = bed.bmGuest(0xA, 16);
    auto b = bed.bmGuest(0xB, 0);
    bed.sim.run(bed.sim.now() + msToTicks(1.0));
    EXPECT_NE(a.blk, nullptr);
    if (!a.blk)
        return out;

    // Corruption in every layer the integrity ladder covers; the
    // schedule is drawn from the seed, independent of the
    // workload's random stream.
    fault::FaultInjector chaos(bed.sim, "chaos");
    chaos.randomPlan(
        9100 + seed,
        {{"server.guest0.iobond.dma",
          {fault::FaultKind::DmaCorrupt}},
         {"server.guest0.iobond",
          {fault::FaultKind::DmaCorruptMeta}},
         {"storage", {fault::FaultKind::FabricCorrupt}},
         {"vswitch", {fault::FaultKind::FabricCorrupt}}},
        msToTicks(25.0), 14);
    chaos.arm();

    Rng rng(40 + seed);

    // Packet flood a -> b. Corrupted frames may be dropped by the
    // fabric or the receiver; whatever arrives must verify and
    // stay in order with no duplicates.
    std::int64_t last_seq = -1;
    unsigned rx_bad = 0, rx_misorder = 0, rxn = 0;
    b.net->setRxHandler([&](const cloud::Packet &p) {
        ++rxn;
        if (!cloud::packetCsumOk(p))
            ++rx_bad;
        if (std::int64_t(p.seq) <= last_seq)
            ++rx_misorder;
        last_seq = std::int64_t(p.seq);
    });
    const unsigned total_pkts = 300;
    unsigned sent = 0;
    std::function<void()> net_pump = [&] {
        unsigned burst = unsigned(rng.uniformInt(1, 16));
        for (unsigned i = 0; i < burst && sent < total_pkts; ++i) {
            cloud::Packet p;
            p.src = 0xA;
            p.dst = 0xB;
            p.len = cloud::udpFrameBytes(rng.uniformInt(1, 1300));
            p.seq = sent;
            p.created = bed.sim.now();
            if (!a.net->sendPacket(p, false, a.cpu(1)))
                break;
            ++sent;
        }
        a.net->kickTx(a.cpu(1));
        if (sent < total_pkts) {
            auto *ev = new OneShotEvent(net_pump, "net_pump");
            bed.sim.eventq().schedule(
                ev, bed.sim.now() +
                        Tick(rng.uniformInt(10000, 150000)));
        }
    };
    net_pump();

    // fio: write a known pattern, then read it back. A completion
    // may report a contained error (IOERR), but an OK read must
    // return exactly the written bytes — anything else is silent
    // corruption, the one thing this layer exists to prevent.
    const unsigned pairs = 60;
    std::vector<unsigned> wcomp(pairs, 0), rcomp(pairs, 0);
    unsigned wissued = 0, wdone = 0;
    unsigned rstarted = 0, rdone = 0;
    unsigned silent = 0;
    std::function<void(unsigned)> start_read;
    start_read = [&](unsigned id) {
        bool ok = a.blk->read(
            8 + id * 8, 4096, a.cpu(0),
            [&, id](std::uint8_t st, Addr data) {
                ++rcomp[id];
                ++rdone;
                if (st != 0)
                    return; // contained failure: allowed
                auto got = a.os->memory().readBlob(data, 4096);
                auto want = std::uint8_t(131 + id * 7);
                for (std::uint8_t byte : got) {
                    if (byte != want) {
                        ++silent;
                        break;
                    }
                }
            });
        if (ok) {
            ++rstarted;
        } else {
            // Ring full or device mid-reset: try again shortly.
            auto *ev = new OneShotEvent([&, id] { start_read(id); },
                                        "rd_retry");
            bed.sim.eventq().schedule(
                ev, bed.sim.now() + usToTicks(200));
        }
    };
    std::function<void()> blk_pump = [&] {
        unsigned burst = unsigned(rng.uniformInt(1, 4));
        for (unsigned i = 0; i < burst && wissued < pairs; ++i) {
            unsigned id = wissued;
            std::vector<std::uint8_t> data(
                4096, std::uint8_t(131 + id * 7));
            bool ok = a.blk->write(
                8 + id * 8, 4096, &data, a.cpu(0),
                [&, id](std::uint8_t st, Addr) {
                    ++wcomp[id];
                    ++wdone;
                    if (st == 0)
                        start_read(id);
                });
            if (!ok)
                break;
            ++wissued;
        }
        if (wissued < pairs) {
            auto *ev = new OneShotEvent(blk_pump, "blk_pump");
            bed.sim.eventq().schedule(
                ev, bed.sim.now() +
                        Tick(rng.uniformInt(20000, 200000)));
        }
    };
    blk_pump();

    bed.sim.run(bed.sim.now() + msToTicks(45.0));
    for (int spin = 0;
         spin < 300 &&
         (wissued < pairs || wdone < wissued || sent < total_pkts ||
          rdone < rstarted);
         ++spin)
        bed.sim.run(bed.sim.now() + msToTicks(1.0));

    // The storm actually fired, and at least one layer detected it.
    EXPECT_GT(chaos.injected(), 0u);
    auto &m = bed.sim.metrics();
    out.detections =
        m.counter("server.guest0.iobond.dma.integrity.ecrc_detected")
            .value() +
        bed.server.guest(0).bond().metaFaultsInjected() +
        m.counter("vswitch.integrity.frame_drops").value() +
        a.svc->difDetects() + a.net->rxCsumDrops() +
        b.net->rxCsumDrops();
    EXPECT_GT(out.detections, 0u);

    // Zero corrupted payloads delivered, anywhere.
    EXPECT_EQ(silent, 0u);
    EXPECT_EQ(rx_bad, 0u);
    EXPECT_EQ(rx_misorder, 0u);

    // Exactly-once for every block completion.
    EXPECT_EQ(wissued, pairs);
    EXPECT_EQ(wdone, pairs);
    EXPECT_EQ(rdone, rstarted);
    for (unsigned i = 0; i < pairs; ++i) {
        EXPECT_EQ(wcomp[i], 1u) << "write " << i;
        EXPECT_LE(rcomp[i], 1u) << "read " << i;
    }
    EXPECT_EQ(sent, total_pkts);
    EXPECT_LE(rxn, total_pkts);

    out.metricsJson = m.toJson();
    return out;
}

class IntegrityChaos : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(IntegrityChaos, NoSilentCorruptionExactlyOnce)
{
    IntegrityChaosOutcome first = runIntegrityChaos(GetParam());
    if (::testing::Test::HasFatalFailure())
        return;
    // Determinism: the same seed replays the same storm and the
    // same containment, byte for byte in the metrics snapshot.
    IntegrityChaosOutcome second = runIntegrityChaos(GetParam());
    EXPECT_EQ(first.detections, second.detections);
    EXPECT_EQ(first.metricsJson, second.metricsJson);
}

INSTANTIATE_TEST_SUITE_P(Seeds, IntegrityChaos,
                         ::testing::Values(1u, 2u));

} // namespace
} // namespace bmhive
