/**
 * @file
 * PollScheduler tests: DWRR fairness and batching, the adaptive
 * poll governor (busy -> backoff -> sleep and bounded-latency
 * wake), containment weights, per-pollable wedge detection,
 * dedicated lanes (first poll, stall end, wakes, shared
 * executors) — plus BmHiveServer integration: end-to-end I/O on a
 * 2-core pool, scheduler-level quarantine starvation, same-seed
 * determinism of the metrics snapshot, and the watchdog's one
 * liveness signal under dedicated polling.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "cloud/block_service.hh"
#include "cloud/vswitch.hh"
#include "core/bmhive_server.hh"
#include "core/instance_catalog.hh"
#include "fault/fault.hh"
#include "sched/poll_scheduler.hh"
#include "workloads/guest_iface.hh"
#include "workloads/net_perf.hh"

namespace bmhive {
namespace {

using sched::LaneKind;
using sched::PollScheduler;
using sched::PollSchedulerParams;

class FakePollable : public sched::Pollable
{
  public:
    explicit FakePollable(std::string name, Simulation *sim = nullptr)
        : name_(std::move(name)), sim_(sim)
    {
    }

    unsigned
    servicePoll(unsigned budget) override
    {
        ++polls_;
        lastBudget_ = budget;
        if (sim_)
            lastPollAt_ = sim_->now();
        auto n = std::min<std::uint64_t>(budget, pending_);
        if (n > 0 && served_ == 0 && sim_)
            firstServedAt_ = sim_->now();
        pending_ -= n;
        served_ += n;
        return unsigned(n);
    }

    bool pollAlive() const override { return alive_; }
    Tick pollBlockedUntil() const override { return blockedUntil_; }
    const std::string &pollableName() const override { return name_; }

    std::string name_;
    Simulation *sim_ = nullptr;
    std::uint64_t pending_ = 0;
    std::uint64_t polls_ = 0;
    std::uint64_t served_ = 0;
    unsigned lastBudget_ = 0;
    Tick lastPollAt_ = 0;
    Tick firstServedAt_ = 0; ///< first poll that found the work
    bool alive_ = true;
    Tick blockedUntil_ = 0;
};

class SchedTest : public ::testing::Test
{
  protected:
    SchedTest() : sim(7)
    {
        for (int i = 0; i < 2; ++i) {
            cpus.push_back(std::make_unique<hw::CpuExecutor>(
                sim, "cpu" + std::to_string(i)));
        }
    }

    PollScheduler &
    make(PollSchedulerParams p = {})
    {
        sched = std::make_unique<PollScheduler>(
            sim, "sched",
            std::vector<hw::CpuExecutor *>{cpus[0].get(),
                                           cpus[1].get()},
            p);
        return *sched;
    }

    Simulation sim;
    std::vector<std::unique_ptr<hw::CpuExecutor>> cpus;
    std::unique_ptr<PollScheduler> sched;
};

TEST_F(SchedTest, DwrrSharesFollowWeights)
{
    auto &s = make();
    FakePollable a("a"), b("b");
    a.pending_ = b.pending_ = 1u << 30; // always backlogged
    s.add(0, a, 1.0);
    s.add(0, b, 0.25);
    sim.run(sim.now() + msToTicks(2));
    ASSERT_GT(b.served_, 0u);
    double ratio = double(a.served_) / double(b.served_);
    // Weight 1.0 vs 0.25: the heavy guest gets ~4x the items.
    EXPECT_NEAR(ratio, 4.0, 0.4);
    // Per-round budget is capped at one quantum of credit.
    EXPECT_EQ(a.lastBudget_, s.params().quantum);
}

TEST_F(SchedTest, DryRunForfeitsDeficit)
{
    auto &s = make();
    FakePollable a("a");
    auto h = s.add(0, a, 1.0);
    a.pending_ = 3; // runs dry on the first round
    sim.run(sim.now() + msToTicks(1));
    EXPECT_EQ(a.served_, 3u);
    // The unused deficit was forfeited: when work reappears the
    // budget restarts at one quantum, not at the hoarded credit.
    a.pending_ = 1u << 20;
    s.wake(h);
    sim.run(sim.now() + msToTicks(1));
    EXPECT_EQ(a.lastBudget_, s.params().quantum);
}

TEST_F(SchedTest, GovernorBacksOffAndSleeps)
{
    auto &s = make();
    FakePollable a("a");
    s.add(0, a, 1.0); // registered but idle
    sim.run(sim.now() + msToTicks(2));
    // Busy-polling 2 ms at the 2 us period would be ~1000 rounds;
    // the governor backs off exponentially and then sleeps.
    EXPECT_GE(s.sleeps(0), 1u);
    EXPECT_LT(s.rounds(0), 60u);
    auto settled = s.rounds(0);
    sim.run(sim.now() + msToTicks(2));
    EXPECT_EQ(s.rounds(0), settled); // asleep: no rounds at all
}

TEST_F(SchedTest, WakeResumesWithinBoundedLatency)
{
    auto &s = make();
    FakePollable a("a", &sim);
    auto h = s.add(0, a, 1.0);
    sim.run(sim.now() + msToTicks(2)); // drift into sleep
    ASSERT_GE(s.sleeps(0), 1u);

    Tick posted = sim.now();
    a.pending_ = 8;
    s.wake(h); // the IO-Bond doorbell path
    sim.run(sim.now() + msToTicks(1));
    EXPECT_EQ(a.served_, 8u);
    EXPECT_GE(a.firstServedAt_, posted);
    EXPECT_LE(a.firstServedAt_ - posted, s.params().wakeLatency);
    EXPECT_GE(s.wakes(0), 1u);
    EXPECT_GE(s.wakeToPoll(0).count(), 1u);
}

TEST_F(SchedTest, WeightZeroStarvesUntilRestored)
{
    auto &s = make();
    FakePollable a("a");
    auto h = s.add(0, a, 1.0);
    s.setWeight(h, 0.0);
    a.pending_ = 100;
    s.wake(h); // a starved guest's doorbell must not buy service
    sim.run(sim.now() + msToTicks(2));
    EXPECT_EQ(a.served_, 0u);

    s.setWeight(h, 1.0); // restoration picks the posted work up
    sim.run(sim.now() + msToTicks(2));
    EXPECT_EQ(a.served_, 100u);
}

TEST_F(SchedTest, WedgedSeesStalledNotIdleOrStarved)
{
    auto &s = make();
    FakePollable stalled("stalled"), idle("idle"),
        starved("starved");
    stalled.blockedUntil_ = secToTicks(10); // e.g. hv stall fault
    stalled.pending_ = 5;
    auto hs = s.add(0, stalled, 1.0);
    auto hi = s.add(0, idle, 1.0);
    auto hz = s.add(1, starved, 1.0);
    s.setWeight(hz, 0.0);
    starved.pending_ = 5;
    s.wake(hs);
    s.wake(hz);
    sim.run(sim.now() + msToTicks(4));
    Tick window = msToTicks(2);
    EXPECT_TRUE(s.wedged(hs, window));  // posted, never visited
    EXPECT_FALSE(s.wedged(hi, window)); // never posted: just idle
    EXPECT_FALSE(s.wedged(hz, window)); // starvation is deliberate
    EXPECT_EQ(s.serviceVisits(hs), 0u);
}

TEST_F(SchedTest, PlacementPicksLeastLoadedCore)
{
    auto &s = make();
    FakePollable a("a"), b("b"), c("c");
    EXPECT_EQ(s.leastLoadedCore(), 0u);
    auto ha = s.add(0, a, 1.0);
    EXPECT_EQ(s.leastLoadedCore(), 1u);
    s.add(1, b, 1.0);
    EXPECT_EQ(s.leastLoadedCore(), 0u);
    s.add(0, c, 1.0);
    EXPECT_EQ(s.pollablesOn(0), 2u);
    s.remove(ha);
    EXPECT_EQ(s.pollablesOn(0), 1u);
}

TEST_F(SchedTest, AddKicksASleepingCore)
{
    auto &s = make();
    sim.run(sim.now() + msToTicks(1)); // both cores asleep, empty
    FakePollable a("a");
    a.pending_ = 4;
    s.add(0, a, 1.0); // registration alone must discover the work
    sim.run(sim.now() + msToTicks(1));
    EXPECT_EQ(a.served_, 4u);
}

// --- Dedicated lanes ---

TEST_F(SchedTest, DedicatedLaneResumesExactlyAtTheStallEnd)
{
    PollScheduler s(sim, "lanes", {});
    FakePollable a("a", &sim);
    Tick t0 = sim.now();
    s.addPinned(LaneKind::Dedicated, *cpus[0], a);
    sim.run(t0 + usToTicks(10));
    // First poll one period after registration, then every period.
    EXPECT_EQ(a.polls_, 5u);
    EXPECT_EQ(a.lastPollAt_, t0 + usToTicks(10));

    // An odd-length stall: no poll inside it, and the next one
    // lands exactly at its end, off the 2 us grid.
    Tick stall_end = sim.now() + usToTicks(37);
    a.blockedUntil_ = stall_end;
    sim.run(stall_end - 1);
    EXPECT_EQ(a.polls_, 5u);
    sim.run(stall_end);
    EXPECT_EQ(a.polls_, 6u);
    EXPECT_EQ(a.lastPollAt_, stall_end);
    sim.run(stall_end + usToTicks(2));
    EXPECT_EQ(a.polls_, 7u);
}

TEST_F(SchedTest, DedicatedLaneIgnoresWakesAndWeights)
{
    PollScheduler s(sim, "lanes", {});
    FakePollable a("a", &sim);
    Tick t0 = sim.now();
    auto h = s.addPinned(LaneKind::Dedicated, *cpus[0], a);
    sim.run(t0 + usToTicks(3));
    ASSERT_EQ(a.polls_, 1u);
    // Quarantine acts at the doorbell only: weight 0 does not
    // starve a dedicated lane, and a wake does not move its round.
    s.setWeight(h, 0.0);
    a.pending_ = 4;
    s.wake(h);
    sim.run(t0 + usToTicks(4) - 1);
    EXPECT_EQ(a.polls_, 1u);
    EXPECT_TRUE(s.wedged(h, 0)); // posted, not yet visited
    sim.run(t0 + usToTicks(4));
    EXPECT_EQ(a.served_, 4u);
    EXPECT_EQ(a.lastBudget_, std::numeric_limits<unsigned>::max());
    EXPECT_FALSE(s.wedged(h, 0));
    // The service counts its own polls; lanes add no metrics.
    EXPECT_EQ(sim.metrics().toJson().find("lanes."),
              std::string::npos);
}

TEST_F(SchedTest, DedicatedLanesSharingACoreKeepSeparateRounds)
{
    PollScheduler s(sim, "lanes", {});
    FakePollable a("a", &sim), b("b", &sim);
    Tick t0 = sim.now();
    s.addPinned(LaneKind::Dedicated, *cpus[0], a);
    sim.run(t0 + usToTicks(1));
    s.addPinned(LaneKind::Dedicated, *cpus[0], b);
    sim.run(t0 + usToTicks(5));
    a.blockedUntil_ = t0 + usToTicks(14);
    sim.run(t0 + usToTicks(21));
    // b keeps its own phase (3, 5, ..., 21 us) through a's stall;
    // a polled at 2 and 4 us, then 14, 16, 18, 20 us.
    EXPECT_EQ(b.polls_, 10u);
    EXPECT_EQ(b.lastPollAt_, t0 + usToTicks(21));
    EXPECT_EQ(a.polls_, 6u);
    EXPECT_EQ(a.lastPollAt_, t0 + usToTicks(20));
}

TEST(DedicatedWatchdog, CrashRespawnsButIdleStallDoesNot)
{
    Simulation sim(13);
    cloud::VSwitch vswitch(sim, "vs");
    cloud::BlockService storage(sim, "st");
    core::BmServerParams p;
    p.maxBoards = 2;
    core::BmHiveServer server(sim, "srv", vswitch, &storage, p);
    auto &g = server.provision(core::InstanceCatalog::evaluated(),
                               0xa);
    sim.run(sim.now() + msToTicks(1));
    const Tick period = msToTicks(1);
    server.startWatchdog(period);
    sim.run(sim.now() + usToTicks(100));

    // A crash is respawned at the next sweep, within one period.
    g.hypervisor().crash();
    sim.run(sim.now() + period);
    EXPECT_EQ(server.watchdogRespawns(), 1u);
    EXPECT_FALSE(g.hypervisor().crashed());

    // An idle guest stalled past whole periods posted no work, so
    // it missed no progress and is left alone.
    fault::FaultSpec stall;
    stall.kind = fault::FaultKind::HvStall;
    stall.duration = 3 * period;
    ASSERT_TRUE(sim.faults().deliver(g.hypervisor().name(), stall));
    sim.run(sim.now() + 4 * period);
    EXPECT_EQ(server.watchdogRespawns(), 1u);

    // Work posted during a stall and left waiting a whole period
    // is a wedge.
    ASSERT_TRUE(sim.faults().deliver(g.hypervisor().name(), stall));
    cloud::Packet pk;
    pk.src = 0xa;
    pk.dst = 0xb;
    pk.len = 64;
    ASSERT_TRUE(g.net().sendPacket(pk, false, g.os().cpu(1)));
    g.net().kickTx(g.os().cpu(1));
    sim.run(sim.now() + 3 * period);
    EXPECT_EQ(server.watchdogRespawns(), 2u);
}

// --- Shared-mode server integration ---

core::BmServerParams
sharedParams(unsigned poll_cores)
{
    core::BmServerParams p;
    p.maxBoards = 4;
    p.schedMode = core::SchedMode::Shared;
    p.pollCores = poll_cores;
    return p;
}

class SharedServerTest : public ::testing::Test
{
  protected:
    SharedServerTest()
        : sim(11), vswitch(sim, "vs"), storage(sim, "st"),
          server(sim, "srv", vswitch, &storage, sharedParams(2))
    {
    }

    core::BmGuest &
    guestWithVolume(cloud::MacAddr mac)
    {
        auto &vol = storage.createVolume("v" + std::to_string(mac),
                                         8 * MiB);
        return server.provision(core::InstanceCatalog::evaluated(),
                                mac, &vol);
    }

    bool
    writeOk(core::BmGuest &g)
    {
        bool ok = false;
        std::vector<std::uint8_t> data(512, 0x5a);
        g.blk()->write(8, 512, &data, g.os().cpu(1),
                       [&ok](std::uint8_t st, Addr) {
                           ok = (st == virtio::VIRTIO_BLK_S_OK);
                       });
        sim.run(sim.now() + msToTicks(30));
        return ok;
    }

    Simulation sim;
    cloud::VSwitch vswitch;
    cloud::BlockService storage;
    core::BmHiveServer server;
};

TEST_F(SharedServerTest, FourGuestsOnTwoCoresDoIo)
{
    std::vector<core::BmGuest *> gs;
    for (unsigned i = 0; i < 4; ++i)
        gs.push_back(&guestWithVolume(0x10 + i));
    ASSERT_NE(server.scheduler(), nullptr);
    EXPECT_EQ(server.scheduler()->coreCount(), 2u);
    EXPECT_EQ(server.scheduler()->pollablesOn(0), 2u);
    EXPECT_EQ(server.scheduler()->pollablesOn(1), 2u);
    sim.run(sim.now() + msToTicks(1));
    for (auto *g : gs)
        EXPECT_TRUE(writeOk(*g));
}

TEST_F(SharedServerTest, QuarantineStarvesAtTheScheduler)
{
    auto &g0 = guestWithVolume(0x20);
    auto &g1 = guestWithVolume(0x21);
    sim.run(sim.now() + msToTicks(1));
    ASSERT_TRUE(writeOk(g0));

    server.quarantineGuest(0);
    auto polls = g0.hypervisor().service().pollsTotal();
    sim.run(sim.now() + msToTicks(1)); // within the 2 ms dwell
    // Weight 0: the scheduler never visits the quarantined guest's
    // backend, while its neighbor keeps doing I/O.
    EXPECT_EQ(g0.hypervisor().service().pollsTotal(), polls);
    EXPECT_TRUE(writeOk(g1));

    // Dwell expiry releases the quarantine; a fresh write works
    // again through the reset functions.
    sim.run(sim.now() + msToTicks(4));
    EXPECT_EQ(server.guestHealth(0), core::GuestHealth::Healthy);
    EXPECT_TRUE(writeOk(g0));
}

/** One fixed scenario; returns the end-of-run metrics JSON. */
std::string
sharedScenarioJson(std::uint64_t seed)
{
    Simulation sim(seed);
    cloud::VSwitch vswitch(sim, "vs");
    cloud::BlockService storage(sim, "st");
    core::BmHiveServer server(sim, "srv", vswitch, &storage,
                              sharedParams(2));
    auto &va = storage.createVolume("va", 8 * MiB);
    auto &vb = storage.createVolume("vb", 8 * MiB);
    auto &a = server.provision(core::InstanceCatalog::evaluated(),
                               0xa, &va);
    auto &b = server.provision(core::InstanceCatalog::evaluated(),
                               0xb, &vb);
    sim.run(sim.now() + msToTicks(1));

    workloads::PacketFloodParams fp;
    fp.flows = 2;
    fp.batch = 8;
    fp.warmup = msToTicks(1);
    fp.window = msToTicks(5);
    workloads::PacketFlood flood(
        sim, "flood", workloads::GuestContext::of(a),
        workloads::GuestContext::of(b), fp);
    auto r = flood.run();
    EXPECT_GT(r.received, 0u);
    return sim.metrics().toJson();
}

TEST(SharedSchedDeterminism, SameSeedSameMetrics)
{
    // The shared pool must not perturb determinism: two identical
    // runs produce byte-identical metric snapshots (scheduler
    // counters, wake latencies, traces and all).
    auto j1 = sharedScenarioJson(20200316);
    auto j2 = sharedScenarioJson(20200316);
    EXPECT_EQ(j1, j2);
    EXPECT_NE(j1.find("srv.sched.core0.rounds"), std::string::npos);
}

} // namespace
} // namespace bmhive
