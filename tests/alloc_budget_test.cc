/**
 * @file
 * Heap-allocation budget of the steady-state packet datapath.
 *
 * Every forwarded frame crosses the guest driver, IO-Bond (chain
 * walk, shadow-arena allocation, scatter-gather DMA), the
 * bm-hypervisor's poll loop, the vSwitch and the receiving guest's
 * NAPI loop, and schedules several one-shot events on the way. None
 * of that should reach the heap once queues and tables have grown
 * to their working size. This binary replaces the global operator
 * new with a counting one (hence its own executable) and floods
 * 1-byte UDP frames between two dedicated-mode bm-guests, the
 * section 4.3 uncapped setup. The budget is one allocation per
 * delivered frame; the datapath needs none.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <vector>

#include "cloud/block_service.hh"
#include "cloud/vswitch.hh"
#include "core/bmhive_server.hh"
#include "workloads/guest_iface.hh"
#include "workloads/net_perf.hh"

namespace {

std::atomic<std::uint64_t> heapAllocs{0};

void *
countedAlloc(std::size_t n)
{
    heapAllocs.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(n ? n : 1))
        return p;
    throw std::bad_alloc();
}

void *
countedAlignedAlloc(std::size_t n, std::align_val_t al)
{
    heapAllocs.fetch_add(1, std::memory_order_relaxed);
    std::size_t a = static_cast<std::size_t>(al);
    if (void *p = std::aligned_alloc(a, (n + a - 1) / a * a))
        return p;
    throw std::bad_alloc();
}

} // namespace

void *operator new(std::size_t n) { return countedAlloc(n); }
void *operator new[](std::size_t n) { return countedAlloc(n); }
void *
operator new(std::size_t n, std::align_val_t al)
{
    return countedAlignedAlloc(n, al);
}
void *
operator new[](std::size_t n, std::align_val_t al)
{
    return countedAlignedAlloc(n, al);
}
void operator delete(void *p) noexcept { std::free(p); }
void operator delete[](void *p) noexcept { std::free(p); }
void operator delete(void *p, std::size_t) noexcept { std::free(p); }
void operator delete[](void *p, std::size_t) noexcept { std::free(p); }
void operator delete(void *p, std::align_val_t) noexcept { std::free(p); }
void
operator delete[](void *p, std::align_val_t) noexcept
{
    std::free(p);
}
void
operator delete(void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}
void
operator delete[](void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}

namespace bmhive {
namespace {

/** Closed-loop sender: every flow pushes PMD-sized bursts until the
 *  tx ring is full, then retries after a poll period. */
class Flood
{
  public:
    static constexpr unsigned flows = 28;
    static constexpr unsigned burst = 64;

    Flood(Simulation &sim, workloads::GuestContext src,
          workloads::GuestContext dst)
        : sim_(sim), src_(src), dst_(dst)
    {
        dst_.net->setRxProcessing(
            workloads::stackCost(workloads::NetStack::Dpdk), flows);
        dst_.net->setRxHandler(
            [this](const cloud::Packet &) { ++received; });
        for (unsigned f = 0; f < flows; ++f)
            send(f);
    }

    void stop() { stopped_ = true; }

    std::uint64_t sent = 0;
    std::uint64_t received = 0;

  private:
    void
    send(unsigned flow)
    {
        if (stopped_)
            return;
        hw::CpuExecutor &cpu = src_.cpu(flow + 1);
        Tick cost = Tick(burst) *
                    workloads::stackCost(workloads::NetStack::Dpdk);
        cpu.run(cost, [this, flow, &cpu] {
            if (stopped_)
                return;
            unsigned pushed = 0;
            for (unsigned i = 0; i < burst; ++i) {
                cloud::Packet p;
                p.src = src_.net->mac();
                p.dst = dst_.net->mac();
                p.len = cloud::udpFrameBytes(1);
                p.created = sim_.now();
                p.seq = sent + pushed;
                p.flow = flow;
                if (!src_.net->sendPacket(p, false, cpu))
                    break;
                ++pushed;
            }
            sent += pushed;
            if (pushed > 0) {
                src_.net->kickTx(cpu);
                send(flow);
                return;
            }
            auto *ev = new OneShotEvent([this, flow] { send(flow); },
                                        "flood.retry");
            sim_.eventq().schedule(
                ev, sim_.now() + paper::backendPollPeriod);
        });
    }

    Simulation &sim_;
    workloads::GuestContext src_;
    workloads::GuestContext dst_;
    bool stopped_ = false;
};

TEST(AllocBudgetTest, UncappedFloodStaysOffTheHeap)
{
    Simulation sim(1);
    cloud::VSwitch vswitch(sim, "vswitch");
    cloud::BlockService storage(sim, "storage");
    core::BmServerParams sp;
    sp.maxBoards = 4;
    sp.schedMode = core::SchedMode::Dedicated;
    core::BmHiveServer server(sim, "server", vswitch, &storage, sp);
    std::vector<workloads::GuestContext> g;
    for (cloud::MacAddr mac : {0xaa, 0xbb}) {
        g.push_back(workloads::GuestContext::of(server.provision(
            core::InstanceCatalog::evaluated(), mac, nullptr,
            /*rate_limited=*/false)));
    }
    sim.run(sim.now() + msToTicks(1));
    // PMD burst mode amortizes per-packet backend work (the
    // section 4.3 configuration).
    for (auto &c : g)
        c.svc->setPerPacketCost(nsToTicks(55));

    // The first millisecond of flooding grows rings, tables and
    // free lists to their working size; count the one after it.
    Flood flood(sim, g[0], g[1]);
    sim.run(sim.now() + msToTicks(1));
    const std::uint64_t allocs0 =
        heapAllocs.load(std::memory_order_relaxed);
    const std::uint64_t received0 = flood.received;
    sim.run(sim.now() + msToTicks(1));
    const std::uint64_t allocs =
        heapAllocs.load(std::memory_order_relaxed) - allocs0;
    const std::uint64_t delivered = flood.received - received0;
    flood.stop();
    sim.run(sim.now() + msToTicks(1));

    ASSERT_GT(delivered, 5000u) << "the flood did not run";
    const double per_packet = double(allocs) / double(delivered);
    RecordProperty("heap_allocs", int(allocs));
    RecordProperty("delivered", int(delivered));
    std::printf("%llu heap allocations over %llu delivered frames "
                "(%.4f per frame)\n",
                (unsigned long long)allocs,
                (unsigned long long)delivered, per_packet);
    EXPECT_LE(per_packet, 1.0);
}

} // namespace
} // namespace bmhive
