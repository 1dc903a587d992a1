/**
 * @file
 * net_flood: the paper's section 4.3 uncapped PPS shape. Two
 * bm-guests on one server in dedicated poll mode, rate limits
 * lifted, a DPDK-style sender blasting 1-byte UDP datagrams over 28
 * flows in bursts of 64. Per-packet work dominates (IO-Bond shadow
 * sync, vrings, guest-memory reads, vSwitch + frame checksums,
 * events); there is almost no DIF, storage or partition work.
 *
 * The sender is driven here through NetDriver::sendPacket/kickTx
 * rather than workloads::PacketFlood so every received frame can be
 * checked for per-flow order and counted exactly once.
 */

#include <algorithm>
#include <vector>

#include "base/paper_constants.hh"
#include "cloud/block_service.hh"
#include "cloud/vswitch.hh"
#include "core/bmhive_server.hh"
#include "harness.hh"
#include "workloads/guest_iface.hh"
#include "workloads/net_perf.hh"

namespace perfbench {

using namespace bmhive;

namespace {

constexpr unsigned floodFlows = 28; // DPDK: every core blasts
constexpr unsigned floodBatch = 64; // PMD burst size

/** Closed-loop sender with per-flow sequence checking at the sink.
 *  Everything runs on the one event queue of a classic simulation. */
class Flood
{
  public:
    Flood(Simulation &sim, workloads::GuestContext src,
          workloads::GuestContext dst, Tick t0, Tick t1)
        : sim_(sim), src_(src), dst_(dst), t0_(t0), t1_(t1),
          nextSeq_(floodFlows, 0), expect_(floodFlows, 0)
    {
    }

    /** Arm the sink and start every flow after its own phase
     *  offset (drawn from the workload seed). */
    void
    start(Rng &rng)
    {
        dst_.net->setRxProcessing(
            workloads::stackCost(workloads::NetStack::Dpdk),
            floodFlows);
        dst_.net->setRxHandler(
            [this](const cloud::Packet &p) { receive(p); });
        for (unsigned f = 0; f < floodFlows; ++f) {
            Tick phase = nsToTicks(rng.uniform(0.0, 2000.0));
            auto *ev = new OneShotEvent([this, f] { send(f); },
                                        "perfbench.flood.start");
            sim_.eventq().schedule(ev, sim_.now() + phase);
        }
    }

    void stop() { stopped_ = true; }

    std::uint64_t sent = 0;
    std::uint64_t received = 0;
    std::uint64_t outOfOrder = 0;
    std::uint64_t inWindow = 0;
    SampleSet latencyUs;

  private:
    void
    send(unsigned flow)
    {
        if (stopped_)
            return;
        hw::CpuExecutor &cpu = src_.cpu(flow + 1);
        Tick cost = Tick(floodBatch) *
                    workloads::stackCost(workloads::NetStack::Dpdk);
        cpu.run(cost, [this, flow, &cpu] {
            if (stopped_)
                return;
            unsigned pushed = 0;
            for (unsigned i = 0; i < floodBatch; ++i) {
                cloud::Packet p;
                p.src = src_.net->mac();
                p.dst = dst_.net->mac();
                p.len = cloud::udpFrameBytes(1);
                p.created = sim_.now();
                p.seq = nextSeq_[flow];
                p.flow = flow;
                if (!src_.net->sendPacket(p, false, cpu))
                    break; // ring full: completions free slots
                ++nextSeq_[flow];
                ++pushed;
            }
            sent += pushed;
            if (pushed > 0) {
                src_.net->kickTx(cpu);
                send(flow);
                return;
            }
            auto *ev = new OneShotEvent([this, flow] { send(flow); },
                                        "perfbench.flood.retry");
            sim_.eventq().schedule(
                ev, sim_.now() + paper::backendPollPeriod);
        });
    }

    void
    receive(const cloud::Packet &p)
    {
        ++received;
        // A step backwards is a reorder or a duplicate; a gap is a
        // loss, which the final sent/received balance counts.
        if (p.flow >= floodFlows || p.seq < expect_[p.flow])
            ++outOfOrder;
        else
            expect_[p.flow] = p.seq + 1;
        Tick now = sim_.now();
        if (now >= t0_ && now < t1_) {
            ++inWindow;
            latencyUs.record(ticksToUs(now - p.created));
        }
    }

    Simulation &sim_;
    workloads::GuestContext src_;
    workloads::GuestContext dst_;
    Tick t0_;
    Tick t1_;
    bool stopped_ = false;
    std::vector<std::uint64_t> nextSeq_;
    std::vector<std::uint64_t> expect_;
};

} // namespace

void
netFlood(const RunConfig &cfg, SpanLog &spans, Report &r)
{
    const double window_ms = cfg.tiny ? 0.5 : 8.0;

    Simulation sim(cfg.seed);
    Rng rng(cfg.seed ^ 0x6e65745f666c6f6fULL);
    cloud::VSwitch vswitch(sim, "vswitch");
    cloud::BlockService storage(sim, "storage");
    core::BmServerParams sp;
    sp.maxBoards = 4;
    sp.schedMode = core::SchedMode::Dedicated;
    core::BmHiveServer server(sim, "server", vswitch, &storage, sp);
    noteServerConfig(r, sp);

    auto t_prov = Clock::now();
    std::vector<workloads::GuestContext> g;
    for (cloud::MacAddr mac : {0xaa, 0xbb}) {
        SpanLog::Scope span(spans, "provision");
        g.push_back(workloads::GuestContext::of(server.provision(
            core::InstanceCatalog::evaluated(), mac, nullptr,
            /*rate_limited=*/false)));
    }
    double provision_s = secondsSince(t_prov);
    double guest_mem = double(server.base().memory().size());
    for (unsigned i = 0; i < server.guestCount(); ++i)
        guest_mem += double(server.guest(i).board().memory().size());
    {
        SpanLog::Scope span(spans, "run");
        sim.run(sim.now() + msToTicks(1));
    }
    // PMD burst mode amortizes per-packet backend work.
    for (auto &c : g)
        c.svc->setPerPacketCost(nsToTicks(55));

    const Tick start = sim.now();
    const Tick t0 = start + msToTicks(1);
    const Tick t1 = t0 + msToTicks(window_ms);
    const Tick end = t1 + msToTicks(2); // drain in-flight frames
    r.setupS = secondsSince(cfg.processStart);
    const std::uint64_t ev0 = eventsProcessed(sim);
    auto drive0 = Clock::now();

    Flood flood(sim, g[0], g[1], t0, t1);
    flood.start(rng);
    const Tick slice = usToTicks(250);
    for (Tick t = start; t < end;) {
        t = std::min(end, t + slice);
        {
            SpanLog::Scope span(spans, "run");
            sim.run(t);
        }
        if (t >= t1)
            flood.stop(); // t1 is a slice boundary
    }
    r.driveS = secondsSince(drive0);
    r.simMs = ticksToSec(sim.now() - start) * 1e3;
    const std::uint64_t events = eventsProcessed(sim) - ev0;

    // ---- checks ----
    const std::uint64_t lost =
        flood.sent > flood.received ? flood.sent - flood.received : 0;
    r.attempted = flood.sent;
    r.failed = lost + flood.outOfOrder;
    r.check("net.received_le_sent", flood.received <= flood.sent,
            std::to_string(flood.received) + " received of " +
                std::to_string(flood.sent) + " sent");
    r.check("net.per_flow_order", flood.outOfOrder == 0,
            std::to_string(flood.outOfOrder) + " out of order");
    r.check("net.all_delivered", lost == 0,
            std::to_string(lost) + " sent but never received");
    r.check("net.flood_ran", flood.inWindow > 0, "");
    std::uint64_t driver_detects = 0;
    for (unsigned i = 0; i < server.guestCount(); ++i)
        driver_detects += driverDetects(server.guest(i));
    checkIntegrity(r, sim, 0, driver_detects);

    // ---- modelled results ----
    const double mpps =
        double(flood.inWindow) / (window_ms * 1e-3) / 1e6;
    r.model = {
        {"mops", mpps},
        {"p50_us", pct(flood.latencyUs, 0.50)},
        {"p999_us", pct(flood.latencyUs, 0.999)},
        {"samples", double(flood.latencyUs.count())},
        {"net.mpps", mpps},
        {"net.paper_mpps", paper::uncappedBmPps / 1e6},
        {"net.err_pct",
         100.0 * (mpps * 1e6 - paper::uncappedBmPps) /
             paper::uncappedBmPps},
        {"net.sent", double(flood.sent)},
        {"net.received", double(flood.received)},
    };

    exportRegistry(r, sim, spans);
    addLayerMetrics(r, sim, {r.driveS, events, provision_s, guest_mem});
    if (cfg.trace) {
        // Shadow buffers here are the drivers' 2 KiB packet buffers.
        runProbes(r, {2 * KiB}, r.driveS * 1e3);
    }
}

} // namespace perfbench
