/**
 * @file
 * fleet_storm: a rack of base servers on the partitioned simulation
 * core (one event partition per server, run by up to nproc worker
 * threads) rides out a migration storm: planned live migrations
 * plus the failovers from two base-server power losses. Every guest
 * reads 4 KiB at a fixed rate (open loop, storage rate limit lifted
 * so the rate is the generator's alone); each request is timed
 * from the tick it was due, so a blackout that holds the generator
 * back shows as latency, and the issues it delayed are reported as
 * generator lateness. This is the only workload where partitions,
 * the fleet controller, per-guest memory footprint, idle dedicated
 * polls and the size of the metric export dominate.
 */

#include <algorithm>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "cloud/block_service.hh"
#include "cloud/vswitch.hh"
#include "core/instance_catalog.hh"
#include "fleet/fleet_controller.hh"
#include "base/paper_constants.hh"
#include "harness.hh"
#include "virtio/virtio_blk.hh"

namespace perfbench {

using namespace bmhive;

namespace {

constexpr unsigned fleetServers = 4;
constexpr unsigned slotsPerServer = 6;
constexpr unsigned fleetGuests = 10; // fits the two survivors
constexpr Bytes volumeBytes = 8 * MiB;

/**
 * Open-loop 4 KiB reader for one guest. The pump runs in the
 * control partition; completions run in the guest's own partition,
 * so everything a completion touches is per guest (no two worker
 * threads ever share it). The driver and vCPU pointers live inside
 * the BmGuest, which moves by unique_ptr on migration, so they stay
 * valid throughout.
 */
struct GuestLoad
{
    fleet::GuestId id = fleet::invalidGuest;
    guest::BlkDriver *blk = nullptr;
    hw::CpuExecutor *cpu = nullptr;
    Rng rng{1};
    Tick nextDue = 0;
    bool stopped = false;

    std::vector<std::uint8_t> completions; // per request id
    std::vector<Tick> dueAt;               // per request id
    std::vector<Tick> doneAt;              // per request id
    std::uint64_t badStatus = 0;
    std::uint64_t late = 0;

    /** Issue every request due by @p now, oldest first, then wake
     *  at the next due tick. A refused issue (ring full mid-
     *  blackout) stays due and retries one poll period later: that
     *  is backpressure, not loss, and shows as lateness. */
    void
    pump(Simulation &sim, Tick period, SpanLog &spans)
    {
        const Tick now = sim.now();
        bool refused = false;
        while (!stopped && nextDue <= now) {
            const std::uint64_t rid = completions.size();
            std::uint64_t sector =
                rng.uniformInt(0, volumeBytes / (4 * KiB) - 1) * 8;
            {
                SpanLog::Scope span(spans, "blk_submit");
                refused = !blk->read(
                    sector, 4 * KiB, *cpu,
                    [this, rid, &sim](std::uint8_t status, Addr) {
                        if (completions[rid] < 255)
                            ++completions[rid];
                        if (status != virtio::VIRTIO_BLK_S_OK)
                            ++badStatus;
                        doneAt[rid] = sim.now();
                    });
            }
            if (refused)
                break;
            completions.push_back(0);
            dueAt.push_back(nextDue);
            doneAt.push_back(0);
            if (now > nextDue)
                ++late;
            nextDue += period;
        }
        if (stopped)
            return;
        auto *ev = new OneShotEvent(
            [this, &sim, period, &spans] { pump(sim, period, spans); },
            "perfbench.fleet.pump");
        sim.eventq().schedule(
            ev, refused ? now + paper::backendPollPeriod : nextDue);
    }
};

} // namespace

void
fleetStorm(const RunConfig &cfg, SpanLog &spans, Report &r)
{
    const unsigned target = cfg.tiny ? 6 : 100;
    const Tick period = usToTicks(25); // 40 K reads/s per guest

    Simulation sim(cfg.seed);
    Rng rng(cfg.seed ^ 0x666c6565745f7374ULL);
    // One worker per server partition and host core, at most 4.
    psim::Params pp;
    pp.threads = std::max(1u, std::min({std::thread::hardware_concurrency(),
                                        4u, fleetServers}));
    sim.enablePartitions(fleetServers, pp);
    r.notes.emplace_back("sim_threads", std::to_string(pp.threads));

    cloud::VSwitch vswitch(sim, "vswitch");
    cloud::BlockServiceParams bp;
    bp.channels = 32; // 10 guests x 40 K reads/s stays unsaturated
    cloud::BlockService storage(sim, "storage", bp);
    fleet::FleetParams fp;
    fp.servers = fleetServers;
    fp.server.maxBoards = slotsPerServer;
    fp.perServerVswitch = true;
    fleet::FleetController fc(sim, "fleet", vswitch, &storage, fp);
    noteServerConfig(r, fp.server);

    const core::InstanceType &type =
        core::InstanceCatalog::byName("ebm.xeon-e3.8");
    std::vector<GuestLoad> loads(fleetGuests);
    auto t_prov = Clock::now();
    for (unsigned i = 0; i < fleetGuests; ++i) {
        auto &vol = storage.createVolume("vol" + std::to_string(i),
                                         volumeBytes);
        fleet::GuestId id;
        {
            SpanLog::Scope span(spans, "place");
            id = fc.place(type, 0x100 + i, &vol,
                          /*rate_limited=*/false);
        }
        if (id == fleet::invalidGuest) {
            r.check("fleet.placement", false,
                    "placement failed for guest " + std::to_string(i));
            return;
        }
        loads[i].id = id;
        loads[i].blk = fc.guest(id).blk();
        loads[i].cpu = &fc.guest(id).os().cpu(0);
        loads[i].rng = Rng(rng.uniformInt(1, ~0ULL >> 1));
    }
    double provision_s = secondsSince(t_prov);
    double guest_mem = 0;
    for (unsigned s = 0; s < fleetServers; ++s)
        guest_mem += double(fc.server(s).base().memory().size());
    for (auto &l : loads)
        guest_mem += double(fc.guest(l.id).board().memory().size());
    {
        SpanLog::Scope span(spans, "run");
        sim.run(sim.now() + msToTicks(2.0));
    }

    const Tick start = sim.now();
    r.setupS = secondsSince(cfg.processStart);
    const std::uint64_t ev0 = eventsProcessed(sim);
    auto drive0 = Clock::now();

    for (auto &l : loads) {
        // Stagger the guests' phases across one period.
        l.nextDue = start + Tick(l.rng.uniform() * double(period));
        l.pump(sim, period, spans);
    }

    // The storm: planned migrations rotate over the guests onto the
    // live server with the most free slots; power is cut to servers
    // 0 and 1 at a third and two thirds of the target, each once no
    // planned migration is in flight (a migration whose source or
    // target dies under it aborts, which is not what the storm is
    // for: the failovers are).
    unsigned next = 0, power_cuts = 0;
    bool storm_live = true;
    std::function<void()> storm_tick = [&] {
        std::uint64_t done = fc.migrationsDone() + fc.migrationAborts();
        const bool cut_due =
            power_cuts < 2 && done >= target * (power_cuts + 1) / 3;
        if (cut_due && fc.migrationsInFlight() > 0) {
            // Let the in-flight migrations land first.
        } else if (cut_due && !fc.serverDead(power_cuts)) {
            fault::FaultSpec spec;
            spec.kind = fault::FaultKind::ServerPowerLoss;
            sim.faults().deliver("fleet.s" + std::to_string(power_cuts),
                                 spec);
            ++power_cuts;
        } else if (done < target) {
            for (unsigned tries = 0; tries < fleetGuests; ++tries) {
                GuestLoad &l = loads[next++ % fleetGuests];
                if (!fc.alive(l.id) || fc.migrating(l.id))
                    continue;
                unsigned cur = fc.serverOf(l.id), best = cur;
                unsigned best_free = 0;
                for (unsigned s = 0; s < fleetServers; ++s) {
                    if (s == cur || fc.serverDead(s))
                        continue;
                    unsigned free = fc.server(s).freeSlots();
                    if (free > best_free) {
                        best_free = free;
                        best = s;
                    }
                }
                if (best == cur)
                    continue;
                bool started;
                {
                    SpanLog::Scope span(spans, "migrate");
                    started = fc.migrate(l.id, best);
                }
                if (started)
                    break;
            }
        }
        if (storm_live && (done < target || power_cuts < 2)) {
            auto *ev = new OneShotEvent(storm_tick,
                                        "perfbench.fleet.storm");
            sim.eventq().schedule(ev, sim.now() + usToTicks(300));
        }
    };
    storm_tick();

    const Tick storm_limit = start + msToTicks(cfg.tiny ? 60.0 : 400.0);
    while (sim.now() < storm_limit &&
           (fc.migrationsDone() + fc.migrationAborts() < target ||
            power_cuts < 2)) {
        SpanLog::Scope span(spans, "run");
        sim.run(sim.now() + msToTicks(1.0));
    }
    storm_live = false;
    const Tick storm_end = sim.now();

    // Wind down: stop the pumps, let in-flight work settle.
    for (auto &l : loads)
        l.stopped = true;
    auto quiet = [&] {
        for (auto &l : loads)
            for (auto c : l.completions)
                if (c == 0)
                    return false;
        return fc.migrationsInFlight() == 0;
    };
    for (unsigned spin = 0; spin < 200 && !quiet(); ++spin) {
        SpanLog::Scope span(spans, "run");
        sim.run(sim.now() + msToTicks(1.0));
    }
    r.driveS = secondsSince(drive0);
    r.simMs = ticksToSec(sim.now() - start) * 1e3;
    const std::uint64_t events = eventsProcessed(sim) - ev0;

    // ---- checks ----
    std::uint64_t issued = 0, lost = 0, dup = 0, bad = 0, late = 0;
    SampleSet lat;
    std::uint64_t in_window = 0;
    for (auto &l : loads) {
        issued += l.completions.size();
        bad += l.badStatus;
        late += l.late;
        for (std::size_t k = 0; k < l.completions.size(); ++k) {
            lost += l.completions[k] == 0;
            dup += l.completions[k] > 1;
            if (l.completions[k] >= 1 && l.dueAt[k] < storm_end) {
                ++in_window;
                lat.record(ticksToUs(l.doneAt[k] - l.dueAt[k]));
            }
        }
    }
    const std::uint64_t aborts = fc.migrationAborts();
    r.attempted = issued + fc.migrationsDone() + aborts;
    r.failed = lost + dup + bad + aborts;
    r.check("fleet.exactly_once", lost == 0 && dup == 0,
            std::to_string(lost) + " lost, " + std::to_string(dup) +
                " duplicated of " + std::to_string(issued));
    r.check("fleet.status_ok", bad == 0,
            std::to_string(bad) + " non-OK statuses");
    r.check("fleet.no_lost_guests", fc.lostGuests() == 0,
            std::to_string(fc.lostGuests()) + " guests lost");
    r.check("fleet.migration_target",
            fc.migrationsDone() >= target && power_cuts == 2 &&
                fc.failovers() > 0,
            std::to_string(fc.migrationsDone()) + " migrations (" +
                std::to_string(fc.failovers()) + " failovers) of " +
                std::to_string(target) + ", " +
                std::to_string(aborts) + " aborted");
    std::uint64_t driver_detects = 0;
    for (auto &l : loads)
        // A lost guest already fails fleet.no_lost_guests.
        if (fc.alive(l.id) && !fc.migrating(l.id))
            driver_detects += driverDetects(fc.guest(l.id));
    checkIntegrity(r, sim, 0, driver_detects);

    // ---- modelled results ----
    const double storm_s = ticksToSec(storm_end - start);
    const LatencyRecorder &b = fc.blackout();
    r.model = {
        {"mops", storm_s > 0 ? double(in_window) / storm_s / 1e6 : 0},
        {"p50_us", pct(lat, 0.50)},
        {"p999_us", pct(lat, 0.999)},
        {"samples", double(lat.count())},
        {"fleet.storm_ms", storm_s * 1e3},
        {"fleet.migrations", double(fc.migrationsDone())},
        {"fleet.failovers", double(fc.failovers())},
        {"fleet.aborts", double(aborts)},
        {"fleet.blackout_p50_us", b.count() ? b.p50Us() : 0},
        {"fleet.blackout_p90_us", b.count() ? b.p90Us() : 0},
        {"fleet.blackout_samples", double(b.count())},
        {"fleet.gen_late_frac", issued ? double(late) / double(issued) : 0},
    };

    exportRegistry(r, sim, spans);
    addLayerMetrics(r, sim, {r.driveS, events, provision_s, guest_mem});
    r.set("guest.blk.read_p50_us", pct(lat, 0.50));
    r.set("guest.blk.read_p999_us", pct(lat, 0.999));
    if (cfg.trace)
        runProbes(r, {4 * KiB}, r.driveS * 1e3);
}

} // namespace perfbench
