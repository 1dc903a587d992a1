/**
 * @file
 * blk_mixed: two bm-guests with volumes on local-SSD storage (the
 * section 4.3 parameters, rate limits lifted), sharing one poll
 * core under SchedMode::Shared. Each guest runs closed-loop jobs:
 * seven issue 4 KiB random writes and reads in turn, one issues
 * 128 KiB requests the same way. This is where per-byte work
 * (DmaEngine copies and CRCs, Volume DIF tags) and the poll
 * scheduler run; there are no vSwitch frames. Reads beside writes
 * let a gain on one path that costs the other show up.
 *
 * Every job owns a private block range and keeps one request in
 * flight, so each read has exactly one expected content: the last
 * write to that block (zeros before the first).
 */

#include <algorithm>
#include <cstring>
#include <memory>
#include <vector>

#include "base/paper_constants.hh"
#include "cloud/block_service.hh"
#include "cloud/vswitch.hh"
#include "core/bmhive_server.hh"
#include "harness.hh"
#include "virtio/virtio_blk.hh"

namespace perfbench {

using namespace bmhive;

namespace {

constexpr unsigned jobsPerGuest = 8;
constexpr Bytes smallIo = 4 * KiB;
constexpr Bytes largeIo = 128 * KiB;
constexpr unsigned blocksPerJob = 128;

/** Local SSD: no fabric hop, NVMe-class service times (the section
 *  4.3 parameters bench_s43_uncapped uses). */
cloud::BlockServiceParams
localSsd()
{
    cloud::BlockServiceParams p;
    p.networkLatency = usToTicks(2);
    p.readServiceMedian = usToTicks(45);
    p.writeServiceMedian = usToTicks(18);
    p.gcChance = 5e-4;
    p.gcPause = msToTicks(0.8);
    p.streamBandwidth = Bandwidth::gbps(6);
    return p;
}

/** Deterministic content of one block version (0 = never written,
 *  which reads back as zeros). */
void
fillPattern(std::uint8_t *out, Bytes len, std::uint64_t key,
            std::uint32_t version)
{
    if (version == 0) {
        std::fill(out, out + len, std::uint8_t(0));
        return;
    }
    std::uint64_t x = key * 0x9e3779b97f4a7c15ULL + version;
    for (Bytes off = 0; off < len; off += 8) {
        x ^= x >> 31;
        x *= 0xbf58476d1ce4e5b9ULL;
        x ^= x >> 27;
        std::memcpy(out + off, &x, 8);
    }
}

struct Stats
{
    std::uint64_t issued = 0;
    std::uint64_t badStatus = 0;
    std::uint64_t mismatches = 0;
    std::uint64_t inWindow = 0;
    SampleSet all, reads, writes, small;
    std::vector<std::uint8_t> completions; // per request id
};

/** One closed-loop client: alternate write / read of a random block
 *  of its private range, next request on completion. */
class Job
{
  public:
    Job(Simulation &sim, core::BmGuest &g, unsigned cpu, Bytes io,
        std::uint64_t first_sector, std::uint64_t key, Rng &rng,
        Stats &st, Tick t0, Tick t1, SpanLog &spans)
        : sim_(sim), g_(g), cpu_(g.os().cpu(cpu)), io_(io),
          first_(first_sector), key_(key), rng_(rng), st_(st),
          t0_(t0), t1_(t1), spans_(spans), versions_(blocksPerJob, 0),
          buf_(io)
    {
    }

    void
    issue()
    {
        if (stopped)
            return;
        const unsigned block = unsigned(rng_.uniformInt(0, blocksPerJob - 1));
        const bool write = nextWrite_;
        const std::uint64_t sector = first_ + block * (io_ / 512);
        const std::uint64_t rid = st_.issued;
        const Tick submitted = sim_.now();
        bool ok;
        if (write) {
            std::uint32_t v = versions_[block] + 1;
            std::vector<std::uint8_t> data(io_);
            fillPattern(data.data(), io_, key_ + block, v);
            SpanLog::Scope span(spans_, "blk_submit");
            ok = g_.blk()->write(
                sector, io_, &data, cpu_,
                [this, rid, submitted, block, v](std::uint8_t status,
                                                 Addr) {
                    // Only an acknowledged write defines content.
                    if (status == virtio::VIRTIO_BLK_S_OK)
                        versions_[block] = v;
                    done(rid, submitted, status, true);
                });
        } else {
            std::uint32_t v = versions_[block];
            SpanLog::Scope span(spans_, "blk_submit");
            ok = g_.blk()->read(
                sector, io_, cpu_,
                [this, rid, submitted, block, v](std::uint8_t status,
                                                 Addr data) {
                    if (status == virtio::VIRTIO_BLK_S_OK)
                        verify(data, block, v);
                    done(rid, submitted, status, false);
                });
        }
        if (!ok) {
            // Ring or arena full: back off one poll period.
            auto *ev = new OneShotEvent([this] { issue(); },
                                        "perfbench.blk.retry");
            sim_.eventq().schedule(
                ev, sim_.now() + paper::backendPollPeriod);
            return;
        }
        ++st_.issued;
        st_.completions.push_back(0);
        nextWrite_ = !write;
    }

    bool stopped = false;

  private:
    void
    verify(Addr data, unsigned block, std::uint32_t v)
    {
        std::vector<std::uint8_t> want(io_);
        fillPattern(want.data(), io_, key_ + block, v);
        g_.os().memory().read(data, buf_.data(), io_);
        if (buf_ != want)
            ++st_.mismatches;
    }

    void
    done(std::uint64_t rid, Tick submitted, std::uint8_t status,
         bool write)
    {
        if (st_.completions[rid] < 255)
            ++st_.completions[rid];
        if (status != virtio::VIRTIO_BLK_S_OK)
            ++st_.badStatus;
        const Tick now = sim_.now();
        if (now >= t0_ && now < t1_) {
            double us = ticksToUs(now - submitted);
            ++st_.inWindow;
            st_.all.record(us);
            (write ? st_.writes : st_.reads).record(us);
            if (io_ == smallIo)
                st_.small.record(us);
        }
        // fio's sync engine: the next submission costs a syscall
        // plus the driver path (and never re-enters the driver from
        // inside its completion handler).
        cpu_.run(usToTicks(1.2), [this] { issue(); });
    }

    Simulation &sim_;
    core::BmGuest &g_;
    hw::CpuExecutor &cpu_;
    Bytes io_;
    std::uint64_t first_;
    std::uint64_t key_;
    Rng &rng_;
    Stats &st_;
    Tick t0_;
    Tick t1_;
    SpanLog &spans_;
    std::vector<std::uint32_t> versions_;
    std::vector<std::uint8_t> buf_;
    bool nextWrite_ = true;
};

} // namespace

void
blkMixed(const RunConfig &cfg, SpanLog &spans, Report &r)
{
    const double window_ms = cfg.tiny ? 1.0 : 55.0;

    Simulation sim(cfg.seed);
    Rng rng(cfg.seed ^ 0x626c6b5f6d697864ULL);
    cloud::VSwitch vswitch(sim, "vswitch");
    cloud::BlockService storage(sim, "storage", localSsd());
    core::BmServerParams sp;
    sp.maxBoards = 4;
    sp.schedMode = core::SchedMode::Shared;
    sp.pollCores = 1;
    core::BmHiveServer server(sim, "server", vswitch, &storage, sp);
    noteServerConfig(r, sp);

    auto t_prov = Clock::now();
    std::vector<core::BmGuest *> guests;
    for (cloud::MacAddr mac : {0xaa, 0xbb}) {
        auto &vol = storage.createVolume(
            "vol" + std::to_string(mac), 256 * MiB);
        SpanLog::Scope span(spans, "provision");
        guests.push_back(&server.provision(
            core::InstanceCatalog::evaluated(), mac, &vol,
            /*rate_limited=*/false));
    }
    double provision_s = secondsSince(t_prov);
    double guest_mem = double(server.base().memory().size());
    for (auto *g : guests)
        guest_mem += double(g->board().memory().size());
    {
        SpanLog::Scope span(spans, "run");
        sim.run(sim.now() + msToTicks(1));
    }

    const Tick start = sim.now();
    const Tick t0 = start + msToTicks(1);
    const Tick t1 = t0 + msToTicks(window_ms);
    r.setupS = secondsSince(cfg.processStart);
    const std::uint64_t ev0 = eventsProcessed(sim);
    auto drive0 = Clock::now();

    Stats st;
    std::vector<std::unique_ptr<Job>> jobs;
    for (unsigned gi = 0; gi < guests.size(); ++gi) {
        for (unsigned j = 0; j < jobsPerGuest; ++j) {
            Bytes io = j + 1 == jobsPerGuest ? largeIo : smallIo;
            std::uint64_t first =
                std::uint64_t(j) * blocksPerJob * (largeIo / 512);
            jobs.push_back(std::make_unique<Job>(
                sim, *guests[gi], j + 1, io, first,
                (std::uint64_t(gi) << 40) | (std::uint64_t(j) << 32),
                rng, st, t0, t1, spans));
        }
    }
    for (auto &j : jobs)
        j->issue();

    // Drive the window, then stop issuing and let every request
    // complete (bounded: a lost one is caught below).
    const Tick slice = usToTicks(250);
    Tick t = start;
    while (t < t1) {
        t = std::min(t1, t + slice);
        SpanLog::Scope span(spans, "run");
        sim.run(t);
    }
    for (auto &j : jobs)
        j->stopped = true;
    auto outstanding = [&st] {
        std::uint64_t n = 0;
        for (auto c : st.completions)
            n += c == 0;
        return n;
    };
    for (unsigned spin = 0; spin < 80 && outstanding() > 0; ++spin) {
        SpanLog::Scope span(spans, "run");
        sim.run(sim.now() + slice);
    }
    r.driveS = secondsSince(drive0);
    r.simMs = ticksToSec(sim.now() - start) * 1e3;
    const std::uint64_t events = eventsProcessed(sim) - ev0;

    // ---- checks ----
    std::uint64_t lost = 0, dup = 0;
    for (auto c : st.completions) {
        lost += c == 0;
        dup += c > 1;
    }
    r.attempted = st.issued;
    r.failed = lost + dup + st.badStatus;
    r.check("blk.exactly_once", lost == 0 && dup == 0,
            std::to_string(lost) + " lost, " + std::to_string(dup) +
                " completed twice");
    r.check("blk.status_ok", st.badStatus == 0,
            std::to_string(st.badStatus) + " non-OK statuses");
    r.check("blk.read_last_write", st.mismatches == 0,
            std::to_string(st.mismatches) + " reads differ from the "
                                            "last write");
    r.check("blk.ran", st.reads.count() > 0 && st.writes.count() > 0,
            "");
    std::uint64_t driver_detects = 0;
    for (auto *g : guests)
        driver_detects += driverDetects(*g);
    checkIntegrity(r, sim, st.mismatches, driver_detects);

    // ---- modelled results ----
    const double iops = double(st.inWindow) / (window_ms * 1e-3);
    const double mean4k = st.small.count() ? st.small.mean() : 0.0;
    r.model = {
        {"mops", iops / 1e6},
        {"p50_us", pct(st.all, 0.50)},
        {"p999_us", pct(st.all, 0.999)},
        {"samples", double(st.all.count())},
        {"blk.iops", iops},
        {"blk.read_p50_us", pct(st.reads, 0.50)},
        {"blk.read_p999_us", pct(st.reads, 0.999)},
        {"blk.read_samples", double(st.reads.count())},
        {"blk.write_p50_us", pct(st.writes, 0.50)},
        {"blk.write_p999_us", pct(st.writes, 0.999)},
        {"blk.write_samples", double(st.writes.count())},
        {"blk.4k_mean_us", mean4k},
        {"blk.paper_4k_mean_us", ticksToUs(paper::localSsdAvgLatency)},
        {"blk.err_pct",
         100.0 * (mean4k - ticksToUs(paper::localSsdAvgLatency)) /
             ticksToUs(paper::localSsdAvgLatency)},
    };

    exportRegistry(r, sim, spans);
    addLayerMetrics(r, sim, {r.driveS, events, provision_s, guest_mem});
    r.set("guest.blk.read_p50_us", pct(st.reads, 0.50));
    r.set("guest.blk.read_p999_us", pct(st.reads, 0.999));
    r.set("guest.blk.write_p50_us", pct(st.writes, 0.50));
    r.set("guest.blk.write_p999_us", pct(st.writes, 0.999));
    if (cfg.trace) {
        // The jobs' size mix: seven 4 KiB jobs to one 128 KiB job.
        runProbes(r,
                  {smallIo, smallIo, smallIo, smallIo, smallIo, smallIo,
                   smallIo, largeIo},
                  r.driveS * 1e3);
    }
}

} // namespace perfbench
