/**
 * @file
 * Span log, registry views and the per-layer metric table shared
 * by every workload.
 */

#include <cstdio>
#include <cstring>

#include "harness.hh"

namespace perfbench {

void
SpanLog::add(const char *name, Clock::time_point start,
             Clock::time_point end)
{
    auto ns = [this](Clock::time_point t) {
        return std::int64_t(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                t - t0_)
                .count());
    };
    spans_.push_back({name, ns(start), ns(end)});
}

std::pair<double, std::uint64_t>
SpanLog::total(const char *name) const
{
    double s = 0;
    std::uint64_t n = 0;
    for (const auto &sp : spans_) {
        if (std::strcmp(sp.name, name) == 0) {
            s += double(sp.endNs - sp.startNs) * 1e-9;
            ++n;
        }
    }
    return {s, n};
}

std::string
SpanLog::toChromeJson() const
{
    std::string out = "{\"traceEvents\":[";
    char buf[160];
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        std::snprintf(buf, sizeof buf,
                      "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                      "\"tid\":1,\"ts\":%.3f,\"dur\":%.3f}",
                      i ? "," : "", s.name, double(s.startNs) / 1e3,
                      double(s.endNs - s.startNs) / 1e3);
        out += buf;
    }
    out += "]}\n";
    return out;
}

void
noteServerConfig(Report &r, const bmhive::core::BmServerParams &p)
{
    r.notes.emplace_back("obs", p.obs.enabled ? "on" : "off");
    r.notes.emplace_back("integrity",
                         p.integrity.enabled ? "on" : "off");
    const bool shared = p.schedMode == bmhive::core::SchedMode::Shared;
    r.notes.emplace_back("sched", shared ? "shared" : "dedicated");
}

RegistryView::RegistryView(bmhive::obs::MetricRegistry &reg)
    : reg_(reg)
{
    reg.forEach([this](const std::string &name,
                       bmhive::obs::MetricRegistry::Kind kind) {
        names_.emplace_back(name, kind);
    });
}

namespace {

bool
endsWith(const std::string &s, const std::string &suffix)
{
    return s.size() >= suffix.size() &&
           s.compare(s.size() - suffix.size(), suffix.size(),
                     suffix) == 0;
}

} // namespace

double
RegistryView::counters(const std::string &suffix,
                       const std::string &infix) const
{
    double sum = 0;
    for (const auto &[name, kind] : names_)
        if (kind == bmhive::obs::MetricRegistry::Kind::Counter &&
            endsWith(name, suffix) &&
            name.find(infix) != std::string::npos)
            sum += double(reg_.counter(name).value());
    return sum;
}

bmhive::SampleSet
RegistryView::latencies(const std::string &suffix) const
{
    bmhive::SampleSet out;
    for (const auto &[name, kind] : names_)
        if (kind == bmhive::obs::MetricRegistry::Kind::Latency &&
            endsWith(name, suffix))
            for (double v : reg_.latency(name).samples().samples())
                out.record(v);
    return out;
}

std::uint64_t
eventsProcessed(bmhive::Simulation &sim)
{
    std::uint64_t n = 0;
    for (unsigned p = 0; p < sim.partitions(); ++p)
        n += sim.partitionQueue(p).processedCount();
    return n;
}

void
exportRegistry(Report &r, bmhive::Simulation &sim, SpanLog &spans)
{
    SpanLog::Scope span(spans, "toJson");
    auto t0 = Clock::now();
    r.registryJson = sim.metrics().toJson();
    r.exportMs = secondsSince(t0) * 1e3;
}

void
Report::set(const std::string &name, double value)
{
    for (auto &kv : layers) {
        if (kv.first == name) {
            kv.second = value;
            return;
        }
    }
    layers.emplace_back(name, value);
}

double
Report::layer(const std::string &name) const
{
    for (const auto &kv : layers)
        if (kv.first == name)
            return kv.second;
    return 0.0;
}

void
addLayerMetrics(Report &r, bmhive::Simulation &sim,
                const DriveStats &d)
{
    RegistryView v(sim.metrics());
    auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };
    auto add = [&r](const std::string &k, double x) { r.set(k, x); };
    const double drive_ns = d.driveS * 1e9;

    add("sim.events", double(d.events));
    add("sim.host_ns_per_event", ratio(drive_ns, double(d.events)));

    double transfers = v.counters(".dma.transfers");
    add("mem.dma.transfers", transfers);
    add("mem.dma.bytes", v.counters(".dma.bytes_moved"));

    double chains = v.counters(".iobond.chains");
    add("virtio.chains", chains);
    add("virtio.host_ns_per_chain", ratio(drive_ns, chains));
    add("iobond.notifies_per_chain",
        ratio(v.counters(".iobond.notifies"), chains));
    add("iobond.dma.segs_per_transfer",
        ratio(v.counters(".dma.batched_segments"), transfers));
    add("iobond.scrub.checked",
        v.counters(".iobond.integrity.scrub.checked"));

    // Modelled per-stage latencies of the Fig 6 datapath, merged
    // over every guest, per role. Only the stages that take time on
    // the listed workloads: a net tx chain is serviced in the tick
    // it is picked up and net_flood's polls are dedicated (no
    // scheduler wait); under blk_mixed's shared pool the pickup is
    // stamped in the tick the scheduler visits, so its wait is
    // sched_delay.
    struct Stage
    {
        const char *role;
        const char *layer;
        const char *stage;
    };
    const Stage stages[] = {
        {"net", "iobond", "shadow_sync"}, {"net", "hv", "poll_pickup"},
        {"net", "hv", "complete_dma"},    {"net", "hv", "total"},
        {"blk", "iobond", "shadow_sync"}, {"blk", "sched", "sched_delay"},
        {"blk", "hv", "service"},         {"blk", "hv", "complete_dma"},
        {"blk", "hv", "total"},
    };
    for (const Stage &s : stages) {
        auto set = v.latencies(std::string(".hv.") + s.role +
                               ".stage." + s.stage);
        std::string base = std::string(s.layer) + ".stage." + s.role +
                           "." + s.stage;
        add(base + "_p50_us", pct(set, 0.50));
        add(base + "_p999_us", pct(set, 0.999));
    }

    double polls = v.counters(".hv.svc.poll.total");
    add("hv.poll.total", polls);
    add("hv.poll.busy_frac",
        ratio(v.counters(".hv.svc.poll.busy"), polls));
    add("hv.blk.retries", v.counters(".svc.blk.retries"));
    add("hv.blk.timeouts", v.counters(".svc.blk.timeouts"));

    double sched_rounds = v.counters(".rounds", ".sched.core");
    add("sched.rounds", sched_rounds);
    add("sched.busy_frac",
        ratio(v.counters(".busy_rounds", ".sched.core"),
              sched_rounds));

    add("cloud.vswitch.forwarded", v.counters("vswitch.forwarded"));
    auto svc = v.latencies("storage.service");
    add("cloud.storage.service_p50_us", pct(svc, 0.50));
    add("cloud.storage.service_p999_us", pct(svc, 0.999));
    add("cloud.storage.reads", v.counters("storage.reads"));
    add("cloud.storage.writes", v.counters("storage.writes"));

    add("obs.metrics", double(v.size()));
    add("obs.export_kib", double(r.registryJson.size()) / 1024.0);
    add("obs.export_ms", r.exportMs);
    add("obs.flight.events", v.counters(".flight.events"));

    add("core.provision_s", d.provisionS);
    add("core.guest_mem_mib", d.guestMemBytes / double(bmhive::MiB));

    // Workload-specific rows, zero where the workload has none.
    for (const char *k :
         {"guest.blk.read_p50_us", "guest.blk.read_p999_us",
          "guest.blk.write_p50_us", "guest.blk.write_p999_us"})
        add(k, 0.0);
}

std::uint64_t
driverDetects(bmhive::core::BmGuest &g)
{
    return g.net().rxCsumDrops() +
           (g.blk() ? g.blk()->integrityDetects() : 0);
}

void
checkIntegrity(Report &r, bmhive::Simulation &sim,
               std::uint64_t data_mismatches,
               std::uint64_t driver_detects)
{
    RegistryView v(sim.metrics());
    // Every detector the integrity layer has (the registry's and the
    // guest drivers'), against every way a corruption can be
    // injected. With nothing injected, any detection is a
    // corruption the datapath made by itself, even one a driver
    // healed by resubmitting, and any payload mismatch the
    // benchmark saw slipped past all of them (silent).
    double injected = v.counters(".fault.injected") +
                      v.counters(".integrity.meta_injected");
    double detected = v.counters(".integrity.ecrc_detected") +
                      v.counters(".integrity.dif_detects") +
                      v.counters(".integrity.frame_drops") +
                      v.counters(".integrity.fabric_corruptions") +
                      v.counters(".integrity.meta_faults") +
                      v.counters(".integrity.scrub.repairs") +
                      double(driver_detects);
    bool ok = data_mismatches == 0 &&
              (injected > 0 || detected == 0);
    r.failed += data_mismatches;
    char buf[160];
    std::snprintf(buf, sizeof buf,
                  "%.0f injected, %.0f detected, %llu payload "
                  "mismatches",
                  injected, detected,
                  (unsigned long long)data_mismatches);
    r.check("integrity.no_silent_corruption", ok, buf);
}

} // namespace perfbench
