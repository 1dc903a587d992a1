/**
 * @file
 * Benchmark binary entry point: runs one workload in this process
 * and prints its report as one JSON object on stdout. run.py runs
 * it several times per measurement and aggregates.
 *
 *   perfbench --workload net_flood|blk_mixed|fleet_storm
 *             --seed N [--trace 0|1] [--tiny]
 *             [--trace-out FILE] [--metrics-out FILE]
 *
 * --trace-out writes the benchmark's spans (traced runs) and
 * --metrics-out the simulator's end-of-run registry export, the
 * input of the printed digest, for diffing two builds.
 */

#include <cpuid.h>
#include <sys/resource.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "harness.hh"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif

namespace perfbench {

namespace {

/** CPU brand string via cpuid (no file reads outside the tree). */
std::string
cpuModel()
{
    unsigned regs[12] = {};
    if (__get_cpuid_max(0x80000000, nullptr) < 0x80000004)
        return "unknown";
    for (unsigned i = 0; i < 3; ++i)
        __get_cpuid(0x80000002 + i, &regs[i * 4], &regs[i * 4 + 1],
                    &regs[i * 4 + 2], &regs[i * 4 + 3]);
    std::string s(reinterpret_cast<const char *>(regs), sizeof regs);
    s = s.c_str();
    auto b = s.find_first_not_of(' ');
    return b == std::string::npos ? "unknown" : s.substr(b);
}

std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        if (static_cast<unsigned char>(c) >= 0x20)
            out += c;
    }
    return out + "\"";
}

std::string
jsonNumber(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

std::string
jsonValues(const Values &vals)
{
    std::string out = "{";
    for (std::size_t i = 0; i < vals.size(); ++i)
        out += (i ? "," : "") + jsonString(vals[i].first) + ":" +
               jsonNumber(vals[i].second);
    return out + "}";
}

/** FNV-1a 64 over the modelled values and the registry export. */
std::string
digest(const Report &r)
{
    std::uint64_t h = 1469598103934665603ULL;
    auto mix = [&h](const std::string &s) {
        for (unsigned char c : s) {
            h ^= c;
            h *= 1099511628211ULL;
        }
    };
    mix(jsonValues(r.model));
    mix(r.registryJson);
    char buf[20];
    std::snprintf(buf, sizeof buf, "%016" PRIx64, h);
    return buf;
}

void
writeFile(const std::string &path, const std::string &body)
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f) {
        std::fprintf(stderr, "perfbench: cannot write %s\n",
                     path.c_str());
        return;
    }
    std::fwrite(body.data(), 1, body.size(), f);
    std::fclose(f);
}

[[noreturn]] void
usage(const char *msg)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload "
                 "net_flood|blk_mixed|fleet_storm --seed N "
                 "[--trace 0|1] [--tiny] "
                 "[--trace-out FILE] [--metrics-out FILE]\n",
                 msg);
    std::exit(2);
}

} // namespace
} // namespace perfbench

int
main(int argc, char **argv)
{
    using namespace perfbench;
    RunConfig cfg;
    cfg.processStart = Clock::now();
    std::string workload, trace_out, metrics_out;
    bool seed_set = false;
    unsigned hw = std::max(1u, std::thread::hardware_concurrency());
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                usage(("missing value for " + a).c_str());
            return argv[++i];
        };
        if (a == "--workload")
            workload = value();
        else if (a == "--seed") {
            cfg.seed = std::strtoull(value().c_str(), nullptr, 10);
            seed_set = true;
        } else if (a == "--trace")
            cfg.trace = value() == "1";
        else if (a == "--tiny")
            cfg.tiny = true;
        else if (a == "--trace-out")
            trace_out = value();
        else if (a == "--metrics-out")
            metrics_out = value();
        else
            usage(("unknown argument " + a).c_str());
    }
    if (!seed_set)
        usage("--seed is required");

    // Only fatal lines: SLO-breach warnings mid-storm are expected
    // and would bury the report.
    bmhive::Logger::global().setVerbosity(bmhive::LogLevel::Fatal);

    SpanLog spans(cfg.trace);
    Report r;
    r.workload = workload;
    if (workload == "net_flood")
        netFlood(cfg, spans, r);
    else if (workload == "blk_mixed")
        blkMixed(cfg, spans, r);
    else if (workload == "fleet_storm")
        fleetStorm(cfg, spans, r);
    else
        usage(("unknown workload '" + workload + "'").c_str());

    if (cfg.trace) {
        // Host cost of the benchmark's own calls into each layer.
        auto per_call = [&spans](const char *name, double scale) {
            auto [secs, n] = spans.total(name);
            return n ? secs * scale / double(n) : 0.0;
        };
        r.set("guest.blk.host_ns_per_submit",
              per_call("blk_submit", 1e9));
        r.set("sim.host_ms_per_run_slice", per_call("run", 1e3));
    }
    if (!trace_out.empty() && spans.on())
        writeFile(trace_out, spans.toChromeJson());
    if (!metrics_out.empty())
        writeFile(metrics_out, r.registryJson);

    struct rusage ru = {};
    getrusage(RUSAGE_SELF, &ru);
    double rss_mb = double(ru.ru_maxrss) * 1024.0 / 1e6;

    bool ok = std::all_of(r.checks.begin(), r.checks.end(),
                          [](const Check &c) { return c.ok; });
    std::string checks = "[";
    for (std::size_t i = 0; i < r.checks.size(); ++i)
        checks += std::string(i ? "," : "") + "{\"name\":" +
                  jsonString(r.checks[i].name) + ",\"ok\":" +
                  (r.checks[i].ok ? "true" : "false") +
                  ",\"detail\":" + jsonString(r.checks[i].detail) +
                  "}";
    checks += "]";

    std::string notes = "{";
    r.notes.insert(r.notes.begin(),
                   {{"nproc", std::to_string(hw)},
                    {"cpu", cpuModel()},
                    {"build_type", PERFBENCH_BUILD_TYPE},
                    {"tracing", std::to_string(BMHIVE_TRACING)},
                    {"compiler", PERFBENCH_COMPILER},
                    {"seed", std::to_string(cfg.seed)}});
    for (std::size_t i = 0; i < r.notes.size(); ++i)
        notes += (i ? "," : "") + jsonString(r.notes[i].first) + ":" +
                 jsonString(r.notes[i].second);
    notes += "}";

    std::printf("{\"workload\":%s,\"ok\":%s,\"attempted\":%" PRIu64
                ",\"failed\":%" PRIu64 ",\"setup_s\":%s,\"drive_s\":%s,"
                "\"sim_ms\":%s,\"peak_rss_mb\":%s,\"digest\":\"%s\","
                "\"context\":%s,\"checks\":%s,\"model\":%s,"
                "\"layers\":%s}\n",
                jsonString(workload).c_str(), ok ? "true" : "false",
                r.attempted, r.failed, jsonNumber(r.setupS).c_str(),
                jsonNumber(r.driveS).c_str(),
                jsonNumber(r.simMs).c_str(),
                jsonNumber(rss_mb).c_str(), digest(r).c_str(),
                notes.c_str(), checks.c_str(),
                jsonValues(r.model).c_str(),
                jsonValues(r.layers).c_str());
    return ok ? 0 : 1;
}
