/**
 * @file
 * Shared pieces of the benchmark binary: the per-run Report every
 * workload fills, host wall-clock spans for traced runs, helpers
 * that read the simulator's metric registry by name suffix, and
 * the layer probes.
 *
 * Host time is always steady_clock wall time of the whole process,
 * never thread CPU time: the partitioned core runs on several
 * threads, so main-thread CPU time would hide parallel work.
 */

#ifndef PERFBENCH_HARNESS_HH
#define PERFBENCH_HARNESS_HH

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "base/stats.hh"
#include "core/bmhive_server.hh"
#include "obs/metric_registry.hh"
#include "sim/sim_object.hh"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/** Seconds of wall time since @p t0. */
inline double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** How a workload is sized; every size is fixed in simulated time
 *  or operation counts, so a seed's modelled results never depend
 *  on host speed. */
struct RunConfig
{
    std::uint64_t seed = 1;
    bool trace = false;
    /** Shrinks every window for the benchmark's own tests. */
    bool tiny = false;
    /** Set when main() starts: "process start" for setup_s. */
    Clock::time_point processStart;
};

/**
 * Benchmark-side spans around calls into the simulator's public
 * API (run slices, provision/place, migrate, blk submits, toJson).
 * Recorded only in traced runs, only from the driving thread, kept
 * in memory and written out as Chrome trace JSON at the end.
 */
class SpanLog
{
  public:
    explicit SpanLog(bool on) : on_(on), t0_(Clock::now()) {}

    bool on() const { return on_; }

    /** RAII span; a no-op when the log is off. */
    class Scope
    {
      public:
        Scope(SpanLog &log, const char *name)
            : log_(log.on_ ? &log : nullptr), name_(name),
              start_(log_ ? Clock::now() : Clock::time_point{})
        {
        }
        ~Scope()
        {
            if (log_)
                log_->add(name_, start_, Clock::now());
        }
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

      private:
        SpanLog *log_;
        const char *name_;
        Clock::time_point start_;
    };

    void add(const char *name, Clock::time_point start,
             Clock::time_point end);

    /** Total wall seconds and count of spans named @p name. */
    std::pair<double, std::uint64_t> total(const char *name) const;

    /** Chrome trace_event JSON of every span. */
    std::string toChromeJson() const;

  private:
    struct Span
    {
        const char *name;
        std::int64_t startNs;
        std::int64_t endNs;
    };
    bool on_;
    Clock::time_point t0_;
    std::vector<Span> spans_;
};

/** Ordered name -> value list, emitted as a JSON object. */
using Values = std::vector<std::pair<std::string, double>>;

/** One correctness check of a run. */
struct Check
{
    std::string name;
    bool ok = true;
    std::string detail;
};

/** Everything one workload run reports. */
struct Report
{
    std::string workload;
    double setupS = 0;  ///< process start -> first driven tick
    double driveS = 0;  ///< wall seconds of the driven window
    double simMs = 0;   ///< simulated ms driven in that window
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<Check> checks;
    /** Deterministic modelled results (simulated time only). */
    Values model;
    /** Per-layer counters and stage latencies from the registry,
     *  plus benchmark-side host timings (traced runs only). */
    Values layers;
    /** Host context lines that are not numbers. */
    std::vector<std::pair<std::string, std::string>> notes;
    /** Registry export at the end of the run (digest input). */
    std::string registryJson;
    /** Wall ms spent in MetricRegistry::toJson. */
    double exportMs = 0;

    void
    check(std::string name, bool ok, std::string detail = "")
    {
        checks.push_back({std::move(name), ok, std::move(detail)});
    }
    /** Set (or append) per-layer value @p name. */
    void set(const std::string &name, double value);
    /** Per-layer value @p name, 0 when absent. */
    double layer(const std::string &name) const;
};

/** Record the server configuration the workload ran with. */
void noteServerConfig(Report &r, const bmhive::core::BmServerParams &p);

/** Read-only views over a MetricRegistry, matched by name suffix
 *  (e.g. ".iobond.chains" over every guest). Names are listed once
 *  up front: looking up a missing name would create it. */
class RegistryView
{
  public:
    explicit RegistryView(bmhive::obs::MetricRegistry &reg);

    /** Sum of every counter whose name ends with @p suffix (and
     *  contains @p infix). */
    double counters(const std::string &suffix,
                    const std::string &infix = "") const;
    /** Merged samples (us) of latency recorders ending @p suffix. */
    bmhive::SampleSet latencies(const std::string &suffix) const;
    std::size_t size() const { return names_.size(); }

  private:
    bmhive::obs::MetricRegistry &reg_;
    std::vector<std::pair<std::string,
                          bmhive::obs::MetricRegistry::Kind>>
        names_;
};

/** Events processed by every partition's queue of @p sim. */
std::uint64_t eventsProcessed(bmhive::Simulation &sim);

/** Host-side figures of one run's driven window and set-up. */
struct DriveStats
{
    double driveS = 0;         ///< wall seconds driven
    std::uint64_t events = 0;  ///< events processed while driving
    double provisionS = 0;     ///< wall seconds in provision/place
    double guestMemBytes = 0;  ///< simulated memories allocated
};

/**
 * The per-layer counters and modelled stage latencies every
 * workload exports, read from @p sim's registry after the run, in
 * one fixed set of names (zero where a workload has no such work).
 */
void addLayerMetrics(Report &r, bmhive::Simulation &sim,
                     const DriveStats &d);

/** Corruptions guest @p g's net and blk drivers caught themselves
 *  (frame checksum drops, DIF failures); not in the registry. */
std::uint64_t driverDetects(bmhive::core::BmGuest &g);

/**
 * Zero silent corruption: integrity detections (the registry's plus
 * @p driver_detects, summed over the workload's guests) against
 * injections, plus the payload mismatches the workload itself
 * observed (added to r.failed).
 */
void checkIntegrity(Report &r, bmhive::Simulation &sim,
                    std::uint64_t data_mismatches,
                    std::uint64_t driver_detects);

/** Time toJson() and keep the export as the digest input. */
void exportRegistry(Report &r, bmhive::Simulation &sim,
                    SpanLog &spans);

/** Percentile of @p s, 0 when empty. */
inline double
pct(const bmhive::SampleSet &s, double q)
{
    return s.count() ? s.percentile(q) : 0.0;
}

/**
 * Layer probes: time each layer's public function on inputs drawn
 * from the workload (its DMA transfer sizes from the run's own
 * counters, its block I/O sizes @p io_bytes) and add
 * "<layer>.host_ns_per_<unit>" values, plus the estimated host ms
 * per layer (probe cost times the run's exported call counts) and
 * the unattributed remainder of @p drive_ms.
 */
void runProbes(Report &r, const std::vector<std::uint64_t> &io_bytes,
               double drive_ms);

// Workloads: each builds its testbed, drives a fixed simulated
// window, checks its outputs and fills @p r.
void netFlood(const RunConfig &cfg, SpanLog &spans, Report &r);
void blkMixed(const RunConfig &cfg, SpanLog &spans, Report &r);
void fleetStorm(const RunConfig &cfg, SpanLog &spans, Report &r);

} // namespace perfbench

#endif // PERFBENCH_HARNESS_HH
