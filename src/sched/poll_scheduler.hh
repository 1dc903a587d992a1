/**
 * @file
 * PollScheduler: the one driver of every poll-mode backend. Each
 * scheduler core is a lane whose LaneKind is fixed when it is
 * registered: shared pool cores multiplex N backends over M
 * base-board cores (cf. the paper's section 3.5 density
 * economics), passthrough lanes carry one MQ queue unit, and
 * dedicated lanes one always-busy-polling process, the seed design.
 *
 * Each pool core runs a scheduler round that services its
 * registered pollables with deficit-weighted round-robin: every
 * round a ready pollable earns quantum*weight items of deficit, is
 * serviced up to its accumulated deficit, and loses the unused
 * remainder when it runs dry (classic DWRR, so a backlogged guest
 * cannot hoard credit and an active one gets cross-guest batching
 * within the round).
 *
 * An adaptive-poll governor walks each pool core busy-poll ->
 * backoff -> sleep as its pollables run dry: rounds with work keep
 * the busy-poll period, an idle streak doubles the period up to a
 * ceiling, and one more idle round at the ceiling stops scheduling
 * rounds entirely. IO-Bond doorbell writes (and backend rx/console
 * input) post a wake; a sleeping core resumes within a bounded
 * wake latency, modeled in ticks.
 *
 * Containment hooks: per-pollable weights on pool cores. Suspect
 * guests get a fractional weight (deprioritized but serviced),
 * quarantined guests weight 0 (starved at the scheduler, not just
 * at the doorbell). The watchdog asks wedged(), on every lane
 * kind: work posted a full window ago with no service visit since
 * — per-pollable progress, not per-process liveness.
 */

#ifndef BMHIVE_SCHED_POLL_SCHEDULER_HH
#define BMHIVE_SCHED_POLL_SCHEDULER_HH

#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "base/paper_constants.hh"
#include "base/stats.hh"
#include "hw/cpu_executor.hh"
#include "obs/flight_recorder.hh"
#include "sched/pollable.hh"
#include "sim/sim_object.hh"

namespace bmhive {
namespace sched {

struct PollSchedulerParams
{
    /** Round period while busy (the PMD spin granularity). */
    Tick pollPeriod = paper::bmPollPeriod;
    /** Work items one unit of weight earns per round. */
    unsigned quantum = paper::schedQuantum;
    /** Idle rounds before the governor starts backing off. */
    unsigned idleRoundsBeforeBackoff =
        paper::schedIdleRoundsBeforeBackoff;
    /** Backoff ceiling; idle there sends the core to sleep. */
    Tick maxBackoff = paper::schedMaxBackoff;
    /** Doorbell-to-first-poll latency of a sleeping core. */
    Tick wakeLatency = paper::schedWakeLatency;
};

/**
 * How a scheduler core polls; fixed when it is registered. Every
 * kind skips a dead pollable and resumes a stalled one at its
 * stall end.
 */
enum class LaneKind {
    /** Pool core: DWRR over its members, busy/backoff/sleep. */
    Shared,
    /** One MQ queue unit: 64 items per round, an idle round
     *  doubles the period up to maxBackoff, never sleeps; a wake
     *  snaps it back to the busy period. */
    Passthrough,
    /** One backend process: unlimited budget, fixed period, no
     *  backoff or sleep; wakes do not move its rounds. Lanes
     *  sharing an executor keep separate rounds. */
    Dedicated,
};

class PollScheduler : public SimObject
{
  public:
    /** Opaque registration handle; id 0 is "never registered". */
    struct Handle
    {
        unsigned core = 0;
        std::uint64_t id = 0;

        bool valid() const { return id != 0; }
    };

    /** @p pool: the shared cores (empty when every backend polls
     *  on a pinned lane). */
    PollScheduler(Simulation &sim, std::string name,
                  std::vector<hw::CpuExecutor *> pool,
                  PollSchedulerParams params = {});
    ~PollScheduler() override;

    /** Shared pool cores; pinned lanes are not counted. */
    unsigned coreCount() const { return poolSize_; }
    hw::CpuExecutor &coreExecutor(unsigned i);

    /** Pool core with the fewest registered pollables. */
    unsigned leastLoadedCore() const;

    /**
     * Register @p p on pool core @p core with @p weight. The core
     * is kicked so queued bring-up work is discovered without a
     * doorbell.
     */
    Handle add(unsigned core, Pollable &p, double weight = 1.0);

    /**
     * Register @p p alone on a pinned lane of @p kind (Passthrough
     * or Dedicated) running on @p exec. A Dedicated lane polls
     * every @p period (0: the busy period), first at one period
     * from now; a Passthrough lane first polls within wakeLatency.
     */
    Handle addPinned(LaneKind kind, hw::CpuExecutor &exec,
                     Pollable &p, Tick period = 0);

    /** Drop @p h; a pinned lane stops with its member. */
    void remove(Handle h);

    /**
     * Containment lever on pool cores: 1.0 = normal share,
     * fractions deprioritize, 0 starves (the pollable keeps its
     * slot but is never serviced until the weight comes back).
     * Pinned lanes ignore weights.
     */
    void setWeight(Handle h, double w);

    /** New fixed period of @p h's Dedicated lane (ablations). */
    void setPeriod(Handle h, Tick period);

    /** Attach @p h's guest flight recorder: each serviced round
     *  records SchedVisit (a = items served). */
    void setFlightRecorder(Handle h, obs::FlightRecorder *fr);

    /**
     * Work was posted for @p h (doorbell, backend rx, console
     * input): wake a sleeping/backed-off core so it polls within
     * wakeLatency. A Dedicated lane polls on its period anyway;
     * there the wake only records the posted work for wedged().
     */
    void wake(Handle h);

    // --- Watchdog interface (per-pollable progress) ---

    /** Scheduler visits (serviced rounds) of @p h. */
    std::uint64_t serviceVisits(Handle h) const;
    /**
     * True when @p h had work posted more than @p window ago and
     * has not been visited since: the pollable is wedged, not
     * merely idle (an idle guest posts nothing, a starved weight-0
     * guest is deliberate and reported as not wedged).
     */
    bool wedged(Handle h, Tick window) const;

    // --- Observability (pool cores) ---

    std::uint64_t rounds(unsigned core) const;
    std::uint64_t busyRounds(unsigned core) const;
    std::uint64_t wakes(unsigned core) const;
    std::uint64_t sleeps(unsigned core) const;
    unsigned pollablesOn(unsigned core) const;
    double busyRatio(unsigned core) const;
    const LatencyRecorder &wakeToPoll(unsigned core) const;

    const PollSchedulerParams &params() const { return params_; }

  private:
    enum class CoreState { Busy, Backoff, Sleep };

    /** Items one passthrough round may service. */
    static constexpr unsigned passthroughBudget = 64;

    struct Member
    {
        std::uint64_t id = 0;
        Pollable *pollable = nullptr;
        double weight = 1.0;
        double deficit = 0.0;
        std::uint64_t visits = 0;
        /** Posted work not yet followed by a service visit. */
        bool wakePending = false;
        Tick postedAt = 0;
        /** Items serviced, attributed per guest backend. */
        Counter *served = nullptr;
        /** Owning guest's flight recorder, when attached. */
        obs::FlightRecorder *flight = nullptr;
    };

    /** A pool core or a pinned lane. Pinned lanes without a
     *  member are free for reuse. Passthrough lanes count only
     *  rounds, busy rounds, items and wakes; Dedicated lanes add
     *  no metrics (the service counts its own polls). */
    struct Core
    {
        LaneKind kind = LaneKind::Shared;
        hw::CpuExecutor *exec = nullptr;
        std::vector<Member> members;
        CoreState state = CoreState::Sleep;
        Tick period = 0;
        unsigned idleRounds = 0;
        std::unique_ptr<EventFunctionWrapper> roundEvent;
        Counter *rounds = nullptr;
        Counter *busy = nullptr;
        Counter *items = nullptr;
        Counter *wakes = nullptr;
        Counter *sleeps = nullptr;
        Gauge *pollables = nullptr;
        Histogram *roundItems = nullptr;
        LatencyRecorder *wakeToPoll = nullptr;
    };

    Core &newCore(LaneKind kind, hw::CpuExecutor &exec);
    void runRound(unsigned ci);
    void runPinned(unsigned ci);
    /** Resume busy polling on @p ci within wakeLatency. */
    void expedite(unsigned ci, bool count_wake);
    /** Schedule (or expedite) core @p ci's next round at @p at. */
    void kick(unsigned ci, Tick at);
    Member *find(Handle h);
    const Member *find(Handle h) const;

    PollSchedulerParams params_;
    /** Pool cores first, then pinned lanes; a deque keeps a
     *  running round's Core valid while a lane is added. */
    std::deque<Core> cores_;
    unsigned poolSize_ = 0;
    std::uint64_t nextId_ = 1;
};

} // namespace sched
} // namespace bmhive

#endif // BMHIVE_SCHED_POLL_SCHEDULER_HH
