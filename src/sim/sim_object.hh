/**
 * @file
 * SimObject: named component attached to a Simulation context.
 * Simulation bundles the event queue and the root random source so
 * that a whole run is reproducible from one seed.
 *
 * A Simulation normally runs single-threaded on one event queue.
 * enablePartitions() switches it to the partitioned core
 * (sim/partition.hh): one queue per base server plus the control
 * queue, advanced in conservative lookahead rounds by a worker
 * pool. SimObjects capture their partition at construction (via
 * psim::PartitionScope) and route all queue/RNG/time accessors
 * through it, so component code is identical in both modes.
 */

#ifndef BMHIVE_SIM_SIM_OBJECT_HH
#define BMHIVE_SIM_SIM_OBJECT_HH

#include <cstdint>
#include <memory>
#include <string>

#include "base/logging.hh"
#include "base/random.hh"
#include "base/units.hh"
#include "fault/fault.hh"
#include "obs/metric_registry.hh"
#include "obs/trace.hh"
#include "sim/eventq.hh"
#include "sim/partition.hh"

namespace bmhive {

/**
 * Owner of simulated time and randomness for one experiment run.
 * Also owns the run's observability surface: the metric registry
 * every SimObject registers into and the (off-by-default) Chrome
 * trace sink. Keeping these per-simulation, not process-global,
 * means benches that build several testbeds never mix samples.
 */
class Simulation
{
  public:
    explicit Simulation(std::uint64_t seed = 1)
        : seed_(seed), rng_(seed)
    {
        // Log lines carry the current simulated time of the most
        // recently constructed simulation.
        Logger::global().setTickSource([this] { return now(); },
                                       this);
    }

    ~Simulation() { Logger::global().clearTickSource(this); }

    Simulation(const Simulation &) = delete;
    Simulation &operator=(const Simulation &) = delete;

    std::uint64_t seed() const { return seed_; }

    /**
     * Queue of the current execution context: the control queue in
     * a classic simulation, the executing partition's queue inside
     * a partitioned round. Components schedule through SimObject,
     * which resolves the object's own partition instead.
     */
    EventQueue &
    eventq()
    {
        if (!psim_)
            return eventq_;
        return psim_->queue(currentPartition());
    }

    Rng &rng() { return rng_; }

    /** Simulated time of the current execution context. */
    Tick
    now() const
    {
        if (!psim_)
            return eventq_.curTick();
        return psim_->queue(currentPartition()).curTick();
    }

    obs::MetricRegistry &metrics() { return metrics_; }
    obs::TraceSink &trace() { return trace_; }
    fault::FaultHookRegistry &faults() { return faults_; }

    /** Run the event loop until empty or @p limit. */
    void
    run(Tick limit = maxTick)
    {
        if (psim_)
            psim_->run(limit);
        else
            eventq_.run(limit);
    }

    /**
     * @name Partitioned execution
     * @{
     */

    /**
     * Switch to the partitioned core with @p servers server
     * partitions (plus control partition 0). Must be called before
     * any events run; component construction afterwards should be
     * wrapped in psim::PartitionScope to assign affinity.
     */
    void enablePartitions(unsigned servers, psim::Params params = {});

    bool partitioned() const { return psim_ != nullptr; }

    /** Partition count including control (1 when classic). */
    unsigned
    partitions() const
    {
        return psim_ ? psim_->partitions() : 1;
    }

    /** Partition of the innermost active scope (0 outside any). */
    unsigned
    currentPartition() const
    {
        return psim_ ? psim::currentPartitionOf(this) : 0;
    }

    EventQueue &
    partitionQueue(unsigned p)
    {
        if (!psim_ || p == 0)
            return eventq_;
        return psim_->queue(p);
    }

    Tick
    partitionTick(unsigned p) const
    {
        if (!psim_ || p == 0)
            return eventq_.curTick();
        return psim_->queue(p).curTick();
    }

    /** Per-partition RNG shard; partition 0 is the root rng(). */
    Rng &
    partitionRng(unsigned p)
    {
        if (!psim_ || p == 0)
            return rng_;
        return psim_->rng(p);
    }

    /** Conservative lookahead in ticks (0 when classic). */
    Tick lookahead() const { return psim_ ? psim_->lookahead() : 0; }

    /**
     * Deliver @p fn in partition @p dst at absolute tick @p when —
     * the cross-partition mailbox API. From inside a parallel phase
     * the send buffers in the source partition's outbox and @p when
     * must respect the lookahead contract; everywhere else (and in
     * classic mode) it degenerates to scheduling a OneShotEvent.
     * Either way the delivery is built here, as a one-shot from the
     * sender's thread pool, and travels as that event.
     */
    template <typename F>
    void
    post(unsigned dst, Tick when, F &&fn,
         Event::Priority pri = Event::defaultPri,
         EventLabel what = "xpart")
    {
        deliver(dst, nullptr, when, std::forward<F>(fn), pri, what);
    }

    /** post() to the partition @p cell holds, stamped with @p cell
     *  so the delivery follows a re-home before @p when. */
    template <typename F>
    void
    postToCell(const unsigned *cell, Tick when, F &&fn,
               Event::Priority pri = Event::defaultPri,
               EventLabel what = "xpart")
    {
        panic_if(!cell, "post to a null partition cell");
        deliver(*cell, cell, when, std::forward<F>(fn), pri, what);
    }

    /** Write partition @p to into @p cell and move the events
     *  stamped with it out of the old partition's queue (none move
     *  when the partition is unchanged). Serial phases only. */
    void rehomeCell(unsigned *cell, unsigned to);

    /** Panic if a parallel phase is running in a partition other
     *  than @p home (SimObject's scheduling methods call this). */
    void checkAffinity(const std::string &who, unsigned home) const;

    /** @} */

  private:
    /** post()/postToCell() body; @p cell may be null. */
    template <typename F>
    void
    deliver(unsigned dst, const unsigned *cell, Tick when, F &&fn,
            Event::Priority pri, EventLabel what)
    {
        std::unique_ptr<OneShotEvent> ev(
            new OneShotEvent(std::forward<F>(fn), what, pri));
        if (psim_)
            return psim_->post(dst, when, std::move(ev), cell);
        eventq_.schedule(ev.get(), when, cell);
        ev.release();
    }

    std::uint64_t seed_;
    EventQueue eventq_;
    Rng rng_;
    obs::MetricRegistry metrics_;
    obs::TraceSink trace_;
    fault::FaultHookRegistry faults_;
    std::unique_ptr<psim::Coordinator> psim_;
};

/**
 * Base class for every simulated component. Provides the name and
 * convenience access to the owning Simulation's queue and RNG.
 *
 * Partition affinity is captured from the thread-local
 * psim::PartitionScope active at construction (partition 0 when
 * none is). When the scope carries a shared partition cell (one
 * per guest), the object resolves its partition through the cell,
 * so migrating the guest re-homes every component at once.
 *
 * Component code reaches its event queue only through
 * schedule/scheduleIn/reschedule/deschedule: they stamp each event
 * with the object's cell, so its pending events migrate with it,
 * and panic when another partition calls them in a parallel phase.
 */
class SimObject
{
  public:
    SimObject(Simulation &sim, std::string name)
        : sim_(sim), name_(std::move(name)),
          partition_(psim::currentPartitionOf(&sim)),
          partitionCell_(psim::currentCellOf(&sim)) {}
    virtual ~SimObject() = default;

    SimObject(const SimObject &) = delete;
    SimObject &operator=(const SimObject &) = delete;

    const std::string &name() const { return name_; }
    Simulation &sim() { return sim_; }

    /** Partition this object's events execute in. */
    unsigned
    partition() const
    {
        return partitionCell_ ? *partitionCell_ : partition_;
    }

    Rng &rng() { return sim_.partitionRng(partition()); }
    Tick curTick() const { return sim_.partitionTick(partition()); }
    obs::MetricRegistry &metrics() { return sim_.metrics(); }
    obs::TraceSink &traceSink() { return sim_.trace(); }
    fault::FaultHookRegistry &faults() { return sim_.faults(); }

    /** Debug log attributed to this object (see Logger::debugEnable). */
    template <typename... Args>
    void
    logDebug(Args &&...args) const
    {
        bmhive::debug(name_, std::forward<Args>(args)...);
    }

    void
    schedule(Event *ev, Tick when)
    {
        eventq().schedule(ev, when, partitionCell_);
    }

    /** Schedule @p ev at a delay relative to now. */
    void
    scheduleIn(Event *ev, Tick delay)
    {
        schedule(ev, curTick() + delay);
    }

    void
    reschedule(Event *ev, Tick when)
    {
        eventq().reschedule(ev, when, partitionCell_);
    }

    void deschedule(Event *ev) { eventq().deschedule(ev); }

  protected:
    /** Cell this object's partition resolves through, if any
     *  (constructed under a cell-carrying PartitionScope). */
    const unsigned *partitionCell() const { return partitionCell_; }

    Simulation &sim_;

  private:
    EventQueue &
    eventq()
    {
        if (sim_.partitioned())
            sim_.checkAffinity(name_, partition());
        return sim_.partitionQueue(partition());
    }

    std::string name_;
    unsigned partition_;
    const unsigned *partitionCell_;
};

} // namespace bmhive

#endif // BMHIVE_SIM_SIM_OBJECT_HH
