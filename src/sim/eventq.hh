/**
 * @file
 * Discrete-event simulation core: Event, EventQueue.
 *
 * The event queue is the single source of simulated time. Events
 * are ordered by (tick, priority, insertion sequence); same-tick
 * events therefore execute in a deterministic order, which the
 * test suite relies on.
 */

#ifndef BMHIVE_SIM_EVENTQ_HH
#define BMHIVE_SIM_EVENTQ_HH

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <tuple>
#include <vector>

#include "base/inline_function.hh"
#include "base/units.hh"

namespace bmhive {

class EventQueue;

/**
 * An occurrence scheduled at a point in simulated time. Subclass
 * and implement process(), or use EventFunctionWrapper for
 * lambda-based events.
 *
 * Events do not own themselves; the creating object manages their
 * lifetime and must keep them alive while scheduled. Once
 * descheduled, an event is out of its queue and may be destroyed
 * immediately (this is what lets a demoted passthrough poller be
 * torn down mid-simulation). OneShotEvent is the exception: it owns
 * itself, and its queue owns it while it is scheduled.
 *
 * A scheduled event knows its heap slot, and the affinity cell of
 * the object that scheduled it (null for objects homed in a fixed
 * partition): when a migration re-homes the cell, the event moves
 * to the new partition's queue with it (see SimObject).
 */
class Event
{
  public:
    /** Lower value runs first among same-tick events. */
    using Priority = int;

    static constexpr Priority defaultPri = 0;
    /** Service/poll loops run after ordinary events of that tick. */
    static constexpr Priority pollPri = 10;
    /** Statistics collection runs last at a given tick. */
    static constexpr Priority statsPri = 100;

    explicit Event(Priority pri = defaultPri) : priority_(pri) {}
    virtual ~Event();

    Event(const Event &) = delete;
    Event &operator=(const Event &) = delete;

    /** Called by the queue when simulated time reaches when(). */
    virtual void process() = 0;

    /** Human-readable label for tracing. */
    virtual std::string name() const { return "event"; }

    bool scheduled() const { return slot_ != unscheduled; }
    Tick when() const { return when_; }
    Priority priority() const { return priority_; }
    /** Affinity cell stamped when last scheduled (null if none). */
    const unsigned *cell() const { return cell_; }

  protected:
    /** The event deletes itself after process(); a queue destroyed
     *  while holding it deletes it instead (OneShotEvent). */
    void markQueueOwned() { queueOwned_ = true; }

  private:
    friend class EventQueue;

    static constexpr std::size_t unscheduled = ~std::size_t(0);

    Tick when_ = 0;
    Priority priority_;
    bool queueOwned_ = false;
    /** Index of this event's heap entry while scheduled. */
    std::size_t slot_ = unscheduled;
    const unsigned *cell_ = nullptr;
};

/** Event that invokes a stored callable; the common case. */
class EventFunctionWrapper : public Event
{
  public:
    EventFunctionWrapper(std::function<void()> fn, std::string name,
                         Priority pri = defaultPri)
        : Event(pri), fn_(std::move(fn)), name_(std::move(name)) {}

    void process() override { fn_(); }
    std::string name() const override { return name_; }

  private:
    std::function<void()> fn_;
    std::string name_;
};

/**
 * Name of a one-shot event: a static label, optionally appended to
 * its owner's name ("server.guest0.cpu0" + ".work"). Only pointers
 * are stored; the string is built when someone asks for it (panic
 * messages), never on the hot path. The owner string must outlive
 * the event; a SimObject's name() does whenever the object outlives
 * its pending events, which their callbacks require anyway.
 */
struct EventLabel
{
    EventLabel(const char *label) : label(label) {}
    EventLabel(const std::string &owner, const char *label)
        : owner(&owner), label(label) {}
    /** A temporary owner name would dangle. */
    EventLabel(std::string &&, const char *) = delete;

    std::string
    str() const
    {
        return owner ? *owner + label : std::string(label);
    }

    const std::string *owner = nullptr;
    const char *label;
};

/**
 * Fire-and-forget event: runs its callable once and deletes itself.
 * Use for asynchronous completions with no owner (e.g. in-flight
 * MSI messages). Must be heap-allocated with plain `new`.
 *
 * Allocation is cheap by construction: storage comes from a
 * per-thread free list (never shared between simulation threads;
 * an event freed on another thread than the one that allocated it
 * simply joins the freeing thread's list), captures of up to
 * inlineBytes live inside the event, and the name is an
 * EventLabel. A one-shot still scheduled when its queue is
 * destroyed is destroyed with it.
 */
class OneShotEvent : public Event
{
  public:
    /** Captures up to this size (a 48-byte Packet plus a pointer
     *  and an index) are stored without a heap allocation. */
    static constexpr std::size_t inlineBytes = 64;

    template <typename F>
    OneShotEvent(F &&fn, EventLabel label, Priority pri = defaultPri)
        : Event(pri), fn_(std::forward<F>(fn)), label_(label)
    {
        markQueueOwned();
    }

    void
    process() override
    {
        if (fn_)
            fn_();
        delete this;
    }

    std::string name() const override { return label_.str(); }

    static void *operator new(std::size_t size);
    static void operator delete(void *p, std::size_t size);

    /** One-shots allocated minus one-shots freed on the calling
     *  thread (leak checks in tests; may go negative on a thread
     *  that frees events another thread allocated). */
    static std::int64_t live();

  private:
    InlineFunction<inlineBytes> fn_;
    EventLabel label_;
};

/**
 * The ordering structure for events. A classic simulation has one
 * queue that everything shares; a partitioned simulation has one
 * per partition, each advancing its own curTick within the bounds
 * negotiated by the coordinator.
 *
 * An indexed 4-ary min-heap on (tick, priority, sequence): each
 * scheduled event knows its slot, so a deschedule (and the one in
 * a reschedule) removes its entry in place and the heap holds only
 * scheduled events. Four children per node halve the levels (and
 * slot writes) of a binary heap.
 */
class EventQueue
{
  public:
    EventQueue() = default;

    /** Destroys every still-scheduled one-shot event. */
    ~EventQueue();

    EventQueue(const EventQueue &) = delete;
    EventQueue &operator=(const EventQueue &) = delete;

    /** Current simulated time. */
    Tick curTick() const { return curTick_; }

    /** Schedule @p ev at @p when (>= curTick), stamped with @p cell. */
    void schedule(Event *ev, Tick when, const unsigned *cell = nullptr);

    /** Remove a scheduled event from the queue. */
    void deschedule(Event *ev);

    /** Deschedule (if scheduled) and re-schedule at @p when. */
    void reschedule(Event *ev, Tick when, const unsigned *cell = nullptr);

    /** Move every event stamped with @p cell to @p to, inserted in
     *  (when, priority, sequence) order with @p to's next sequence
     *  numbers: the result depends on nothing but the two queues. */
    void moveCell(const unsigned *cell, EventQueue &to);

    /** True if no events remain. */
    bool empty() const { return heap_.empty(); }

    /** Number of scheduled events. */
    std::size_t size() const { return heap_.size(); }

    /** Tick of the next event; maxTick when empty. */
    Tick nextTick() const { return empty() ? maxTick : heap_[0].when; }

    /**
     * Run the next event.
     * @return false if the queue was empty.
     */
    bool step();

    /**
     * Run until curTick exceeds @p limit or the queue is empty.
     * With a finite limit, curTick always lands exactly on @p limit
     * — including when the queue drains first — so fixed-window
     * callers (fleet pumps, partition rounds) never observe stale
     * time after an idle window.
     */
    void run(Tick limit = maxTick);

    /** Total events processed since construction. */
    std::uint64_t processedCount() const { return processed_; }

    /** Heap entries held: always size(), as none go stale. */
    std::size_t heapSize() const { return heap_.size(); }

    /** Same-tick events after which step() declares a livelock. */
    static constexpr std::uint64_t sameTickLimit = 2'000'000;

  private:
    struct Entry
    {
        Tick when;
        Event::Priority pri;
        std::uint64_t seq;
        Event *ev;

        bool
        before(const Entry &o) const
        {
            return std::tie(when, pri, seq) <
                   std::tie(o.when, o.pri, o.seq);
        }
    };

    static constexpr std::size_t arity = 4;

    /** Store @p e at slot @p i and record the slot in its event. */
    void
    place(std::size_t i, const Entry &e)
    {
        heap_[i] = e;
        e.ev->slot_ = i;
    }

    void siftUp(std::size_t i, Entry e);
    void siftDown(std::size_t i, Entry e);

    /** Take the entry at slot @p i out of the heap. */
    void removeAt(std::size_t i);

    std::vector<Entry> heap_;
    Tick curTick_ = 0;
    std::uint64_t nextSeq_ = 0;
    std::uint64_t processed_ = 0;
    std::uint64_t sameTickCount_ = 0;
};

} // namespace bmhive

#endif // BMHIVE_SIM_EVENTQ_HH
