#include "sim/eventq.hh"

#include <algorithm>

#include "base/logging.hh"

namespace bmhive {

Event::~Event()
{
    panic_if(scheduled(),
             "event '", name(), "' destroyed while scheduled");
}

namespace {

/**
 * Per-thread free list of OneShotEvent storage. Trivially
 * destructible so it stays usable while the thread (or, for the
 * main thread, static destruction) tears down; OneShotPoolReaper
 * returns the list to the heap at thread exit and closes it.
 */
struct OneShotPool
{
    struct Block
    {
        Block *next;
    };
    Block *head = nullptr;
    std::size_t pooled = 0;
    std::int64_t live = 0;
    /** This thread's OneShotPoolReaper has been constructed. */
    bool reaperArmed = false;
    bool closed = false;
};

thread_local OneShotPool oneShotPool;

/** Blocks kept per thread; beyond this frees go to the heap, so a
 *  thread that frees more events than it allocates (a partition
 *  worker processing mailbox deliveries) stays bounded. */
constexpr std::size_t oneShotPoolCap = 4096;

struct OneShotPoolReaper
{
    ~OneShotPoolReaper()
    {
        OneShotPool &p = oneShotPool;
        while (p.head) {
            auto *b = p.head;
            p.head = b->next;
            ::operator delete(b);
        }
        p.pooled = 0;
        p.closed = true;
    }
};

thread_local OneShotPoolReaper oneShotPoolReaper;

} // namespace

void *
OneShotEvent::operator new(std::size_t size)
{
    OneShotPool &p = oneShotPool;
    ++p.live;
    if (size == sizeof(OneShotEvent) && p.head) {
        auto *b = p.head;
        p.head = b->next;
        --p.pooled;
        return b;
    }
    return ::operator new(size);
}

void
OneShotEvent::operator delete(void *ptr, std::size_t size)
{
    OneShotPool &p = oneShotPool;
    --p.live;
    if (size != sizeof(OneShotEvent) || p.closed ||
        p.pooled >= oneShotPoolCap) {
        ::operator delete(ptr);
        return;
    }
    // The first block pooled on this thread constructs the reaper
    // (odr-using it), so the list is returned at thread exit.
    if (!p.reaperArmed) {
        p.reaperArmed = true;
        (void)&oneShotPoolReaper;
    }
    auto *b = static_cast<OneShotPool::Block *>(ptr);
    b->next = p.head;
    p.head = b;
    ++p.pooled;
}

std::int64_t
OneShotEvent::live()
{
    return oneShotPool.live;
}

EventQueue::~EventQueue()
{
    // Collect first: destroying a callable may run arbitrary
    // destructors, which must not observe a half-walked heap.
    std::vector<Event *> owned;
    for (const Entry &e : heap_)
        if (e.ev->queueOwned_)
            owned.push_back(e.ev);
    heap_.clear();
    for (Event *ev : owned) {
        ev->slot_ = Event::unscheduled;
        delete ev;
    }
}

void
EventQueue::siftUp(std::size_t i, Entry e)
{
    while (i > 0) {
        std::size_t parent = (i - 1) / arity;
        if (!e.before(heap_[parent]))
            break;
        place(i, heap_[parent]);
        i = parent;
    }
    place(i, e);
}

void
EventQueue::siftDown(std::size_t i, Entry e)
{
    const std::size_t n = heap_.size();
    while (true) {
        std::size_t first = i * arity + 1;
        if (first >= n)
            break;
        std::size_t last = std::min(first + arity, n);
        std::size_t best = first;
        for (std::size_t c = first + 1; c < last; ++c)
            if (heap_[c].before(heap_[best]))
                best = c;
        if (!heap_[best].before(e))
            break;
        place(i, heap_[best]);
        i = best;
    }
    place(i, e);
}

void
EventQueue::removeAt(std::size_t i)
{
    heap_[i].ev->slot_ = Event::unscheduled;
    Entry last = heap_.back();
    heap_.pop_back();
    if (i == heap_.size())
        return;
    if (i > 0 && last.before(heap_[(i - 1) / arity]))
        siftUp(i, last);
    else
        siftDown(i, last);
}

void
EventQueue::schedule(Event *ev, Tick when, const unsigned *cell)
{
    panic_if(ev == nullptr, "scheduling a null event");
    panic_if(ev->scheduled(),
             "event '", ev->name(), "' is already scheduled");
    panic_if(when < curTick_,
             "scheduling event '", ev->name(), "' in the past: ",
             when, " < ", curTick_);
    ev->when_ = when;
    ev->cell_ = cell;
    heap_.emplace_back();
    siftUp(heap_.size() - 1,
           Entry{when, ev->priority_, nextSeq_++, ev});
}

void
EventQueue::deschedule(Event *ev)
{
    panic_if(ev == nullptr, "descheduling a null event");
    panic_if(!ev->scheduled(),
             "event '", ev->name(), "' is not scheduled");
    // One queue per partition: catch the wrong one.
    std::size_t i = ev->slot_;
    panic_if(i >= heap_.size() || heap_[i].ev != ev,
             "event '", ev->name(), "' belongs to another queue");
    removeAt(i);
}

void
EventQueue::reschedule(Event *ev, Tick when, const unsigned *cell)
{
    if (ev->scheduled())
        deschedule(ev);
    schedule(ev, when, cell);
}

void
EventQueue::moveCell(const unsigned *cell, EventQueue &to)
{
    panic_if(cell == nullptr, "moving the events of a null cell");
    if (&to == this)
        return;
    auto stay = [cell](const Entry &e) { return e.ev->cell_ != cell; };
    auto moving = std::partition(heap_.begin(), heap_.end(), stay);
    std::vector<Entry> moved(moving, heap_.end());
    heap_.erase(moving, heap_.end());
    // Re-heapify what stays (Floyd); only the key order matters.
    for (std::size_t i = heap_.size(); i-- > 0;)
        siftDown(i, heap_[i]);
    std::sort(moved.begin(), moved.end(),
              [](const Entry &a, const Entry &b) { return a.before(b); });
    for (const Entry &e : moved) {
        e.ev->slot_ = Event::unscheduled;
        to.schedule(e.ev, e.when, cell);
    }
}

bool
EventQueue::step()
{
    if (heap_.empty())
        return false;
    Entry e = heap_.front();
    removeAt(0);
    panic_if(e.when < curTick_, "time went backwards");
    if (e.when != curTick_) {
        curTick_ = e.when;
        sameTickCount_ = 0;
    }
    // A zero-latency event cycle would freeze simulated time while
    // burning host CPU forever. No legitimate model comes close to
    // this many events in one tick; treat it as a modelling bug.
    panic_if(++sameTickCount_ > sameTickLimit,
             "event livelock: ", sameTickLimit,
             " events at tick ", curTick_, "; last: '",
             e.ev->name(), "'");
    ++processed_;
    e.ev->process();
    return true;
}

void
EventQueue::run(Tick limit)
{
    while (true) {
        if (heap_.empty()) {
            // A drained queue still owes the caller the full
            // window: fixed-window pumps (and parked partitions)
            // read curTick afterwards and must see the limit, not
            // the tick of whatever event happened to run last.
            if (limit != maxTick && limit > curTick_)
                curTick_ = limit;
            return;
        }
        if (heap_.front().when > limit) {
            curTick_ = limit;
            return;
        }
        step();
    }
}

} // namespace bmhive
