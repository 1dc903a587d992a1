#include "sched/poll_scheduler.hh"

#include <algorithm>
#include <limits>
#include <utility>

#include "base/logging.hh"

namespace bmhive {
namespace sched {

PollScheduler::PollScheduler(Simulation &sim, std::string name,
                             std::vector<hw::CpuExecutor *> pool,
                             PollSchedulerParams params)
    : SimObject(sim, std::move(name)), params_(params),
      poolSize_(unsigned(pool.size()))
{
    fatal_if(params_.quantum == 0, this->name(),
             ": DWRR quantum must be positive");
    for (unsigned i = 0; i < pool.size(); ++i) {
        Core &c = newCore(LaneKind::Shared, *pool[i]);
        std::string base =
            this->name() + ".core" + std::to_string(i);
        c.rounds = &metrics().counter(base + ".rounds");
        c.busy = &metrics().counter(base + ".busy_rounds");
        c.items = &metrics().counter(base + ".items");
        c.wakes = &metrics().counter(base + ".wakes");
        c.sleeps = &metrics().counter(base + ".sleeps");
        c.pollables = &metrics().gauge(base + ".pollables");
        c.roundItems =
            &metrics().histogram(base + ".round_items", 0, 1024, 32);
        c.wakeToPoll = &metrics().latency(base + ".wake_to_poll");
    }
}

PollScheduler::Core &
PollScheduler::newCore(LaneKind kind, hw::CpuExecutor &exec)
{
    auto ci = unsigned(cores_.size());
    Core &c = cores_.emplace_back();
    c.kind = kind;
    c.exec = &exec;
    c.period = params_.pollPeriod;
    c.roundEvent = std::make_unique<EventFunctionWrapper>(
        [this, ci] { runRound(ci); },
        name() + (kind == LaneKind::Shared ? ".core" : ".lane") +
            std::to_string(ci) + ".round",
        Event::pollPri);
    return c;
}

PollScheduler::~PollScheduler()
{
    for (Core &c : cores_) {
        if (c.roundEvent->scheduled())
            deschedule(c.roundEvent.get());
    }
}

hw::CpuExecutor &
PollScheduler::coreExecutor(unsigned i)
{
    panic_if(i >= poolSize_, name(), ": bad core ", i);
    return *cores_[i].exec;
}

unsigned
PollScheduler::leastLoadedCore() const
{
    panic_if(poolSize_ == 0, name(), ": no shared pool");
    unsigned best = 0;
    for (unsigned i = 1; i < poolSize_; ++i) {
        if (cores_[i].members.size() <
            cores_[best].members.size())
            best = i;
    }
    return best;
}

PollScheduler::Handle
PollScheduler::add(unsigned core, Pollable &p, double weight)
{
    panic_if(core >= poolSize_, name(), ": bad core ", core);
    Core &c = cores_[core];
    Member m;
    m.id = nextId_++;
    m.pollable = &p;
    m.weight = weight;
    m.served =
        &metrics().counter(name() + ".served." + p.pollableName());
    c.members.push_back(m);
    c.pollables->set(double(c.members.size()));
    // Kick the core: work queued before registration (bring-up,
    // recovery republish) has no doorbell left to post a wake.
    if (c.state == CoreState::Sleep) {
        c.state = CoreState::Busy;
        c.period = params_.pollPeriod;
        c.idleRounds = 0;
    }
    kick(core, curTick() + params_.wakeLatency);
    return Handle{core, m.id};
}

PollScheduler::Handle
PollScheduler::addPinned(LaneKind kind, hw::CpuExecutor &exec,
                         Pollable &p, Tick period)
{
    panic_if(kind == LaneKind::Shared, name(),
             ": shared pollables join a pool core");
    unsigned ci = poolSize_;
    while (ci < cores_.size() && !cores_[ci].members.empty())
        ++ci;
    Core &c = ci < cores_.size() ? cores_[ci] : newCore(kind, exec);
    c.kind = kind;
    c.exec = &exec;
    c.period = period && kind == LaneKind::Dedicated
                   ? period
                   : params_.pollPeriod;
    c.rounds = c.busy = c.items = c.wakes = nullptr;
    if (kind == LaneKind::Passthrough) {
        // Named after the pollable, so the counters of a queue
        // unit accumulate across respawns and demote/promote
        // cycles whichever lane carries it.
        std::string base = p.pollableName() + ".pass";
        c.rounds = &metrics().counter(base + ".rounds");
        c.busy = &metrics().counter(base + ".busy_rounds");
        c.items = &metrics().counter(base + ".items");
        c.wakes = &metrics().counter(base + ".wakes");
    }
    Member m;
    m.id = nextId_++;
    m.pollable = &p;
    c.members.push_back(m);
    Tick at = curTick() + params_.wakeLatency;
    if (kind == LaneKind::Dedicated) {
        at = std::max({curTick() + c.period, exec.busyUntil(),
                       p.pollBlockedUntil()});
    }
    kick(ci, at);
    return Handle{ci, m.id};
}

void
PollScheduler::remove(Handle h)
{
    if (!h.valid())
        return;
    Core &c = cores_[h.core];
    for (auto it = c.members.begin(); it != c.members.end(); ++it) {
        if (it->id != h.id)
            continue;
        c.members.erase(it);
        if (c.kind == LaneKind::Shared)
            c.pollables->set(double(c.members.size()));
        else if (c.roundEvent->scheduled())
            deschedule(c.roundEvent.get());
        return;
    }
}

void
PollScheduler::setWeight(Handle h, double w)
{
    Member *m = find(h);
    if (!m || cores_[h.core].kind != LaneKind::Shared)
        return;
    m->weight = w;
    if (w <= 0.0) {
        // Starved: forfeit accumulated credit so a restored guest
        // restarts from a clean share.
        m->deficit = 0.0;
        return;
    }
    // Work posted while starved or deprioritized waits for the
    // weight to come back; the restore is its wake.
    if (m->wakePending)
        expedite(h.core, true);
}

void
PollScheduler::setPeriod(Handle h, Tick period)
{
    if (find(h) && cores_[h.core].kind == LaneKind::Dedicated)
        cores_[h.core].period = period;
}

void
PollScheduler::setFlightRecorder(Handle h, obs::FlightRecorder *fr)
{
    Member *m = find(h);
    if (m)
        m->flight = fr;
}

void
PollScheduler::wake(Handle h)
{
    Member *m = find(h);
    if (!m || !m->pollable->pollAlive())
        return;
    if (!m->wakePending) {
        m->wakePending = true;
        m->postedAt = curTick();
    }
    Core &c = cores_[h.core];
    if (c.kind == LaneKind::Dedicated)
        return; // polls on its fixed period regardless
    if (c.kind == LaneKind::Passthrough) {
        c.wakes->inc();
        c.period = params_.pollPeriod;
        kick(h.core, curTick() + params_.wakeLatency);
        return;
    }
    if (m->weight <= 0.0)
        return; // starved by containment: no wake for you
    expedite(h.core, true);
}

void
PollScheduler::expedite(unsigned ci, bool count_wake)
{
    Core &c = cores_[ci];
    Tick at = curTick() + params_.wakeLatency;
    bool resting = c.state != CoreState::Busy ||
                   !c.roundEvent->scheduled() ||
                   c.roundEvent->when() > at;
    if (!resting)
        return; // already polling at least as fast as the bound
    if (count_wake &&
        (c.state == CoreState::Sleep ||
         !c.roundEvent->scheduled() ||
         c.roundEvent->when() > at))
        c.wakes->inc();
    c.state = CoreState::Busy;
    c.period = params_.pollPeriod;
    c.idleRounds = 0;
    kick(ci, at);
}

void
PollScheduler::kick(unsigned ci, Tick at)
{
    Core &c = cores_[ci];
    if (c.roundEvent->scheduled()) {
        if (c.roundEvent->when() <= at)
            return;
        reschedule(c.roundEvent.get(), at);
    } else {
        schedule(c.roundEvent.get(), at);
    }
}

void
PollScheduler::runRound(unsigned ci)
{
    Core &c = cores_[ci];
    if (c.kind != LaneKind::Shared) {
        runPinned(ci);
        return;
    }
    const Tick now = curTick();
    c.rounds->inc();
    unsigned total = 0;
    Tick next_blocked = maxTick;
    for (std::size_t i = 0; i < c.members.size(); ++i) {
        Member &m = c.members[i];
        if (!m.pollable->pollAlive())
            continue;
        if (m.weight <= 0.0)
            continue; // quarantined: starved at the scheduler
        Tick blocked = m.pollable->pollBlockedUntil();
        if (blocked > now) {
            next_blocked = std::min(next_blocked, blocked);
            continue;
        }
        // DWRR: earn quantum*weight credit, service up to the
        // accumulated deficit, forfeit the remainder on running
        // dry so idle rounds never bank future bursts.
        m.deficit += double(params_.quantum) * m.weight;
        auto budget = unsigned(m.deficit);
        if (budget == 0)
            continue; // fractional weight, still accruing credit
        if (m.wakePending) {
            c.wakeToPoll->record(now - m.postedAt);
            m.wakePending = false;
        }
        unsigned served = m.pollable->servicePoll(budget);
        ++m.visits;
        if (served < budget)
            m.deficit = 0.0;
        else
            m.deficit -= double(served);
        if (served > 0) {
            m.served->inc(served);
            if (m.flight)
                m.flight->record(now, obs::FlightEvent::SchedVisit,
                                 0, 0, served);
        }
        total += served;
    }
    c.items->inc(total);
    c.roundItems->record(double(total));
    if (total > 0)
        c.busy->inc();

    // Adaptive-poll governor: busy-poll -> backoff -> sleep.
    if (total > 0) {
        c.state = CoreState::Busy;
        c.period = params_.pollPeriod;
        c.idleRounds = 0;
    } else {
        ++c.idleRounds;
        if (c.state == CoreState::Busy) {
            if (c.idleRounds >= params_.idleRoundsBeforeBackoff) {
                c.state = CoreState::Backoff;
                c.period =
                    std::min(c.period * 2, params_.maxBackoff);
            }
        } else if (c.state == CoreState::Backoff) {
            if (c.period >= params_.maxBackoff)
                c.state = CoreState::Sleep; // ceiling and still dry
            else
                c.period =
                    std::min(c.period * 2, params_.maxBackoff);
        }
    }

    if (c.state == CoreState::Sleep) {
        if (next_blocked != maxTick) {
            // A stalled pollable exists; resume when it unblocks
            // instead of waiting for a doorbell it already rang.
            c.state = CoreState::Backoff;
            c.period = params_.maxBackoff;
            kick(ci, std::max(next_blocked,
                              now + params_.pollPeriod));
        } else {
            c.sleeps->inc(); // no events until a wake
        }
        return;
    }
    Tick at = now + c.period;
    if (c.exec->busyUntil() > at)
        at = c.exec->busyUntil();
    kick(ci, at);
}

void
PollScheduler::runPinned(unsigned ci)
{
    Core &c = cores_[ci];
    if (c.members.empty() || !c.members[0].pollable->pollAlive())
        return; // idle until a live member registers
    const Tick now = curTick();
    Member &m = c.members[0];
    Tick blocked = m.pollable->pollBlockedUntil();
    if (blocked > now) {
        // Stalled: resume exactly at the stall end instead of
        // stepping through the poll grid.
        kick(ci, blocked);
        return;
    }
    const std::uint64_t id = m.id;
    const bool dedicated = c.kind == LaneKind::Dedicated;
    unsigned served = m.pollable->servicePoll(
        dedicated ? std::numeric_limits<unsigned>::max()
                  : passthroughBudget);
    if (c.members.empty() || c.members[0].id != id)
        return; // the member left during its own visit
    ++m.visits;
    m.wakePending = false;
    if (!dedicated) {
        c.rounds->inc();
        c.items->inc(served);
        if (served > 0) {
            c.busy->inc();
            c.period = params_.pollPeriod;
        } else {
            // Idle: back off toward the ceiling but keep visiting;
            // a passthrough lane never sleeps.
            c.period = std::min(c.period * 2, params_.maxBackoff);
        }
    }
    kick(ci, std::max({now + c.period, c.exec->busyUntil(),
                       m.pollable->pollBlockedUntil()}));
}

PollScheduler::Member *
PollScheduler::find(Handle h)
{
    if (!h.valid() || h.core >= cores_.size())
        return nullptr;
    for (Member &m : cores_[h.core].members) {
        if (m.id == h.id)
            return &m;
    }
    return nullptr;
}

const PollScheduler::Member *
PollScheduler::find(Handle h) const
{
    return const_cast<PollScheduler *>(this)->find(h);
}

std::uint64_t
PollScheduler::serviceVisits(Handle h) const
{
    const Member *m = find(h);
    return m ? m->visits : 0;
}

bool
PollScheduler::wedged(Handle h, Tick window) const
{
    const Member *m = find(h);
    if (!m || m->weight <= 0.0 || !m->pollable->pollAlive())
        return false;
    return m->wakePending && curTick() - m->postedAt > window;
}

std::uint64_t
PollScheduler::rounds(unsigned core) const
{
    panic_if(core >= poolSize_, name(), ": bad core ", core);
    return cores_[core].rounds->value();
}

std::uint64_t
PollScheduler::busyRounds(unsigned core) const
{
    panic_if(core >= poolSize_, name(), ": bad core ", core);
    return cores_[core].busy->value();
}

std::uint64_t
PollScheduler::wakes(unsigned core) const
{
    panic_if(core >= poolSize_, name(), ": bad core ", core);
    return cores_[core].wakes->value();
}

std::uint64_t
PollScheduler::sleeps(unsigned core) const
{
    panic_if(core >= poolSize_, name(), ": bad core ", core);
    return cores_[core].sleeps->value();
}

unsigned
PollScheduler::pollablesOn(unsigned core) const
{
    panic_if(core >= poolSize_, name(), ": bad core ", core);
    return unsigned(cores_[core].members.size());
}

double
PollScheduler::busyRatio(unsigned core) const
{
    panic_if(core >= poolSize_, name(), ": bad core ", core);
    std::uint64_t r = cores_[core].rounds->value();
    return r ? double(cores_[core].busy->value()) / double(r) : 0.0;
}

const LatencyRecorder &
PollScheduler::wakeToPoll(unsigned core) const
{
    panic_if(core >= poolSize_, name(), ": bad core ", core);
    return *cores_[core].wakeToPoll;
}

} // namespace sched
} // namespace bmhive
