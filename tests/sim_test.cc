/**
 * @file
 * Unit tests for the discrete-event core: ordering, priorities,
 * rescheduling, one-shot events, and SimObject plumbing.
 */

#include <gtest/gtest.h>

#include <array>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "base/inline_function.hh"
#include "base/logging.hh"
#include "sim/eventq.hh"
#include "sim/sim_object.hh"

namespace bmhive {
namespace {

TEST(EventQueueTest, RunsInTimeOrder)
{
    EventQueue q;
    std::vector<int> order;
    EventFunctionWrapper e1([&] { order.push_back(1); }, "e1");
    EventFunctionWrapper e2([&] { order.push_back(2); }, "e2");
    EventFunctionWrapper e3([&] { order.push_back(3); }, "e3");
    q.schedule(&e2, 200);
    q.schedule(&e1, 100);
    q.schedule(&e3, 300);
    q.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(q.curTick(), 300u);
    EXPECT_TRUE(q.empty());
}

TEST(EventQueueTest, SameTickFifoWithinPriority)
{
    EventQueue q;
    std::vector<int> order;
    EventFunctionWrapper a([&] { order.push_back(1); }, "a");
    EventFunctionWrapper b([&] { order.push_back(2); }, "b");
    EventFunctionWrapper c([&] { order.push_back(3); }, "c");
    q.schedule(&a, 50);
    q.schedule(&b, 50);
    q.schedule(&c, 50);
    q.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueueTest, PriorityOrdersSameTick)
{
    EventQueue q;
    std::vector<char> order;
    EventFunctionWrapper poll([&] { order.push_back('p'); }, "poll",
                              Event::pollPri);
    EventFunctionWrapper stats([&] { order.push_back('s'); },
                               "stats", Event::statsPri);
    EventFunctionWrapper norm([&] { order.push_back('n'); }, "norm");
    q.schedule(&stats, 10);
    q.schedule(&poll, 10);
    q.schedule(&norm, 10);
    q.run();
    EXPECT_EQ(order, (std::vector<char>{'n', 'p', 's'}));
}

TEST(EventQueueTest, DescheduleRemovesEvent)
{
    EventQueue q;
    bool ran = false;
    EventFunctionWrapper e([&] { ran = true; }, "e");
    q.schedule(&e, 10);
    q.deschedule(&e);
    EXPECT_FALSE(e.scheduled());
    q.run();
    EXPECT_FALSE(ran);
    EXPECT_TRUE(q.empty());
}

// A descheduled event may be destroyed immediately: the queue must
// never touch it again. This is how a demoted passthrough poller
// tears down mid-simulation (ASan catches any regression here as a
// use-after-free).
TEST(EventQueueTest, DescheduledEventCanBeDestroyedBeforePop)
{
    EventQueue q;
    bool ran = false;
    EventFunctionWrapper keep([&] { ran = true; }, "keep");
    q.schedule(&keep, 20);
    {
        EventFunctionWrapper doomed([] { FAIL(); }, "doomed");
        q.schedule(&doomed, 10);
        q.deschedule(&doomed);
    } // doomed destroyed right after leaving the queue
    q.run();
    EXPECT_TRUE(ran);
    EXPECT_TRUE(q.empty());
    EXPECT_EQ(q.processedCount(), 1u);
}

TEST(EventQueueTest, RescheduleMovesEvent)
{
    EventQueue q;
    Tick fired = 0;
    EventFunctionWrapper e([&] { fired = q.curTick(); }, "e");
    q.schedule(&e, 100);
    q.reschedule(&e, 500);
    q.run();
    EXPECT_EQ(fired, 500u);
}

TEST(EventQueueTest, RescheduleEarlierWorks)
{
    EventQueue q;
    Tick fired = 0;
    EventFunctionWrapper e([&] { fired = q.curTick(); }, "e");
    q.schedule(&e, 500);
    q.reschedule(&e, 100);
    q.run();
    EXPECT_EQ(fired, 100u);
    EXPECT_EQ(q.processedCount(), 1u);
}

TEST(EventQueueTest, RunWithLimitStopsAtLimit)
{
    EventQueue q;
    int count = 0;
    EventFunctionWrapper e1([&] { ++count; }, "e1");
    EventFunctionWrapper e2([&] { ++count; }, "e2");
    q.schedule(&e1, 100);
    q.schedule(&e2, 2000);
    q.run(1000);
    EXPECT_EQ(count, 1);
    EXPECT_EQ(q.curTick(), 1000u);
    EXPECT_FALSE(q.empty());
    q.run();
    EXPECT_EQ(count, 2);
}

// Regression for the drained-queue fix: run(limit) must land
// curTick exactly on the limit even when the queue empties first.
// Fixed-window callers (fleet pumps, partition rounds) read curTick
// after the window and would otherwise observe the tick of whatever
// event happened to run last — or no advance at all on an idle
// window. The pre-fix run() returned as soon as the heap drained.
TEST(EventQueueTest, RunAdvancesToLimitWhenDrained)
{
    EventQueue q;
    int count = 0;
    EventFunctionWrapper e([&] { ++count; }, "e");
    q.schedule(&e, 100);
    q.run(1000);
    EXPECT_EQ(count, 1);
    EXPECT_EQ(q.curTick(), 1000u);
    // An already-empty queue owes the caller the window too.
    q.run(2500);
    EXPECT_EQ(q.curTick(), 2500u);
    // Run-to-drain (no limit) must NOT teleport time to maxTick.
    q.run();
    EXPECT_EQ(q.curTick(), 2500u);
    // And events scheduled after an idle window run normally.
    EventFunctionWrapper e2([&] { ++count; }, "e2");
    q.schedule(&e2, 3000);
    q.run(4000);
    EXPECT_EQ(count, 2);
    EXPECT_EQ(q.curTick(), 4000u);
}

// A reschedule-heavy timer (the adaptive poll governor re-arms
// constantly) moves its entry in place: the heap never holds
// anything but the scheduled events.
TEST(EventQueueTest, HeapHoldsOnlyLiveEvents)
{
    EventQueue q;
    EventFunctionWrapper timer([] {}, "timer");
    EventFunctionWrapper sentinel([] {}, "sentinel");
    q.schedule(&sentinel, 1'000'000);
    q.schedule(&timer, 1);
    const int moves = 10000;
    for (int i = 2; i <= moves; ++i)
        q.reschedule(&timer, Tick(i));
    EXPECT_EQ(q.size(), 2u);
    EXPECT_EQ(q.heapSize(), 2u);
    // The surviving entries are the right ones.
    Tick fired = 0;
    q.deschedule(&sentinel);
    EventFunctionWrapper probe([&] { fired = q.curTick(); }, "probe");
    q.reschedule(&timer, Tick(moves)); // no-op move keeps it live
    q.schedule(&probe, Tick(moves) + 1);
    q.run();
    EXPECT_EQ(fired, Tick(moves) + 1);
    EXPECT_TRUE(q.empty());
}

// Differential check of the indexed heap against a reference
// std::set keyed on (when, priority, sequence): random mixes of
// schedule, deschedule, reschedule and step over member events and
// one-shots must fire in exactly the reference order.
TEST(EventQueueTest, IndexedHeapMatchesReferenceOrder)
{
    using Key = std::tuple<Tick, Event::Priority, std::uint64_t, int>;
    for (std::uint64_t seed = 1; seed <= 20; ++seed) {
        Rng rng(seed);
        EventQueue q;
        std::set<Key> ref;
        std::map<int, Key> keyOf;
        std::uint64_t seq = 0;
        std::vector<int> fired;
        std::vector<int> expected;

        const Event::Priority pris[] = {-1, Event::defaultPri,
                                        Event::pollPri};
        // Ids 0..15 are member events; one-shots take ids from 100.
        std::vector<std::unique_ptr<EventFunctionWrapper>> members;
        for (int id = 0; id < 16; ++id)
            members.push_back(std::make_unique<EventFunctionWrapper>(
                [&fired, id] { fired.push_back(id); }, "m",
                pris[id % 3]));
        std::map<int, Event *> events;
        for (int id = 0; id < 16; ++id)
            events[id] = members[id].get();
        int nextOneShot = 100;

        auto put = [&](int id, Tick when) {
            if (auto it = keyOf.find(id); it != keyOf.end())
                ref.erase(it->second);
            Key k{when, events[id]->priority(), seq++, id};
            ref.insert(k);
            keyOf[id] = k;
        };
        auto popRef = [&] {
            int id = std::get<3>(*ref.begin());
            ref.erase(ref.begin());
            keyOf.erase(id);
            expected.push_back(id);
            if (id >= 100)
                events.erase(id); // the one-shot deletes itself
        };

        for (int op = 0; op < 4000; ++op) {
            Tick when = q.curTick() + Tick(rng.uniformInt(0, 50));
            int pick = int(rng.uniformInt(0, 5));
            if (pick == 0) {
                int id = nextOneShot++;
                auto *ev = new OneShotEvent(
                    [&fired, id] { fired.push_back(id); }, "o",
                    pris[id % 3]);
                events[id] = ev;
                q.schedule(ev, when);
                put(id, when);
                continue;
            }
            if (pick == 5) {
                if (!ref.empty()) {
                    popRef();
                    ASSERT_TRUE(q.step());
                }
                continue;
            }
            // Any known event: member or pending one-shot.
            auto it = events.begin();
            std::advance(it, rng.uniformInt(0, events.size() - 1));
            int id = it->first;
            Event *ev = it->second;
            if (pick <= 2) {
                q.reschedule(ev, when);
                put(id, when);
            } else if (ev->scheduled()) {
                q.deschedule(ev);
                ref.erase(keyOf.at(id));
                keyOf.erase(id);
                if (id >= 100) {
                    events.erase(id);
                    delete ev;
                }
            } else {
                q.schedule(ev, when);
                put(id, when);
            }
            ASSERT_EQ(q.size(), ref.size());
        }
        while (!ref.empty())
            popRef();
        q.run();
        EXPECT_EQ(fired, expected) << "seed " << seed;
        EXPECT_TRUE(q.empty());
    }
}

// Moving a cell's pending events keeps their relative order, gives
// them the destination's later sequence numbers, and leaves every
// other event where it was.
TEST(EventQueueTest, MoveCellKeepsOrderAndRestamps)
{
    EventQueue from, to;
    unsigned cell = 1, other = 2;
    std::vector<std::string> order;
    auto mk = [&](const char *n) {
        return std::make_unique<EventFunctionWrapper>(
            [&order, n] { order.push_back(n); }, n);
    };
    auto a = mk("a"), b = mk("b"), c = mk("c"), d = mk("d");
    auto t = mk("t");
    from.schedule(b.get(), 20, &cell);
    from.schedule(a.get(), 10, &cell);
    from.schedule(c.get(), 20, &other);
    from.schedule(d.get(), 20, &cell);
    to.schedule(t.get(), 20);
    from.moveCell(&cell, to);
    EXPECT_EQ(from.size(), 1u);
    EXPECT_EQ(to.size(), 4u);
    EXPECT_EQ(a->cell(), &cell);
    from.run();
    to.run();
    // The resident "t" keeps its place ahead of the arrivals at
    // its tick; "b" stays ahead of "d".
    EXPECT_EQ(order, (std::vector<std::string>{"c", "a", "t", "b",
                                               "d"}));
}

TEST(EventQueueTest, ScheduleAtCurTickFromProcess)
{
    // A handler may schedule work at the very tick being processed;
    // it runs later within the same tick, in insertion order, and
    // time does not advance in between.
    EventQueue q;
    std::vector<int> order;
    EventFunctionWrapper tail(
        [&] {
            order.push_back(2);
            EXPECT_EQ(q.curTick(), 100u);
        },
        "tail");
    EventFunctionWrapper head(
        [&] {
            order.push_back(1);
            q.schedule(&tail, q.curTick());
        },
        "head");
    q.schedule(&head, 100);
    q.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2}));
    EXPECT_EQ(q.curTick(), 100u);
}

TEST(EventQueueTest, DescheduleSameTickPendingMidRun)
{
    // A handler cancels a sibling already pending at the same tick:
    // the sibling must never execute, and the queue keeps running
    // events behind it.
    EventQueue q;
    bool victim_ran = false;
    bool later_ran = false;
    EventFunctionWrapper victim([&] { victim_ran = true; },
                                "victim");
    EventFunctionWrapper killer([&] { q.deschedule(&victim); },
                                "killer");
    EventFunctionWrapper later([&] { later_ran = true; }, "later");
    q.schedule(&killer, 10);
    q.schedule(&victim, 10);
    q.schedule(&later, 20);
    q.run();
    EXPECT_FALSE(victim_ran);
    EXPECT_FALSE(victim.scheduled());
    EXPECT_TRUE(later_ran);
    EXPECT_TRUE(q.empty());
    EXPECT_EQ(q.processedCount(), 2u);
}

TEST(EventQueueTest, NextTickSeesPastDescheduledEventsThroughConstRef)
{
    // The coordinator's window negotiation calls nextTick() on
    // const queues; a cancelled front event must not show through.
    EventQueue q;
    EventFunctionWrapper a([] {}, "a"), b([] {}, "b");
    q.schedule(&a, 10);
    q.schedule(&b, 20);
    q.deschedule(&a);
    const EventQueue &cq = q;
    EXPECT_EQ(cq.nextTick(), 20u);
    EXPECT_EQ(cq.heapSize(), 1u);
    q.deschedule(&b);
    EXPECT_EQ(cq.nextTick(), maxTick);
    EXPECT_TRUE(cq.empty());
}

TEST(EventQueueTest, EventsCanScheduleEvents)
{
    EventQueue q;
    std::vector<Tick> times;
    EventFunctionWrapper second(
        [&] { times.push_back(q.curTick()); }, "second");
    EventFunctionWrapper first(
        [&] {
            times.push_back(q.curTick());
            q.schedule(&second, q.curTick() + 50);
        },
        "first");
    q.schedule(&first, 100);
    q.run();
    EXPECT_EQ(times, (std::vector<Tick>{100, 150}));
}

TEST(EventQueueTest, SchedulingInPastPanics)
{
    Logger::global().setThrowOnDeath(true);
    EventQueue q;
    EventFunctionWrapper mover([] {}, "mover");
    EventFunctionWrapper late([] {}, "late");
    q.schedule(&mover, 100);
    q.run();
    EXPECT_THROW(q.schedule(&late, 50), PanicError);
    Logger::global().setThrowOnDeath(false);
}

TEST(EventQueueTest, DoubleSchedulePanics)
{
    Logger::global().setThrowOnDeath(true);
    EventQueue q;
    EventFunctionWrapper e([] {}, "e");
    q.schedule(&e, 10);
    EXPECT_THROW(q.schedule(&e, 20), PanicError);
    q.deschedule(&e);
    Logger::global().setThrowOnDeath(false);
}

TEST(EventQueueTest, OneShotSelfDeletes)
{
    EventQueue q;
    int runs = 0;
    auto *ev = new OneShotEvent([&] { ++runs; }, "oneshot");
    q.schedule(ev, 10);
    q.run();
    EXPECT_EQ(runs, 1);
    // No leak checker here, but ASAN builds catch a double free /
    // leak; the event must not be touched again.
    EXPECT_TRUE(q.empty());
}

TEST(EventQueueTest, QueueTeardownDestroysPendingOneShots)
{
    const std::int64_t live0 = OneShotEvent::live();
    auto token = std::make_shared<int>(0);
    int runs = 0;
    {
        EventQueue q;
        std::vector<OneShotEvent *> evs;
        for (int i = 0; i < 100; ++i) {
            evs.push_back(new OneShotEvent(
                [&runs, token] { ++runs; }, "pending"));
            q.schedule(evs.back(), Tick(10 + i));
        }
        // A descheduled one-shot is its creator's again: the queue
        // only holds a stale entry for it and must not free it.
        q.deschedule(evs[7]);
        delete evs[7];
        q.run(20);
        EXPECT_EQ(runs, 10);
        EXPECT_EQ(OneShotEvent::live(), live0 + 89);
    }
    EXPECT_EQ(runs, 10);
    EXPECT_EQ(OneShotEvent::live(), live0);
    // Every capture was destroyed, not just the storage returned.
    EXPECT_EQ(token.use_count(), 1);
}

TEST(EventQueueTest, OneShotStorageIsRecycled)
{
    EventQueue q;
    auto *a = new OneShotEvent([] {}, "a");
    const void *first = a;
    q.schedule(a, 1);
    q.run();
    // Freed into this thread's pool; the next one-shot reuses it.
    auto *b = new OneShotEvent([] {}, "b");
    EXPECT_EQ(static_cast<const void *>(b), first);
    delete b;
}

TEST(EventQueueTest, OneShotNameJoinsOwnerAndLabel)
{
    const std::string owner = "server.guest0.cpu1";
    auto *a = new OneShotEvent([] {}, {owner, ".work"});
    auto *b = new OneShotEvent([] {}, "plain");
    EXPECT_EQ(a->name(), "server.guest0.cpu1.work");
    EXPECT_EQ(b->name(), "plain");
    delete a;
    delete b;
}

TEST(InlineFunctionTest, CapturesUpToCapacityStayInline)
{
    using Fn = InlineFunction<64>;
    std::array<char, 56> small{};
    std::array<char, 80> big{};
    auto small_fn = [small] { (void)small; };
    auto big_fn = [big] { (void)big; };
    static_assert(Fn::fitsInline<decltype(small_fn)>);
    static_assert(!Fn::fitsInline<decltype(big_fn)>);

    // Both run, survive moves, and destroy their captures once.
    auto token = std::make_shared<int>(0);
    int runs = 0;
    Fn a([&runs, token, small] { (void)small; ++runs; });
    Fn b([&runs, token, big] { (void)big; ++runs; });
    EXPECT_EQ(token.use_count(), 3);
    Fn a2 = std::move(a);
    Fn b2;
    b2 = std::move(b);
    EXPECT_FALSE(a);
    EXPECT_FALSE(b);
    a2();
    b2();
    EXPECT_EQ(runs, 2);
    a2.reset();
    b2.reset();
    EXPECT_EQ(token.use_count(), 1);

    // Move-only captures work; empty std::function stays empty.
    Fn c([p = std::make_unique<int>(7), &runs] { runs += *p; });
    c();
    EXPECT_EQ(runs, 9);
    std::function<void()> none;
    EXPECT_FALSE(Fn(none));
    EXPECT_TRUE(Fn(std::function<void()>([] {})));
}

TEST(EventQueueTest, ManyEventsStressOrdering)
{
    // Property: with random schedule times, execution times are
    // monotonically non-decreasing.
    EventQueue q;
    Rng rng(11);
    std::vector<Tick> fired;
    std::vector<std::unique_ptr<EventFunctionWrapper>> events;
    for (int i = 0; i < 2000; ++i) {
        events.push_back(std::make_unique<EventFunctionWrapper>(
            [&] { fired.push_back(q.curTick()); }, "e"));
        q.schedule(events.back().get(),
                   Tick(rng.uniformInt(0, 1000000)));
    }
    q.run();
    ASSERT_EQ(fired.size(), 2000u);
    for (std::size_t i = 1; i < fired.size(); ++i)
        ASSERT_LE(fired[i - 1], fired[i]);
}

TEST(SimulationTest, SeedReproducibility)
{
    auto run_once = [](std::uint64_t seed) {
        Simulation sim(seed);
        std::vector<double> vals;
        for (int i = 0; i < 50; ++i)
            vals.push_back(sim.rng().uniform());
        return vals;
    };
    EXPECT_EQ(run_once(3), run_once(3));
    EXPECT_NE(run_once(3), run_once(4));
}

TEST(SimObjectTest, ScheduleInUsesRelativeDelay)
{
    Simulation sim;
    struct Obj : SimObject
    {
        using SimObject::SimObject;
    } obj(sim, "obj");
    Tick fired = 0;
    EventFunctionWrapper e([&] { fired = sim.now(); }, "e");
    obj.scheduleIn(&e, 250);
    sim.run();
    EXPECT_EQ(fired, 250u);
    EXPECT_EQ(obj.name(), "obj");
}

} // namespace
} // namespace bmhive
