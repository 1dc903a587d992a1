/**
 * @file
 * Microbenchmarks (google-benchmark) of the simulator's hot paths:
 * the vring accessors (descriptors, avail/used rings, chain walks),
 * virtqueue submit/pop/complete cycles, the event queue, the DMA
 * engine, the CRC32C / T10-DIF checksum kernels, the pool
 * allocator, one-shot event churn, and one full guest-to-guest
 * packet round trip. These measure *simulator*
 * performance (host wall time), not simulated time — they bound
 * how large an experiment the harness can run.
 */

#include <benchmark/benchmark.h>

#include <array>
#include <vector>

#include "base/checksum.hh"
#include "bench/common.hh"
#include "mem/pool_allocator.hh"
#include "virtio/virtqueue.hh"
#include "workloads/guest_iface.hh"

using namespace bmhive;

namespace {

void
BM_VringDescReadWrite(benchmark::State &state)
{
    GuestMemory mem("m", 64 * KiB);
    auto layout = virtio::VringLayout::contiguous(256, 0);
    virtio::VringDesc d{0x1000, 512, virtio::VRING_DESC_F_NEXT, 1};
    std::uint16_t i = 0;
    for (auto _ : state) {
        layout.writeDesc(mem, i % 256, d);
        auto r = layout.readDesc(mem, i % 256);
        benchmark::DoNotOptimize(r);
        ++i;
    }
}
BENCHMARK(BM_VringDescReadWrite);

void
BM_VringAvailUsedCycle(benchmark::State &state)
{
    // The avail- and used-ring accesses of one chain's round trip:
    // the driver publishes (slot, idx), the device consumes (idx,
    // slot) and completes (element, idx), the driver reaps (idx,
    // element), and both sides read the event-index fields.
    GuestMemory mem("m", 64 * KiB);
    auto layout = virtio::VringLayout::contiguous(256, 0);
    auto slot_of = [](std::uint16_t i) { return std::uint16_t(i % 256); };
    std::uint16_t idx = 0;
    for (auto _ : state) {
        std::uint16_t slot = slot_of(idx);
        layout.setAvailRing(mem, slot, slot);
        layout.setAvailIdx(mem, std::uint16_t(idx + 1));
        std::uint16_t head =
            layout.availRing(mem, slot_of(layout.availIdx(mem) - 1));
        layout.setUsedRing(mem, slot, {head, 64});
        layout.setUsedIdx(mem, std::uint16_t(idx + 1));
        auto done = layout.usedRing(mem, slot_of(layout.usedIdx(mem) - 1));
        benchmark::DoNotOptimize(done);
        benchmark::DoNotOptimize(layout.usedEvent(mem));
        benchmark::DoNotOptimize(layout.availEvent(mem));
        ++idx;
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_VringAvailUsedCycle);

void
BM_WalkDescChain(benchmark::State &state)
{
    // walkDescChain over a 3-segment request (header, data, status
    // byte) laid out as a direct chain (arg 0) or an indirect
    // table (arg 1), reusing one ChainWalk as the device does.
    GuestMemory mem("m", 1 * MiB);
    auto layout = virtio::VringLayout::contiguous(256, 0x1000);
    virtio::VirtQueueDriver drv(mem, layout, state.range(0) != 0,
                                0x40000);
    auto head = drv.submit({{0x20000, 16, false}, {0x21000, 4096, false}},
                           {{0x22000, 1, true}}, 1);
    virtio::ChainWalk w;
    for (auto _ : state) {
        virtio::walkDescChain(mem, layout, *head, w);
        benchmark::DoNotOptimize(w.chain.segs.data());
    }
    if (!w.ok)
        state.SkipWithError("chain walk failed");
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_WalkDescChain)->Arg(0)->Arg(1);

void
BM_VirtqueueCycle(benchmark::State &state)
{
    GuestMemory mem("m", 1 * MiB);
    auto layout = virtio::VringLayout::contiguous(256, 0x1000);
    virtio::VirtQueueDriver drv(mem, layout);
    virtio::VirtQueueDevice dev(mem, layout);
    std::vector<virtio::UsedCompletion> done;
    for (auto _ : state) {
        auto head = drv.submit({{0x20000, 64, false}}, {}, 1);
        auto chain = dev.pop();
        dev.pushUsed(chain->head, 0);
        drv.collectUsed(done);
        benchmark::DoNotOptimize(head);
        benchmark::DoNotOptimize(done);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_VirtqueueCycle);

void
BM_VirtqueueIndirectCycle(benchmark::State &state)
{
    GuestMemory mem("m", 1 * MiB);
    auto layout = virtio::VringLayout::contiguous(256, 0x1000);
    virtio::VirtQueueDriver drv(mem, layout, true, 0x80000);
    virtio::VirtQueueDevice dev(mem, layout);
    std::vector<virtio::UsedCompletion> done;
    for (auto _ : state) {
        auto head = drv.submit(
            {{0x20000, 16, false}, {0x21000, 4096, false}},
            {{0x22000, 1, true}}, 1);
        benchmark::DoNotOptimize(head);
        auto chain = dev.pop();
        dev.pushUsed(chain->head, 1);
        drv.collectUsed(done);
        benchmark::DoNotOptimize(done);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_VirtqueueIndirectCycle);

void
BM_EventQueueScheduleRun(benchmark::State &state)
{
    for (auto _ : state) {
        state.PauseTiming();
        EventQueue q;
        std::vector<std::unique_ptr<EventFunctionWrapper>> evs;
        Rng rng(1);
        for (int i = 0; i < 1000; ++i)
            evs.push_back(std::make_unique<EventFunctionWrapper>(
                [] {}, "e"));
        state.ResumeTiming();
        for (int i = 0; i < 1000; ++i)
            q.schedule(evs[i].get(),
                       Tick(rng.uniformInt(0, 1000000)));
        q.run();
    }
    state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_EventQueueScheduleRun);

void
BM_OneShotEventChurn(benchmark::State &state)
{
    // The per-packet event pattern: fire-and-forget one-shots with
    // a 64-byte capture (a Packet plus a pointer and an index),
    // scheduled a few ticks out and fired. Pooled storage and
    // inline captures keep this off the heap.
    EventQueue q;
    std::array<char, 56> payload{};
    std::uint64_t sink = 0;
    for (auto _ : state) {
        for (unsigned i = 0; i < 64; ++i) {
            auto *ev = new OneShotEvent(
                [&sink, payload] { sink += std::uint8_t(payload[0]); },
                "churn");
            q.schedule(ev, q.curTick() + 1 + i % 8);
        }
        q.run();
    }
    benchmark::DoNotOptimize(sink);
    state.SetItemsProcessed(state.iterations() * 64);
}
BENCHMARK(BM_OneShotEventChurn)->UseRealTime();

void
BM_DmaEngineCopy4K(benchmark::State &state)
{
    Simulation sim;
    GuestMemory src("s", 1 * MiB), dst("d", 1 * MiB);
    DmaEngine dma(sim, "dma", Bandwidth::gbps(50));
    for (auto _ : state) {
        dma.copy(src, 0, dst, 0, 4096, {});
        sim.run();
    }
    state.SetBytesProcessed(state.iterations() * 4096);
}
BENCHMARK(BM_DmaEngineCopy4K);

void
BM_DmaEngineCopy128K(benchmark::State &state)
{
    // A 128 KiB block payload through IO-Bond's engine with ECRC on,
    // as the block path moves it.
    Simulation sim;
    GuestMemory src("s", 1 * MiB), dst("d", 1 * MiB);
    DmaEngine dma(sim, "dma", Bandwidth::gbps(50));
    dma.setIntegrity(true);
    for (auto _ : state) {
        dma.copy(src, 0, dst, 256 * KiB, 128 * KiB, {});
        sim.run();
    }
    state.SetBytesProcessed(state.iterations() * 128 * KiB);
}
BENCHMARK(BM_DmaEngineCopy128K);

void
BM_Crc32c4K(benchmark::State &state)
{
    std::vector<std::uint8_t> buf(4096);
    for (std::size_t i = 0; i < buf.size(); ++i)
        buf[i] = std::uint8_t(i * 31 + 7);
    std::uint32_t crc = 0;
    for (auto _ : state) {
        crc = crc32c(buf.data(), buf.size(), crc);
        benchmark::DoNotOptimize(crc);
    }
    state.SetBytesProcessed(state.iterations() * 4096);
}
BENCHMARK(BM_Crc32c4K);

void
BM_Crc16T10dif512(benchmark::State &state)
{
    // One DIF guard tag: a 512-byte sector.
    std::vector<std::uint8_t> sector(512);
    for (std::size_t i = 0; i < sector.size(); ++i)
        sector[i] = std::uint8_t(i * 13 + 1);
    for (auto _ : state) {
        benchmark::DoNotOptimize(sector.data());
        auto guard = crc16T10dif(sector.data(), sector.size());
        benchmark::DoNotOptimize(guard);
    }
    state.SetBytesProcessed(state.iterations() * 512);
}
BENCHMARK(BM_Crc16T10dif512);

void
BM_PoolAllocatorChurn(benchmark::State &state)
{
    PoolAllocator pool(0, 16 * MiB);
    std::vector<Addr> live;
    Rng rng(2);
    for (auto _ : state) {
        if (live.size() < 64 && rng.chance(0.6)) {
            Addr a = pool.alloc(rng.uniformInt(64, 8192), 16);
            if (a != PoolAllocator::nullAddr)
                live.push_back(a);
        } else if (!live.empty()) {
            std::size_t i =
                std::size_t(rng.uniformInt(0, live.size() - 1));
            pool.free(live[i]);
            live[i] = live.back();
            live.pop_back();
        }
    }
    for (Addr a : live)
        pool.free(a);
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PoolAllocatorChurn);

void
BM_PoolAllocatorIoBondMix(benchmark::State &state)
{
    // IO-Bond's shadow arena under a net flood: ~512 long-lived
    // 2 KiB rx buffers, laid down interleaved with short tx frames,
    // so the free list is a comb of small holes in front of the
    // big tail. Churn re-posts rx buffers and cycles ~60 B tx
    // frames; every first-fit search walks that comb.
    PoolAllocator pool(4 * MiB, 16 * MiB);
    std::vector<Addr> rx, tx;
    for (unsigned i = 0; i < 512; ++i) {
        rx.push_back(pool.alloc(2 * KiB, 16));
        tx.push_back(pool.alloc(60, 16));
    }
    for (Addr a : tx)
        pool.free(a);
    tx.clear();
    Rng rng(3);
    for (auto _ : state) {
        if (rng.chance(0.25)) {
            std::size_t i =
                std::size_t(rng.uniformInt(0, rx.size() - 1));
            pool.free(rx[i]);
            rx[i] = pool.alloc(2 * KiB, 16);
        } else if (tx.size() < 64 && rng.chance(0.55)) {
            tx.push_back(pool.alloc(60, 16));
        } else if (!tx.empty()) {
            std::size_t i =
                std::size_t(rng.uniformInt(0, tx.size() - 1));
            pool.free(tx[i]);
            tx[i] = tx.back();
            tx.pop_back();
        }
    }
    for (Addr a : rx)
        pool.free(a);
    for (Addr a : tx)
        pool.free(a);
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PoolAllocatorIoBondMix)->UseRealTime();

void
BM_PsimWindowScaling(benchmark::State &state)
{
    // Parallel-core scaling: 8 event partitions each running a
    // self-rescheduling event chain with rng work, driven by N
    // worker threads under a generous lookahead (the chains are
    // independent, so windows are wide and the barrier cost
    // amortizes). items/sec ~= events per host second; the
    // speedup at 8 threads vs 1 is the scaling headline — bounded
    // by the machine's core count, so single-core CI shows ~1x.
    const unsigned threads = unsigned(state.range(0));
    const unsigned parts = 8;
    const Tick step = nsToTicks(500);
    std::uint64_t events = 0;
    for (auto _ : state) {
        state.PauseTiming();
        Simulation sim(7);
        psim::Params pp;
        pp.threads = threads;
        pp.lookahead = usToTicks(100);
        sim.enablePartitions(parts, pp);
        struct Chain
        {
            EventQueue *q = nullptr;
            Rng *rng = nullptr;
            std::unique_ptr<EventFunctionWrapper> ev;
            std::uint64_t count = 0;
        };
        std::vector<Chain> chains(parts);
        for (unsigned p = 0; p < parts; ++p) {
            Chain &c = chains[p];
            c.q = &sim.partitionQueue(p + 1);
            c.rng = &sim.partitionRng(p + 1);
            c.ev = std::make_unique<EventFunctionWrapper>(
                [&c, step] {
                    c.count += 1 + c.rng->uniformInt(0, 1);
                    c.q->schedule(c.ev.get(),
                                  c.q->curTick() + step);
                },
                "chain");
            c.q->schedule(c.ev.get(), step);
        }
        state.ResumeTiming();
        sim.run(msToTicks(2.0));
        state.PauseTiming();
        for (auto &c : chains) {
            events += c.count;
            if (c.ev->scheduled())
                c.q->deschedule(c.ev.get());
        }
        state.ResumeTiming();
    }
    state.SetItemsProcessed(std::int64_t(events));
}
BENCHMARK(BM_PsimWindowScaling)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->UseRealTime() // workers run off the main thread
    ->Unit(benchmark::kMillisecond);

void
BM_FullPacketRoundTrip(benchmark::State &state)
{
    // One guest-to-guest packet through the complete stack:
    // driver -> IO-Bond -> bm-hypervisor -> vSwitch -> ... -> MSI.
    bench::Testbed bed(1);
    auto a = bed.bmGuest(0xA, 0, false);
    auto b = bed.bmGuest(0xB, 0, false);
    bed.sim.run(bed.sim.now() + msToTicks(1));
    std::uint64_t got = 0;
    b.net->setRxHandler([&](const cloud::Packet &) { ++got; });
    std::uint64_t seq = 0;
    for (auto _ : state) {
        cloud::Packet p;
        p.src = 0xA;
        p.dst = 0xB;
        p.len = 64;
        p.seq = seq++;
        a.net->sendPacket(p, true, a.cpu(1));
        bed.sim.run(bed.sim.now() + msToTicks(1));
    }
    state.SetItemsProcessed(state.iterations());
    if (got != seq)
        state.SkipWithError("packet loss in round trip");
}

void
BM_SimulatedPpsThroughput(benchmark::State &state)
{
    // How fast the simulator chews through a PPS experiment:
    // items/sec here ~= simulated packets per host second.
    bench::Testbed bed(2);
    auto a = bed.bmGuest(0xA, 0);
    auto b = bed.bmGuest(0xB, 0);
    bed.sim.run(bed.sim.now() + msToTicks(1));
    std::uint64_t delivered = 0;
    b.net->setRxHandler([&](const cloud::Packet &) { ++delivered; });
    for (auto _ : state) {
        std::uint64_t before = delivered;
        for (int i = 0; i < 32; ++i) {
            cloud::Packet p;
            p.src = 0xA;
            p.dst = 0xB;
            p.len = 64;
            a.net->sendPacket(p, false, a.cpu(1));
        }
        a.net->kickTx(a.cpu(1));
        bed.sim.run(bed.sim.now() + usToTicks(100));
        benchmark::DoNotOptimize(delivered - before);
    }
    state.SetItemsProcessed(state.iterations() * 32);
}

} // namespace

int
main(int argc, char **argv)
{
    // Strip our flags before google-benchmark sees (and rejects)
    // them; dumps --metrics-out on exit like every other bench.
    bmhive::bench::Session session(argc, argv);
    // --quick (bench_smoke): shrink every benchmark's sampling
    // window; results stay shaped right, just noisier.
    std::vector<char *> args(argv, argv + argc);
    char quick_min[] = "--benchmark_min_time=0.02";
    if (bmhive::bench::Session::quick)
        args.push_back(quick_min);
    // The two full-stack benches build testbeds whose metrics land
    // in the --metrics-out snapshot. Sized from wall time, their
    // iteration (and testbed) counts would vary with host load;
    // --quick pins them so two snapshots of one build compare
    // byte for byte.
    auto *round_trip = benchmark::RegisterBenchmark(
        "BM_FullPacketRoundTrip", BM_FullPacketRoundTrip);
    round_trip->Unit(benchmark::kMicrosecond);
    auto *pps = benchmark::RegisterBenchmark(
        "BM_SimulatedPpsThroughput", BM_SimulatedPpsThroughput);
    if (bmhive::bench::Session::quick) {
        round_trip->Iterations(200);
        pps->Iterations(100);
    }
    args.push_back(nullptr);
    int ac = int(args.size()) - 1;
    benchmark::Initialize(&ac, args.data());
    if (benchmark::ReportUnrecognizedArguments(ac, args.data()))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}
