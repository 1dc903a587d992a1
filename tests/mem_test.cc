/**
 * @file
 * Unit tests for simulated memory, the DMA engine, and the pool
 * allocator IO-Bond uses for shadow buffers.
 */

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "base/logging.hh"
#include "base/random.hh"
#include "fault/fault.hh"
#include "mem/dma_engine.hh"
#include "mem/guest_memory.hh"
#include "mem/pool_allocator.hh"

namespace bmhive {
namespace {

TEST(GuestMemoryTest, TypedAccessorsLittleEndian)
{
    GuestMemory m("m", 64);
    m.write32(0, 0x12345678u);
    EXPECT_EQ(m.read8(0), 0x78u);
    EXPECT_EQ(m.read8(3), 0x12u);
    EXPECT_EQ(m.read16(0), 0x5678u);
    m.write64(8, 0x1122334455667788ull);
    EXPECT_EQ(m.read32(8), 0x55667788u);
    EXPECT_EQ(m.read32(12), 0x11223344u);
}

TEST(GuestMemoryTest, BlobRoundTrip)
{
    GuestMemory m("m", 1024);
    std::vector<std::uint8_t> data(100);
    for (std::size_t i = 0; i < data.size(); ++i)
        data[i] = std::uint8_t(i * 3);
    m.writeBlob(10, data);
    EXPECT_EQ(m.readBlob(10, 100), data);
}

/** The panic text @p access raises (without its source location),
 *  or "" if it does not panic. */
template <typename F>
std::string
panicText(F &&access)
{
    try {
        access();
    } catch (const PanicError &e) {
        std::string what = e.what();
        return what.substr(0, what.rfind(" ("));
    }
    return "";
}

TEST(GuestMemoryTest, OutOfBoundsPanics)
{
    Logger::global().setThrowOnDeath(true);
    GuestMemory m("m", 16);
    EXPECT_THROW(m.read32(14), PanicError);
    EXPECT_THROW(m.write8(16, 0), PanicError);
    EXPECT_NO_THROW(m.write8(15, 0));
    // Same text for every accessor family, wrapped ranges included.
    std::uint8_t buf[8] = {};
    EXPECT_EQ(panicText([&] { m.read32(14); }),
              "m: out-of-bounds read [14, 18) of 16 bytes");
    EXPECT_EQ(panicText([&] { m.write64(12, 0); }),
              "m: out-of-bounds write [12, 20) of 16 bytes");
    EXPECT_EQ(panicText([&] { m.read(~Addr(0) - 1, buf, 4); }),
              "m: out-of-bounds read [18446744073709551614, 2) of 16 "
              "bytes");
    EXPECT_EQ(panicText([&] { m.write(17, buf, 0); }),
              "m: out-of-bounds write [17, 17) of 16 bytes");
    EXPECT_EQ(panicText([&] { m.span(10, 7); }),
              "m: out-of-bounds span [10, 17) of 16 bytes");
    EXPECT_EQ(panicText([&] { std::as_const(m).span(16, 1); }),
              "m: out-of-bounds span [16, 17) of 16 bytes");
    EXPECT_EQ(panicText([&] { m.fill(8, 9, 0); }),
              "m: out-of-bounds fill");
    EXPECT_EQ(panicText([&] { m.span(16, 0); }), "");
    Logger::global().setThrowOnDeath(false);
}

TEST(GuestMemoryTest, SeparateMemoriesDoNotAlias)
{
    // The property IO-Bond exists to solve: board and base memory
    // are distinct.
    GuestMemory a("a", 64), b("b", 64);
    a.write64(0, 0xdeadbeef);
    EXPECT_EQ(b.read64(0), 0u);
}

TEST(GuestMemoryTest, SpanIsBoundsCheckedView)
{
    Logger::global().setThrowOnDeath(true);
    GuestMemory m("m", 64);
    m.span(8, 4)[1] = 0x5a;
    EXPECT_EQ(m.read8(9), 0x5au);
    m.write8(63, 0x77);
    const GuestMemory &cm = m;
    EXPECT_EQ(cm.span(60, 4)[3], 0x77u);
    EXPECT_NO_THROW(m.span(64, 0));
    EXPECT_THROW(m.span(60, 5), PanicError);
    EXPECT_THROW(cm.span(65, 0), PanicError);
    EXPECT_THROW(m.span(8, ~Bytes(0)), PanicError); // wraps
    Logger::global().setThrowOnDeath(false);
}

TEST(BumpAllocatorTest, AlignsAndAdvances)
{
    GuestMemory m("m", 16384);
    BumpAllocator alloc(m, 0x10);
    Addr a = alloc.alloc(10, 16);
    Addr b = alloc.alloc(10, 16);
    EXPECT_EQ(a % 16, 0u);
    EXPECT_EQ(b % 16, 0u);
    EXPECT_GE(b, a + 10);
    Addr c = alloc.alloc(1, 4096);
    EXPECT_EQ(c % 4096, 0u);
}

TEST(BumpAllocatorTest, ExhaustionPanics)
{
    Logger::global().setThrowOnDeath(true);
    GuestMemory m("m", 128);
    BumpAllocator alloc(m, 0);
    EXPECT_THROW(alloc.alloc(256), PanicError);
    Logger::global().setThrowOnDeath(false);
}

class DmaEngineTest : public ::testing::Test
{
  protected:
    Simulation sim;
};

TEST_F(DmaEngineTest, CopyMovesDataAfterTransferTime)
{
    GuestMemory src("src", 64 * KiB), dst("dst", 64 * KiB);
    DmaEngine dma(sim, "dma", Bandwidth::gbps(50));
    std::vector<std::uint8_t> data(4096, 0xab);
    src.writeBlob(0, data);

    bool done = false;
    Tick done_at = 0;
    dma.copy(src, 0, dst, 100, 4096, [&] {
        done = true;
        done_at = sim.now();
    });
    EXPECT_FALSE(done);
    sim.run();
    EXPECT_TRUE(done);
    // 4096 B at 50 Gbps = 655.36 ns.
    EXPECT_NEAR(double(done_at), 655360.0, 2.0);
    EXPECT_EQ(dst.readBlob(100, 4096), data);
    EXPECT_EQ(dma.bytesMoved(), 4096u);
}

TEST_F(DmaEngineTest, TransfersSerializeFifo)
{
    GuestMemory src("src", 64 * KiB), dst("dst", 64 * KiB);
    DmaEngine dma(sim, "dma", Bandwidth::gbps(8)); // 1 B/ns
    std::vector<Tick> done_at;
    for (int i = 0; i < 3; ++i) {
        dma.copy(src, 0, dst, 0, 1000,
                 [&] { done_at.push_back(sim.now()); });
    }
    sim.run();
    ASSERT_EQ(done_at.size(), 3u);
    // Each 1000 B transfer takes 1000 ns; strictly serialized.
    EXPECT_NEAR(double(done_at[0]), 1.0e6, 10.0);
    EXPECT_NEAR(double(done_at[1]), 2.0e6, 10.0);
    EXPECT_NEAR(double(done_at[2]), 3.0e6, 10.0);
    EXPECT_EQ(dma.transfers(), 3u);
}

TEST_F(DmaEngineTest, StartupLatencyAdds)
{
    GuestMemory src("src", 4096), dst("dst", 4096);
    DmaEngine dma(sim, "dma", Bandwidth::gbps(8), nsToTicks(500));
    Tick done_at = 0;
    dma.copy(src, 0, dst, 0, 1000, [&] { done_at = sim.now(); });
    sim.run();
    EXPECT_NEAR(double(done_at), 1.5e6, 10.0);
}

TEST_F(DmaEngineTest, AccountOnlyTakesTimeWithoutData)
{
    GuestMemory dst("dst", 64);
    dst.write8(0, 7);
    DmaEngine dma(sim, "dma", Bandwidth::gbps(8));
    bool done = false;
    dma.accountOnly(1000, [&] { done = true; });
    sim.run();
    EXPECT_TRUE(done);
    EXPECT_EQ(dst.read8(0), 7u); // untouched
    EXPECT_EQ(dma.bytesMoved(), 1000u);
}

TEST_F(DmaEngineTest, CompletionOrderPreservedMixedOps)
{
    // Ordering property IO-Bond relies on: a metadata account
    // enqueued after a payload copy completes after it.
    GuestMemory src("src", 8192), dst("dst", 8192);
    DmaEngine dma(sim, "dma", Bandwidth::gbps(50));
    std::vector<int> order;
    dma.copy(src, 0, dst, 0, 4096, [&] { order.push_back(1); });
    dma.accountOnly(34, [&] { order.push_back(2); });
    dma.copy(src, 0, dst, 4096, 128, [&] { order.push_back(3); });
    dma.accountOnly(8, [&] { order.push_back(4); });
    sim.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4}));
}

TEST_F(DmaEngineTest, CallbacksChainNewCopiesFifo)
{
    // Submissions from inside a completion callback are
    // well-defined: they queue behind anything already queued and
    // run strictly after the current completion unwinds.
    GuestMemory src("src", 8192), dst("dst", 8192);
    DmaEngine dma(sim, "dma", Bandwidth::gbps(8));
    std::vector<int> order;
    dma.copy(src, 0, dst, 0, 100, [&] {
        order.push_back(1);
        dma.copy(src, 0, dst, 200, 100, [&] {
            order.push_back(3);
            dma.copy(src, 0, dst, 400, 100,
                     [&] { order.push_back(4); });
        });
    });
    dma.copy(src, 0, dst, 100, 100, [&] { order.push_back(2); });
    sim.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4}));
    EXPECT_EQ(dma.transfers(), 4u);
}

TEST_F(DmaEngineTest, RetryFromCallbackWaitsForErrorHandler)
{
    // Regression: the engine used to start the next queued
    // transfer before running the completed transfer's callbacks,
    // so a retry issued from `done` was already in flight when the
    // error handler observed the failure — the handler could no
    // longer tell the failed transfer from the retry.
    GuestMemory src("src", 4096), dst("dst", 4096);
    DmaEngine dma(sim, "dma", Bandwidth::gbps(50), nsToTicks(100));
    std::vector<std::string> order;
    dma.setErrorHandler([&] {
        order.push_back(dma.busy() ? "error-after-retry-started"
                                   : "error-before-retry");
    });
    sim.faults().deliver(
        "dma", fault::FaultSpec{fault::FaultKind::DmaFail, 1, 0, 0.0});
    dma.copy(src, 0, dst, 0, 512, [&] {
        order.push_back("done");
        dma.copy(src, 0, dst, 1024, 512,
                 [&] { order.push_back("retry-done"); });
    });
    sim.run();
    EXPECT_EQ(order,
              (std::vector<std::string>{"done", "error-before-retry",
                                        "retry-done"}));
}

TEST_F(DmaEngineTest, CopyvMovesSegmentsAsOneTransfer)
{
    GuestMemory src("src", 8192), dst("dst", 8192);
    DmaEngine dma(sim, "dma", Bandwidth::gbps(8), nsToTicks(500));
    std::vector<std::uint8_t> a(1000, 0x11), b(500, 0x22);
    src.writeBlob(0, a);
    src.writeBlob(2048, b);

    Tick done_at = 0;
    dma.copyv({{&src, 0, &dst, 0, 1000},
               {&src, 2048, &dst, 4096, 500},
               {nullptr, 0, nullptr, 0, 100}}, // account-only meta
              [&] { done_at = sim.now(); });
    sim.run();
    // One startup cost over the whole batch: 500 ns + 1600 B at
    // 1 B/ns.
    EXPECT_NEAR(double(done_at), 2.1e6, 10.0);
    EXPECT_EQ(dst.readBlob(0, 1000), a);
    EXPECT_EQ(dst.readBlob(4096, 500), b);
    EXPECT_EQ(dma.transfers(), 1u);
    EXPECT_EQ(dma.bytesMoved(), 1600u);
    EXPECT_EQ(dma.batchedSegments(), 3u);
}

TEST_F(DmaEngineTest, CopyvFaultConsumesWholeTransfer)
{
    // An injected DmaFail drops the whole scatter-gather transfer
    // (hardware descriptors complete or abort as a unit), and
    // consumes exactly one budget unit for it.
    GuestMemory src("src", 4096), dst("dst", 4096);
    DmaEngine dma(sim, "dma", Bandwidth::gbps(50));
    src.write8(0, 0x5a);
    src.write8(100, 0xa5);
    sim.faults().deliver(
        "dma", fault::FaultSpec{fault::FaultKind::DmaFail, 1, 0, 0.0});
    unsigned errors = 0;
    dma.setErrorHandler([&] { ++errors; });
    dma.copyv({{&src, 0, &dst, 0, 64}, {&src, 100, &dst, 100, 64}},
              {});
    dma.copy(src, 0, dst, 200, 64, {});
    sim.run();
    EXPECT_EQ(dst.read8(0), 0u);   // dropped as a unit
    EXPECT_EQ(dst.read8(100), 0u);
    EXPECT_EQ(dst.read8(200), 0x5a); // budget spent; next copy lands
    EXPECT_EQ(errors, 1u);
    EXPECT_EQ(dma.faultsInjected(), 1u);
}

/** Fill @p m with a position-dependent pattern. */
void
fillPattern(GuestMemory &m, std::uint8_t salt)
{
    for (Addr a = 0; a < m.size(); ++a)
        m.write8(a, std::uint8_t(a * 7 + salt));
}

TEST_F(DmaEngineTest, CopyvOnSharedMemoryReadsAllBeforeWriting)
{
    // Segments that use one memory as both source and destination
    // (overlapping within a segment and across segments) land as
    // if every source were read before any destination is written.
    GuestMemory m("m", 4096), other("other", 4096);
    fillPattern(m, 1);
    fillPattern(other, 2);
    std::vector<DmaEngine::CopySeg> segs = {
        {&m, 0, &m, 100, 300},       // overlaps itself
        {&m, 100, &m, 1000, 300},    // reads what seg 0 writes
        {&other, 0, &m, 1200, 64},   // later segment's write wins
        {&m, 1200, &other, 512, 64}, // reads what segs 1-2 write
    };
    auto want_m = m.readBlob(0, m.size());
    auto want_other = other.readBlob(0, other.size());
    for (const auto &s : segs) {
        auto &want = s.dst == &m ? want_m : want_other;
        auto bytes = s.src->readBlob(s.srcAddr, s.len);
        std::copy(bytes.begin(), bytes.end(),
                  want.begin() + long(s.dstAddr));
    }

    DmaEngine dma(sim, "dma", Bandwidth::gbps(50));
    dma.setIntegrity(true);
    bool delivered = false;
    dma.copyv(segs, [&] { delivered = dma.lastDelivered(); });
    sim.run();
    EXPECT_TRUE(delivered);
    EXPECT_EQ(m.readBlob(0, m.size()), want_m);
    EXPECT_EQ(other.readBlob(0, other.size()), want_other);
    EXPECT_EQ(dma.ecrcDetected(), 0u);
}

TEST_F(DmaEngineTest, CopyvToManyMemoriesLandsEverySegment)
{
    // More distinct destinations than the aliasing check tracks.
    GuestMemory src("src", 4096);
    fillPattern(src, 9);
    std::vector<std::unique_ptr<GuestMemory>> dsts;
    std::vector<DmaEngine::CopySeg> segs;
    for (unsigned i = 0; i < 6; ++i) {
        dsts.push_back(std::make_unique<GuestMemory>(
            "d" + std::to_string(i), 1024));
        segs.push_back({&src, i * 100, dsts.back().get(), i, 100});
    }
    DmaEngine dma(sim, "dma", Bandwidth::gbps(50));
    dma.copyv(segs, {});
    sim.run();
    for (unsigned i = 0; i < 6; ++i)
        EXPECT_EQ(dsts[i]->readBlob(i, 100), src.readBlob(i * 100, 100))
            << "segment " << i;
}

TEST_F(DmaEngineTest, CleanTransfersCountEcrcChecks)
{
    GuestMemory src("src", 8192), dst("dst", 8192);
    fillPattern(src, 3);
    DmaEngine dma(sim, "dma", Bandwidth::gbps(50));
    dma.setIntegrity(true);
    dma.copyv({{&src, 0, &dst, 4096, 1000},
               {&src, 2048, &dst, 0, 500},
               {nullptr, 0, nullptr, 0, 100}},
              {});
    dma.accountOnly(64, {}); // nothing to check
    sim.run();
    EXPECT_EQ(dst.readBlob(4096, 1000), src.readBlob(0, 1000));
    EXPECT_EQ(dst.readBlob(0, 500), src.readBlob(2048, 500));
    EXPECT_EQ(
        sim.metrics().counter("dma.integrity.ecrc_checked").value(),
        1u);
}

TEST_F(DmaEngineTest, CorruptionDetectedAndHealedWithIntegrity)
{
    GuestMemory src("src", 8192), dst("dst", 8192);
    fillPattern(src, 4);
    DmaEngine dma(sim, "dma", Bandwidth::gbps(50));
    dma.setIntegrity(true);
    sim.faults().deliver("dma", fault::FaultSpec{
                                    fault::FaultKind::DmaCorrupt, 1,
                                    0, 0.0});
    unsigned calls = 0;
    dma.copyv({{&src, 0, &dst, 0, 1000}, {&src, 3000, &dst, 2000, 700}},
              [&] {
                  ++calls;
                  EXPECT_TRUE(dma.lastDelivered());
              });
    sim.run();
    EXPECT_EQ(calls, 1u);
    EXPECT_EQ(dst.readBlob(0, 1000), src.readBlob(0, 1000));
    EXPECT_EQ(dst.readBlob(2000, 700), src.readBlob(3000, 700));
    EXPECT_EQ(dma.ecrcDetected(), 1u);
    EXPECT_EQ(dma.ecrcHealed(), 1u);
    EXPECT_EQ(dma.ecrcEscalations(), 0u);
    // The corrupted attempt and its clean replay were both checked.
    EXPECT_EQ(
        sim.metrics().counter("dma.integrity.ecrc_checked").value(),
        2u);
}

TEST_F(DmaEngineTest, CorruptionLandsWithIntegrityOff)
{
    GuestMemory src("src", 8192), dst("dst", 8192);
    fillPattern(src, 5);
    DmaEngine dma(sim, "dma", Bandwidth::gbps(50));
    sim.faults().deliver("dma", fault::FaultSpec{
                                    fault::FaultKind::DmaCorrupt, 1,
                                    0, 0.0});
    bool delivered = false;
    dma.copyv({{&src, 0, &dst, 0, 200}, {&src, 1000, &dst, 500, 100}},
              [&] { delivered = dma.lastDelivered(); });
    sim.run();
    EXPECT_TRUE(delivered);
    // Every 64th byte of each segment arrives flipped.
    auto want0 = src.readBlob(0, 200);
    for (std::size_t i = 0; i < want0.size(); i += 64)
        want0[i] ^= 0xA5;
    auto want1 = src.readBlob(1000, 100);
    for (std::size_t i = 0; i < want1.size(); i += 64)
        want1[i] ^= 0xA5;
    EXPECT_EQ(dst.readBlob(0, 200), want0);
    EXPECT_EQ(dst.readBlob(500, 100), want1);
    EXPECT_EQ(dma.ecrcDetected(), 0u);
    EXPECT_EQ(dma.faultsInjected(), 1u);
}

TEST_F(DmaEngineTest, FailLeavesDestinationUntouched)
{
    GuestMemory src("src", 4096), dst("dst", 4096);
    fillPattern(src, 6);
    dst.fill(0, dst.size(), 0xEE);
    DmaEngine dma(sim, "dma", Bandwidth::gbps(50));
    dma.setIntegrity(true);
    sim.faults().deliver(
        "dma", fault::FaultSpec{fault::FaultKind::DmaFail, 1, 0, 0.0});
    bool delivered = true;
    dma.copyv({{&src, 0, &dst, 0, 1024}, {&src, 2048, &dst, 2048, 64}},
              [&] { delivered = dma.lastDelivered(); });
    sim.run();
    EXPECT_FALSE(delivered);
    EXPECT_EQ(dst.readBlob(0, dst.size()),
              std::vector<std::uint8_t>(dst.size(), 0xEE));
    EXPECT_EQ(
        sim.metrics().counter("dma.integrity.ecrc_checked").value(),
        0u);
}

TEST(PoolAllocatorTest, AllocFreeReuse)
{
    PoolAllocator pool(0x1000, 4096);
    Addr a = pool.alloc(1000);
    Addr b = pool.alloc(1000);
    ASSERT_NE(a, PoolAllocator::nullAddr);
    ASSERT_NE(b, PoolAllocator::nullAddr);
    EXPECT_NE(a, b);
    pool.free(a);
    Addr c = pool.alloc(900);
    EXPECT_EQ(c, a); // first fit reuses the hole
}

TEST(PoolAllocatorTest, ExhaustionReturnsNull)
{
    PoolAllocator pool(0, 1024);
    EXPECT_NE(pool.alloc(1024), PoolAllocator::nullAddr);
    EXPECT_EQ(pool.alloc(1), PoolAllocator::nullAddr);
}

TEST(PoolAllocatorTest, CoalescingRestoresFullExtent)
{
    PoolAllocator pool(0, 3072);
    Addr a = pool.alloc(1024);
    Addr b = pool.alloc(1024);
    Addr c = pool.alloc(1024);
    ASSERT_NE(c, PoolAllocator::nullAddr);
    pool.free(a);
    pool.free(c);
    pool.free(b); // middle free must merge all three
    EXPECT_EQ(pool.bytesFree(), 3072u);
    EXPECT_NE(pool.alloc(3072), PoolAllocator::nullAddr);
}

TEST(PoolAllocatorTest, AlignmentHonored)
{
    PoolAllocator pool(1, 8192); // deliberately misaligned base
    Addr a = pool.alloc(100, 512);
    ASSERT_NE(a, PoolAllocator::nullAddr);
    EXPECT_EQ(a % 512, 0u);
    pool.free(a);
}

TEST(PoolAllocatorTest, RandomAllocFreeStress)
{
    // Property: no overlap between live blocks; all bytes
    // recovered at the end.
    Rng rng(23);
    PoolAllocator pool(0, 1 * MiB);
    std::map<Addr, Bytes> live;
    for (int i = 0; i < 5000; ++i) {
        if (live.size() < 40 && rng.chance(0.6)) {
            Bytes len = rng.uniformInt(1, 32 * 1024);
            Addr a = pool.alloc(len, 16);
            if (a == PoolAllocator::nullAddr)
                continue;
            // Overlap check against all live blocks.
            for (const auto &[la, ll] : live) {
                ASSERT_TRUE(a + len <= la || la + ll <= a)
                    << "overlap at iteration " << i;
            }
            live[a] = len;
        } else if (!live.empty()) {
            auto it = live.begin();
            std::advance(it,
                         long(rng.uniformInt(0, live.size() - 1)));
            pool.free(it->first);
            live.erase(it);
        }
    }
    for (const auto &[a, l] : live)
        pool.free(a);
    EXPECT_EQ(pool.bytesFree(), 1 * MiB);
    EXPECT_EQ(pool.liveAllocations(), 0u);
}

/**
 * Reference first fit: the allocator as it was written over a
 * std::map of free extents, kept as an oracle. PoolAllocator must
 * return exactly the addresses this returns.
 */
class MapFirstFit
{
  public:
    MapFirstFit(Addr base, Bytes size) : free_(size)
    {
        extents_[base] = size;
    }

    Addr
    alloc(Bytes len, Bytes align)
    {
        for (auto it = extents_.begin(); it != extents_.end(); ++it) {
            Addr start = it->first;
            Bytes ext_len = it->second;
            Addr aligned = (start + align - 1) & ~(align - 1);
            Bytes waste = aligned - start;
            if (ext_len < waste + len)
                continue;
            extents_.erase(it);
            if (waste > 0)
                extents_[start] = waste;
            Bytes tail = ext_len - waste - len;
            if (tail > 0)
                extents_[aligned + len] = tail;
            live_[aligned] = len;
            free_ -= len;
            return aligned;
        }
        return PoolAllocator::nullAddr;
    }

    void
    free(Addr addr)
    {
        auto it = live_.find(addr);
        ASSERT_NE(it, live_.end());
        Addr start = it->first;
        Bytes len = it->second;
        live_.erase(it);
        free_ += len;
        auto ins = extents_.emplace(start, len).first;
        if (ins != extents_.begin()) {
            auto prev = std::prev(ins);
            if (prev->first + prev->second == ins->first) {
                prev->second += ins->second;
                extents_.erase(ins);
                ins = prev;
            }
        }
        auto next = std::next(ins);
        if (next != extents_.end() &&
            ins->first + ins->second == next->first) {
            ins->second += next->second;
            extents_.erase(next);
        }
    }

    Bytes bytesFree() const { return free_; }
    std::size_t liveAllocations() const { return live_.size(); }

  private:
    Bytes free_;
    std::map<Addr, Bytes> extents_;
    std::map<Addr, Bytes> live_;
};

/**
 * Replay @p ops random alloc/free operations against PoolAllocator
 * and the oracle; every result, bytesFree() and liveAllocations()
 * must agree. @p sizes are drawn uniformly; @p any_align draws
 * alignments 1..4096 instead of IO-Bond's 16. Allocation is
 * favoured while fewer than @p max_live blocks are live, so long
 * runs reach the arena's fragmentation (and, when the arena is
 * small, its exhaustion) steady state.
 */
void
replayAgainstOracle(Addr base, Bytes size, std::uint64_t seed,
                    unsigned ops, const std::vector<Bytes> &sizes,
                    bool any_align, std::size_t max_live,
                    unsigned *exhausted = nullptr)
{
    PoolAllocator pool(base, size);
    MapFirstFit ref(base, size);
    Rng rng(seed);
    std::vector<Addr> live;
    for (unsigned i = 0; i < ops; ++i) {
        bool grow = live.empty() ||
                    rng.chance(live.size() < max_live ? 0.7 : 0.3);
        if (grow) {
            Bytes len = sizes[rng.uniformInt(0, sizes.size() - 1)];
            Bytes align =
                any_align ? Bytes(1) << rng.uniformInt(0, 12) : 16;
            Addr a = pool.alloc(len, align);
            ASSERT_EQ(a, ref.alloc(len, align))
                << "op " << i << ": alloc(" << len << ", " << align
                << ")";
            if (a == PoolAllocator::nullAddr) {
                if (exhausted)
                    ++*exhausted;
            } else {
                live.push_back(a);
            }
        } else {
            std::size_t k = rng.uniformInt(0, live.size() - 1);
            pool.free(live[k]);
            ref.free(live[k]);
            live[k] = live.back();
            live.pop_back();
        }
        ASSERT_EQ(pool.bytesFree(), ref.bytesFree()) << "op " << i;
        ASSERT_EQ(pool.liveAllocations(), ref.liveAllocations())
            << "op " << i;
    }
}

TEST(PoolAllocatorTest, MatchesReferenceFirstFitOnIoBondMix)
{
    // IO-Bond's shadow arena: 16 MiB after the 4 MiB ring area,
    // 2 KiB rx buffers, ~60 B tx frames, indirect tables, 4 KiB and
    // 128 KiB block I/O, several hundred chains in flight.
    const std::vector<Bytes> sizes = {2048, 2048, 2048, 2048, 60,
                                      76,   48,   4096, 4112, 131072,
                                      131088};
    replayAgainstOracle(4 * MiB, 16 * MiB, 1, 60000, sizes, false,
                        600);
}

TEST(PoolAllocatorTest, MatchesReferenceFirstFitAnyAlignment)
{
    // Alignments 1..4096 over a misaligned base, random sizes.
    std::vector<Bytes> sizes;
    Rng rng(5);
    for (int i = 0; i < 64; ++i)
        sizes.push_back(rng.uniformInt(1, 9000));
    replayAgainstOracle(0x1003, 4 * MiB, 2, 30000, sizes, true, 300);
}

TEST(PoolAllocatorTest, MatchesReferenceFirstFitToExhaustion)
{
    // A small arena driven past its capacity again and again: the
    // null results (and what is left free) must agree too.
    const std::vector<Bytes> sizes = {2048, 60, 4096, 131072, 300};
    unsigned exhausted = 0;
    replayAgainstOracle(0x10, 512 * KiB, 3, 30000, sizes, true, 4096,
                        &exhausted);
    EXPECT_GT(exhausted, 1000u);
}

TEST(PoolAllocatorTest, DoubleFreePanics)
{
    Logger::global().setThrowOnDeath(true);
    PoolAllocator pool(0, 1024);
    Addr a = pool.alloc(64);
    pool.free(a);
    EXPECT_THROW(pool.free(a), PanicError);
    Logger::global().setThrowOnDeath(false);
}

} // namespace
} // namespace bmhive
