/**
 * @file
 * Differential harness for the replayable-component concept
 * (core/component.hh): for every component kind — I-cache, D-cache,
 * TLB, victim cache, write buffer, hierarchy — the chunked
 * replayComponent() path must be bitwise-identical to the scalar
 * replayComponentScalar() path, on recorded System traces and on
 * synthetic traces with events pinned at chunk seams. The I-/D-cache
 * legs run every replacement/write/allocate policy over 1-16 ways and
 * 1-64-word lines. End to end, a heterogeneous ComponentSweep must be
 * thread-count invariant and a warm artifact-store rerun must
 * reproduce the cold run for every kind. Also pins the component kind
 * names (store keys and metric prefixes depend on them) and the
 * counters codec's kind framing.
 *
 * The BatchedReplay cases check the same chunked path, and the sweep
 * at 1 and 4 threads cold and warm, against an independent oracle: a
 * bare Cache or Mmu fed through RecordedTrace's per-reference views.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include <unistd.h>

#include "core/component.hh"
#include "core/sweep.hh"
#include "support/rng.hh"
#include "tlb/mips_va.hh"
#include "workload/system.hh"

namespace oma
{
namespace
{

/** Byte-exact counters comparison through the store encoding: the
 * codec serializes every field of every alternative, so encoded
 * equality is field-for-field equality. */
void
expectSameCounters(const ComponentCounters &a,
                   const ComponentCounters &b)
{
    ASSERT_EQ(a.index(), b.index());
    EXPECT_EQ(encodeComponentCounters(a), encodeComponentCounters(b));
}

/** One slot of every kind, shaped so each exercises its filter:
 * small enough to miss, set-associative and direct-mapped, an L2
 * that actually captures traffic. */
std::vector<ComponentSlot>
allKindSlots()
{
    std::vector<ComponentSlot> slots;
    CacheParams cache;
    cache.geom = CacheGeometry::fromWords(8 * 1024, 4, 2);
    slots.push_back(ComponentSlot::icache(cache));
    slots.push_back(ComponentSlot::dcache(cache));
    TlbParams tlb;
    tlb.geom = TlbGeometry(64, 2);
    slots.push_back(ComponentSlot::tlb(tlb));
    VictimParams victim;
    victim.l1 = CacheGeometry::fromWords(4 * 1024, 4, 1);
    victim.entries = 4;
    slots.push_back(ComponentSlot::victim(victim));
    WriteBufferParams wb;
    wb.entries = 2;
    slots.push_back(ComponentSlot::writeBuffer(wb));
    HierarchyParams split;
    split.l1i.geom = CacheGeometry::fromWords(4 * 1024, 4, 2);
    split.l1d.geom = CacheGeometry::fromWords(2 * 1024, 4, 2);
    split.l2.geom = CacheGeometry::fromWords(16 * 1024, 8, 4);
    split.hasL2 = true;
    slots.push_back(ComponentSlot::hierarchy(split));
    HierarchyParams unified;
    unified.l1i.geom = CacheGeometry::fromWords(8 * 1024, 4, 2);
    unified.unified = true;
    slots.push_back(ComponentSlot::hierarchy(unified));
    return slots;
}

/**
 * I-cache and D-cache slots for every policy combination the cache
 * simulator implements, crossed with geometries from 1 to 16 ways
 * and 1- to 64-word lines, so the chunked filter and the scalar
 * filter are held equal on every counter CacheStats carries
 * (write-backs, write-through words, no-allocate store misses,
 * random victims).
 */
std::vector<ComponentSlot>
cachePolicySlots()
{
    const std::vector<CacheGeometry> geoms = {
        CacheGeometry::fromWords(2 * 1024, 1, 1),
        CacheGeometry::fromWords(8 * 1024, 4, 2),
        CacheGeometry::fromWords(16 * 1024, 16, 4),
        CacheGeometry::fromWords(32 * 1024, 32, 8),
        CacheGeometry::fromWords(32 * 1024, 4, 16),
        CacheGeometry::fromWords(64 * 1024, 64, 1),
    };
    std::vector<CacheParams> policies(4);
    // policies[0]: defaults (LRU, write-through, write-allocate).
    policies[1].write = WritePolicy::WriteBack;
    policies[2].repl = ReplacementPolicy::Fifo;
    policies[2].alloc = AllocPolicy::NoWriteAllocate;
    policies[3].repl = ReplacementPolicy::Random;
    policies[3].write = WritePolicy::WriteBack;
    policies[3].seed = 7;

    std::vector<ComponentSlot> slots;
    for (const CacheGeometry &geom : geoms) {
        for (CacheParams p : policies) {
            p.geom = geom;
            slots.push_back(ComponentSlot::icache(p));
            slots.push_back(ComponentSlot::dcache(p));
        }
    }
    return slots;
}

void
expectScalarMatchesChunked(const RecordedTrace &trace)
{
    const MachineParams mp = MachineParams::decstation3100();
    std::vector<ComponentSlot> slots = allKindSlots();
    for (const ComponentSlot &slot : cachePolicySlots())
        slots.push_back(slot);
    for (const ComponentSlot &slot : slots) {
        SCOPED_TRACE(slot.describe());
        const auto chunked = makeComponent(slot, mp);
        const auto scalar = makeComponent(slot, mp);
        EXPECT_EQ(replayComponent(trace, *chunked), trace.size());
        EXPECT_EQ(replayComponentScalar(trace, *scalar),
                  trace.size());
        EXPECT_EQ(chunked->delivered(), scalar->delivered());
        expectSameCounters(scalar->counters(), chunked->counters());
    }
}

TEST(ComponentReplay, ScalarMatchesChunkedOnRecordedTraces)
{
    for (OsKind os : {OsKind::Ultrix, OsKind::Mach}) {
        System system(benchmarkParams(BenchmarkId::Mpeg), os, 42);
        const RecordedTrace trace = system.record(90000);
        // Without invalidation events the TLB leg's event slicing is
        // proven only vacuously.
        ASSERT_FALSE(trace.events().empty());
        expectScalarMatchesChunked(trace);
    }
}

TEST(ComponentReplay, ScalarMatchesChunkedWithEventsAtChunkSeams)
{
    // Synthetic stream spanning chunk seams with an uneven tail;
    // events pinned before the first reference, at both sides of
    // every seam, at random points inside chunks, and trailing past
    // the end (must never fire). Half the vaddrs stay in a small
    // kuseg window (256 pages) so invalidations hit live pages; the
    // other half roam the whole space and exercise the kseg1 filters.
    Rng rng(17);
    RecordedTrace trace;
    const std::uint64_t n = 2 * RecordedTrace::chunkRefs + 137;
    trace.recordInvalidation(1, 0, false);
    for (std::uint64_t i = 0; i < n; ++i) {
        MemRef r;
        r.vaddr = rng.chance(0.5) ? rng.below(1 << 20)
                                  : rng.next() & 0xffffffff;
        r.paddr = rng.next() & 0x3fffffff;
        r.asid = std::uint32_t(rng.below(4));
        r.kind = static_cast<RefKind>(rng.below(3));
        r.mode = static_cast<Mode>(rng.below(2));
        r.mapped = rng.chance(0.8);
        const std::uint64_t c = RecordedTrace::chunkRefs;
        if (i % c == 0 || i % c == c - 1)
            trace.recordInvalidation(vpnOf(r.vaddr), r.asid,
                                     rng.chance(0.2));
        if (rng.chance(0.01))
            trace.recordInvalidation(rng.below(256),
                                     std::uint32_t(rng.below(4)),
                                     rng.chance(0.2));
        trace.append(r);
    }
    trace.recordInvalidation(1, 1, false); // trailing: must not fire
    expectScalarMatchesChunked(trace);

    // Non-vacuous: the invalidations hit live pages, so the TLB leg
    // takes invalid faults.
    TlbParams tlb;
    tlb.geom = TlbGeometry(64, 2);
    const auto mmu = makeComponent(ComponentSlot::tlb(tlb),
                                   MachineParams::decstation3100());
    replayComponent(trace, *mmu);
    EXPECT_GT(std::get<MmuStats>(mmu->counters())
                  .counts[unsigned(MissClass::InvalidFault)],
              0u);
}

void
expectSameHeterogeneousResults(const SweepResult &a,
                               const SweepResult &b)
{
    ASSERT_EQ(a.componentCount(), b.componentCount());
    ASSERT_EQ(a.instructions, b.instructions);
    for (std::size_t i = 0; i < a.icacheCount(); ++i)
        expectSameCounters(ComponentCounters(a.icache(i).stats),
                           ComponentCounters(b.icache(i).stats));
    for (std::size_t i = 0; i < a.dcacheCount(); ++i)
        expectSameCounters(ComponentCounters(a.dcache(i).stats),
                           ComponentCounters(b.dcache(i).stats));
    for (std::size_t i = 0; i < a.tlbCount(); ++i)
        expectSameCounters(ComponentCounters(a.tlb(i).stats),
                           ComponentCounters(b.tlb(i).stats));
    for (std::size_t i = 0; i < a.victimCount(); ++i)
        expectSameCounters(ComponentCounters(a.victim(i).stats),
                           ComponentCounters(b.victim(i).stats));
    for (std::size_t i = 0; i < a.writeBufferCount(); ++i)
        expectSameCounters(
            ComponentCounters(a.writeBuffer(i).stats),
            ComponentCounters(b.writeBuffer(i).stats));
    for (std::size_t i = 0; i < a.hierarchyCount(); ++i)
        expectSameCounters(ComponentCounters(a.hierarchy(i).stats),
                           ComponentCounters(b.hierarchy(i).stats));
}

TEST(ComponentReplay, HeterogeneousSweepIsThreadCountInvariant)
{
    const ComponentSweep sweep(allKindSlots());
    System system(benchmarkParams(BenchmarkId::Mab), OsKind::Mach, 42);
    const RecordedTrace trace = system.record(60000);
    const SweepResult serial = sweep.run(trace, 1);
    expectSameHeterogeneousResults(serial, sweep.run(trace, 4));

    // And against the component-level scalar replays: the sweep adds
    // nothing beyond per-slot replayComponent().
    ASSERT_EQ(serial.victimCount(), 1u);
    ASSERT_EQ(serial.writeBufferCount(), 1u);
    ASSERT_EQ(serial.hierarchyCount(), 2u);
    const MachineParams mp = MachineParams::decstation3100();
    const std::vector<ComponentSlot> slots = allKindSlots();
    for (std::size_t s = 0; s < slots.size(); ++s) {
        SCOPED_TRACE(slots[s].describe());
        const auto scalar = makeComponent(slots[s], mp);
        EXPECT_EQ(replayComponentScalar(trace, *scalar),
                  trace.size());
        const ComponentCounters expected = scalar->counters();
        switch (slots[s].kind) {
          case ComponentKind::ICache:
            expectSameCounters(
                expected, ComponentCounters(serial.icache(0).stats));
            break;
          case ComponentKind::DCache:
            expectSameCounters(
                expected, ComponentCounters(serial.dcache(0).stats));
            break;
          case ComponentKind::Tlb:
            expectSameCounters(
                expected, ComponentCounters(serial.tlb(0).stats));
            break;
          case ComponentKind::Victim:
            expectSameCounters(
                expected, ComponentCounters(serial.victim(0).stats));
            break;
          case ComponentKind::WriteBuffer:
            expectSameCounters(
                expected,
                ComponentCounters(serial.writeBuffer(0).stats));
            break;
          case ComponentKind::Hierarchy:
            expectSameCounters(
                expected,
                ComponentCounters(
                    serial.hierarchy(s == slots.size() - 1 ? 1 : 0)
                        .stats));
            break;
        }
    }
}

TEST(ComponentReplay, WarmStoreReproducesColdForEveryKind)
{
    // Cold run simulates live and persists one shard per component;
    // the warm rerun must decode every extension kind's shard (zero
    // store misses) and reproduce the cold counters bitwise, at a
    // different thread count.
    ComponentSweep sweep(
        {CacheGeometry::fromWords(4 * 1024, 4, 2)},
        {CacheGeometry::fromWords(4 * 1024, 4, 2)},
        {TlbGeometry::fullyAssoc(32)});
    for (const ComponentSlot &slot : allKindSlots())
        sweep.addComponent(slot);

    RunConfig rc;
    rc.references = 50000;
    rc.seed = 42;
    rc.threads = 1;
    ::unsetenv("OMA_STORE_DIR");
    rc.storeDir = testing::TempDir() + "/oma_component_store." +
        std::to_string(::getpid());
    std::filesystem::remove_all(rc.storeDir);

    const SweepResult cold =
        sweep.run(benchmarkParams(BenchmarkId::Mpeg), OsKind::Mach, rc);
    rc.threads = 4;
    obs::Observation warm_obs;
    const SweepResult warm = sweep.run(benchmarkParams(BenchmarkId::Mpeg),
                                       OsKind::Mach, rc, &warm_obs);
    expectSameHeterogeneousResults(cold, warm);
    EXPECT_EQ(warm_obs.metrics.counter("store/misses"), 0u);
    EXPECT_EQ(warm_obs.metrics.counter("sweep/records"), 0u);
    std::filesystem::remove_all(rc.storeDir);
}

TEST(ComponentReplay, KindNamesArePinned)
{
    // Store keys and metric prefixes embed these names; changing one
    // orphans stored shards and breaks the run-report counter gate.
    EXPECT_STREQ(componentKindName(ComponentKind::ICache), "icache");
    EXPECT_STREQ(componentKindName(ComponentKind::DCache), "dcache");
    EXPECT_STREQ(componentKindName(ComponentKind::Tlb), "tlb");
    EXPECT_STREQ(componentKindName(ComponentKind::Victim), "victim");
    EXPECT_STREQ(componentKindName(ComponentKind::WriteBuffer),
                 "wbuffer");
    EXPECT_STREQ(componentKindName(ComponentKind::Hierarchy), "l2");
}

TEST(ComponentReplay, CountersCodecFramesByKind)
{
    VictimStats v;
    v.accesses = 100;
    v.l1Hits = 80;
    v.victimHits = 5;
    v.misses = 15;
    const std::string payload =
        encodeComponentCounters(ComponentCounters(v));

    ComponentCounters out;
    ASSERT_TRUE(decodeComponentCounters(payload,
                                        ComponentKind::Victim, out));
    expectSameCounters(ComponentCounters(v), out);

    // The payload carries no kind tag — the store key does — so a
    // payload of the wrong kind must fail the decoder's framing, not
    // silently misinterpret.
    EXPECT_FALSE(decodeComponentCounters(
        payload, ComponentKind::WriteBuffer, out));
    EXPECT_FALSE(decodeComponentCounters(
        payload.substr(0, payload.size() - 1),
        ComponentKind::Victim, out));
}

// ----- chunked replay against hand-rolled per-reference replays -----
//
// The ComponentReplay cases above hold the chunked path equal to the
// component's own scalar access body. The BatchedReplay cases below
// use an oracle that shares none of the component code: a bare Cache
// or Mmu fed through RecordedTrace's per-reference views.

/** The fetch leg: per-ref fetch view + Cache::access(). */
CacheStats
scalarFetchReplay(const RecordedTrace &trace, const CacheParams &p)
{
    Cache cache(p);
    trace.replayFetchPaddrs([&](std::uint64_t paddr) {
        cache.access(paddr, RefKind::IFetch);
    });
    return cache.stats();
}

/** The data leg: per-ref cached-data view + Cache::access(). */
CacheStats
scalarDataReplay(const RecordedTrace &trace, const CacheParams &p)
{
    Cache cache(p);
    trace.replayCachedData([&](std::uint64_t paddr, RefKind kind) {
        cache.access(paddr, kind);
    });
    return cache.stats();
}

/** The TLB leg: event-interleaved view + Mmu::translate(). */
MmuStats
scalarTranslateReplay(const RecordedTrace &trace, const TlbParams &p)
{
    Mmu mmu(p, MachineParams::decstation3100().tlbPenalties);
    trace.replay(
        [&](const MemRef &ref) { mmu.translate(ref); },
        [&](const TraceEvent &e) {
            mmu.invalidatePage(e.vpn, e.asid, e.global);
        });
    return mmu.stats();
}

/** Replay every cache policy slot chunked and compare each with the
 * per-reference oracle of its leg. */
void
expectCacheSlotsMatchPerRefViews(const RecordedTrace &trace)
{
    const MachineParams mp = MachineParams::decstation3100();
    for (const ComponentSlot &slot : cachePolicySlots()) {
        SCOPED_TRACE(slot.describe());
        const CacheParams &p = std::get<CacheParams>(slot.params);
        const auto chunked = makeComponent(slot, mp);
        EXPECT_EQ(replayComponent(trace, *chunked), trace.size());
        const CacheStats expected =
            slot.kind == ComponentKind::ICache
                ? scalarFetchReplay(trace, p)
                : scalarDataReplay(trace, p);
        expectSameCounters(ComponentCounters(expected),
                           chunked->counters());
        EXPECT_EQ(chunked->delivered(), expected.totalAccesses());
    }
}

MmuStats
chunkedTranslateReplay(const RecordedTrace &trace, const TlbParams &p)
{
    const auto mmu = makeComponent(ComponentSlot::tlb(p),
                                   MachineParams::decstation3100());
    EXPECT_EQ(replayComponent(trace, *mmu), trace.size());
    return std::get<MmuStats>(mmu->counters());
}

/** Bitwise double equality (== would conflate -0.0 and 0.0). */
bool
sameBits(double a, double b)
{
    return std::memcmp(&a, &b, sizeof a) == 0;
}

void
expectSameSweepResult(const SweepResult &a, const SweepResult &b)
{
    ASSERT_EQ(a.references, b.references);
    ASSERT_EQ(a.icacheCount(), b.icacheCount());
    ASSERT_EQ(a.dcacheCount(), b.dcacheCount());
    ASSERT_EQ(a.tlbCount(), b.tlbCount());
    expectSameHeterogeneousResults(a, b);
    EXPECT_TRUE(sameBits(a.wbCpi, b.wbCpi));
    EXPECT_TRUE(sameBits(a.otherCpi, b.otherCpi));
}

TEST(BatchedReplay, CacheKernelsMatchScalarOnRecordedTrace)
{
    System system(benchmarkParams(BenchmarkId::Mpeg), OsKind::Ultrix,
                  42);
    expectCacheSlotsMatchPerRefViews(system.record(60000));
}

TEST(BatchedReplay, CacheKernelsMatchScalarOnRandomizedTraces)
{
    // Synthetic streams with a full-chunk seam and an uneven tail;
    // unlike System output these exercise the uncached (kseg1)
    // filtering through unconstrained vaddrs.
    for (std::uint64_t seed : {3u, 5u, 9u}) {
        SCOPED_TRACE(seed);
        Rng rng(seed);
        RecordedTrace trace;
        const std::uint64_t n = RecordedTrace::chunkRefs + 4097;
        for (std::uint64_t i = 0; i < n; ++i) {
            MemRef r;
            r.vaddr = rng.next() & 0xffffffff;
            r.paddr = rng.next() & 0x3fffffff;
            r.asid = std::uint32_t(rng.below(64));
            r.kind = static_cast<RefKind>(rng.below(3));
            r.mode = static_cast<Mode>(rng.below(2));
            r.mapped = rng.chance(0.8);
            trace.append(r);
        }
        expectCacheSlotsMatchPerRefViews(trace);
    }
}

TEST(BatchedReplay, MmuBatchedMatchesScalarOnRecordedTraces)
{
    const std::vector<TlbGeometry> geoms = {
        TlbGeometry::fullyAssoc(32), TlbGeometry::fullyAssoc(64),
        TlbGeometry(128, 2), TlbGeometry(256, 4)};
    for (OsKind os : {OsKind::Ultrix, OsKind::Mach}) {
        System system(benchmarkParams(BenchmarkId::Mpeg), os, 42);
        const RecordedTrace trace = system.record(90000);
        // A trace without invalidation events would prove the event
        // interleave only vacuously.
        ASSERT_FALSE(trace.events().empty());
        for (const TlbGeometry &g : geoms) {
            SCOPED_TRACE(g.describe());
            TlbParams p;
            p.geom = g;
            expectSameCounters(
                ComponentCounters(scalarTranslateReplay(trace, p)),
                ComponentCounters(chunkedTranslateReplay(trace, p)));
        }
    }
}

TEST(BatchedReplay, MmuBatchedHandlesChunkStraddlingEvents)
{
    // Events pinned exactly at chunk seams must cut the chunked
    // replay at the right reference, and nowhere else. The trailing
    // event must never fire on either path.
    Rng rng(31);
    RecordedTrace trace;
    const std::uint64_t n = 2 * RecordedTrace::chunkRefs + 137;
    for (std::uint64_t i = 0; i < n; ++i) {
        MemRef r;
        r.vaddr = rng.below(1 << 20); // kuseg, ~256 pages
        r.paddr = rng.next() & 0x3fffffff;
        r.asid = std::uint32_t(rng.below(4));
        r.kind = static_cast<RefKind>(rng.below(3));
        r.mode = static_cast<Mode>(rng.below(2));
        r.mapped = true;
        if (rng.chance(0.01))
            trace.recordInvalidation(rng.below(256),
                                     std::uint32_t(rng.below(4)),
                                     rng.chance(0.2));
        const std::uint64_t c = RecordedTrace::chunkRefs;
        if (i % c == 0 || i % c == c - 1)
            trace.recordInvalidation(vpnOf(r.vaddr), r.asid, false);
        trace.append(r);
    }
    trace.recordInvalidation(1, 1, false); // trailing: must not fire

    TlbParams p;
    p.geom = TlbGeometry(64, 2);
    const MmuStats scalar = scalarTranslateReplay(trace, p);
    expectSameCounters(ComponentCounters(scalar),
                       ComponentCounters(chunkedTranslateReplay(trace, p)));
    // Non-vacuous: the invalidations actually produced faults.
    EXPECT_GT(scalar.counts[unsigned(MissClass::InvalidFault)], 0u);
}

TEST(BatchedReplay, SweepMatchesScalarExpectationAcrossThreads)
{
    // End to end: the sweep engine (one-pass replay for these LRU
    // caches, chunked replay for the TLBs) must reproduce hand-rolled
    // per-reference replays configuration for configuration, at 1
    // and 4 threads.
    const std::vector<CacheGeometry> caches = {
        CacheGeometry::fromWords(2 * 1024, 4, 1),
        CacheGeometry::fromWords(8 * 1024, 4, 1),
        CacheGeometry::fromWords(16 * 1024, 4, 2)};
    const std::vector<TlbGeometry> tlbs = {
        TlbGeometry::fullyAssoc(32), TlbGeometry(128, 2)};
    const ComponentSweep sweep(caches, caches, tlbs);

    System system(benchmarkParams(BenchmarkId::Mab), OsKind::Mach, 42);
    const RecordedTrace trace = system.record(60000);

    const SweepResult serial = sweep.run(trace, 1);
    expectSameSweepResult(serial, sweep.run(trace, 4));

    // The sweep's replacement default is LRU, so the per-slot RNG
    // seed cannot influence results and a default-seed cache is the
    // exact expectation.
    for (std::size_t i = 0; i < caches.size(); ++i) {
        SCOPED_TRACE(caches[i].describe());
        CacheParams p;
        p.geom = caches[i];
        expectSameCounters(ComponentCounters(scalarFetchReplay(trace, p)),
                           ComponentCounters(serial.icache(i).stats));
        expectSameCounters(ComponentCounters(scalarDataReplay(trace, p)),
                           ComponentCounters(serial.dcache(i).stats));
    }
    for (std::size_t i = 0; i < tlbs.size(); ++i) {
        SCOPED_TRACE(tlbs[i].describe());
        TlbParams p;
        p.geom = tlbs[i];
        expectSameCounters(
            ComponentCounters(scalarTranslateReplay(trace, p)),
            ComponentCounters(serial.tlb(i).stats));
    }
}

TEST(BatchedReplay, WarmStoreReplayMatchesScalarExpectation)
{
    // Cold store run (live simulation, persists shards) and warm
    // rerun (decodes the encoded shards and trace, simulates nothing)
    // must both land on the per-reference expectation bitwise.
    const std::vector<CacheGeometry> caches = {
        CacheGeometry::fromWords(4 * 1024, 4, 2)};
    const std::vector<TlbGeometry> tlbs = {TlbGeometry::fullyAssoc(32)};
    const ComponentSweep sweep(caches, caches, tlbs);

    RunConfig rc;
    rc.references = 50000;
    rc.seed = 42;
    rc.threads = 1;
    ::unsetenv("OMA_STORE_DIR");
    rc.storeDir = testing::TempDir() + "/oma_batched_store." +
        std::to_string(::getpid());
    std::filesystem::remove_all(rc.storeDir);

    System system(benchmarkParams(BenchmarkId::Mpeg), OsKind::Ultrix,
                  rc.seed);
    const RecordedTrace trace = system.record(rc.references);

    const SweepResult cold =
        sweep.run(benchmarkParams(BenchmarkId::Mpeg), OsKind::Ultrix, rc);
    rc.threads = 4;
    obs::Observation warm_obs;
    const SweepResult warm = sweep.run(benchmarkParams(BenchmarkId::Mpeg),
                                       OsKind::Ultrix, rc, &warm_obs);
    expectSameSweepResult(cold, warm);
    EXPECT_EQ(warm_obs.metrics.counter("store/misses"), 0u);
    EXPECT_EQ(warm_obs.metrics.counter("sweep/records"), 0u);

    CacheParams cp;
    cp.geom = caches[0];
    expectSameCounters(ComponentCounters(scalarFetchReplay(trace, cp)),
                       ComponentCounters(warm.icache(0).stats));
    expectSameCounters(ComponentCounters(scalarDataReplay(trace, cp)),
                       ComponentCounters(warm.dcache(0).stats));
    TlbParams tp;
    tp.geom = tlbs[0];
    expectSameCounters(ComponentCounters(scalarTranslateReplay(trace, tp)),
                       ComponentCounters(warm.tlb(0).stats));
    std::filesystem::remove_all(rc.storeDir);
}

} // namespace
} // namespace oma
