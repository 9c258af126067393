/**
 * @file
 * Differential suite for one-pass cache replay: the Cheetah engine
 * (one stack-distance pass per kind and line size) against the
 * per-configuration Cache replay it replaces, on every CacheStats
 * field, bitwise.
 *
 * Coverage: every Table 5 geometry and the ConfigSpace::extended()
 * cache axes; recorded traces of all six workloads under Mach and
 * Ultrix plus the adversarial nastyTrace streams; engines built for a
 * subset of the grid (what a resumed sweep runs); ComponentSweep at 1
 * and 4 threads over a cold and a warm store, including a store
 * written by per-configuration replay under the historical shard
 * keys; and the slots the engine cannot score exactly (FIFO, random,
 * write-back, no-write-allocate), which must keep the per-config path.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include <unistd.h>

#include "cache/cache.hh"
#include "cache/cheetah.hh"
#include "core/component.hh"
#include "core/search.hh"
#include "core/sweep.hh"
#include "store/codec.hh"
#include "store/store.hh"
#include "tests/cache/nasty_trace.hh"
#include "trace/tracefile.hh"
#include "workload/system.hh"

namespace oma
{
namespace
{

namespace fs = std::filesystem;

void
expectSameCacheStats(const CacheStats &want, const CacheStats &got,
                     const std::string &what)
{
    for (unsigned k = 0; k < numRefKinds; ++k) {
        ASSERT_EQ(want.accesses[k], got.accesses[k])
            << what << " kind " << k;
        ASSERT_EQ(want.misses[k], got.misses[k]) << what << " kind " << k;
    }
    ASSERT_EQ(want.lineFills, got.lineFills) << what;
    ASSERT_EQ(want.writebacks, got.writebacks) << what;
    ASSERT_EQ(want.writeThroughWords, got.writeThroughWords) << what;
    ASSERT_EQ(want.compulsoryMisses, got.compulsoryMisses) << what;
}

/** Table 5 cache geometries (the sweep grid's I- and D-cache axes). */
std::vector<CacheGeometry>
table5Geometries()
{
    return ConfigSpace().cacheGeometries();
}

/** The grid split by line size, in first-appearance order. */
std::map<std::uint64_t, std::vector<CacheGeometry>>
byLineSize(const std::vector<CacheGeometry> &geoms)
{
    std::map<std::uint64_t, std::vector<CacheGeometry>> groups;
    for (const CacheGeometry &g : geoms)
        groups[g.lineBytes].push_back(g);
    return groups;
}

/** Per-config expectation: one Cache per slot through the batched
 * component replay the sweep used before one-pass replay. */
CacheStats
perConfig(const RecordedTrace &trace, const ComponentSlot &slot)
{
    const std::unique_ptr<ComponentReplayer> component =
        makeComponent(slot, MachineParams::decstation3100());
    replayComponent(trace, *component);
    return std::get<CacheStats>(component->counters());
}

ComponentSlot
cacheSlot(ComponentKind kind, const CacheGeometry &geom)
{
    CacheParams p;
    p.geom = geom;
    return kind == ComponentKind::ICache ? ComponentSlot::icache(p)
                                         : ComponentSlot::dcache(p);
}

/** Check every geometry of @p geoms, both kinds, one pass per line
 * size against per-config replay. */
void
expectOnePassMatchesPerConfig(const RecordedTrace &trace,
                              const std::vector<CacheGeometry> &geoms,
                              const std::string &what)
{
    for (const ComponentKind kind :
         {ComponentKind::ICache, ComponentKind::DCache}) {
        for (const auto &[line, group] : byLineSize(geoms)) {
            std::uint64_t delivered = 0;
            const std::vector<CacheStats> stats =
                replayOnePass(trace, kind, group, &delivered);
            ASSERT_EQ(stats.size(), group.size());
            for (std::size_t i = 0; i < group.size(); ++i) {
                const CacheStats want =
                    perConfig(trace, cacheSlot(kind, group[i]));
                expectSameCacheStats(
                    want, stats[i],
                    what + " " + componentKindName(kind) + " " +
                        group[i].describe());
                EXPECT_EQ(delivered, want.totalAccesses());
            }
        }
    }
}

RecordedTrace
recordWorkload(BenchmarkId id, OsKind os, std::uint64_t refs,
               std::uint64_t seed = 42)
{
    System system(benchmarkParams(id), os, seed);
    return system.record(refs);
}

/** A recording of a synthetic stream: loads and stores of @p accesses
 * in kuseg (cached data), with every fourth access also issued as an
 * instruction fetch so both kinds see the stream's shape. */
RecordedTrace
recordAccesses(const std::vector<omatest::Access> &accesses)
{
    RecordedTrace trace;
    std::uint64_t i = 0;
    for (const omatest::Access &a : accesses) {
        MemRef ref;
        ref.vaddr = a.paddr & 0x7fffffff;
        ref.paddr = a.paddr;
        ref.kind = a.kind;
        ref.mapped = true;
        trace.append(ref);
        if (i++ % 4 == 0) {
            ref.kind = RefKind::IFetch;
            trace.append(ref);
        }
    }
    return trace;
}

TEST(OnePassReplay, EveryTable5GeometryOnEveryRecordedWorkload)
{
    // Six workloads x Mach/Ultrix, short recordings: 240 Table 5
    // slots each, one pass per (kind, line size) against 240
    // per-config replays.
    const std::vector<CacheGeometry> grid = table5Geometries();
    ASSERT_EQ(grid.size(), 120u);
    for (const BenchmarkId id : allBenchmarks()) {
        for (const OsKind os : {OsKind::Mach, OsKind::Ultrix}) {
            const RecordedTrace trace = recordWorkload(id, os, 12000);
            expectOnePassMatchesPerConfig(
                trace, grid,
                std::string(benchmarkName(id)) + "/" + osKindName(os));
        }
    }
}

TEST(OnePassReplay, ExtendedSpaceCacheAxesMatchPerConfig)
{
    const std::vector<CacheGeometry> grid =
        ConfigSpace::extended().cacheGeometries();
    ASSERT_FALSE(grid.empty());
    expectOnePassMatchesPerConfig(
        recordWorkload(BenchmarkId::VideoPlay, OsKind::Mach, 30000),
        grid, "extended");
}

TEST(OnePassReplay, NastyTracesMatchCacheOnEveryField)
{
    // The adversarial streams of the Cheetah differential suite,
    // through Cheetah::covering() directly and through the recorded
    // one-pass driver, with loads and stores mixed so the per-kind
    // histograms, write-through words and compulsory counts all
    // carry signal.
    const std::vector<CacheGeometry> grid = table5Geometries();
    for (const std::uint64_t seed : {101u, 202u, 303u, 404u}) {
        const std::vector<omatest::Access> accesses =
            omatest::nastyTrace(seed, 20000);
        for (const auto &[line, group] : byLineSize(grid)) {
            Cheetah engine = Cheetah::covering(group);
            std::vector<Cache> caches;
            for (const CacheGeometry &g : group) {
                CacheParams p;
                p.geom = g;
                caches.emplace_back(p);
            }
            for (const omatest::Access &a : accesses) {
                engine.access(a.paddr, a.kind);
                for (Cache &cache : caches)
                    static_cast<void>(cache.access(a.paddr, a.kind));
            }
            for (std::size_t i = 0; i < group.size(); ++i)
                expectSameCacheStats(caches[i].stats(),
                                     engine.stats(group[i]),
                                     "seed " + std::to_string(seed) +
                                         " " + group[i].describe());
        }
        expectOnePassMatchesPerConfig(recordAccesses(accesses), grid,
                                      "nasty " + std::to_string(seed));
    }
}

TEST(OnePassReplay, SubsetEngineMatchesFullEngine)
{
    // A resumed sweep builds its engine for the missing slots only:
    // the counters of a geometry must not depend on which other
    // geometries share the pass.
    const RecordedTrace trace =
        recordWorkload(BenchmarkId::Ousterhout, OsKind::Ultrix, 20000);
    const std::vector<CacheGeometry> group =
        byLineSize(table5Geometries()).at(16);
    const std::vector<CacheStats> full =
        replayOnePass(trace, ComponentKind::DCache, group);
    for (std::size_t i = 0; i < group.size(); ++i) {
        const std::vector<CacheStats> alone =
            replayOnePass(trace, ComponentKind::DCache, {group[i]});
        expectSameCacheStats(full[i], alone.front(), group[i].describe());
    }
}

TEST(OnePassReplay, EligibilityFollowsTheCachePolicies)
{
    const CacheGeometry geom = CacheGeometry::fromWords(4096, 4, 2);
    CacheParams lru;
    lru.geom = geom;
    EXPECT_TRUE(onePassEligible(ComponentSlot::icache(lru)));
    EXPECT_TRUE(onePassEligible(ComponentSlot::dcache(lru)));

    CacheParams fifo = lru;
    fifo.repl = ReplacementPolicy::Fifo;
    CacheParams random = lru;
    random.repl = ReplacementPolicy::Random;
    CacheParams write_back = lru;
    write_back.write = WritePolicy::WriteBack;
    CacheParams no_alloc = lru;
    no_alloc.alloc = AllocPolicy::NoWriteAllocate;
    for (const CacheParams &p : {fifo, random, write_back, no_alloc}) {
        EXPECT_FALSE(onePassEligible(ComponentSlot::icache(p)));
        EXPECT_FALSE(onePassEligible(ComponentSlot::dcache(p)));
    }

    // Inclusion does not hold for a TLB (its refill stream depends on
    // its own geometry), nor for the extension kinds.
    TlbParams tlb;
    tlb.geom = TlbGeometry(64, 2);
    EXPECT_FALSE(onePassEligible(ComponentSlot::tlb(tlb)));
    for (const ComponentSlot &slot :
         ConfigSpace::extended().extensionSlots())
        EXPECT_FALSE(onePassEligible(slot));
}

// ----- through ComponentSweep -----

RunConfig
storeRun(const std::string &dir, unsigned threads)
{
    RunConfig rc;
    rc.references = 20000;
    rc.seed = 42;
    rc.threads = threads;
    rc.storeDir = dir;
    return rc;
}

std::string
freshStoreDir(const std::string &name)
{
    ::unsetenv("OMA_STORE_DIR");
    const std::string dir = testing::TempDir() + "/oma_onepass_" + name +
        "." + std::to_string(::getpid());
    fs::remove_all(dir);
    return dir;
}

/** Every slot's counters against its own per-config replay. */
void
expectSweepMatchesPerConfig(const ComponentSweep &sweep,
                            const SweepResult &result,
                            const RecordedTrace &trace)
{
    ASSERT_EQ(result.componentCount(), sweep.components().size());
    std::size_t icache = 0, dcache = 0;
    for (const ComponentSlot &slot : sweep.components()) {
        if (slot.kind == ComponentKind::ICache) {
            expectSameCacheStats(perConfig(trace, slot),
                                 result.icache(icache).stats,
                                 "icache " + slot.describe());
            ++icache;
        } else if (slot.kind == ComponentKind::DCache) {
            expectSameCacheStats(perConfig(trace, slot),
                                 result.dcache(dcache).stats,
                                 "dcache " + slot.describe());
            ++dcache;
        }
    }
}

/** The Table 5 sweep plus two TLB slots (per-config path). */
ComponentSweep
table5Sweep()
{
    return ComponentSweep(table5Geometries(), table5Geometries(),
                          {TlbGeometry::fullyAssoc(64),
                           TlbGeometry(128, 2)});
}

TEST(OnePassReplay, SweepMatchesPerConfigColdAndWarmAtOneAndFourThreads)
{
    const ComponentSweep sweep = table5Sweep();
    const std::string dir = freshStoreDir("sweep");
    const RecordedTrace trace =
        recordWorkload(BenchmarkId::Mpeg, OsKind::Mach, 20000);

    obs::Observation cold_obs;
    const SweepResult cold = sweep.run(benchmarkParams(BenchmarkId::Mpeg),
                                       OsKind::Mach, storeRun(dir, 1),
                                       &cold_obs);
    expectSweepMatchesPerConfig(sweep, cold, trace);
    // Six line sizes x two kinds: twelve passes cover 240 slots; the
    // TLBs keep per-config replay.
    EXPECT_EQ(cold_obs.metrics.counter("replay/onepass_passes"), 12u);
    EXPECT_EQ(cold_obs.metrics.counter("replay/onepass_slots"), 240u);
    EXPECT_EQ(cold_obs.metrics.counter("replay/per_config_slots"), 2u);
    EXPECT_EQ(cold_obs.metrics.counter("calls/sweep/replay/onepass"),
              12u);
    EXPECT_GT(cold_obs.metrics.counter("replay/batched_refs"), 0u);

    obs::Observation warm_obs;
    const SweepResult warm = sweep.run(benchmarkParams(BenchmarkId::Mpeg),
                                       OsKind::Mach, storeRun(dir, 4),
                                       &warm_obs);
    expectSweepMatchesPerConfig(sweep, warm, trace);
    EXPECT_EQ(warm_obs.metrics.counter("store/misses"), 0u);
    EXPECT_EQ(warm_obs.metrics.counter("store/writes"), 0u);
    EXPECT_EQ(warm_obs.metrics.counter("replay/onepass_passes"), 0u);
    EXPECT_EQ(warm_obs.metrics.counter("replay/batched_refs"), 0u);

    // Storeless at 4 threads: the same counters as serial.
    obs::Observation parallel_obs;
    const SweepResult parallel = sweep.run(trace, 4, &parallel_obs);
    expectSweepMatchesPerConfig(sweep, parallel, trace);
    obs::Observation serial_obs;
    (void)sweep.run(trace, 1, &serial_obs);
    for (const auto &[name, value] : serial_obs.metrics.counters()) {
        if (name.rfind("threadpool/", 0) == 0)
            continue;
        EXPECT_EQ(parallel_obs.metrics.counter(name), value) << name;
    }
    fs::remove_all(dir);
}

TEST(OnePassReplay, PartialStoreRunsOnePassForTheMissingShardsOnly)
{
    // A store holding some of a group's shards: the pass derives the
    // missing slots, writes only their shards, and the served result
    // stays bitwise per-config.
    const std::vector<CacheGeometry> geoms =
        byLineSize(table5Geometries()).at(32);
    const std::vector<CacheGeometry> half(geoms.begin(),
                                          geoms.begin() + 10);
    const std::string dir = freshStoreDir("partial");
    const RunConfig rc = storeRun(dir, 1);
    (void)ComponentSweep(half, half, {}).run(benchmarkParams(BenchmarkId::Mab),
                                              OsKind::Ultrix, rc);

    // Same slot indices for the first ten geometries, so their shard
    // keys hit; the other ten miss in each kind.
    const ComponentSweep sweep(geoms, geoms, {});
    obs::Observation observation;
    const SweepResult result = sweep.run(benchmarkParams(BenchmarkId::Mab),
                                         OsKind::Ultrix, rc, &observation);
    expectSweepMatchesPerConfig(
        sweep, result,
        recordWorkload(BenchmarkId::Mab, OsKind::Ultrix, rc.references));
    EXPECT_EQ(observation.metrics.counter("replay/onepass_passes"), 2u);
    EXPECT_EQ(observation.metrics.counter("replay/onepass_slots"), 20u);
    EXPECT_EQ(observation.metrics.counter("store/writes"), 20u);
    fs::remove_all(dir);
}

/**
 * The historical store-key recipe of a sweep (core/sweep.cc): base
 * provenance, then the artifact name, and for shards the kind name,
 * per-kind index and parameter fingerprint. Spelled out here so a
 * change to any shard key fails this suite.
 */
Fingerprint
historicalBaseKey(BenchmarkId id, OsKind os, const RunConfig &rc)
{
    Fingerprint fp;
    fp.u64("store.format_version", ArtifactStore::formatVersion);
    fp.u64("trace.format_version", TraceFileHeader::currentVersion);
    fp.str("run.os", osKindName(os));
    fp.u64("run.seed", rc.seed);
    fp.u64("run.references", rc.references);
    benchmarkParams(id).fingerprint(fp);
    return fp;
}

TEST(OnePassReplay, StoreWrittenByPerConfigReplayIsServedWarmUnchanged)
{
    // Write the trace and every cache and TLB shard the way the
    // per-config engine did — per-config counters under the
    // historical keys — then sweep: every slot must hit, nothing may
    // replay, and the served counters are the per-config ones.
    const ComponentSweep sweep = table5Sweep();
    const BenchmarkId id = BenchmarkId::Jpeg;
    const OsKind os = OsKind::Ultrix;
    const std::string dir = freshStoreDir("legacy");
    const RunConfig rc = storeRun(dir, 4);
    const RecordedTrace trace = recordWorkload(id, os, rc.references);
    const Fingerprint base = historicalBaseKey(id, os, rc);
    {
        ArtifactStore store(dir);
        Fingerprint trace_key = base;
        trace_key.str("artifact", "trace");
        store.put(trace_key, store::encodeTrace(trace));
        std::map<ComponentKind, std::uint64_t> next_index;
        for (const ComponentSlot &slot : sweep.components()) {
            Fingerprint key = base;
            key.str("artifact", "shard");
            key.str("component", componentKindName(slot.kind));
            key.u64("index", next_index[slot.kind]++);
            slot.fingerprint(key);
            if (slot.kind == ComponentKind::Tlb)
                MachineParams::decstation3100().tlbPenalties.fingerprint(
                    key);
            const std::unique_ptr<ComponentReplayer> component =
                makeComponent(slot, MachineParams::decstation3100());
            replayComponent(trace, *component);
            store.put(key, encodeComponentCounters(component->counters()));
        }
    }

    obs::Observation observation;
    const SweepResult result = sweep.run(benchmarkParams(id), os, rc,
                                         &observation);
    expectSweepMatchesPerConfig(sweep, result, trace);
    const obs::MetricRegistry &m = observation.metrics;
    // The machine shard's miss records the stream afresh; the stored
    // recording is never read.
    EXPECT_EQ(m.counter("sweep/records"), 1u);
    EXPECT_EQ(m.counter("replay/onepass_passes"), 0u);
    EXPECT_EQ(m.counter("replay/onepass_slots"), 0u);
    EXPECT_EQ(m.counter("replay/per_config_slots"), 0u);
    // Only the reference machine's shard was absent.
    EXPECT_EQ(m.counter("store/misses"), 1u);
    EXPECT_EQ(m.counter("store/writes"), 1u);
    fs::remove_all(dir);
}

TEST(OnePassReplay, IneligibleSlotsKeepThePerConfigPath)
{
    // A mixed sweep: LRU write-through write-allocate slots group
    // into passes; FIFO, random, write-back and no-write-allocate
    // slots replay one by one — and every slot matches per-config.
    std::vector<ComponentSlot> slots;
    const std::vector<CacheGeometry> geoms = {
        CacheGeometry::fromWords(2048, 4, 1),
        CacheGeometry::fromWords(8192, 4, 2),
        CacheGeometry::fromWords(4096, 8, 4)};
    std::size_t ineligible = 0;
    for (const ComponentKind kind :
         {ComponentKind::ICache, ComponentKind::DCache}) {
        for (const CacheGeometry &g : geoms) {
            CacheParams p;
            p.geom = g;
            const auto add = [&](const CacheParams &params) {
                slots.push_back(kind == ComponentKind::ICache
                                    ? ComponentSlot::icache(params)
                                    : ComponentSlot::dcache(params));
                ineligible += onePassEligible(slots.back()) ? 0 : 1;
            };
            add(p);
            CacheParams q = p;
            q.repl = ReplacementPolicy::Fifo;
            add(q);
            q = p;
            q.repl = ReplacementPolicy::Random;
            q.seed = 9;
            add(q);
            q = p;
            q.write = WritePolicy::WriteBack;
            add(q);
            q = p;
            q.alloc = AllocPolicy::NoWriteAllocate;
            add(q);
        }
    }
    ASSERT_EQ(ineligible, 24u);
    const ComponentSweep sweep(slots);
    const RecordedTrace trace =
        recordWorkload(BenchmarkId::Mab, OsKind::Mach, 30000);
    for (const unsigned threads : {1u, 4u}) {
        obs::Observation observation;
        const SweepResult result = sweep.run(trace, threads, &observation);
        expectSweepMatchesPerConfig(sweep, result, trace);
        const obs::MetricRegistry &m = observation.metrics;
        EXPECT_EQ(m.counter("replay/per_config_slots"), ineligible);
        EXPECT_EQ(m.counter("replay/onepass_slots"), 6u);
        // Line sizes 16 and 32 bytes, per kind.
        EXPECT_EQ(m.counter("replay/onepass_passes"), 4u);
    }
}

} // namespace
} // namespace oma
