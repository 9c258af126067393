/**
 * @file
 * End-to-end contract of store-backed sweeps: a cold run (fills the
 * store with shards only — recordings are never stored), a warm run
 * (every shard hits, so nothing is recorded), and a resumed run after
 * a mid-sweep kill (records once) must all be bitwise identical to a
 * live no-store sweep — at 1 and 4 threads — and missing or corrupt
 * entries must fall back to recording and simulating live, never to
 * wrong data.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <initializer_list>
#include <iterator>
#include <string>

#include <unistd.h>

#include "core/sweep.hh"
#include "obs/metrics.hh"
#include "store/codec.hh"
#include "store/store.hh"
#include "trace/tracefile.hh"
#include "workload/system.hh"

namespace oma
{
namespace
{

namespace fs = std::filesystem;

void
expectSameCacheStats(const CacheStats &a, const CacheStats &b,
                     const char *what, std::size_t i)
{
    for (unsigned k = 0; k < numRefKinds; ++k) {
        ASSERT_EQ(a.accesses[k], b.accesses[k]) << what << " " << i;
        ASSERT_EQ(a.misses[k], b.misses[k]) << what << " " << i;
    }
    ASSERT_EQ(a.lineFills, b.lineFills) << what << " " << i;
    ASSERT_EQ(a.writebacks, b.writebacks) << what << " " << i;
    ASSERT_EQ(a.writeThroughWords, b.writeThroughWords)
        << what << " " << i;
    ASSERT_EQ(a.compulsoryMisses, b.compulsoryMisses)
        << what << " " << i;
}

void
expectSameMmuStats(const MmuStats &a, const MmuStats &b, std::size_t i)
{
    ASSERT_EQ(a.translations, b.translations) << "tlb " << i;
    for (unsigned c = 0; c < numMissClasses; ++c) {
        ASSERT_EQ(a.counts[c], b.counts[c]) << "tlb " << i;
        ASSERT_EQ(a.cycles[c], b.cycles[c]) << "tlb " << i;
    }
    ASSERT_EQ(a.asidFlushes, b.asidFlushes) << "tlb " << i;
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
    ASSERT_EQ(a.instructions, b.instructions);
    ASSERT_EQ(a.references, b.references);
    ASSERT_EQ(a.icacheCount(), b.icacheCount());
    ASSERT_EQ(a.dcacheCount(), b.dcacheCount());
    ASSERT_EQ(a.tlbCount(), b.tlbCount());
    for (std::size_t i = 0; i < a.icacheCount(); ++i)
        expectSameCacheStats(a.icache(i).stats, b.icache(i).stats,
                             "icache", i);
    for (std::size_t i = 0; i < a.dcacheCount(); ++i)
        expectSameCacheStats(a.dcache(i).stats, b.dcache(i).stats,
                             "dcache", i);
    for (std::size_t i = 0; i < a.tlbCount(); ++i)
        expectSameMmuStats(a.tlb(i).stats, b.tlb(i).stats, i);
    EXPECT_TRUE(sameBits(a.wbCpi, b.wbCpi));
    EXPECT_TRUE(sameBits(a.otherCpi, b.otherCpi));

    const MachineParams mp = MachineParams::decstation3100();
    for (std::size_t i = 0; i < a.icacheCount(); ++i)
        EXPECT_TRUE(
            sameBits(a.icache(i).cpi(mp), b.icache(i).cpi(mp)));
    for (std::size_t i = 0; i < a.dcacheCount(); ++i)
        EXPECT_TRUE(
            sameBits(a.dcache(i).cpi(mp), b.dcache(i).cpi(mp)));
    for (std::size_t i = 0; i < a.tlbCount(); ++i)
        EXPECT_TRUE(sameBits(a.tlb(i).cpi(), b.tlb(i).cpi()));
}

std::vector<CacheGeometry>
cacheSubset()
{
    std::vector<CacheGeometry> geoms;
    for (std::uint64_t kb : {2, 8})
        geoms.push_back(CacheGeometry::fromWords(kb * 1024, 4, 1));
    geoms.push_back(CacheGeometry::fromWords(16 * 1024, 4, 2));
    return geoms;
}

std::vector<TlbGeometry>
tlbSubset()
{
    return {TlbGeometry::fullyAssoc(32), TlbGeometry(128, 2)};
}

ComponentSweep
sweepUnderTest()
{
    return ComponentSweep(cacheSubset(), cacheSubset(), tlbSubset());
}

/** Replay tasks in one sweep: reference machine + every config. */
std::uint64_t
taskCount()
{
    return 1 + 2 * cacheSubset().size() + tlbSubset().size();
}

RunConfig
storeRun(const std::string &dir, unsigned threads)
{
    RunConfig rc;
    rc.references = 60000;
    rc.seed = 42;
    rc.threads = threads;
    rc.storeDir = dir;
    return rc;
}

/** Fresh per-test store directory (tests must not inherit a store
 * from the environment either). */
std::string
freshStoreDir(const std::string &name)
{
    ::unsetenv("OMA_STORE_DIR");
    const std::string dir = testing::TempDir() + "/oma_sweep_store_" +
        name + "." + std::to_string(::getpid());
    fs::remove_all(dir);
    return dir;
}

std::vector<fs::path>
storeEntries(const std::string &dir)
{
    std::vector<fs::path> entries;
    for (const auto &e : fs::recursive_directory_iterator(dir)) {
        if (e.is_regular_file() && e.path().extension() == ".bin")
            entries.push_back(e.path());
    }
    return entries;
}

/** The store entries whose key text contains every line of
 * @p key_lines (each a complete `name=value` fingerprint line). */
std::vector<fs::path>
entriesWithKey(const std::string &dir,
               std::initializer_list<std::string> key_lines)
{
    std::vector<fs::path> found;
    for (const fs::path &path : storeEntries(dir)) {
        std::ifstream f(path, std::ios::binary);
        const std::string bytes((std::istreambuf_iterator<char>(f)),
                                std::istreambuf_iterator<char>());
        bool all = true;
        for (const std::string &line : key_lines)
            all = all && bytes.find("\n" + line + "\n") != std::string::npos;
        if (all)
            found.push_back(path);
    }
    return found;
}

/** The one store entry whose key text contains every line of
 * @p key_lines. */
fs::path
entryWithKey(const std::string &dir,
             std::initializer_list<std::string> key_lines)
{
    const std::vector<fs::path> found = entriesWithKey(dir, key_lines);
    EXPECT_EQ(found.size(), 1u);
    return found.empty() ? fs::path() : found.front();
}

fs::path
machineEntry(const std::string &dir)
{
    return entryWithKey(dir, {"artifact=5:shard", "component=7:machine"});
}

/** Store entries keyed as recordings (none since recordings stopped
 * being stored; a store written before then holds one per sweep). */
std::vector<fs::path>
traceEntries(const std::string &dir)
{
    return entriesWithKey(dir, {"artifact=5:trace"});
}

/** Total bytes of every file under @p dir. */
std::uintmax_t
storeBytes(const std::string &dir)
{
    std::uintmax_t bytes = 0;
    for (const auto &e : fs::recursive_directory_iterator(dir))
        if (e.is_regular_file())
            bytes += e.file_size();
    return bytes;
}

/**
 * The key a recording was stored under before recordings stopped
 * being stored, spelled out field by field: the shard keys still
 * extend the same base, so it must not change either.
 */
Fingerprint
historicalTraceKey(BenchmarkId id, OsKind os, const RunConfig &rc)
{
    Fingerprint fp;
    fp.u64("store.format_version", ArtifactStore::formatVersion);
    fp.u64("trace.format_version", TraceFileHeader::currentVersion);
    fp.str("run.os", osKindName(os));
    fp.u64("run.seed", rc.seed);
    fp.u64("run.references", rc.references);
    benchmarkParams(id).fingerprint(fp);
    fp.str("artifact", "trace");
    return fp;
}

/** Flip the last byte (payload tail) of @p path, so its checksum
 * fails on the next load. */
void
corruptEntry(const fs::path &path)
{
    std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
    f.seekg(-1, std::ios::end);
    char last = 0;
    f.get(last);
    f.seekp(-1, std::ios::end);
    const char flipped = char(last ^ 0x40);
    f.write(&flipped, 1);
}

TEST(StoreSweep, ColdAndWarmRunsMatchTheLiveResultBitwise)
{
    const ComponentSweep sweep = sweepUnderTest();
    for (unsigned threads : {1u, 4u}) {
        SCOPED_TRACE(threads);
        const std::string dir = freshStoreDir("coldwarm");
        const SweepResult live = sweep.run(benchmarkParams(BenchmarkId::Mab),
                                           OsKind::Mach, storeRun("", threads));

        obs::Observation cold_obs;
        const SweepResult cold =
            sweep.run(benchmarkParams(BenchmarkId::Mab), OsKind::Mach,
                      storeRun(dir, threads), &cold_obs);
        expectSameSweepResult(live, cold);
        EXPECT_EQ(cold_obs.metrics.counter("sweep/records"), 1u);
        EXPECT_EQ(cold_obs.metrics.counter("sweep/record_skips"), 0u);
        EXPECT_EQ(cold_obs.metrics.counter("sweep/trace_fetch_skips"),
                  0u);
        // Everything persisted: one shard per task, no recording.
        EXPECT_EQ(cold_obs.metrics.counter("store/writes"), taskCount());

        obs::Observation warm_obs;
        const SweepResult warm =
            sweep.run(benchmarkParams(BenchmarkId::Mab), OsKind::Mach,
                      storeRun(dir, threads), &warm_obs);
        expectSameSweepResult(live, warm);
        // The warm run does zero record-phase work, never fetches
        // the trace and writes nothing: one shard per task is all it
        // reads.
        EXPECT_EQ(warm_obs.metrics.counter("sweep/records"), 0u);
        EXPECT_EQ(warm_obs.metrics.counter("sweep/record_skips"), 1u);
        EXPECT_EQ(warm_obs.metrics.counter("sweep/trace_fetch_skips"),
                  1u);
        EXPECT_EQ(warm_obs.metrics.counter("store/hits"), taskCount());
        EXPECT_EQ(warm_obs.metrics.counter("store/misses"), 0u);
        EXPECT_EQ(warm_obs.metrics.counter("store/writes"), 0u);
        // The machine shard reproduces the recording's report counters.
        for (const char *name :
             {"trace/references", "trace/events", "trace/bytes"}) {
            EXPECT_EQ(warm_obs.metrics.counter(name),
                      cold_obs.metrics.counter(name))
                << name;
        }
        EXPECT_GT(warm_obs.metrics.counter("trace/bytes"), 0u);
        fs::remove_all(dir);
    }
}

TEST(StoreSweep, WarmReuseIsThreadCountInvariant)
{
    // Thread count is not part of any fingerprint: a store filled at
    // 1 thread serves a 4-thread run (and vice versa) bitwise.
    const ComponentSweep sweep = sweepUnderTest();
    const std::string dir = freshStoreDir("crossthreads");
    const SweepResult cold = sweep.run(benchmarkParams(BenchmarkId::Mpeg),
                                       OsKind::Ultrix, storeRun(dir, 1));
    obs::Observation warm_obs;
    const SweepResult warm = sweep.run(benchmarkParams(BenchmarkId::Mpeg),
                                       OsKind::Ultrix, storeRun(dir, 4),
                                       &warm_obs);
    expectSameSweepResult(cold, warm);
    // One hit per shard; the trace is not read.
    EXPECT_EQ(warm_obs.metrics.counter("store/hits"), taskCount());
    fs::remove_all(dir);
}

TEST(StoreSweep, DifferentConfigurationsNeverShareEntries)
{
    // Same store directory, different seed: nothing may be reused.
    const ComponentSweep sweep = sweepUnderTest();
    const std::string dir = freshStoreDir("keyed");
    RunConfig rc = storeRun(dir, 2);
    (void)sweep.run(benchmarkParams(BenchmarkId::Mab), OsKind::Mach, rc);
    rc.seed = 43;
    obs::Observation observation;
    (void)sweep.run(benchmarkParams(BenchmarkId::Mab), OsKind::Mach, rc,
                    &observation);
    EXPECT_EQ(observation.metrics.counter("store/hits"), 0u);
    EXPECT_EQ(observation.metrics.counter("sweep/records"), 1u);
    fs::remove_all(dir);
}

TEST(StoreSweep, CorruptEntriesFallBackToLiveSimulation)
{
    const ComponentSweep sweep = sweepUnderTest();
    const std::string dir = freshStoreDir("corrupt");
    const SweepResult live = sweep.run(benchmarkParams(BenchmarkId::Mab),
                                       OsKind::Mach, storeRun("", 2));
    (void)sweep.run(benchmarkParams(BenchmarkId::Mab), OsKind::Mach,
                    storeRun(dir, 2));

    // Flip the last byte (payload tail) of every entry: checksums
    // fail, every load quarantines, and the sweep re-simulates.
    const auto entries = storeEntries(dir);
    ASSERT_EQ(entries.size(), taskCount());
    for (const fs::path &path : entries)
        corruptEntry(path);

    obs::Observation observation;
    const SweepResult recovered = sweep.run(benchmarkParams(BenchmarkId::Mab),
                                            OsKind::Mach, storeRun(dir, 2),
                                            &observation);
    expectSameSweepResult(live, recovered);
    EXPECT_EQ(observation.metrics.counter("store/quarantined"),
              taskCount());
    EXPECT_EQ(observation.metrics.counter("store/hits"), 0u);
    EXPECT_EQ(observation.metrics.counter("sweep/records"), 1u);

    // The fallback rewrote every entry, so the next run is warm.
    obs::Observation warm_obs;
    const SweepResult warm = sweep.run(benchmarkParams(BenchmarkId::Mab),
                                       OsKind::Mach, storeRun(dir, 2),
                                       &warm_obs);
    expectSameSweepResult(live, warm);
    EXPECT_EQ(warm_obs.metrics.counter("store/misses"), 0u);
    EXPECT_EQ(warm_obs.metrics.counter("store/hits"), taskCount());
    fs::remove_all(dir);
}

TEST(StoreSweep, KilledSweepResumesFromPersistedShards)
{
    const ComponentSweep sweep = sweepUnderTest();
    const std::string dir = freshStoreDir("resume");
    const SweepResult live = sweep.run(benchmarkParams(BenchmarkId::Mab),
                                       OsKind::Mach, storeRun("", 1));

    // Child process: serial store-backed sweep, killed hard after
    // its third completed replay task (each shard is persisted
    // before its progress tick, so the kill point bounds what the
    // store may be missing).
    constexpr std::uint64_t kill_after = 3;
    EXPECT_EXIT(
        {
            obs::Progress progress(
                taskCount(),
                [](std::uint64_t done, std::uint64_t) {
                    if (done >= kill_after)
                        ::_exit(42);
                },
                taskCount());
            obs::Observation observation;
            observation.progress = &progress;
            (void)sweep.run(benchmarkParams(BenchmarkId::Mab), OsKind::Mach,
                            storeRun(dir, 1), &observation);
        },
        testing::ExitedWithCode(42), "");

    // The kill left a partial store: the completed shards, and not
    // the full set.
    const std::size_t partial = storeEntries(dir).size();
    EXPECT_GE(partial, kill_after);
    EXPECT_LT(partial, taskCount());

    obs::Observation resumed_obs;
    const SweepResult resumed = sweep.run(benchmarkParams(BenchmarkId::Mab),
                                          OsKind::Mach, storeRun(dir, 1),
                                          &resumed_obs);
    expectSameSweepResult(live, resumed);
    // The resume records once, skips every persisted shard...
    EXPECT_EQ(resumed_obs.metrics.counter("sweep/records"), 1u);
    EXPECT_GE(resumed_obs.metrics.counter("store/hits"), kill_after);
    // ...and persists only what the kill lost.
    EXPECT_EQ(resumed_obs.metrics.counter("store/writes"),
              taskCount() - partial);

    // After the resume the store is complete, also for 4 threads.
    obs::Observation warm_obs;
    const SweepResult warm = sweep.run(benchmarkParams(BenchmarkId::Mab),
                                       OsKind::Mach, storeRun(dir, 4),
                                       &warm_obs);
    expectSameSweepResult(live, warm);
    EXPECT_EQ(warm_obs.metrics.counter("store/misses"), 0u);
    fs::remove_all(dir);
}

TEST(StoreSweep, DeletedSlotShardFetchesTheTraceOnceAndWritesOnlyIt)
{
    const ComponentSweep sweep = sweepUnderTest();
    const SweepResult live = sweep.run(benchmarkParams(BenchmarkId::Mab),
                                       OsKind::Mach, storeRun("", 1));
    for (unsigned threads : {1u, 4u}) {
        SCOPED_TRACE(threads);
        const std::string dir = freshStoreDir("deleted_shard");
        (void)sweep.run(benchmarkParams(BenchmarkId::Mab), OsKind::Mach,
                        storeRun(dir, threads));
        const fs::path shard = entryWithKey(
            dir, {"artifact=5:shard", "component=6:icache", "index=1"});
        ASSERT_TRUE(fs::remove(shard));

        obs::Observation observation;
        const SweepResult result =
            sweep.run(benchmarkParams(BenchmarkId::Mab), OsKind::Mach,
                      storeRun(dir, threads), &observation);
        expectSameSweepResult(live, result);
        const obs::MetricRegistry &m = observation.metrics;
        // One record (recordings are not stored), one one-pass slot.
        EXPECT_EQ(m.counter("sweep/records"), 1u);
        EXPECT_EQ(m.counter("sweep/trace_fetch_skips"), 0u);
        EXPECT_EQ(m.counter("replay/onepass_slots"), 1u);
        EXPECT_EQ(m.counter("store/hits"), taskCount() - 1);
        EXPECT_EQ(m.counter("store/misses"), 1u);
        EXPECT_EQ(m.counter("store/writes"), 1u);
        EXPECT_TRUE(fs::exists(shard));
        fs::remove_all(dir);
    }
}

TEST(StoreSweep, UnreadableMachineShardFetchesTheTraceAndRewritesIt)
{
    // The machine shard stands in for the recording on a fully warm
    // sweep. Deleted, failing its checksum, or in the earlier
    // seven-counter format (checksum-valid but undecodable), it is a
    // miss: the trace is recorded, the machine replayed and its shard
    // rewritten, and the next run skips the record again.
    const ComponentSweep sweep = sweepUnderTest();
    const SweepResult live = sweep.run(benchmarkParams(BenchmarkId::Mab),
                                       OsKind::Mach, storeRun("", 1));
    for (const std::string mode : {"deleted", "corrupt", "old-format"}) {
        for (unsigned threads : {1u, 4u}) {
            SCOPED_TRACE(mode + " machine shard, threads " +
                         std::to_string(threads));
            const std::string dir = freshStoreDir("machine");
            (void)sweep.run(benchmarkParams(BenchmarkId::Mab), OsKind::Mach,
                            storeRun(dir, threads));
            const fs::path machine = machineEntry(dir);
            if (mode == "deleted") {
                ASSERT_TRUE(fs::remove(machine));
            } else if (mode == "corrupt") {
                corruptEntry(machine);
            } else {
                // Rewrite the entry with only the first seven counters
                // of its payload (40-byte header, key text, payload).
                std::ifstream f(machine, std::ios::binary);
                const std::string bytes(
                    (std::istreambuf_iterator<char>(f)),
                    std::istreambuf_iterator<char>());
                const std::size_t payload_bytes = 10 * 8;
                const std::size_t header_bytes = 40;
                ASSERT_GT(bytes.size(), header_bytes + payload_bytes);
                const std::string key_text = bytes.substr(
                    header_bytes,
                    bytes.size() - header_bytes - payload_bytes);
                const std::string old_payload =
                    bytes.substr(bytes.size() - payload_bytes, 7 * 8);
                f.close();
                ArtifactStore::writeEntryFile(machine.string(), key_text,
                                              old_payload);
            }

            obs::Observation observation;
            const SweepResult result =
                sweep.run(benchmarkParams(BenchmarkId::Mab), OsKind::Mach,
                          storeRun(dir, threads), &observation);
            expectSameSweepResult(live, result);
            const obs::MetricRegistry &m = observation.metrics;
            EXPECT_EQ(m.counter("sweep/records"), 1u);
            EXPECT_EQ(m.counter("sweep/trace_fetch_skips"), 0u);
            EXPECT_EQ(m.counter("store/quarantined"),
                      mode == "corrupt" ? 1u : 0u);
            // Only the machine shard is rewritten; no slot replays.
            EXPECT_EQ(m.counter("store/writes"), 1u);
            EXPECT_EQ(m.counter("replay/onepass_slots"), 0u);
            EXPECT_EQ(m.counter("replay/per_config_slots"), 0u);

            obs::Observation next_obs;
            const SweepResult next =
                sweep.run(benchmarkParams(BenchmarkId::Mab), OsKind::Mach,
                          storeRun(dir, threads), &next_obs);
            expectSameSweepResult(live, next);
            EXPECT_EQ(next_obs.metrics.counter("sweep/trace_fetch_skips"),
                      1u);
            EXPECT_EQ(next_obs.metrics.counter("sweep/records"), 0u);
            EXPECT_EQ(next_obs.metrics.counter("store/misses"), 0u);
            fs::remove_all(dir);
        }
    }
}

TEST(StoreSweep, DeletedTraceWithEveryShardPresentDoesNotRecord)
{
    const ComponentSweep sweep = sweepUnderTest();
    const SweepResult live = sweep.run(benchmarkParams(BenchmarkId::Mab),
                                       OsKind::Mach, storeRun("", 1));
    for (unsigned threads : {1u, 4u}) {
        SCOPED_TRACE(threads);
        const std::string dir = freshStoreDir("deleted_trace");
        (void)sweep.run(benchmarkParams(BenchmarkId::Mab), OsKind::Mach,
                        storeRun(dir, threads));
        // The cold run stored no recording: there is none to delete.
        ASSERT_TRUE(traceEntries(dir).empty());

        obs::Observation observation;
        const SweepResult result =
            sweep.run(benchmarkParams(BenchmarkId::Mab), OsKind::Mach,
                      storeRun(dir, threads), &observation);
        expectSameSweepResult(live, result);
        const obs::MetricRegistry &m = observation.metrics;
        EXPECT_EQ(m.counter("sweep/records"), 0u);
        EXPECT_EQ(m.counter("sweep/record_skips"), 1u);
        EXPECT_EQ(m.counter("sweep/trace_fetch_skips"), 1u);
        EXPECT_EQ(m.counter("store/misses"), 0u);
        EXPECT_EQ(m.counter("store/writes"), 0u);
        fs::remove_all(dir);
    }
}

TEST(StoreSweep, ColdSweepStoresOnlyShards)
{
    // One shard per task and nothing else: together they weigh less
    // than the one recording the sweep made and did not store.
    const ComponentSweep sweep = sweepUnderTest();
    const std::string dir = freshStoreDir("shards_only");
    const RunConfig rc = storeRun(dir, 2);
    obs::Observation observation;
    (void)sweep.run(benchmarkParams(BenchmarkId::Mab), OsKind::Mach, rc,
                    &observation);
    EXPECT_EQ(observation.metrics.counter("sweep/records"), 1u);
    EXPECT_EQ(observation.metrics.counter("store/writes"), taskCount());
    EXPECT_EQ(storeEntries(dir).size(), taskCount());
    EXPECT_EQ(entriesWithKey(dir, {"artifact=5:shard"}).size(),
              taskCount());
    EXPECT_TRUE(traceEntries(dir).empty());

    System system(benchmarkParams(BenchmarkId::Mab), OsKind::Mach,
                  rc.seed);
    const std::string encoded =
        store::encodeTrace(system.record(rc.references));
    EXPECT_LT(storeBytes(dir), encoded.size());
    fs::remove_all(dir);
}

TEST(StoreSweep, StoredTraceFromAnEarlierEngineIsNeverRead)
{
    // A store written while recordings were still stored holds one
    // under the base key plus `artifact=trace`. The shard keys are
    // unchanged, so such a store is served fully warm; where a shard
    // is missing the sweep records rather than reading the old entry.
    const ComponentSweep sweep = sweepUnderTest();
    for (unsigned threads : {1u, 4u}) {
        SCOPED_TRACE(threads);
        const std::string dir = freshStoreDir("orphan_trace");
        const RunConfig rc = storeRun(dir, threads);
        const SweepResult live = sweep.run(benchmarkParams(BenchmarkId::Mab),
                                           OsKind::Mach, storeRun("", threads));
        (void)sweep.run(benchmarkParams(BenchmarkId::Mab), OsKind::Mach, rc);
        {
            System system(benchmarkParams(BenchmarkId::Mab), OsKind::Mach,
                          rc.seed);
            ArtifactStore(dir).put(
                historicalTraceKey(BenchmarkId::Mab, OsKind::Mach, rc),
                store::encodeTrace(system.record(rc.references)));
        }
        ASSERT_EQ(traceEntries(dir).size(), 1u);

        obs::Observation warm_obs;
        const SweepResult warm = sweep.run(benchmarkParams(BenchmarkId::Mab),
                                           OsKind::Mach, rc, &warm_obs);
        expectSameSweepResult(live, warm);
        EXPECT_EQ(warm_obs.metrics.counter("sweep/records"), 0u);
        EXPECT_EQ(warm_obs.metrics.counter("sweep/trace_fetch_skips"), 1u);
        EXPECT_EQ(warm_obs.metrics.counter("store/hits"), taskCount());
        EXPECT_EQ(warm_obs.metrics.counter("store/misses"), 0u);
        EXPECT_EQ(warm_obs.metrics.counter("store/writes"), 0u);

        ASSERT_TRUE(fs::remove(entryWithKey(
            dir, {"artifact=5:shard", "component=6:dcache", "index=0"})));
        obs::Observation miss_obs;
        const SweepResult partial = sweep.run(
            benchmarkParams(BenchmarkId::Mab), OsKind::Mach, rc, &miss_obs);
        expectSameSweepResult(live, partial);
        EXPECT_EQ(miss_obs.metrics.counter("sweep/records"), 1u);
        // Only shard reads: the stored recording is not even looked up.
        EXPECT_EQ(miss_obs.metrics.counter("store/hits"), taskCount() - 1);
        EXPECT_EQ(miss_obs.metrics.counter("store/misses"), 1u);
        EXPECT_EQ(miss_obs.metrics.counter("store/writes"), 1u);
        EXPECT_EQ(traceEntries(dir).size(), 1u);
        fs::remove_all(dir);
    }
}

TEST(StoreSweep, ResumedSweepRecordsOnceAtAnyThreadCount)
{
    // A serial sweep killed after its third completed task leaves the
    // same partial store every time; resuming it at 1 or 4 lanes
    // records exactly once, writes only the missing shards and
    // matches the live result bitwise.
    const ComponentSweep sweep = sweepUnderTest();
    const SweepResult live = sweep.run(benchmarkParams(BenchmarkId::Mab),
                                       OsKind::Mach, storeRun("", 1));
    constexpr std::uint64_t kill_after = 3;
    for (unsigned threads : {1u, 4u}) {
        SCOPED_TRACE(threads);
        const std::string dir = freshStoreDir("resume_lanes");
        EXPECT_EXIT(
            {
                obs::Progress progress(
                    taskCount(),
                    [](std::uint64_t done, std::uint64_t) {
                        if (done >= kill_after)
                            ::_exit(42);
                    },
                    taskCount());
                obs::Observation observation;
                observation.progress = &progress;
                (void)sweep.run(benchmarkParams(BenchmarkId::Mab),
                                OsKind::Mach, storeRun(dir, 1),
                                &observation);
            },
            testing::ExitedWithCode(42), "");
        const std::size_t partial = storeEntries(dir).size();
        ASSERT_GE(partial, kill_after);
        ASSERT_LT(partial, taskCount());

        obs::Observation observation;
        const SweepResult resumed =
            sweep.run(benchmarkParams(BenchmarkId::Mab), OsKind::Mach,
                      storeRun(dir, threads), &observation);
        expectSameSweepResult(live, resumed);
        const obs::MetricRegistry &m = observation.metrics;
        EXPECT_EQ(m.counter("sweep/records"), 1u);
        EXPECT_EQ(m.counter("sweep/record_skips"), 0u);
        EXPECT_EQ(m.counter("store/hits"), partial);
        EXPECT_EQ(m.counter("store/writes"), taskCount() - partial);
        EXPECT_EQ(storeEntries(dir).size(), taskCount());
        EXPECT_TRUE(traceEntries(dir).empty());
        fs::remove_all(dir);
    }
}

} // namespace
} // namespace oma
