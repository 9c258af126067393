/**
 * @file
 * Differential suite for the streamed sweep: a store-backed
 * ComponentSweep records its stream window by window on one pool
 * lane while the other lanes replay the window before it. Its results
 * must be bitwise equal to a sweep of the materialized recording
 * (ComponentSweep::run(const RecordedTrace &), one window) and to the
 * scalar reference (every slot through replayComponentScalar, the
 * reference machine through RecordedTrace::replay), at 1, 2, 3 and 4
 * threads, for the Table 5 grid and ConfigSpace::extended(), at
 * reference counts on both sides of every window boundary.
 *
 * Window mechanics are pinned separately: System::recordInto cuts the
 * stream exactly as one System::record does, with every event inside
 * the window that recorded it; and a stream re-cut into windows, with
 * an event exactly at a window boundary and events past the final
 * reference, replays through every kind of component and the
 * reference machine exactly as the whole recording does.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include <unistd.h>

#include "core/component.hh"
#include "core/search.hh"
#include "core/sweep.hh"
#include "obs/metrics.hh"
#include "workload/system.hh"

namespace oma
{
namespace
{

namespace fs = std::filesystem;

constexpr std::uint64_t chunk = RecordedTrace::chunkRefs;

/** Reference counts on both sides of every window boundary. */
const std::vector<std::uint64_t> referenceCounts = {
    1, chunk - 1, chunk, chunk + 1, 3 * chunk + 17};

// Mab under Mach fires the most page invalidations of the six
// workloads, so its windows carry events.
const WorkloadParams &
workload()
{
    static const WorkloadParams params = benchmarkParams(BenchmarkId::Mab);
    return params;
}

constexpr OsKind os = OsKind::Mach;
constexpr std::uint64_t seed = 42;

/** Bitwise double equality (== would conflate -0.0 and 0.0). */
bool
sameBits(double a, double b)
{
    return std::memcmp(&a, &b, sizeof a) == 0;
}

/** The extended sweep; its first slots are the Table 5 sweep's. */
ComponentSweep
extendedSweep()
{
    const ConfigSpace space = ConfigSpace::extended();
    ComponentSweep sweep(space.cacheGeometries(), space.cacheGeometries(),
                         space.tlbGeometries());
    for (const ComponentSlot &slot : space.extensionSlots())
        sweep.addComponent(slot);
    return sweep;
}

ComponentSweep
table5Sweep()
{
    const ConfigSpace space;
    return ComponentSweep(space.cacheGeometries(), space.cacheGeometries(),
                          space.tlbGeometries());
}

/** Every slot's counters, as store payloads, in slot order (the
 * per-kind views walked in the order the sweep lists its slots). */
std::vector<std::string>
slotPayloads(const ComponentSweep &sweep, const SweepResult &r)
{
    std::vector<std::string> payloads;
    std::vector<std::size_t> next(numComponentKinds, 0);
    for (const ComponentSlot &slot : sweep.components()) {
        const std::size_t i = next[std::size_t(slot.kind)]++;
        ComponentCounters counters;
        switch (slot.kind) {
          case ComponentKind::ICache:
            counters = r.icache(i).stats;
            break;
          case ComponentKind::DCache:
            counters = r.dcache(i).stats;
            break;
          case ComponentKind::Tlb:
            counters = r.tlb(i).stats;
            break;
          case ComponentKind::Victim:
            counters = r.victim(i).stats;
            break;
          case ComponentKind::WriteBuffer:
            counters = r.writeBuffer(i).stats;
            break;
          case ComponentKind::Hierarchy:
            counters = r.hierarchy(i).stats;
            break;
        }
        payloads.push_back(encodeComponentCounters(counters));
    }
    return payloads;
}

/** The scalar reference for one recording: every slot of @p sweep
 * through its own access body one reference at a time, plus the
 * reference machine. */
struct ScalarReference
{
    std::vector<std::string> payloads;
    std::uint64_t instructions = 0;
    std::uint64_t wbStall = 0;
};

ScalarReference
scalarReference(const ComponentSweep &sweep, const RecordedTrace &trace)
{
    ScalarReference ref;
    const MachineParams mp = MachineParams::decstation3100();
    for (const ComponentSlot &slot : sweep.components()) {
        const std::unique_ptr<ComponentReplayer> component =
            makeComponent(slot, mp);
        replayComponentScalar(trace, *component);
        ref.payloads.push_back(
            encodeComponentCounters(component->counters()));
    }
    Machine machine(mp);
    trace.replay([&](const MemRef &r) { machine.observe(r); },
                 [&](const TraceEvent &e) {
                     machine.mmu().invalidatePage(e.vpn, e.asid, e.global);
                 });
    ref.instructions = machine.stalls().instructions;
    ref.wbStall = machine.stalls().wbStall;
    return ref;
}

/** @p got against the scalar reference of @p trace (whose payloads
 * may cover more slots: the Table 5 sweep is the extended sweep's
 * prefix). */
void
expectMatchesReference(const ComponentSweep &sweep, const SweepResult &got,
                       const RecordedTrace &trace,
                       const ScalarReference &ref, const std::string &what)
{
    ASSERT_EQ(got.references, trace.size()) << what;
    ASSERT_EQ(got.instructions, ref.instructions) << what;
    EXPECT_TRUE(sameBits(got.otherCpi, trace.otherCpi())) << what;
    const double instr =
        double(std::max<std::uint64_t>(1, ref.instructions));
    EXPECT_TRUE(sameBits(got.wbCpi, double(ref.wbStall) / instr)) << what;
    const std::vector<std::string> payloads = slotPayloads(sweep, got);
    ASSERT_LE(payloads.size(), ref.payloads.size()) << what;
    for (std::size_t s = 0; s < payloads.size(); ++s)
        ASSERT_EQ(payloads[s], ref.payloads[s])
            << what << " slot " << s << " "
            << sweep.components()[s].describe();
}

RunConfig
storeRun(const std::string &dir, std::uint64_t references,
         unsigned threads)
{
    RunConfig rc;
    rc.references = references;
    rc.seed = seed;
    rc.threads = threads;
    rc.storeDir = dir;
    return rc;
}

std::string
freshStoreDir(const std::string &name)
{
    ::unsetenv("OMA_STORE_DIR");
    const std::string dir = testing::TempDir() + "/oma_streamed_" + name +
        "." + std::to_string(::getpid());
    fs::remove_all(dir);
    return dir;
}

/** One space at every reference count and thread count: the streamed
 * store-backed sweep equals run(trace) and the scalar reference; a
 * warm rerun, served from the machine shard the streamed sweep
 * wrote, reports the recording's references, events and otherCpi. */
void
expectStreamedMatchesMaterialized(const ComponentSweep &sweep,
                                  const std::string &name)
{
    const ComponentSweep reference_sweep = extendedSweep();
    for (const std::uint64_t n : referenceCounts) {
        SCOPED_TRACE(name + " refs " + std::to_string(n));
        const RecordedTrace trace = System(workload(), os, seed).record(n);
        ASSERT_EQ(trace.size(), n);
        const ScalarReference ref = scalarReference(reference_sweep, trace);
        for (const unsigned threads : {1u, 2u, 3u, 4u}) {
            SCOPED_TRACE(threads);
            const SweepResult materialized = sweep.run(trace, threads);
            expectMatchesReference(sweep, materialized, trace, ref,
                                   "materialized");

            const std::string dir = freshStoreDir(name);
            obs::Observation cold_obs;
            const SweepResult streamed = sweep.run(
                workload(), os, storeRun(dir, n, threads), &cold_obs);
            expectMatchesReference(sweep, streamed, trace, ref, "streamed");
            EXPECT_EQ(cold_obs.metrics.counter("sweep/records"), 1u);
            EXPECT_EQ(cold_obs.metrics.counter("sweep/waves"),
                      (n + chunk - 1) / chunk + 1);

            obs::Observation warm_obs;
            const SweepResult warm = sweep.run(
                workload(), os, storeRun(dir, n, threads), &warm_obs);
            EXPECT_EQ(warm_obs.metrics.counter("sweep/records"), 0u);
            EXPECT_EQ(warm_obs.metrics.counter("sweep/waves"), 0u);
            EXPECT_EQ(warm_obs.metrics.counter("trace/references"),
                      trace.size());
            EXPECT_EQ(warm_obs.metrics.counter("trace/events"),
                      trace.events().size());
            expectMatchesReference(sweep, warm, trace, ref, "warm");
            fs::remove_all(dir);
        }
    }
}

TEST(StreamedSweep, Table5MatchesTheMaterializedRecordingAndScalarReplay)
{
    expectStreamedMatchesMaterialized(table5Sweep(), "table5");
}

TEST(StreamedSweep, ExtendedMatchesTheMaterializedRecordingAndScalarReplay)
{
    expectStreamedMatchesMaterialized(extendedSweep(), "extended");
}

TEST(StreamedSweep, WindowsCutTheStreamExactlyAsOneRecord)
{
    for (const std::uint64_t n : referenceCounts) {
        SCOPED_TRACE(n);
        const RecordedTrace whole = System(workload(), os, seed).record(n);

        System system(workload(), os, seed);
        RecordedTrace window;
        std::vector<TraceEvent> events;
        std::uint64_t next = 0;
        for (std::uint64_t begin = 0; begin < n; begin += chunk) {
            window.restart(begin);
            system.recordInto(window, std::min(chunk, n - begin));
            ASSERT_EQ(window.base(), begin);
            ASSERT_EQ(window.size(), std::min(chunk, n - begin));
            // The fill stopped after its last append: every event it
            // recorded precedes one of its own references.
            for (const TraceEvent &e : window.events()) {
                EXPECT_GE(e.index, begin);
                EXPECT_LT(e.index, begin + window.size());
                events.push_back(e);
            }
            for (std::uint64_t i = 0; i < window.size(); ++i, ++next) {
                const MemRef got = window.at(i);
                const MemRef want = whole.at(next);
                ASSERT_EQ(got.vaddr, want.vaddr) << next;
                ASSERT_EQ(got.paddr, want.paddr) << next;
                ASSERT_EQ(got.asid, want.asid) << next;
                ASSERT_EQ(RecordedTrace::packFlags(got),
                          RecordedTrace::packFlags(want))
                    << next;
            }
        }
        EXPECT_EQ(next, n);
        EXPECT_TRUE(sameBits(window.otherCpi(), whole.otherCpi()));
        ASSERT_EQ(events.size(), whole.events().size());
        for (std::size_t e = 0; e < events.size(); ++e) {
            EXPECT_EQ(events[e].index, whole.events()[e].index);
            EXPECT_EQ(events[e].vpn, whole.events()[e].vpn);
            EXPECT_EQ(events[e].asid, whole.events()[e].asid);
            EXPECT_EQ(events[e].global, whole.events()[e].global);
        }
    }
    // The longest stream must carry events for the check to bite.
    EXPECT_GT(System(workload(), os, seed)
                  .record(referenceCounts.back())
                  .events()
                  .size(),
              0u);
}

/** Records the trace index of every event it is handed. */
class EventLog final : public ComponentReplayer
{
  public:
    void access(const MemRef &) override { ++_refs; }
    void replay(const TraceChunkView &chunk) override { _refs += chunk.size; }
    void event(const TraceEvent &e) override { fired.push_back(e.index); }
    [[nodiscard]] bool wantsEvents() const override { return true; }
    [[nodiscard]] ComponentCounters counters() const override
    {
        return CacheStats();
    }
    [[nodiscard]] std::uint64_t delivered() const override { return _refs; }

    std::vector<std::uint64_t> fired;

  private:
    std::uint64_t _refs = 0;
};

/** @p trace cut into windows of chunkRefs references, each event in
 * the window of the reference it precedes; events past the final
 * reference land in the last window. */
std::vector<RecordedTrace>
cutIntoWindows(const RecordedTrace &trace)
{
    std::vector<RecordedTrace> windows;
    std::size_t e = 0;
    const std::vector<TraceEvent> &events = trace.events();
    for (std::uint64_t begin = 0; begin < trace.size(); begin += chunk) {
        RecordedTrace &w = windows.emplace_back();
        w.restart(begin);
        const std::uint64_t end = std::min(trace.size(), begin + chunk);
        for (std::uint64_t i = begin; i < end; ++i) {
            for (; e < events.size() && events[e].index == i; ++e)
                w.recordInvalidation(events[e].vpn, events[e].asid,
                                     events[e].global);
            w.append(trace.at(i));
        }
    }
    for (; e < events.size(); ++e)
        windows.back().recordInvalidation(events[e].vpn, events[e].asid,
                                          events[e].global);
    return windows;
}

TEST(StreamedSweep, EventsAtAWindowBoundaryFireOnceAndPastTheEndNever)
{
    // A real recording two windows and a bit long, with one extra
    // invalidation exactly at each window boundary (of the page the
    // boundary reference touches, so the TLBs feel it) and two past
    // the final reference.
    const RecordedTrace recorded =
        System(workload(), os, seed).record(2 * chunk + 5);
    RecordedTrace trace;
    std::size_t e = 0;
    for (std::uint64_t i = 0; i < recorded.size(); ++i) {
        for (; e < recorded.events().size() &&
             recorded.events()[e].index == i;
             ++e) {
            const TraceEvent &ev = recorded.events()[e];
            trace.recordInvalidation(ev.vpn, ev.asid, ev.global);
        }
        const MemRef ref = recorded.at(i);
        if (i % chunk == 0 && i > 0)
            trace.recordInvalidation(ref.vaddr >> 12, ref.asid, false);
        trace.append(ref);
    }
    trace.recordInvalidation(1, 1, false);
    trace.recordInvalidation(2, 1, true);
    const std::vector<RecordedTrace> windows = cutIntoWindows(trace);
    ASSERT_EQ(windows.size(), 3u);

    // Events fire once each, in order, at their pinned reference;
    // the two past the end never do.
    std::vector<std::uint64_t> want;
    for (const TraceEvent &ev : trace.events())
        if (ev.index < trace.size())
            want.push_back(ev.index);
    ASSERT_EQ(want.size(), trace.events().size() - 2);
    EventLog whole_log, windowed_log;
    replayComponentScalar(trace, whole_log);
    for (const RecordedTrace &w : windows)
        replayComponent(w, windowed_log);
    EXPECT_EQ(whole_log.fired, want);
    EXPECT_EQ(windowed_log.fired, want);
    EXPECT_EQ(windowed_log.delivered(), trace.size());

    // Every kind steps through the windows exactly as the scalar
    // replay of the whole recording goes.
    const MachineParams mp = MachineParams::decstation3100();
    const ComponentSweep sweep = extendedSweep();
    for (const ComponentSlot &slot : sweep.components()) {
        const std::unique_ptr<ComponentReplayer> whole =
            makeComponent(slot, mp);
        const std::unique_ptr<ComponentReplayer> windowed =
            makeComponent(slot, mp);
        replayComponentScalar(trace, *whole);
        for (const RecordedTrace &w : windows)
            replayComponent(w, *windowed);
        ASSERT_EQ(encodeComponentCounters(windowed->counters()),
                  encodeComponentCounters(whole->counters()))
            << slot.describe();
    }
    // One one-pass group per kind: the grid's first and last line
    // sizes.
    const std::vector<CacheGeometry> grid = ConfigSpace().cacheGeometries();
    for (const auto &[line, kind] :
         {std::pair{grid.front().lineBytes, ComponentKind::ICache},
          std::pair{grid.back().lineBytes, ComponentKind::DCache}}) {
        std::vector<CacheGeometry> geoms;
        for (const CacheGeometry &g : grid)
            if (g.lineBytes == line)
                geoms.push_back(g);
        ASSERT_FALSE(geoms.empty());
        OnePassReplayer windowed(kind, geoms);
        for (const RecordedTrace &w : windows)
            windowed.replay(w);
        const std::vector<CacheStats> whole =
            replayOnePass(trace, kind, geoms);
        const std::vector<CacheStats> stepped = windowed.stats();
        ASSERT_EQ(stepped.size(), whole.size());
        for (std::size_t i = 0; i < whole.size(); ++i)
            EXPECT_EQ(encodeComponentCounters(stepped[i]),
                      encodeComponentCounters(whole[i]))
                << geoms[i].describe();
    }
    Machine whole_machine(mp), windowed_machine(mp);
    const auto observe = [](Machine &m) {
        return [&m](const MemRef &r) { m.observe(r); };
    };
    const auto invalidate = [](Machine &m) {
        return [&m](const TraceEvent &ev) {
            m.mmu().invalidatePage(ev.vpn, ev.asid, ev.global);
        };
    };
    trace.replay(observe(whole_machine), invalidate(whole_machine));
    for (const RecordedTrace &w : windows)
        w.replay(observe(windowed_machine), invalidate(windowed_machine));
    EXPECT_EQ(windowed_machine.stalls().instructions,
              whole_machine.stalls().instructions);
    EXPECT_EQ(windowed_machine.stalls().tlbStall,
              whole_machine.stalls().tlbStall);
    EXPECT_EQ(windowed_machine.stalls().icacheStall,
              whole_machine.stalls().icacheStall);
    EXPECT_EQ(windowed_machine.stalls().dcacheStall,
              whole_machine.stalls().dcacheStall);
    EXPECT_EQ(windowed_machine.stalls().wbStall,
              whole_machine.stalls().wbStall);

    // The materialized sweep of the evented stream matches the scalar
    // reference at every thread count.
    const ScalarReference ref = scalarReference(sweep, trace);
    for (const unsigned threads : {1u, 2u, 3u, 4u})
        expectMatchesReference(sweep, sweep.run(trace, threads), trace, ref,
                               "threads " + std::to_string(threads));
}

} // namespace
} // namespace oma
