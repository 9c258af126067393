/**
 * @file
 * Implementation of component sweeps.
 */

#include "core/sweep.hh"

#include <map>
#include <memory>
#include <utility>

#include "obs/export.hh"
#include "store/codec.hh"
#include "support/logging.hh"
#include "support/threadpool.hh"
#include "trace/tracefile.hh"

namespace oma
{

namespace
{

/**
 * Cache parameters for sweep slot @p index of bank @p bank_salt.
 * Every geometry owns a private Rng stream derived from its index, so
 * replacement tie-breaking (Random policy) is a function of the
 * configuration alone, never of which thread replays it or of which
 * other configurations share the run.
 */
CacheParams
sweepCacheParams(const CacheGeometry &geom, std::uint64_t bank_salt,
                 std::size_t index)
{
    CacheParams p;
    p.geom = geom;
    p.seed = mix64((bank_salt << 32) | std::uint64_t(index));
    return p;
}

constexpr std::uint64_t icacheBankSalt = 1;
constexpr std::uint64_t dcacheBankSalt = 2;

/**
 * Fingerprint of everything upstream of the record phase: formats,
 * OS personality, seed, trace length and the complete workload
 * description. Every shard key extends this base, so any change in
 * provenance keys a fresh entry. The trace format version stays in
 * the base although recordings are no longer stored: dropping it
 * would re-key every shard and turn existing stores cold.
 * RunConfig::userOnly is deliberately absent — the sweep path never
 * consults it.
 */
Fingerprint
sweepBaseKey(const WorkloadParams &workload, OsKind os,
             const RunConfig &run)
{
    Fingerprint fp;
    fp.u64("store.format_version", ArtifactStore::formatVersion);
    fp.u64("trace.format_version", TraceFileHeader::currentVersion);
    fp.str("run.os", osKindName(os));
    fp.u64("run.seed", run.seed);
    fp.u64("run.references", run.references);
    workload.fingerprint(fp);
    return fp;
}

} // namespace

ComponentSweep::ComponentSweep(std::vector<CacheGeometry> icache_geoms,
                               std::vector<CacheGeometry> dcache_geoms,
                               std::vector<TlbGeometry> tlb_geoms,
                               const MachineParams &reference_machine)
    : _refMachine(reference_machine)
{
    _slots.reserve(icache_geoms.size() + dcache_geoms.size() +
                   tlb_geoms.size());
    for (std::size_t i = 0; i < icache_geoms.size(); ++i)
        _slots.push_back(ComponentSlot::icache(
            sweepCacheParams(icache_geoms[i], icacheBankSalt, i)));
    for (std::size_t d = 0; d < dcache_geoms.size(); ++d)
        _slots.push_back(ComponentSlot::dcache(
            sweepCacheParams(dcache_geoms[d], dcacheBankSalt, d)));
    for (const TlbGeometry &geom : tlb_geoms) {
        TlbParams p;
        p.geom = geom;
        _slots.push_back(ComponentSlot::tlb(p));
    }
}

ComponentSweep::ComponentSweep(std::vector<ComponentSlot> slots,
                               const MachineParams &reference_machine)
    : _slots(std::move(slots)), _refMachine(reference_machine)
{
}

SweepResult
ComponentSweep::run(const WorkloadParams &workload, OsKind os,
                    const RunConfig &run,
                    obs::Observation *observation) const
{
    const std::unique_ptr<ArtifactStore> store =
        ArtifactStore::open(run.storeDir);
    const Fingerprint base = sweepBaseKey(workload, os, run);

    // Record the stream, at most once and only when the replay phase
    // asks for it (on the calling thread: the metric registry is not
    // thread-safe). Recording is serial: the workload RNG and the OS
    // model advance exactly as in a legacy single-pass run, and
    // page-invalidation events land inline in the recording at the
    // index of the reference the OS fired them while producing, which
    // is where every replay applies them. The recording itself is
    // never stored: re-recording costs about what reading, checking
    // and decoding a stored one would (docs/MODEL.md §10).
    RecordedTrace trace;
    bool fetched = false;
    const auto fetch = [&]() -> const RecordedTrace & {
        fetched = true;
        System system(workload, os, run.seed);
        if (observation != nullptr) {
            obs::Span span(observation->metrics, "sweep/record");
            trace = system.record(run.references);
            observation->metrics.add("sweep/records");
        } else {
            trace = system.record(run.references);
        }
        return trace;
    };

    SweepResult result =
        replayTrace(fetch, ThreadPool::resolveThreads(run.threads),
                    observation, store.get(), base);
    if (observation != nullptr && !fetched) {
        observation->metrics.add("sweep/trace_fetch_skips");
        observation->metrics.add("sweep/record_skips");
    }
    if (store != nullptr && observation != nullptr)
        obs::exportArtifactStore(observation->metrics, "store",
                                 *store);
    return result;
}

SweepResult
ComponentSweep::run(const RecordedTrace &trace, unsigned threads,
                    obs::Observation *observation) const
{
    return replayTrace([&]() -> const RecordedTrace & { return trace; },
                       ThreadPool::resolveThreads(threads), observation,
                       nullptr, Fingerprint());
}

SweepResult
ComponentSweep::replayTrace(const TraceFetch &fetch, unsigned threads,
                            obs::Observation *observation,
                            const ArtifactStore *store,
                            const Fingerprint &base_key) const
{
    // Two parallel phases around at most one trace fetch. Phase A
    // gives the reference machine and every component slot its one
    // store read (exact integer counters, so a hit reproduces the
    // live slot bit-for-bit). The machine shard also carries the
    // recording's reference and event counts and otherCpi, so when
    // every unit hits the trace is never touched; only if something
    // missed is it recorded, once, on the calling thread.
    // Phase B then replays the missing consumers alone: one flat
    // task space keeps every lane busy, each task owns its private
    // simulators and writes only its own slots' results, so the
    // reduction order is fixed by construction and the results are
    // bitwise identical for any thread count. Slots the one-pass engine scores exactly
    // (onePassEligible: LRU write-through write-allocate
    // I-/D-caches) are grouped by (kind, line size) into one task
    // that replays the stream once through a Cheetah engine; every
    // other slot streams the packed trace columns, chunk by chunk,
    // through its own simulator's access body (core/component.hh).
    // Each replayed shard is persisted right after simulating —
    // which is what makes a killed sweep resume at its last
    // completed shard.
    const std::size_t n_slots = _slots.size();

    SweepResult result;
    result._slots = _slots;
    result._stats.resize(n_slots);

    // Per-kind index of each slot: names the store shard and backs
    // the typed per-kind views.
    std::vector<std::size_t> kind_index(n_slots);
    for (std::size_t s = 0; s < n_slots; ++s) {
        const ComponentSlot &slot = _slots[s];
        std::vector<std::size_t> &index =
            result._kindIndex[std::size_t(slot.kind)];
        kind_index[s] = index.size();
        index.push_back(s);
        switch (slot.kind) {
          case ComponentKind::ICache:
            result._icacheGeoms.push_back(
                std::get<CacheParams>(slot.params).geom);
            break;
          case ComponentKind::DCache:
            result._dcacheGeoms.push_back(
                std::get<CacheParams>(slot.params).geom);
            break;
          case ComponentKind::Tlb:
            result._tlbGeoms.push_back(
                std::get<TlbParams>(slot.params).geom);
            break;
          default:
            break;
        }
    }

    // Per-slot metric shards (index 0 = reference machine, 1 + s =
    // slot s): each task writes only its own slots' shards, so the
    // post-loop merge (in slot order) is a pure function of the
    // work — never of the schedule or lane count.
    std::vector<obs::MetricRegistry> shards(
        observation != nullptr ? 1 + n_slots : 0);

    const auto loadShard = [&](const Fingerprint &key,
                               auto decode) -> bool {
        if (store == nullptr)
            return false;
        std::string payload;
        return store->get(key, payload) && decode(payload);
    };
    const auto saveShard = [&](const Fingerprint &key,
                               const std::string &payload) {
        if (store != nullptr)
            store->put(key, payload);
    };
    const auto tick = [&] {
        if (observation != nullptr && observation->progress != nullptr)
            observation->progress->tick();
    };

    // Store keys: index 0 = reference machine, 1 + s = slot s. The
    // shard key reproduces the historical per-kind keys exactly
    // (kind name + per-kind index + parameter fingerprint, plus the
    // TLB handler penalties for TLB slots), so stores written by
    // earlier engines — per-config or one-pass — stay warm.
    std::vector<Fingerprint> keys(1 + n_slots);
    const auto makeKey = [&](std::size_t unit) {
        Fingerprint key = base_key;
        key.str("artifact", "shard");
        if (unit == 0) {
            key.str("component", "machine");
            _refMachine.fingerprint(key);
            return key;
        }
        const std::size_t s = unit - 1;
        const ComponentSlot &slot = _slots[s];
        key.str("component", componentKindName(slot.kind));
        key.u64("index", kind_index[s]);
        slot.fingerprint(key);
        if (slot.kind == ComponentKind::Tlb)
            _refMachine.tlbPenalties.fingerprint(key);
        return key;
    };

    // Record slot s's counters (already in result._stats) and tick.
    const auto finishSlot = [&](std::size_t s) {
        if (observation != nullptr)
            obs::exportComponentCounters(
                shards[1 + s], componentKindName(_slots[s].kind),
                result._stats[s]);
        tick();
    };
    store::MachineShard machine_shard;
    const auto finishMachine = [&] {
        if (observation != nullptr) {
            const store::MachineShard &m = machine_shard;
            const StallCounters stalls{m.instructions, m.icacheStall,
                                       m.dcacheStall, m.wbStall,
                                       m.tlbStall};
            obs::exportStallCounters(shards[0], "machine", stalls);
            obs::exportWriteBufferCounters(shards[0], "wb", m.wbStores,
                                           m.wbStallCycles);
        }
        tick();
    };

    // Phase A (parallel): one store read per unit.
    std::vector<char> hit(1 + n_slots, 0);
    const auto load = [&](std::size_t unit) {
        keys[unit] = makeKey(unit);
        if (unit == 0) {
            hit[0] = loadShard(keys[0], [&](const std::string &p) {
                return store::decodeMachineShard(p, machine_shard);
            });
            if (hit[0])
                finishMachine();
            return;
        }
        const std::size_t s = unit - 1;
        ComponentCounters counters;
        hit[unit] = loadShard(keys[unit], [&](const std::string &p) {
            return decodeComponentCounters(p, _slots[s].kind, counters);
        });
        if (hit[unit]) {
            result._stats[s] = counters;
            finishSlot(s);
        }
    };

    // Phase B task plan over the missing units: the reference
    // machine (when missing) is a task, each one-pass group of
    // missing slots is one task (created where its first slot
    // appears), and every other missing slot is a task of its own.
    struct ReplayTask
    {
        std::vector<std::size_t> slots; //!< Empty: the machine.
        bool onePass = false;
    };
    std::vector<ReplayTask> tasks;
    const auto planTasks = [&] {
        if (!hit[0])
            tasks.push_back({{}, false});
        std::map<std::pair<ComponentKind, std::uint64_t>, std::size_t>
            group_task;
        for (std::size_t s = 0; s < n_slots; ++s) {
            if (hit[1 + s])
                continue;
            const ComponentSlot &slot = _slots[s];
            if (!onePassEligible(slot)) {
                tasks.push_back({{s}, false});
                continue;
            }
            const auto [it, fresh] = group_task.emplace(
                std::make_pair(
                    slot.kind,
                    std::get<CacheParams>(slot.params).geom.lineBytes),
                tasks.size());
            if (fresh)
                tasks.push_back({{}, true});
            tasks[it->second].slots.push_back(s);
        }
    };

    // Null unless something missed.
    const RecordedTrace *trace = nullptr;
    const auto replayMachine = [&] {
        // Reference machine replay: stall attribution for the
        // configuration-independent CPI components.
        Machine machine(_refMachine);
        trace->replay([&](const MemRef &ref) { machine.observe(ref); },
                      [&](const TraceEvent &e) {
                          machine.mmu().invalidatePage(e.vpn, e.asid,
                                                       e.global);
                      });
        store::MachineShard &shard = machine_shard;
        shard.instructions = machine.stalls().instructions;
        shard.icacheStall = machine.stalls().icacheStall;
        shard.dcacheStall = machine.stalls().dcacheStall;
        shard.wbStall = machine.stalls().wbStall;
        shard.tlbStall = machine.stalls().tlbStall;
        shard.wbStores = machine.writeBuffer().stores();
        shard.wbStallCycles = machine.writeBuffer().stallCycles();
        shard.references = trace->size();
        shard.events = trace->events().size();
        shard.otherCpi = trace->otherCpi();
        saveShard(keys[0], store::encodeMachineShard(shard));
        finishMachine();
    };

    const auto replayPerConfig = [&](std::size_t s) {
        const std::unique_ptr<ComponentReplayer> component =
            makeComponent(_slots[s], _refMachine);
        replayComponent(*trace, *component);
        result._stats[s] = component->counters();
        saveShard(keys[1 + s], encodeComponentCounters(result._stats[s]));
        if (observation != nullptr) {
            shards[1 + s].add("replay/batched_refs",
                              component->delivered());
            shards[1 + s].add("replay/per_config_slots");
        }
        finishSlot(s);
    };

    const auto replayGroup = [&](const std::vector<std::size_t> &slots) {
        // One pass derives every missing slot of the group.
        std::vector<CacheGeometry> geoms;
        for (const std::size_t s : slots)
            geoms.push_back(std::get<CacheParams>(_slots[s].params).geom);

        // Pass-level metrics land in the first derived slot's shard.
        obs::MetricRegistry *m =
            observation != nullptr ? &shards[1 + slots.front()]
                                   : nullptr;
        std::unique_ptr<obs::Span> span;
        if (m != nullptr)
            span = std::make_unique<obs::Span>(*m, "sweep/replay/onepass");
        std::uint64_t delivered = 0;
        const std::vector<CacheStats> stats = replayOnePass(
            *trace, _slots[slots.front()].kind, geoms, &delivered);
        span.reset();
        if (m != nullptr) {
            m->add("replay/onepass_passes");
            m->add("replay/onepass_slots", slots.size());
            m->add("replay/batched_refs", delivered);
        }
        for (std::size_t i = 0; i < slots.size(); ++i) {
            result._stats[slots[i]] = stats[i];
            saveShard(keys[1 + slots[i]],
                      encodeComponentCounters(stats[i]));
            finishSlot(slots[i]);
        }
    };

    const auto body = [&](std::size_t task) {
        const ReplayTask &t = tasks[task];
        if (t.slots.empty())
            replayMachine();
        else if (t.onePass)
            replayGroup(t.slots);
        else
            replayPerConfig(t.slots.front());
    };

    // Between the phases, on the calling thread: record the trace if
    // anything missed.
    const auto bridge = [&] {
        planTasks();
        if (!tasks.empty())
            trace = &fetch();
    };

    if (observation != nullptr) {
        // Run on an explicit pool so its work counters can be
        // exported alongside the component metrics.
        obs::MetricRegistry &m = observation->metrics;
        ThreadPool pool(threads);
        if (store != nullptr) {
            obs::Span span(m, "sweep/load_shards");
            pool.parallelFor(0, 1 + n_slots, load);
        }
        bridge();
        {
            obs::Span span(m, "sweep/replay");
            pool.parallelFor(0, tasks.size(), body);
        }
        obs::exportThreadPool(m, "threadpool", pool);
        for (const obs::MetricRegistry &shard : shards)
            m.merge(shard);
        obs::exportRecordedTrace(m, "trace", machine_shard.references,
                                 machine_shard.events);
        m.add("sweep/replays");
    } else {
        if (store != nullptr)
            parallelFor(threads, 0, 1 + n_slots, load);
        bridge();
        parallelFor(threads, 0, tasks.size(), body);
    }

    result.references = machine_shard.references;
    result.otherCpi = machine_shard.otherCpi;
    result.instructions = machine_shard.instructions;
    const double instr =
        double(std::max<std::uint64_t>(1, result.instructions));
    result.wbCpi = double(machine_shard.wbStall) / instr;
    return result;
}

ComponentCpiTables
ComponentCpiTables::average(const std::vector<SweepResult> &results,
                            const MachineParams &mp)
{
    panicIf(results.empty(), "cannot average zero sweep results");
    ComponentCpiTables tables;
    const SweepResult &first = results.front();
    tables.icacheGeoms = first.icacheGeometries();
    tables.dcacheGeoms = first.dcacheGeometries();
    tables.tlbGeoms = first.tlbGeometries();
    tables.icacheCpi.assign(tables.icacheGeoms.size(), 0.0);
    tables.dcacheCpi.assign(tables.dcacheGeoms.size(), 0.0);
    tables.tlbCpi.assign(tables.tlbGeoms.size(), 0.0);

    tables.victimOptions.resize(first.victimCount());
    for (std::size_t i = 0; i < first.victimCount(); ++i)
        tables.victimOptions[i].params = first.victim(i).params;
    tables.wbOptions.resize(first.writeBufferCount());
    for (std::size_t i = 0; i < first.writeBufferCount(); ++i)
        tables.wbOptions[i].params = first.writeBuffer(i).params;
    tables.hierarchyOptions.resize(first.hierarchyCount());
    for (std::size_t i = 0; i < first.hierarchyCount(); ++i)
        tables.hierarchyOptions[i].params = first.hierarchy(i).params;

    double wb = 0.0, other = 0.0;
    for (const auto &r : results) {
        panicIf(r.icacheCount() != tables.icacheGeoms.size() ||
                    r.dcacheCount() != tables.dcacheGeoms.size() ||
                    r.tlbCount() != tables.tlbGeoms.size() ||
                    r.victimCount() != tables.victimOptions.size() ||
                    r.writeBufferCount() != tables.wbOptions.size() ||
                    r.hierarchyCount() !=
                        tables.hierarchyOptions.size(),
                "sweep results built from different component lists");
        for (std::size_t i = 0; i < tables.icacheCpi.size(); ++i)
            tables.icacheCpi[i] += r.icache(i).cpi(mp);
        for (std::size_t i = 0; i < tables.dcacheCpi.size(); ++i)
            tables.dcacheCpi[i] += r.dcache(i).cpi(mp);
        for (std::size_t i = 0; i < tables.tlbCpi.size(); ++i)
            tables.tlbCpi[i] += r.tlb(i).cpi();
        for (std::size_t i = 0; i < tables.victimOptions.size(); ++i)
            tables.victimOptions[i].cpi += r.victim(i).cpi(mp);
        for (std::size_t i = 0; i < tables.wbOptions.size(); ++i)
            tables.wbOptions[i].cpi += r.writeBuffer(i).cpi();
        for (std::size_t i = 0; i < tables.hierarchyOptions.size();
             ++i)
            tables.hierarchyOptions[i].cpi += r.hierarchy(i).cpi();
        wb += r.wbCpi;
        other += r.otherCpi;
    }
    const double n = double(results.size());
    for (auto &v : tables.icacheCpi)
        v /= n;
    for (auto &v : tables.dcacheCpi)
        v /= n;
    for (auto &v : tables.tlbCpi)
        v /= n;
    for (auto &v : tables.victimOptions)
        v.cpi /= n;
    for (auto &v : tables.wbOptions)
        v.cpi /= n;
    for (auto &v : tables.hierarchyOptions)
        v.cpi /= n;
    // Like the paper's Tables 6/7, the total CPI of an allocation is
    // 1 + TLB + I-cache + D-cache; write-buffer and non-memory
    // stalls are configuration-independent and kept separately.
    tables.baseCpi = 1.0;
    tables.wbCpi = wb / n;
    tables.otherCpi = other / n;
    return tables;
}

} // namespace oma
