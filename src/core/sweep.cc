/**
 * @file
 * Implementation of component sweeps.
 */

#include "core/sweep.hh"

#include <array>
#include <map>
#include <memory>
#include <optional>
#include <utility>

#include "obs/export.hh"
#include "store/codec.hh"
#include "support/clock.hh"
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
 * Run @p fn, adding its wall time to gauge "time_ms/<name>" of
 * @p metrics when non-null. No call is counted: work done in steps
 * (one per wave) counts its one call where it finishes.
 */
template <typename Fn>
void
timeStep(obs::MetricRegistry *metrics, const std::string &name, Fn &&fn)
{
    if (metrics == nullptr) {
        fn();
        return;
    }
    const std::int64_t start = Clock::nowNs();
    fn();
    metrics->accumulate("time_ms/" + name,
                        Clock::toMs(Clock::nowNs() - start));
}

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

    // Record the stream only when some shard missed, one window per
    // replay wave on that wave's producer lane. Windows are recorded
    // in stream order from one System, so the workload RNG and the OS
    // model advance exactly as in a legacy single-pass run, and
    // page-invalidation events land inline at the index of the
    // reference the OS fired them while producing, which is where
    // every replay applies them. The recording is never stored:
    // re-recording costs about what reading, checking and decoding a
    // stored one would (docs/MODEL.md §10).
    constexpr std::uint64_t window_refs = RecordedTrace::chunkRefs;
    std::optional<System> system;
    WindowSource source;
    source.windows = std::size_t(std::max<std::uint64_t>(
        1, (run.references + window_refs - 1) / window_refs));
    source.fill = [&](std::size_t k, RecordedTrace &buffer,
                      obs::MetricRegistry *metrics)
        -> const RecordedTrace & {
        const std::uint64_t begin = std::uint64_t(k) * window_refs;
        timeStep(metrics, "sweep/record", [&] {
            if (!system)
                system.emplace(workload, os, run.seed);
            buffer.restart(begin);
            system->recordInto(
                buffer, std::min(window_refs, run.references - begin));
        });
        if (k == 0 && metrics != nullptr) {
            metrics->add("calls/sweep/record");
            metrics->add("sweep/records");
        }
        return buffer;
    };

    SweepResult result =
        replayTrace(source, ThreadPool::resolveThreads(run.threads),
                    observation, store.get(), base);
    if (observation != nullptr && !system) {
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
    // The whole recording is the one window; there is nothing to
    // produce.
    WindowSource source;
    source.fill = [&](std::size_t, RecordedTrace &,
                      obs::MetricRegistry *) -> const RecordedTrace & {
        return trace;
    };
    return replayTrace(source, ThreadPool::resolveThreads(threads),
                       observation, nullptr, Fingerprint());
}

SweepResult
ComponentSweep::replayTrace(const WindowSource &source, unsigned threads,
                            obs::Observation *observation,
                            const ArtifactStore *store,
                            const Fingerprint &base_key) const
{
    // Phase A gives the reference machine and every component slot
    // its one store read (exact integer counters, so a hit reproduces
    // the live slot bit-for-bit). The machine shard also carries the
    // recording's reference and event counts and otherCpi, so when
    // every unit hits the stream is never touched.
    // Only if something missed does phase B run, as waves: one
    // parallelFor per window plus one. In wave k, index 0 produces
    // window k into the idle one of two buffers while every other
    // index steps one replay task over window k − 1 (in wave 0, builds
    // its simulators instead). A task's simulators live across waves
    // and see the whole stream in order; each task writes only its
    // own slots' results, so the reduction order is fixed by
    // construction and the results are bitwise identical for any
    // thread count. Slots the one-pass engine scores exactly
    // (onePassEligible: LRU write-through write-allocate I-/D-caches)
    // are grouped by (kind, line size) into one task that streams
    // through a Cheetah engine; every other slot streams the packed
    // trace columns through its own simulator's access body
    // (core/component.hh). In the last wave each task persists its
    // shards and then ticks progress — which is what makes a killed
    // sweep resume from its persisted shards.
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

    // Per-unit metric shards (index 0 = reference machine, 1 + s =
    // slot s, then the producer's): each lane writes only its own
    // item's shard, so the post-loop merge (in that order) is a pure
    // function of the work — never of the schedule or lane count.
    std::vector<obs::MetricRegistry> shards(
        observation != nullptr ? 2 + n_slots : 0);
    obs::MetricRegistry *const producer_metrics =
        observation != nullptr ? &shards.back() : nullptr;

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

    // Phase B task plan over the missing units, heaviest first: the
    // reference machine (when missing), then one task per one-pass
    // group of missing slots (in order of the group's first slot),
    // then every other missing slot as a task of its own. A task's
    // simulators are built in its first wave.
    struct ReplayTask
    {
        std::vector<std::size_t> slots; //!< Empty: the machine.
        bool onePass = false;
        std::unique_ptr<Machine> machine;
        std::unique_ptr<OnePassReplayer> group;
        std::unique_ptr<ComponentReplayer> component;
    };
    std::vector<ReplayTask> tasks;
    const auto planTasks = [&] {
        if (!hit[0])
            tasks.emplace_back();
        std::vector<std::size_t> per_config;
        std::map<std::pair<ComponentKind, std::uint64_t>, std::size_t>
            group_task;
        for (std::size_t s = 0; s < n_slots; ++s) {
            if (hit[1 + s])
                continue;
            const ComponentSlot &slot = _slots[s];
            if (!onePassEligible(slot)) {
                per_config.push_back(s);
                continue;
            }
            const auto [it, fresh] = group_task.emplace(
                std::make_pair(
                    slot.kind,
                    std::get<CacheParams>(slot.params).geom.lineBytes),
                tasks.size());
            if (fresh)
                tasks.emplace_back().onePass = true;
            tasks[it->second].slots.push_back(s);
        }
        for (const std::size_t s : per_config)
            tasks.emplace_back().slots = {s};
    };

    // Pass-level metrics of a one-pass task land in its first derived
    // slot's shard.
    const auto groupMetrics = [&](const ReplayTask &t) {
        return observation != nullptr ? &shards[1 + t.slots.front()]
                                      : nullptr;
    };

    const auto buildTask = [&](ReplayTask &t) {
        if (t.slots.empty()) {
            // Reference machine replay: stall attribution for the
            // configuration-independent CPI components. A shard that
            // failed to decode may have left partial fields behind.
            t.machine = std::make_unique<Machine>(_refMachine);
            machine_shard = store::MachineShard();
        } else if (t.onePass) {
            // One pass derives every missing slot of the group.
            std::vector<CacheGeometry> geoms;
            for (const std::size_t s : t.slots)
                geoms.push_back(
                    std::get<CacheParams>(_slots[s].params).geom);
            t.group = std::make_unique<OnePassReplayer>(
                _slots[t.slots.front()].kind, std::move(geoms));
        } else {
            t.component =
                makeComponent(_slots[t.slots.front()], _refMachine);
        }
    };

    const auto stepTask = [&](ReplayTask &t,
                              const RecordedTrace &window) {
        if (t.machine != nullptr) {
            Machine &machine = *t.machine;
            window.replay(
                [&](const MemRef &ref) { machine.observe(ref); },
                [&](const TraceEvent &e) {
                    machine.mmu().invalidatePage(e.vpn, e.asid,
                                                 e.global);
                });
            machine_shard.references += window.size();
            machine_shard.events += window.events().size();
            machine_shard.otherCpi = window.otherCpi();
        } else if (t.group != nullptr) {
            timeStep(groupMetrics(t), "sweep/replay/onepass",
                     [&] { t.group->replay(window); });
        } else {
            replayComponent(window, *t.component);
        }
    };

    const auto finishTask = [&](ReplayTask &t) {
        if (t.machine != nullptr) {
            const Machine &machine = *t.machine;
            store::MachineShard &shard = machine_shard;
            shard.instructions = machine.stalls().instructions;
            shard.icacheStall = machine.stalls().icacheStall;
            shard.dcacheStall = machine.stalls().dcacheStall;
            shard.wbStall = machine.stalls().wbStall;
            shard.tlbStall = machine.stalls().tlbStall;
            shard.wbStores = machine.writeBuffer().stores();
            shard.wbStallCycles = machine.writeBuffer().stallCycles();
            saveShard(keys[0], store::encodeMachineShard(shard));
            finishMachine();
        } else if (t.group != nullptr) {
            if (obs::MetricRegistry *m = groupMetrics(t)) {
                m->add("calls/sweep/replay/onepass");
                m->add("replay/onepass_passes");
                m->add("replay/onepass_slots", t.slots.size());
                m->add("replay/batched_refs", t.group->delivered());
            }
            const std::vector<CacheStats> stats = t.group->stats();
            for (std::size_t i = 0; i < t.slots.size(); ++i) {
                result._stats[t.slots[i]] = stats[i];
                saveShard(keys[1 + t.slots[i]],
                          encodeComponentCounters(stats[i]));
                finishSlot(t.slots[i]);
            }
        } else {
            const std::size_t s = t.slots.front();
            result._stats[s] = t.component->counters();
            saveShard(keys[1 + s],
                      encodeComponentCounters(result._stats[s]));
            if (observation != nullptr) {
                shards[1 + s].add("replay/batched_refs",
                                  t.component->delivered());
                shards[1 + s].add("replay/per_config_slots");
            }
            finishSlot(s);
        }
        t.machine.reset();
        t.group.reset();
        t.component.reset();
    };

    // Window k lives in buffers[k % 2] (or is the source's own
    // recording): the producer of wave k writes the buffer the tasks
    // of wave k read one wave later, never the one they step now.
    const std::size_t last_wave = source.windows;
    std::array<RecordedTrace, 2> buffers;
    std::array<const RecordedTrace *, 2> windows{};
    std::size_t wave = 0;
    const auto waveItem = [&](std::size_t i) {
        if (i == 0) {
            if (wave < last_wave)
                windows[wave % 2] = &source.fill(
                    wave, buffers[wave % 2], producer_metrics);
            return;
        }
        ReplayTask &t = tasks[i - 1];
        if (wave == 0)
            buildTask(t);
        else
            stepTask(t, *windows[(wave - 1) % 2]);
        if (wave == last_wave)
            finishTask(t);
    };

    ThreadPool pool(threads);
    const auto replayWaves = [&] {
        planTasks();
        if (tasks.empty())
            return;
        for (wave = 0; wave <= last_wave; ++wave)
            pool.parallelFor(0, 1 + tasks.size(), waveItem);
        if (observation != nullptr)
            observation->metrics.add("sweep/waves", last_wave + 1);
    };

    if (observation != nullptr) {
        obs::MetricRegistry &m = observation->metrics;
        if (store != nullptr) {
            obs::Span span(m, "sweep/load_shards");
            pool.parallelFor(0, 1 + n_slots, load);
        }
        {
            obs::Span span(m, "sweep/replay");
            replayWaves();
        }
        obs::exportThreadPool(m, "threadpool", pool);
        for (const obs::MetricRegistry &shard : shards)
            m.merge(shard);
        obs::exportRecordedTrace(m, "trace", machine_shard.references,
                                 machine_shard.events);
        m.add("sweep/replays");
    } else {
        if (store != nullptr)
            pool.parallelFor(0, 1 + n_slots, load);
        replayWaves();
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
