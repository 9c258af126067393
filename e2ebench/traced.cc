/**
 * @file
 * The traced run: the same steps as the timed run, each answered
 * twice — once by api::QueryEngine (the reference, with an
 * obs::Observation attached for the program's own counters) and once
 * composed layer by layer from the modules' public functions, timing
 * every call from here:
 *
 *   decodeRequest -> responseKey -> store get (response)
 *   cold:   System::record -> store::encodeTrace -> store put
 *           -> QueryEngine::replay (ComponentSweep) -> shard puts
 *   rerank: store get -> store::decodeTrace -> shard gets
 *   -> ComponentCpiTables::average -> SearchSpace -> strategy search
 *   -> encodeResponse -> store put (response)
 *   warm:   decodeRequest -> responseKey -> store get, per distinct line
 *
 * The composed answer must be byte-identical to the engine's, which
 * proves the spans describe the work the engine does. The composed
 * path keeps its own store ("mirror") with the same payloads the
 * engine stores today. Store operation counts and bytes come from the
 * engine's step itself: its store statistics, the sweep's exported
 * store counters and the process's read/write byte counts.
 */

#include <algorithm>
#include <cmath>
#include <fstream>
#include <map>
#include <memory>

#include "api/query_engine.hh"
#include "area/mqf.hh"
#include "bench.hh"
#include "core/component.hh"
#include "core/search_strategy.hh"
#include "core/sweep.hh"
#include "store/codec.hh"
#include "workload/system.hh"

namespace e2e
{

namespace
{

using oma::api::AllocationRequest;
using oma::api::QueryEngine;

/** Per-layer metric names and units, in print order. Times are
 * totals per timed step (one query; one batch on warm). */
const std::vector<std::pair<std::string, std::string>> layerMetrics = {
    {"workload.record_ms", "ms"},
    {"trace.encode_ms", "ms"},
    {"trace.decode_ms", "ms"},
    {"trace.bytes_per_ref", "B/ref"},
    {"store.put_ms", "ms"},
    {"store.get_ms", "ms"},
    {"store.response_get_us", "us"},
    {"store.puts", "count"},
    {"store.gets", "count"},
    {"store.bytes_written", "B"},
    {"store.bytes_read", "B"},
    {"replay.wall_ms", "ms"},
    {"replay.icache_ms", "ms"},
    {"replay.dcache_ms", "ms"},
    {"replay.tlb_ms", "ms"},
    {"replay.machine_ms", "ms"},
    {"replay.extension_ms", "ms"},
    {"replay.config_refs_per_s", "1/s"},
    {"replay.parallel_efficiency", "ratio"},
    {"sweep.trace_fetch_useful_ratio", "ratio"},
    {"tables.average_ms", "ms"},
    {"search.space_build_ms", "ms"},
    {"search.rank_ms", "ms"},
    {"search.evaluations", "count"},
    {"search.pruned_subspaces", "count"},
    {"search.evaluations_per_in_budget", "ratio"},
    {"api.decode_request_us", "us"},
    {"api.response_key_us", "us"},
    {"api.encode_response_us", "us"},
    {"api.dedup_ratio", "ratio"},
    {"api.batch_speedup", "ratio"},
    {"traced.engine_ms", "ms"},
    {"traced.unattributed_ms", "ms"},
    {"traced.overhead_frac", "ratio"},
};

/** Time spans whose sum is the step's attributed time. */
const std::vector<std::pair<std::string, double>> spanScales = {
    {"workload.record_ms", 1.0},   {"trace.encode_ms", 1.0},
    {"trace.decode_ms", 1.0},      {"store.put_ms", 1.0},
    {"store.get_ms", 1.0},         {"store.response_get_us", 1e-3},
    {"replay.wall_ms", 1.0},       {"tables.average_ms", 1.0},
    {"search.space_build_ms", 1.0}, {"search.rank_ms", 1.0},
    {"api.decode_request_us", 1e-3}, {"api.response_key_us", 1e-3},
    {"api.encode_response_us", 1e-3},
};

/** One step's layer values, keyed by metric name. */
using Layers = std::map<std::string, double>;

/** Run @p fn and add its duration to @p layers[name] (in ms, or in
 * us when the name ends in "_us"). */
template <class Fn>
auto
span(Layers &layers, const std::string &name, Fn &&fn)
{
    const double scale = name.ends_with("_us") ? 1000.0 : 1.0;
    const double t0 = nowMs();
    struct Stop
    {
        Layers &layers;
        const std::string &name;
        double t0, scale;
        ~Stop() { layers[name] += (nowMs() - t0) * scale; }
    } stop{layers, name, t0, scale};
    return fn();
}

/** Bytes this process has read and written through syscalls. */
std::pair<double, double>
processIo()
{
    std::ifstream io("/proc/self/io");
    std::string key;
    double value = 0, rchar = 0, wchar = 0;
    while (io >> key >> value) {
        if (key == "rchar:")
            rchar = value;
        else if (key == "wchar:")
            wchar = value;
    }
    return {rchar, wchar};
}

/** Mirror-store key of one artifact of @p request's workload @p w. */
oma::Fingerprint
mirrorKey(const AllocationRequest &request, std::size_t w,
          const std::string &artifact)
{
    oma::Fingerprint key;
    key.str("e2ebench.artifact", artifact);
    key.str("os", oma::osKindName(request.os));
    key.u64("seed", request.seed);
    key.u64("references", request.references);
    key.str("workload", oma::benchmarkName(request.workloads[w]));
    return key;
}

/** Every replay shard of @p result as (artifact name, payload): the
 * per-configuration counters plus the reference-machine totals. */
std::vector<std::pair<std::string, std::string>>
shardPayloads(const oma::SweepResult &result)
{
    std::vector<std::pair<std::string, std::string>> shards;
    const auto add = [&](const char *kind, std::size_t i,
                         const oma::ComponentCounters &counters) {
        shards.emplace_back(std::string(kind) + "/" + std::to_string(i),
                            oma::encodeComponentCounters(counters));
    };
    for (std::size_t i = 0; i < result.icacheCount(); ++i)
        add("icache", i, result.icache(i).stats);
    for (std::size_t i = 0; i < result.dcacheCount(); ++i)
        add("dcache", i, result.dcache(i).stats);
    for (std::size_t i = 0; i < result.tlbCount(); ++i)
        add("tlb", i, result.tlb(i).stats);
    for (std::size_t i = 0; i < result.victimCount(); ++i)
        add("victim", i, result.victim(i).stats);
    for (std::size_t i = 0; i < result.writeBufferCount(); ++i)
        add("wbuffer", i, result.writeBuffer(i).stats);
    for (std::size_t i = 0; i < result.hierarchyCount(); ++i)
        add("l2", i, result.hierarchy(i).stats);
    oma::store::MachineShard machine;
    machine.instructions = result.instructions;
    shards.emplace_back("machine", oma::store::encodeMachineShard(machine));
    return shards;
}

/** State the composed path shares across steps. */
struct Mirror
{
    std::unique_ptr<oma::ArtifactStore> store;
    /** Re-rank: the set-up sweep results and their shard keys. */
    std::vector<oma::SweepResult> results;
    std::vector<std::vector<oma::Fingerprint>> shardKeys;
    /** The trace the per-kind replay block measures. */
    oma::RecordedTrace trace0;
    AllocationRequest trace0Request;
};

/** Decode a request line and key it (the api layer's front half). */
bool
frontHalf(const std::string &line, AllocationRequest &request,
          oma::Fingerprint &key, Layers &layers, Tally &tally)
{
    std::string error;
    if (!span(layers, "api.decode_request_us", [&] {
            return oma::api::decodeRequest(line, request, error);
        })) {
        tally.fail("request line does not decode: " + error);
        return false;
    }
    key = span(layers, "api.response_key_us",
               [&] { return request.responseKey(); });
    return true;
}

/** average -> search -> encode -> store: the back half shared by the
 * cold and re-rank compositions. */
std::string
backHalf(const AllocationRequest &request,
         const std::vector<oma::SweepResult> &results,
         const oma::Fingerprint &key, Mirror &mirror, Layers &layers)
{
    const oma::ComponentCpiTables tables =
        span(layers, "tables.average_ms", [&] {
            return oma::ComponentCpiTables::average(
                results, oma::MachineParams::decstation3100());
        });
    const std::unique_ptr<oma::SearchSpace> space =
        span(layers, "search.space_build_ms", [&] {
            return std::make_unique<oma::SearchSpace>(
                tables, oma::AreaModel(), request.budgetRbe,
                request.maxCacheWays);
        });
    oma::SearchResult result = span(layers, "search.rank_ms", [&] {
        if (request.strategy == oma::api::Strategy::Annealing)
            return oma::AnnealingStrategy(request.annealing)
                .search(*space, request.threads);
        return oma::ExhaustiveStrategy().search(*space, request.threads);
    });
    layers["search.evaluations"] += double(result.evaluations);
    layers["search.pruned_subspaces"] += double(result.prunedSubspaces);
    layers["search.evaluations_per_in_budget"] = double(result.evaluations) /
        double(std::max<std::size_t>(1, result.allocations.size()));

    const std::string answer = span(layers, "api.encode_response_us", [&] {
        oma::api::AllocationResponse response;
        response.strategy = request.strategy;
        response.inBudget = result.allocations.size();
        response.candidates = result.candidates;
        response.evaluations = result.evaluations;
        response.prunedSubspaces = result.prunedSubspaces;
        response.baseCpi = tables.baseCpi;
        response.wbCpi = tables.wbCpi;
        response.otherCpi = tables.otherCpi;
        response.allocations = std::move(result.allocations);
        if (request.topK != 0 && response.allocations.size() > request.topK)
            response.allocations.resize(std::size_t(request.topK));
        return oma::api::encodeResponse(response);
    });
    span(layers, "store.put_ms", [&] { mirror.store->put(key, answer); });
    return answer;
}

std::string
composeCold(const QueryEngine &engine, const std::string &line,
            Mirror &mirror, bool keep_trace, Layers &layers, Tally &tally)
{
    AllocationRequest request;
    oma::Fingerprint key;
    if (!frontHalf(line, request, key, layers, tally))
        return {};
    std::string stored;
    if (span(layers, "store.response_get_us",
             [&] { return mirror.store->get(key, stored); }))
        tally.fail("cold composition found a stored answer");

    std::vector<oma::SweepResult> results;
    for (std::size_t w = 0; w < request.workloads.size(); ++w) {
        oma::RecordedTrace trace = span(layers, "workload.record_ms", [&] {
            oma::System system(oma::benchmarkParams(request.workloads[w]),
                               request.os, request.seed);
            return system.record(request.references);
        });
        const std::string payload = span(layers, "trace.encode_ms", [&] {
            return oma::store::encodeTrace(trace);
        });
        layers["trace.bytes"] += double(payload.size());
        layers["trace.refs"] += double(trace.size());
        span(layers, "store.put_ms", [&] {
            mirror.store->put(mirrorKey(request, w, "trace"), payload);
        });
        results.push_back(span(layers, "replay.wall_ms",
                               [&] { return engine.replay(request, trace); }));
        span(layers, "store.put_ms", [&] {
            for (const auto &[name, shard] : shardPayloads(results.back()))
                mirror.store->put(mirrorKey(request, w, name), shard);
        });
        if (keep_trace && w == 0) {
            mirror.trace0 = std::move(trace);
            mirror.trace0Request = request;
        }
    }
    return backHalf(request, results, key, mirror, layers);
}

/** Re-rank set-up for the composition: the engine's set-up results
 * (read warm through QueryEngine::sweep) and the same payloads the
 * engine stores, written to the mirror. */
void
setUpRerankMirror(const QueryEngine &engine, Mirror &mirror)
{
    const AllocationRequest request = rerankSetupRequest();
    mirror.results = engine.sweep(request);
    for (std::size_t w = 0; w < request.workloads.size(); ++w) {
        oma::System system(oma::benchmarkParams(request.workloads[w]),
                           request.os, request.seed);
        oma::RecordedTrace trace = system.record(request.references);
        mirror.store->put(mirrorKey(request, w, "trace"),
                          oma::store::encodeTrace(trace));
        mirror.shardKeys.emplace_back();
        for (const auto &[name, shard] : shardPayloads(mirror.results[w])) {
            mirror.shardKeys.back().push_back(mirrorKey(request, w, name));
            mirror.store->put(mirror.shardKeys.back().back(), shard);
        }
        if (w == 0) {
            mirror.trace0 = std::move(trace);
            mirror.trace0Request = request;
        }
    }
}

std::string
composeRerank(const std::string &line, Mirror &mirror, Layers &layers,
              Tally &tally)
{
    AllocationRequest request;
    oma::Fingerprint key;
    if (!frontHalf(line, request, key, layers, tally))
        return {};
    std::string stored;
    if (span(layers, "store.response_get_us",
             [&] { return mirror.store->get(key, stored); }))
        tally.fail("re-rank composition found a stored answer");

    for (std::size_t w = 0; w < request.workloads.size(); ++w) {
        std::string payload;
        if (!span(layers, "store.get_ms", [&] {
                return mirror.store->get(mirrorKey(request, w, "trace"),
                                         payload);
            }))
            tally.fail("mirror lost a trace");
        layers["trace.bytes"] += double(payload.size());
        oma::RecordedTrace trace;
        if (!span(layers, "trace.decode_ms", [&] {
                return oma::store::decodeTrace(payload, trace);
            }))
            tally.fail("mirror trace does not decode");
        layers["trace.refs"] += double(trace.size());
        span(layers, "store.get_ms", [&] {
            for (const oma::Fingerprint &shard_key : mirror.shardKeys[w])
                if (!mirror.store->get(shard_key, payload))
                    tally.fail("mirror lost a shard");
        });
    }
    return backHalf(request, mirror.results, key, mirror, layers);
}

std::vector<std::string>
composeWarm(const QueryEngine &engine, const std::vector<std::string> &lines,
            Layers &layers, Tally &tally)
{
    std::vector<oma::Fingerprint> keys;
    std::vector<std::string> answers(lines.size());
    std::vector<std::size_t> group_of(lines.size());
    for (std::size_t i = 0; i < lines.size(); ++i) {
        AllocationRequest request;
        oma::Fingerprint key;
        if (!frontHalf(lines[i], request, key, layers, tally))
            return {};
        std::size_t g = 0;
        while (g < keys.size() && keys[g].text() != key.text())
            ++g;
        if (g == keys.size())
            keys.push_back(key);
        group_of[i] = g;
    }
    layers["api.dedup_ratio"] = double(keys.size()) / double(lines.size());
    std::vector<std::string> group_answers(keys.size());
    for (std::size_t g = 0; g < keys.size(); ++g)
        if (!span(layers, "store.response_get_us", [&] {
                return engine.store()->get(keys[g], group_answers[g]);
            }))
            tally.fail("warm composition missed a stored answer");
    for (std::size_t i = 0; i < lines.size(); ++i)
        answers[i] = group_answers[group_of[i]];
    return answers;
}

/**
 * Store traffic of one engine step, measured on the engine itself:
 * operations on its own store plus those of the stores its sweeps
 * opened (exported into @p obs), and the bytes the process read and
 * wrote meanwhile (the step does no other I/O).
 */
void
engineIo(const QueryEngine &engine, const oma::StoreStatsSnapshot &before,
         double read0, double written0, const oma::obs::Observation &obs,
         Layers &layers)
{
    const auto [read1, written1] = processIo();
    const oma::StoreStatsSnapshot after = engine.store()->stats();
    const oma::obs::MetricRegistry &m = obs.metrics;
    layers["store.bytes_read"] = read1 - read0;
    layers["store.bytes_written"] = written1 - written0;
    layers["store.gets"] =
        double(after.hits + after.misses - before.hits - before.misses +
               m.counter("store/hits") + m.counter("store/misses"));
    layers["store.puts"] =
        double(after.writes - before.writes + m.counter("store/writes"));
}

/**
 * The per-kind replay block: one lane per kind over the grid of
 * @p request on @p trace (makeComponent + replayComponent, the body
 * ComponentSweep runs per slot), the reference machine alone, then
 * the whole grid on `lanes` lanes.
 */
void
replayBlock(const QueryEngine &engine, const AllocationRequest &request,
            const oma::RecordedTrace &trace, Layers &out)
{
    const oma::api::SweepGrid grid =
        oma::api::SweepGrid::fromSpace(request.space);
    oma::ComponentSweep full(grid.icacheGeoms, grid.dcacheGeoms,
                             grid.tlbGeoms);
    for (const oma::ComponentSlot &slot : grid.components)
        full.addComponent(slot);

    const oma::MachineParams machine = oma::MachineParams::decstation3100();
    const double t_machine = nowMs();
    (void)oma::ComponentSweep(std::vector<oma::ComponentSlot>{}, machine)
        .run(trace, 1);
    out["replay.machine_ms"] = nowMs() - t_machine;
    double serial = out["replay.machine_ms"];
    for (const oma::ComponentSlot &slot : full.components()) {
        const char *name = slot.kind == oma::ComponentKind::ICache
            ? "replay.icache_ms"
            : slot.kind == oma::ComponentKind::DCache
            ? "replay.dcache_ms"
            : slot.kind == oma::ComponentKind::Tlb ? "replay.tlb_ms"
                                                   : "replay.extension_ms";
        const double t0 = nowMs();
        const std::unique_ptr<oma::ComponentReplayer> component =
            oma::makeComponent(slot, machine);
        (void)oma::replayComponent(trace, *component);
        const double ms = nowMs() - t0;
        out[name] += ms;
        serial += ms;
    }
    const double t0 = nowMs();
    (void)engine.replay(request, trace);
    const double wall = nowMs() - t0;
    out["replay.parallel_efficiency"] = serial / (double(lanes) * wall);
    out["replay.config_refs_per_s"] =
        double(full.components().size() + 1) * double(trace.size()) /
        (wall / 1000.0);
}

} // namespace

std::vector<Metric>
runTraced(const Options &options, Tally &tally)
{
    QueryEngine engine(engineConfig(options.workDir / "engine"));
    Mirror mirror;
    mirror.store =
        std::make_unique<oma::ArtifactStore>((options.workDir / "mirror").string());

    // Set-up, as in the timed run (untimed here).
    std::vector<std::string> pool_lines, recorded;
    std::vector<AllocationRequest> pool;
    if (options.workload == Workload::Rerank) {
        const AllocationRequest request = rerankSetupRequest();
        checkAnswer(request, engine.answer(request), tally);
        setUpRerankMirror(engine, mirror);
    } else if (options.workload == Workload::Warm) {
        pool = warmPool(options.seed);
        for (const AllocationRequest &request : pool) {
            pool_lines.push_back(oma::api::encodeRequest(request));
            recorded.push_back(engine.answerJson(pool_lines.back()));
            checkAnswer(request, recorded.back(), tally);
        }
        const AllocationRequest &first = pool.front();
        oma::System system(oma::benchmarkParams(first.workloads.front()),
                           first.os, first.seed);
        mirror.trace0 = system.record(first.references);
        mirror.trace0Request = first;
    }

    RerankBudgets budgets(options.seed);
    const std::size_t min_steps = digestSteps(options.workload);
    std::vector<Layers> steps;
    const double start = nowMs();
    for (std::size_t i = 0;
         i < min_steps || (nowMs() - start) / 1000.0 < options.seconds; ++i) {
        Layers layers;
        oma::obs::Observation obs;
        const oma::StoreStatsSnapshot before = engine.store()->stats();
        const auto [read0, written0] = processIo();
        std::vector<std::string> engine_answers, composed;
        std::vector<AllocationRequest> requests;
        double engine_ms = 0.0, composed_ms = 0.0;

        if (options.workload == Workload::Warm) {
            const std::vector<std::size_t> picks = warmBatch(options.seed, i);
            std::vector<std::string> lines;
            for (const std::size_t p : picks) {
                lines.push_back(pool_lines[p]);
                requests.push_back(pool[p]);
            }
            double t0 = nowMs();
            engine_answers = engine.answerBatch(lines, &obs);
            engine_ms = nowMs() - t0;
            engineIo(engine, before, read0, written0, obs, layers);
            t0 = nowMs();
            composed = composeWarm(engine, lines, layers, tally);
            composed_ms = nowMs() - t0;
            t0 = nowMs();
            for (std::size_t k = 0; k < lines.size(); ++k)
                if (engine.answerJson(lines[k]) != recorded[picks[k]])
                    tally.fail("sequential warm answer differs");
            layers["api.batch_speedup"] = (nowMs() - t0) / engine_ms;
            for (std::size_t k = 0; k < picks.size(); ++k)
                if (k >= engine_answers.size() ||
                    engine_answers[k] != recorded[picks[k]])
                    tally.fail("warm answer differs from the set-up answer");
        } else {
            const AllocationRequest request =
                options.workload == Workload::Cold
                ? coldRequest(options.seed, i)
                : budgets.next();
            const std::string line = oma::api::encodeRequest(request);
            requests.push_back(request);
            double t0 = nowMs();
            engine_answers.push_back(engine.answerJson(line, &obs));
            engine_ms = nowMs() - t0;
            engineIo(engine, before, read0, written0, obs, layers);
            t0 = nowMs();
            composed.push_back(options.workload == Workload::Cold
                                   ? composeCold(engine, line, mirror, i == 0,
                                                 layers, tally)
                                   : composeRerank(line, mirror, layers, tally));
            composed_ms = nowMs() - t0;
            layers["api.dedup_ratio"] = 1.0;
        }

        for (std::size_t k = 0; k < requests.size(); ++k) {
            checkAnswer(requests[k], engine_answers[k], tally);
            if (k >= composed.size() || composed[k] != engine_answers[k])
                tally.fail("composed answer differs from the engine's");
            if (i < min_steps)
                tally.absorb(engine_answers[k]);
        }

        const oma::obs::MetricRegistry &m = obs.metrics;
        const double fetches = double(m.counter("store/trace_hits"));
        const double replayed = double(m.counter("replay/batched_refs")) /
            double(requests.front().references);
        layers["sweep.trace_fetch_useful_ratio"] =
            fetches == 0.0 ? 1.0 : std::min(fetches, std::floor(replayed)) / fetches;
        if (layers.count("trace.refs") != 0)
            layers["trace.bytes_per_ref"] =
                layers["trace.bytes"] / layers["trace.refs"];

        double attributed = 0.0;
        for (const auto &[name, scale] : spanScales)
            attributed += layers[name] * scale;
        layers["traced.engine_ms"] = engine_ms;
        layers["traced.unattributed_ms"] = engine_ms - attributed;
        layers["traced.overhead_frac"] = composed_ms / engine_ms - 1.0;
        steps.push_back(std::move(layers));
    }

    Layers replay;
    replayBlock(engine, mirror.trace0Request, mirror.trace0, replay);

    std::vector<Metric> metrics;
    for (const auto &[name, unit] : layerMetrics) {
        double value = 0.0;
        if (name.starts_with("replay.") && name != "replay.wall_ms") {
            value = replay[name];
        } else {
            std::vector<double> samples;
            for (Layers &step : steps)
                samples.push_back(step[name]);
            value = percentile(samples, 0.5);
        }
        metrics.push_back({name, value, unit});
    }
    std::printf("info traced %zu steps\n", steps.size());
    return metrics;
}

} // namespace e2e
