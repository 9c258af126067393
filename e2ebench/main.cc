/**
 * @file
 * oma_e2ebench: the repository's end-to-end benchmark program.
 *
 *   oma_e2ebench --workload cold|rerank|warm --seed N --seconds S
 *                --trace 0|1 --work-dir DIR
 *   oma_e2ebench --workload W --seed N --print-requests K
 *
 * Drives api::QueryEngine in-process, the engine oma_serve calls per
 * line, as a closed loop from one client. With --trace 0 it times
 * whole steps (a query on cold/rerank, an 8-line answerBatch on warm)
 * and prints the end-to-end metrics; with --trace 1 it composes the
 * same answers layer by layer (traced.cc) and prints the per-layer
 * metrics. Every answer is checked; the last stdout line is one JSON
 * object {correct, attempted, failed, metrics}. Exit status is 0 only
 * when every check passed. NOTES.md explains the workloads.
 */

#include <sys/resource.h>

#include <cstdio>
#include <cstdlib>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "api/query_engine.hh"
#include "bench.hh"

namespace e2e
{

namespace
{

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "oma_e2ebench: %s\n"
                 "usage: oma_e2ebench --workload cold|rerank|warm --seed N "
                 "--seconds S --trace 0|1 --work-dir DIR\n"
                 "       oma_e2ebench --workload W --seed N "
                 "--print-requests K\n",
                 why);
    std::exit(2);
}

std::uint64_t
parseU64(const char *text)
{
    char *end = nullptr;
    const unsigned long long v = std::strtoull(text, &end, 10);
    if (end == text || *end != '\0')
        usage("expected a whole number");
    return v;
}

/** The outcome of the timed part of one run. */
struct Timed
{
    std::vector<double> setupS;
    std::vector<double> stepMs;
    std::uint64_t requests = 0;
    std::uint64_t storeBytes = 0;
};

/** Request lines of timed step i (generated outside the timing). */
using NextLines = std::function<std::vector<std::string>(std::size_t)>;
/** Checks step i's answers (outside the timing); @p digest says
 * whether they feed the digest. */
using CheckAnswers = std::function<void(
    std::size_t, const std::vector<std::string> &, bool digest)>;

/**
 * Set up @p repeats times into fresh stores (each timed: engine
 * construction plus @p populate), keep the last engine, then run
 * closed-loop steps until the run's seconds have passed and at least
 * @p min_steps ran (and, when @p even, an even count: cold steps
 * alternate OS personalities). A step is one engine call: answerJson
 * for a single line, answerBatch for several; only that call is
 * timed.
 */
Timed
closedLoop(const Options &options, int repeats,
           const std::function<void(oma::api::QueryEngine &)> &populate,
           const NextLines &next, const CheckAnswers &check,
           std::size_t min_steps, bool even)
{
    Timed timed;
    std::unique_ptr<oma::api::QueryEngine> engine;
    std::filesystem::path store;
    for (int r = 0; r < repeats; ++r) {
        engine.reset();
        if (!store.empty())
            std::filesystem::remove_all(store);
        store = options.workDir / ("engine-" + std::to_string(r));
        const double t0 = nowMs();
        engine = std::make_unique<oma::api::QueryEngine>(engineConfig(store));
        populate(*engine);
        timed.setupS.push_back((nowMs() - t0) / 1000.0);
    }
    const double start = nowMs();
    for (std::size_t i = 0;; ++i) {
        const bool done = (nowMs() - start) / 1000.0 >= options.seconds &&
            i >= min_steps && (!even || i % 2 == 0);
        if (done)
            break;
        const std::vector<std::string> lines = next(i);
        const double t0 = nowMs();
        const std::vector<std::string> answers = lines.size() == 1
            ? std::vector<std::string>{engine->answerJson(lines.front())}
            : engine->answerBatch(lines);
        timed.stepMs.push_back(nowMs() - t0);
        timed.requests += lines.size();
        check(i, answers, i < digestSteps(options.workload));
        if (i == 0)
            timed.storeBytes = directoryBytes(store);
    }
    return timed;
}

/** Checks single-line steps against the requests @p asked holds. */
CheckAnswers
checkQueries(const std::vector<oma::api::AllocationRequest> &asked,
             Tally &tally)
{
    return [&asked, &tally](std::size_t i,
                            const std::vector<std::string> &answers,
                            bool digest) {
        checkAnswer(asked[i], answers.front(), tally);
        if (digest)
            tally.absorb(answers.front());
    };
}

Timed
runCold(const Options &options, Tally &tally)
{
    // Set-up is engine construction plus one readiness query at a
    // fifth of the reference count: it runs every layer, and its
    // store keys (another trace length) never match a timed query, so
    // every timed query still simulates everything. Engine
    // construction alone takes tens of microseconds, too little to
    // time steadily on a shared machine.
    std::vector<oma::api::AllocationRequest> asked;
    return closedLoop(
        options, 3,
        [&](oma::api::QueryEngine &engine) {
            oma::api::AllocationRequest probe = coldRequest(options.seed, 0);
            probe.references = queryReferences / 5;
            checkAnswer(probe, engine.answer(probe), tally);
        },
        [&](std::size_t i) {
            asked.push_back(coldRequest(options.seed, i));
            return std::vector<std::string>{
                oma::api::encodeRequest(asked.back())};
        },
        checkQueries(asked, tally), 4, true);
}

Timed
runRerank(const Options &options, Tally &tally)
{
    RerankBudgets budgets(options.seed);
    std::vector<oma::api::AllocationRequest> asked;
    return closedLoop(
        options, 2,
        [&](oma::api::QueryEngine &engine) {
            const oma::api::AllocationRequest request = rerankSetupRequest();
            checkAnswer(request,
                        engine.answerJson(oma::api::encodeRequest(request)),
                        tally);
        },
        [&](std::size_t) {
            asked.push_back(budgets.next());
            return std::vector<std::string>{
                oma::api::encodeRequest(asked.back())};
        },
        checkQueries(asked, tally), 4, false);
}

Timed
runWarm(const Options &options, Tally &tally)
{
    const std::vector<oma::api::AllocationRequest> pool =
        warmPool(options.seed);
    std::vector<std::string> lines;
    for (const oma::api::AllocationRequest &request : pool)
        lines.push_back(oma::api::encodeRequest(request));
    std::vector<std::string> recorded(pool.size());
    return closedLoop(
        options, 3,
        [&](oma::api::QueryEngine &engine) {
            for (std::size_t p = 0; p < pool.size(); ++p) {
                recorded[p] = engine.answerJson(lines[p]);
                checkAnswer(pool[p], recorded[p], tally);
            }
        },
        [&](std::size_t s) {
            std::vector<std::string> batch;
            for (const std::size_t p : warmBatch(options.seed, s))
                batch.push_back(lines[p]);
            return batch;
        },
        [&](std::size_t s, const std::vector<std::string> &answers,
            bool digest) {
            const std::vector<std::size_t> picks = warmBatch(options.seed, s);
            for (std::size_t k = 0; k < picks.size(); ++k) {
                ++tally.attempted;
                if (k >= answers.size() || answers[k] != recorded[picks[k]])
                    tally.fail("warm answer differs from the set-up answer "
                               "for pool line " +
                               std::to_string(picks[k]));
                else if (digest)
                    tally.absorb(answers[k]);
            }
        },
        64, false);
}

double
peakRssMb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return double(usage.ru_maxrss) / 1024.0; // ru_maxrss is in KiB
}

std::vector<Metric>
endToEnd(const Options &options, Tally &tally)
{
    Timed timed;
    switch (options.workload) {
      case Workload::Cold:
        timed = runCold(options, tally);
        break;
      case Workload::Rerank:
        timed = runRerank(options, tally);
        break;
      case Workload::Warm:
        timed = runWarm(options, tally);
        break;
    }
    double total_ms = 0.0;
    for (const double ms : timed.stepMs)
        total_ms += ms;

    // Throughput and tails are printed, not bounded: the mean behind
    // requests/s follows the tail, which swings most between runs on
    // a shared machine, and tails exist only where at least ten
    // samples lie beyond them.
    const std::size_t n = timed.stepMs.size();
    std::printf("info samples %zu steps, %llu requests\n", n,
                static_cast<unsigned long long>(timed.requests));
    std::printf("info %s.requests_per_s %.6f 1/s\n",
                workloadName(options.workload),
                double(timed.requests) / (total_ms / 1000.0));
    if (n <= 64) {
        std::printf("info step_ms");
        for (const double ms : timed.stepMs)
            std::printf(" %.1f", ms);
        std::printf("\n");
    }
    for (const auto &[q, name] :
         {std::pair{0.90, "p90"}, std::pair{0.99, "p99"}})
        if (double(n) * (1.0 - q) >= 10.0)
            std::printf("info %s.latency_ms.%s %.6f ms\n",
                        workloadName(options.workload), name,
                        percentile(timed.stepMs, q));

    return {
        {"setup_s", percentile(timed.setupS, 0.5), "s"},
        {"latency_ms.p50", percentile(timed.stepMs, 0.5), "ms"},
        {"store_mb", double(timed.storeBytes) / 1e6, "MB"},
        {"peak_rss_mb", peakRssMb(), "MB"},
    };
}

void
printRequests(const Options &options, std::size_t count)
{
    switch (options.workload) {
      case Workload::Cold:
        for (std::size_t i = 0; i < count; ++i)
            std::printf("%s\n", oma::api::encodeRequest(
                                    coldRequest(options.seed, i))
                                    .c_str());
        break;
      case Workload::Rerank: {
        RerankBudgets budgets(options.seed);
        std::printf("%s\n",
                    oma::api::encodeRequest(rerankSetupRequest()).c_str());
        for (std::size_t i = 0; i < count; ++i)
            std::printf("%s\n",
                        oma::api::encodeRequest(budgets.next()).c_str());
        break;
      }
      case Workload::Warm:
        for (const oma::api::AllocationRequest &request :
             warmPool(options.seed))
            std::printf("%s\n", oma::api::encodeRequest(request).c_str());
        for (std::size_t s = 0; s < count; ++s) {
            std::printf("batch");
            for (const std::size_t p : warmBatch(options.seed, s))
                std::printf(" %zu", p);
            std::printf("\n");
        }
        break;
    }
}

} // namespace

oma::api::QueryEngineConfig
engineConfig(const std::filesystem::path &store)
{
    oma::api::QueryEngineConfig config;
    config.storeDir = store.string();
    config.maxInflight = lanes;
    return config;
}

} // namespace e2e

int
main(int argc, char **argv)
{
    using namespace e2e;
    Options options;
    bool have_workload = false;
    long print_requests = -1;
    for (int a = 1; a < argc; ++a) {
        const std::string flag = argv[a];
        if (a + 1 >= argc)
            usage(("missing value for " + flag).c_str());
        const char *value = argv[++a];
        if (flag == "--workload") {
            const std::string w = value;
            have_workload = true;
            if (w == "cold")
                options.workload = Workload::Cold;
            else if (w == "rerank")
                options.workload = Workload::Rerank;
            else if (w == "warm")
                options.workload = Workload::Warm;
            else
                usage("unknown workload");
        } else if (flag == "--seed") {
            options.seed = parseU64(value);
        } else if (flag == "--seconds") {
            options.seconds = double(parseU64(value));
        } else if (flag == "--trace") {
            options.trace = parseU64(value) != 0;
        } else if (flag == "--work-dir") {
            options.workDir = value;
        } else if (flag == "--print-requests") {
            print_requests = long(parseU64(value));
        } else {
            usage(("unknown flag " + flag).c_str());
        }
    }
    if (!have_workload)
        usage("--workload is required");
    if (print_requests >= 0) {
        printRequests(options, std::size_t(print_requests));
        return 0;
    }
    if (options.workDir.empty())
        usage("--work-dir is required");
    std::filesystem::remove_all(options.workDir);
    std::filesystem::create_directories(options.workDir);

    std::printf("e2ebench workload=%s seed=%llu seconds=%g trace=%d\n",
                workloadName(options.workload),
                static_cast<unsigned long long>(options.seed),
                options.seconds, options.trace ? 1 : 0);
    Tally tally;
    const std::vector<Metric> metrics = options.trace
        ? runTraced(options, tally)
        : endToEnd(options, tally);
    std::filesystem::remove_all(options.workDir);

    for (const Metric &m : metrics)
        std::printf("metric %s %.9g %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
    std::printf("check failed_frac %.9g (%llu of %llu)\n",
                tally.attempted == 0
                    ? 1.0
                    : double(tally.failed) / double(tally.attempted),
                static_cast<unsigned long long>(tally.failed),
                static_cast<unsigned long long>(tally.attempted));
    std::printf("check digest %s %016llx over %llu answers\n",
                workloadName(options.workload),
                static_cast<unsigned long long>(tally.digest),
                static_cast<unsigned long long>(tally.digested));

    const bool correct = tally.failed == 0 && tally.attempted > 0;
    std::string json = "{\"correct\": ";
    json += correct ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(tally.attempted);
    json += ", \"failed\": " + std::to_string(tally.failed);
    json += ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        char value[64];
        std::snprintf(value, sizeof(value), "%.17g", metrics[i].value);
        json += (i == 0 ? "\"" : ", \"") + metrics[i].name +
            "\": {\"value\": " + value + ", \"unit\": \"" +
            metrics[i].unit + "\"}";
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
    return correct ? 0 : 1;
}
