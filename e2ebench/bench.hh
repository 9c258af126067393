/**
 * @file
 * Shared declarations of the end-to-end benchmark program.
 *
 * The benchmark asks api::QueryEngine the three query shapes of the
 * ROADMAP (cold, re-rank, warm) as closed loops from one client and
 * prints every metric by name with its unit (see NOTES.md). This
 * header holds what more than one of its files needs: the seeded
 * request generators, the answer checks and the metric plumbing.
 */

#ifndef OMA_E2EBENCH_BENCH_HH
#define OMA_E2EBENCH_BENCH_HH

#include <cstdint>
#include <filesystem>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "api/query_engine.hh"
#include "api/request.hh"
#include "support/clock.hh"

namespace e2e
{

enum class Workload
{
    Cold,
    Rerank,
    Warm
};

[[nodiscard]] const char *workloadName(Workload workload);

/** Command-line options, as the benchmark contract names them. */
struct Options
{
    Workload workload = Workload::Cold;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    /** Scratch root for this run's stores (removed at exit). */
    std::filesystem::path workDir;
};

// ----- request generation (requests.cc) -----------------------------

/** References per workload of every cold and re-rank request. */
inline constexpr std::uint64_t queryReferences = 1'000'000;
/** References per workload of the warm pool (never simulated while
 * timed: a warm hit reads the stored answer). */
inline constexpr std::uint64_t poolReferences = 20'000;
/** Sweep/search lanes per request, and the engine's maxInflight. */
inline constexpr unsigned lanes = 4;
/** Lines per warm answerBatch step. */
inline constexpr std::size_t warmBatchLines = 8;
inline constexpr std::size_t warmPoolSize = 16;

/** Leading timed steps whose answers feed the digest (both modes run
 * at least this many, so the digest covers the same answers). */
[[nodiscard]] std::size_t digestSteps(Workload workload);

/** Cold query @p i: Table 6 on the Table 5 grid, a fresh model seed
 * derived from @p seed, Mach on even and Ultrix on odd indices. */
[[nodiscard]] oma::api::AllocationRequest
coldRequest(std::uint64_t seed, std::size_t i);

/** The re-rank set-up question: ConfigSpace::extended() under a
 * fixed model seed, swept into the store before timing starts. */
[[nodiscard]] oma::api::AllocationRequest rerankSetupRequest();

/** Re-rank budgets: a seeded sequence of distinct rbe budgets in
 * [200k, 300k], none equal to the set-up budget, so every timed
 * query misses the response key while every shard hits. */
class RerankBudgets
{
  public:
    explicit RerankBudgets(std::uint64_t seed) : _seed(seed) {}

    /** The set-up question with the next budget of the sequence. */
    [[nodiscard]] oma::api::AllocationRequest next();

  private:
    std::uint64_t _seed;
    std::uint64_t _draws = 0;
    std::set<std::uint64_t> _used;
};

/** The warm pool: 16 distinct questions (two OS personalities x
 * Table 6/Table 7 associativity x four seeded budgets). */
[[nodiscard]] std::vector<oma::api::AllocationRequest>
warmPool(std::uint64_t seed);

/** Pool indices of warm step @p step (drawn with replacement). */
[[nodiscard]] std::vector<std::size_t>
warmBatch(std::uint64_t seed, std::size_t step);

// ----- checks (checks.cc) -------------------------------------------

/** Counts requests and failures and keeps the answer digest. */
struct Tally
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    /** FNV-1a over the digested answers, in order. */
    std::uint64_t digest = 0xcbf29ce484222325ULL;
    std::uint64_t digested = 0;

    /** Record one failed check (printed to stderr). */
    void fail(const std::string &why);

    /** Fold @p answer into the digest. */
    void absorb(std::string_view answer);
};

/**
 * The correctness gate for one answer to @p request: it decodes as
 * oma-allocation-response-v1, its allocations are sorted by CPI,
 * within budget and max_cache_ways, and it holds
 * min(top_k, in_budget) of them. Counts the attempt, and a failure,
 * in @p tally.
 */
void checkAnswer(const oma::api::AllocationRequest &request,
                 const std::string &answer, Tally &tally);

// ----- metrics ------------------------------------------------------

struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

/** Milliseconds since an arbitrary epoch (oma::Clock). */
[[nodiscard]] inline double
nowMs()
{
    return oma::Clock::toMs(oma::Clock::nowNs());
}

/** Percentile @p q in [0, 1] with linear interpolation. */
[[nodiscard]] double percentile(std::vector<double> samples, double q);

/** Bytes held by the regular files under @p dir. */
[[nodiscard]] std::uint64_t directoryBytes(const std::filesystem::path &dir);

/** The engine every run uses: its store at @p store, `lanes`
 * concurrent computations per batch. */
[[nodiscard]] oma::api::QueryEngineConfig
engineConfig(const std::filesystem::path &store);

/** The traced run (traced.cc): per-layer metrics of @p options'
 * workload, with every composed answer checked against the engine's. */
[[nodiscard]] std::vector<Metric> runTraced(const Options &options,
                                            Tally &tally);

} // namespace e2e

#endif // OMA_E2EBENCH_BENCH_HH
