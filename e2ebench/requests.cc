/**
 * @file
 * Seeded request generators of the three workloads. The benchmark
 * seed is the only source of variation: the same seed gives the same
 * request lines, byte for byte (test_e2ebench.py checks it).
 */

#include "bench.hh"

#include "support/rng.hh"

namespace e2e
{

namespace
{

/** Independent draw @p index of stream @p stream under @p seed. */
std::uint64_t
draw(std::uint64_t seed, std::uint64_t stream, std::uint64_t index)
{
    return oma::mix64(oma::mix64(seed ^ (stream << 56)) + index);
}

/** Model seeds stay well inside the JSON codec's exact integers. */
std::uint64_t
modelSeed(std::uint64_t bits)
{
    return 1 + bits % 1'000'000'000ULL;
}

constexpr std::uint64_t coldStream = 1;
constexpr std::uint64_t rerankStream = 2;
constexpr std::uint64_t poolStream = 3;
constexpr std::uint64_t batchStream = 4;

oma::api::AllocationRequest
baseRequest(std::uint64_t references)
{
    oma::api::AllocationRequest request;
    request.references = references;
    request.threads = lanes;
    return request;
}

} // namespace

const char *
workloadName(Workload workload)
{
    switch (workload) {
      case Workload::Cold:
        return "cold";
      case Workload::Rerank:
        return "rerank";
      case Workload::Warm:
        return "warm";
    }
    return "?";
}

std::size_t
digestSteps(Workload workload)
{
    switch (workload) {
      case Workload::Cold:
        return 2;
      case Workload::Rerank:
        return 3;
      case Workload::Warm:
        return 64;
    }
    return 0;
}

oma::api::AllocationRequest
coldRequest(std::uint64_t seed, std::size_t i)
{
    oma::api::AllocationRequest request = baseRequest(queryReferences);
    request.seed = modelSeed(draw(seed, coldStream, i));
    request.os = i % 2 == 0 ? oma::OsKind::Mach : oma::OsKind::Ultrix;
    return request;
}

oma::api::AllocationRequest
rerankSetupRequest()
{
    oma::api::AllocationRequest request = baseRequest(queryReferences);
    request.space = oma::ConfigSpace::extended();
    return request;
}

oma::api::AllocationRequest
RerankBudgets::next()
{
    const double setup_budget = rerankSetupRequest().budgetRbe;
    std::uint64_t budget = 0;
    do {
        budget = 200'000 + draw(_seed, rerankStream, _draws++) % 100'001;
    } while (double(budget) == setup_budget || !_used.insert(budget).second);
    oma::api::AllocationRequest request = rerankSetupRequest();
    request.budgetRbe = double(budget);
    return request;
}

std::vector<oma::api::AllocationRequest>
warmPool(std::uint64_t seed)
{
    std::set<std::uint64_t> budgets;
    for (std::uint64_t d = 0; budgets.size() < 4; ++d)
        budgets.insert(200'000 + draw(seed, poolStream, d) % 100'001);
    const std::uint64_t model_seed =
        modelSeed(draw(seed, poolStream, 1000));

    std::vector<oma::api::AllocationRequest> pool;
    for (const oma::OsKind os : {oma::OsKind::Mach, oma::OsKind::Ultrix})
        for (const std::uint64_t ways : {8u, 2u})
            for (const std::uint64_t budget : budgets) {
                oma::api::AllocationRequest request =
                    baseRequest(poolReferences);
                request.seed = model_seed;
                request.os = os;
                request.maxCacheWays = ways;
                request.budgetRbe = double(budget);
                pool.push_back(request);
            }
    return pool;
}

std::vector<std::size_t>
warmBatch(std::uint64_t seed, std::size_t step)
{
    std::vector<std::size_t> lines(warmBatchLines);
    for (std::size_t i = 0; i < lines.size(); ++i)
        lines[i] = draw(seed, batchStream, step * warmBatchLines + i) %
            warmPoolSize;
    return lines;
}

} // namespace e2e
