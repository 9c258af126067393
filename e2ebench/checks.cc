/**
 * @file
 * The benchmark's correctness gate and its shared helpers.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "bench.hh"

namespace e2e
{

void
Tally::fail(const std::string &why)
{
    ++failed;
    std::fprintf(stderr, "e2ebench: check failed: %s\n", why.c_str());
}

void
Tally::absorb(std::string_view answer)
{
    for (const char c : answer) {
        digest ^= std::uint64_t(static_cast<unsigned char>(c));
        digest *= 0x100000001b3ULL;
    }
    ++digested;
}

void
checkAnswer(const oma::api::AllocationRequest &request,
            const std::string &answer, Tally &tally)
{
    ++tally.attempted;
    oma::api::AllocationResponse response;
    std::string error;
    if (!oma::api::decodeResponse(answer, response, error)) {
        tally.fail("not an oma-allocation-response-v1 (" + error +
                   "): " + answer.substr(0, 200));
        return;
    }
    const std::uint64_t want = request.topK == 0
        ? response.inBudget
        : std::min(request.topK, response.inBudget);
    if (response.allocations.size() != want) {
        tally.fail("holds " + std::to_string(response.allocations.size()) +
                   " allocations, want min(top_k, in_budget) = " +
                   std::to_string(want));
        return;
    }
    for (std::size_t i = 0; i < response.allocations.size(); ++i) {
        const oma::Allocation &a = response.allocations[i];
        if (a.areaRbe > request.budgetRbe) {
            tally.fail("allocation " + std::to_string(i) +
                       " exceeds the budget");
            return;
        }
        if (a.icache.assoc > request.maxCacheWays ||
            a.dcache.assoc > request.maxCacheWays) {
            tally.fail("allocation " + std::to_string(i) +
                       " exceeds max_cache_ways");
            return;
        }
        if (i > 0 && a.cpi < response.allocations[i - 1].cpi) {
            tally.fail("allocations not sorted by CPI at " +
                       std::to_string(i));
            return;
        }
    }
}

double
percentile(std::vector<double> samples, double q)
{
    if (samples.empty())
        return 0.0;
    std::sort(samples.begin(), samples.end());
    const double pos = q * double(samples.size() - 1);
    const std::size_t lo = std::size_t(std::floor(pos));
    const std::size_t hi = std::min(lo + 1, samples.size() - 1);
    return samples[lo] + (pos - double(lo)) * (samples[hi] - samples[lo]);
}

std::uint64_t
directoryBytes(const std::filesystem::path &dir)
{
    std::uint64_t bytes = 0;
    for (const auto &entry :
         std::filesystem::recursive_directory_iterator(dir))
        if (entry.is_regular_file())
            bytes += entry.file_size();
    return bytes;
}

} // namespace e2e
