/**
 * @file
 * Differential test: Cheetah one-pass all-associativity simulation vs
 * N independent Cache instances replaying the same trace.
 *
 * This is the correctness backstop the parallel sweep engine leans
 * on: the parallel path replays a recorded stream through independent
 * per-geometry simulators, and this suite pins those simulators to
 * the stack-distance algebra on randomized traces far nastier than
 * uniform noise — Zipf-skewed working sets, strided streams, store
 * bursts, and a real synthesized workload's D-cache stream.
 */

#include <gtest/gtest.h>

#include <vector>

#include "cache/cache.hh"
#include "cache/cheetah.hh"
#include "support/rng.hh"
#include "tests/cache/nasty_trace.hh"
#include "tlb/mips_va.hh"
#include "workload/system.hh"

namespace oma
{
namespace
{

using omatest::Access;
using omatest::nastyTrace;

/** The D-cache reference stream of a real synthesized workload,
 * filtered exactly as ComponentSweep filters it. */
std::vector<Access>
workloadDcacheTrace(std::uint64_t seed, std::size_t n)
{
    System system(benchmarkParams(BenchmarkId::Mpeg), OsKind::Mach,
                  seed);
    std::vector<Access> trace;
    trace.reserve(n);
    MemRef ref;
    while (trace.size() < n && system.next(ref)) {
        if (!ref.isFetch() &&
            !(ref.vaddr >= kseg1Base && ref.vaddr < kseg2Base))
            trace.push_back({ref.paddr, ref.kind});
    }
    return trace;
}

/** Replay @p trace through Cheetah and through one direct Cache per
 * power-of-two associativity; assert identical miss counts. */
void
runDifferential(const std::vector<Access> &trace, std::uint64_t sets,
                std::uint64_t line, std::uint64_t max_ways)
{
    Cheetah cheetah(sets, line, max_ways);

    std::vector<Cache> direct;
    std::vector<std::uint64_t> ways_list;
    for (std::uint64_t ways = 1; ways <= max_ways; ways *= 2) {
        CacheParams p;
        p.geom = CacheGeometry(sets * line * ways, line, ways);
        direct.emplace_back(p);
        ways_list.push_back(ways);
    }

    for (const Access &a : trace) {
        cheetah.access(a.paddr);
        for (auto &cache : direct)
            cache.access(a.paddr, a.kind);
    }

    for (std::size_t i = 0; i < direct.size(); ++i) {
        EXPECT_EQ(cheetah.misses(ways_list[i]),
                  direct[i].stats().totalMisses())
            << "sets=" << sets << " line=" << line
            << " ways=" << ways_list[i];
        EXPECT_EQ(direct[i].stats().totalAccesses(), trace.size());
    }
    EXPECT_EQ(cheetah.accesses(), trace.size());
    EXPECT_EQ(cheetah.compulsoryMisses(),
              direct.front().stats().compulsoryMisses);
}

class CheetahDifferential
    : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(CheetahDifferential, NastyTraceManyShapes)
{
    const std::uint64_t seed = GetParam();
    const auto trace = nastyTrace(seed, 40000);
    runDifferential(trace, 64, 16, 8);
    runDifferential(trace, 16, 32, 4);
    runDifferential(trace, 256, 4, 2);
    runDifferential(trace, 1, 16, 16); // fully-associative column
}

INSTANTIATE_TEST_SUITE_P(Seeds, CheetahDifferential,
                         ::testing::Values(101u, 202u, 303u, 404u));

TEST(CheetahDifferential, RealWorkloadDcacheStream)
{
    const auto trace = workloadDcacheTrace(42, 60000);
    ASSERT_GE(trace.size(), 60000u);
    runDifferential(trace, 128, 16, 8);
    runDifferential(trace, 512, 4, 2);
}

TEST(CheetahDifferential, StoreOnlyTraceStillMatches)
{
    // Write-allocate write-through stores allocate on miss exactly
    // like loads, so residency — and therefore Cheetah's counts —
    // must match for a pure store stream too.
    Rng rng(7);
    std::vector<Access> trace(20000);
    for (auto &a : trace)
        a = {rng.below(1 << 16) & ~3ULL, RefKind::Store};
    runDifferential(trace, 32, 16, 4);
}

} // namespace
} // namespace oma
