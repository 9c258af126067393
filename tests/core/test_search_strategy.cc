/**
 * @file
 * Tests for the search strategies over the five-component space:
 * the exhaustive strategy ranks bitwise identically with pruning on
 * or off and at any thread count, a bounded keep returns
 * exactly the full ranking's prefix, ties included, cost-bound
 * pruning never discards an in-budget candidate, and the annealing
 * strategy recovers the exhaustive winner deterministically per seed
 * while evaluating a small fraction of the grid.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <string>

#include "core/search_strategy.hh"

namespace oma
{
namespace
{

/** Bitwise double equality (== would conflate -0.0 and 0.0). */
bool
sameBits(double a, double b)
{
    return std::memcmp(&a, &b, sizeof a) == 0;
}

void
expectSameAllocation(const Allocation &a, const Allocation &b)
{
    EXPECT_EQ(a.rank, b.rank);
    EXPECT_EQ(a.tlb.entries, b.tlb.entries);
    EXPECT_EQ(a.tlb.assoc, b.tlb.assoc);
    EXPECT_EQ(a.icache.capacityBytes, b.icache.capacityBytes);
    EXPECT_EQ(a.icache.lineBytes, b.icache.lineBytes);
    EXPECT_EQ(a.icache.assoc, b.icache.assoc);
    EXPECT_EQ(a.dcache.capacityBytes, b.dcache.capacityBytes);
    EXPECT_EQ(a.dcache.lineBytes, b.dcache.lineBytes);
    EXPECT_EQ(a.dcache.assoc, b.dcache.assoc);
    EXPECT_EQ(a.victimEntries, b.victimEntries);
    EXPECT_EQ(a.wbEntries, b.wbEntries);
    EXPECT_EQ(a.hasL2, b.hasL2);
    EXPECT_EQ(a.unified, b.unified);
    EXPECT_EQ(a.l2.capacityBytes, b.l2.capacityBytes);
    EXPECT_TRUE(sameBits(a.cpi, b.cpi));
    EXPECT_TRUE(sameBits(a.areaRbe, b.areaRbe));
    EXPECT_TRUE(sameBits(a.tlbCpi, b.tlbCpi));
    EXPECT_TRUE(sameBits(a.icacheCpi, b.icacheCpi));
    EXPECT_TRUE(sameBits(a.dcacheCpi, b.dcacheCpi));
    EXPECT_TRUE(sameBits(a.hierarchyCpi, b.hierarchyCpi));
    EXPECT_TRUE(sameBits(a.wbCpi, b.wbCpi));
}

void
expectSameAllocations(const std::vector<Allocation> &a,
                      const std::vector<Allocation> &b)
{
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        SCOPED_TRACE(i);
        expectSameAllocation(a[i], b[i]);
    }
}

/** The classic grid with a clean monotone synthetic benefit model.
 * Unlike the allocation-search fixture, every geometry dimension
 * (capacity, line, ways, TLB ways) contributes to the CPI, so the
 * ranking has a unique winner and "the annealer recovers the
 * exhaustive winner" is a meaningful field-for-field comparison
 * rather than a lottery between tied co-optima. */
ComponentCpiTables
syntheticTables()
{
    ConfigSpace space;
    ComponentCpiTables tables;
    tables.tlbGeoms = space.tlbGeometries();
    tables.icacheGeoms = space.cacheGeometries();
    tables.dcacheGeoms = space.cacheGeometries();
    tables.baseCpi = 1.2;
    auto cache_cpi = [](const CacheGeometry &g) {
        return 2000.0 / double(g.capacityBytes) +
            0.01 / double(g.assoc) + 0.07 / double(g.lineBytes);
    };
    for (const auto &g : tables.icacheGeoms)
        tables.icacheCpi.push_back(cache_cpi(g));
    for (const auto &g : tables.dcacheGeoms)
        tables.dcacheCpi.push_back(0.5 * cache_cpi(g));
    for (const auto &g : tables.tlbGeoms)
        tables.tlbCpi.push_back(10.0 / double(g.entries) +
                                0.013 / double(g.ways()));
    return tables;
}

/** The classic grid plus synthetic victim / write-buffer / L2
 * options, so every extension axis is in front of the strategies
 * without paying for a simulation in a unit test. */
ComponentCpiTables
syntheticExtendedTables()
{
    const ConfigSpace space = ConfigSpace::extended();
    ComponentCpiTables tables = syntheticTables();
    for (const VictimParams &p : space.victimConfigs()) {
        tables.victimOptions.push_back(
            {p, 1800.0 / double(p.l1.capacityBytes) +
                    0.05 / double(p.entries)});
    }
    for (const WriteBufferParams &p : space.writeBufferConfigs()) {
        tables.wbOptions.push_back({p, 0.2 / double(p.entries)});
    }
    for (const HierarchyParams &p : space.hierarchyConfigs()) {
        tables.hierarchyOptions.push_back(
            {p, 1500.0 / double(p.l1i.geom.capacityBytes +
                                p.l2.geom.capacityBytes)});
    }
    return tables;
}

constexpr double kBudget = 250000.0;

TEST(SearchSpace, CountsTheFullGrid)
{
    const ComponentCpiTables tables = syntheticTables();
    const SearchSpace space(tables, AreaModel(), kBudget);
    // 17 TLBs x 120 I-caches x 120 D-caches x 1 (no write-buffer
    // sweep), no hierarchy options.
    EXPECT_EQ(space.candidateCount(), 244800u);
    EXPECT_EQ(space.wbOptions().size(), 1u);
    EXPECT_TRUE(space.hierOptions().empty());
}

TEST(SearchSpace, MaterializeMatchesExhaustiveEmission)
{
    const ComponentCpiTables tables = syntheticTables();
    const SearchSpace space(tables, AreaModel(), kBudget);
    const auto ranked = ExhaustiveStrategy().search(space).allocations;
    ASSERT_FALSE(ranked.empty());
    // Every in-budget candidate the space evaluates in-budget must
    // appear exactly once, and the best one must beat them all.
    EXPECT_TRUE(space.inBudget(SearchCandidate{false, 0, 0, 0, 0}));
}

TEST(ExhaustiveStrategy, MatchesAllocationSearchRankBitwise)
{
    const ComponentCpiTables tables = syntheticTables();
    const SearchSpace space(tables, AreaModel(), kBudget);
    const auto serial = ExhaustiveStrategy(false).search(space, 1);
    expectSameAllocations(
        serial.allocations,
        ExhaustiveStrategy(true).search(space).allocations);
    expectSameAllocations(
        serial.allocations,
        ExhaustiveStrategy(false).search(space, 4).allocations);
}

TEST(ExhaustiveStrategy, ExtendedSpaceMatchesRankBitwise)
{
    const ComponentCpiTables tables = syntheticExtendedTables();
    const SearchSpace space(tables, AreaModel(), kBudget);
    const auto serial = ExhaustiveStrategy(false).search(space, 1);
    expectSameAllocations(
        serial.allocations,
        ExhaustiveStrategy(true).search(space).allocations);
    expectSameAllocations(
        serial.allocations,
        ExhaustiveStrategy(false).search(space, 4).allocations);
}

TEST(ExhaustiveStrategy, ThreadCountInvariant)
{
    const ComponentCpiTables tables = syntheticExtendedTables();
    const SearchSpace space(tables, AreaModel(), kBudget);
    const ExhaustiveStrategy strategy(true);
    expectSameAllocations(strategy.search(space, 1).allocations,
                          strategy.search(space, 4).allocations);
}

TEST(ExhaustiveStrategy, PruningOnlySkipsOverBudgetCandidates)
{
    // Property: for a spread of budgets (some tight enough to prune
    // whole subgrids) the ranking is bitwise identical with pruning
    // on and off, and pruning never costs extra evaluations.
    const ComponentCpiTables tables = syntheticExtendedTables();
    for (double budget : {30000.0, 60000.0, 120000.0, 250000.0}) {
        SCOPED_TRACE(budget);
        const SearchSpace space(tables, AreaModel(), budget);
        const auto pruned = ExhaustiveStrategy(true).search(space);
        const auto full = ExhaustiveStrategy(false).search(space);
        expectSameAllocations(pruned.allocations, full.allocations);
        EXPECT_EQ(pruned.candidates, full.candidates);
        EXPECT_LE(pruned.evaluations, full.evaluations);
    }
    // A tight budget must actually exercise the floor rejections.
    const SearchSpace tight(tables, AreaModel(), 30000.0);
    EXPECT_GT(ExhaustiveStrategy(true).search(tight).prunedSubspaces,
              0u);
}

/** Index of the first allocation where @p a and @p b differ in any
 * field (doubles bitwise), or npos when the lists are identical. A
 * plain function rather than per-field EXPECTs: the lists here run
 * to hundreds of thousands of entries. */
std::size_t
firstDifference(const std::vector<Allocation> &a,
                const std::vector<Allocation> &b)
{
    const auto same = [](const Allocation &x, const Allocation &y) {
        return x.rank == y.rank && x.tlb.entries == y.tlb.entries &&
            x.tlb.assoc == y.tlb.assoc &&
            x.icache.capacityBytes == y.icache.capacityBytes &&
            x.icache.lineBytes == y.icache.lineBytes &&
            x.icache.assoc == y.icache.assoc &&
            x.dcache.capacityBytes == y.dcache.capacityBytes &&
            x.dcache.lineBytes == y.dcache.lineBytes &&
            x.dcache.assoc == y.dcache.assoc &&
            x.victimEntries == y.victimEntries &&
            x.wbEntries == y.wbEntries && x.hasL2 == y.hasL2 &&
            x.unified == y.unified &&
            x.l2.capacityBytes == y.l2.capacityBytes &&
            sameBits(x.cpi, y.cpi) && sameBits(x.areaRbe, y.areaRbe) &&
            sameBits(x.tlbCpi, y.tlbCpi) &&
            sameBits(x.icacheCpi, y.icacheCpi) &&
            sameBits(x.dcacheCpi, y.dcacheCpi) &&
            sameBits(x.hierarchyCpi, y.hierarchyCpi) &&
            sameBits(x.wbCpi, y.wbCpi);
    };
    const std::size_t n = std::min(a.size(), b.size());
    for (std::size_t i = 0; i < n; ++i)
        if (!same(a[i], b[i]))
            return i;
    return a.size() == b.size() ? std::string::npos : n;
}

/**
 * Differential check of the bounded exhaustive strategy: for K in
 * {1, 10, in_budget - 1, in_budget, in_budget + 5}, keeping K
 * returns exactly the first K of the full ranking (geometry, CPI
 * bits, rank) and the same work and in-budget counts.
 */
void
expectBoundedIsFullPrefix(const SearchSpace &space, bool prune,
                          unsigned threads)
{
    const SearchResult full =
        ExhaustiveStrategy(prune).search(space, threads);
    const std::uint64_t n = full.allocations.size();
    ASSERT_EQ(full.inBudget, n);
    ASSERT_GT(n, 11u);
    for (const std::uint64_t keep :
         {std::uint64_t(1), std::uint64_t(10), n - 1, n, n + 5}) {
        SCOPED_TRACE(keep);
        const SearchResult bounded =
            ExhaustiveStrategy(prune, keep).search(space, threads);
        const std::vector<Allocation> prefix(
            full.allocations.begin(),
            full.allocations.begin() +
                std::ptrdiff_t(std::min(keep, n)));
        EXPECT_EQ(firstDifference(bounded.allocations, prefix),
                  std::string::npos);
        EXPECT_EQ(bounded.inBudget, full.inBudget);
        EXPECT_EQ(bounded.candidates, full.candidates);
        EXPECT_EQ(bounded.evaluations, full.evaluations);
        EXPECT_EQ(bounded.prunedSubspaces, full.prunedSubspaces);
    }
}

TEST(ExhaustiveStrategy, BoundedKeepIsTheFullRankingsPrefix)
{
    for (const bool extended : {false, true}) {
        const ComponentCpiTables tables =
            extended ? syntheticExtendedTables() : syntheticTables();
        // A tighter extended budget keeps the full rankings this
        // compares against to tens of thousands of entries.
        const SearchSpace space(tables, AreaModel(),
                                extended ? 120000.0 : kBudget);
        for (const bool prune : {true, false}) {
            for (const unsigned threads : {1u, 4u}) {
                SCOPED_TRACE(std::string(extended ? "extended" : "classic") +
                             (prune ? " pruned" : " unpruned") +
                             ", threads " + std::to_string(threads));
                expectBoundedIsFullPrefix(space, prune, threads);
            }
        }
    }
}

/** A hand-built space whose CPIs tie exactly (dyadic contributions
 * add without rounding): TLBs 1 and 2 tie, I-caches 1 and 2 tie,
 * and both D-caches tie, so eight allocations share the best CPI. */
ComponentCpiTables
tiedTables()
{
    ComponentCpiTables tables;
    tables.baseCpi = 1.0;
    tables.tlbGeoms = {TlbGeometry::fullyAssoc(32), TlbGeometry(64, 2),
                       TlbGeometry(128, 2)};
    tables.tlbCpi = {0.5, 0.25, 0.25};
    for (const std::uint64_t kb : {2, 4, 8, 16})
        tables.icacheGeoms.push_back(
            CacheGeometry::fromWords(kb * 1024, 4, 1));
    tables.icacheCpi = {0.25, 0.125, 0.125, 0.25};
    for (const std::uint64_t kb : {2, 4})
        tables.dcacheGeoms.push_back(
            CacheGeometry::fromWords(kb * 1024, 4, 1));
    tables.dcacheCpi = {0.125, 0.125};
    return tables;
}

TEST(ExhaustiveStrategy, BoundedKeepPinsTheTieOrder)
{
    const ComponentCpiTables tables = tiedTables();
    const SearchSpace space(tables, AreaModel(), 1e12);
    for (const unsigned threads : {1u, 4u}) {
        SCOPED_TRACE(threads);
        const SearchResult full = ExhaustiveStrategy().search(space, threads);
        ASSERT_EQ(full.allocations.size(), 24u);
        // The tie order is the emission order: TLB, then I-cache,
        // then D-cache index.
        std::size_t r = 0;
        for (const std::size_t t : {1, 2}) {
            for (const std::size_t i : {1, 2}) {
                for (const std::size_t d : {0, 1}) {
                    SCOPED_TRACE(r);
                    const Allocation &a = full.allocations[r++];
                    EXPECT_EQ(a.cpi, 1.5);
                    EXPECT_EQ(a.rank, r);
                    EXPECT_EQ(a.tlb.entries, tables.tlbGeoms[t].entries);
                    EXPECT_EQ(a.icache.capacityBytes,
                              tables.icacheGeoms[i].capacityBytes);
                    EXPECT_EQ(a.dcache.capacityBytes,
                              tables.dcacheGeoms[d].capacityBytes);
                }
            }
        }
        // Every bound reproduces that order, across shard seams.
        for (std::uint64_t keep = 1; keep <= 26; ++keep) {
            SCOPED_TRACE(keep);
            const SearchResult bounded =
                ExhaustiveStrategy(true, keep).search(space, threads);
            const std::vector<Allocation> prefix(
                full.allocations.begin(),
                full.allocations.begin() +
                    std::ptrdiff_t(std::min<std::uint64_t>(keep, 24)));
            EXPECT_EQ(firstDifference(bounded.allocations, prefix),
                      std::string::npos);
            EXPECT_EQ(bounded.inBudget, 24u);
        }
    }
}

TEST(ExhaustiveStrategy, LooseBudgetEvaluatesEverything)
{
    const ComponentCpiTables tables = syntheticTables();
    const SearchSpace space(tables, AreaModel(), 1e12);
    const auto result = ExhaustiveStrategy(true).search(space);
    EXPECT_EQ(result.evaluations, result.candidates);
    EXPECT_EQ(result.prunedSubspaces, 0u);
    EXPECT_EQ(result.allocations.size(), result.candidates);
}

TEST(AnnealingStrategy, RecoversExhaustiveWinnerOnClassicGrid)
{
    const ComponentCpiTables tables = syntheticTables();
    const SearchSpace space(tables, AreaModel(), kBudget);
    const auto exhaustive = ExhaustiveStrategy().search(space);
    ASSERT_FALSE(exhaustive.allocations.empty());
    const auto annealed = AnnealingStrategy().search(space);
    ASSERT_EQ(annealed.allocations.size(), 1u);
    expectSameAllocation(annealed.allocations.front(),
                         exhaustive.allocations.front());
    // The whole point: well under a tenth of the grid evaluated.
    EXPECT_LT(annealed.evaluations, annealed.candidates / 10);
    EXPECT_GT(annealed.evaluations, 0u);
}

TEST(AnnealingStrategy, RecoversExhaustiveWinnerOnExtendedGrid)
{
    const ComponentCpiTables tables = syntheticExtendedTables();
    const SearchSpace space(tables, AreaModel(), kBudget);
    const auto exhaustive = ExhaustiveStrategy().search(space);
    ASSERT_FALSE(exhaustive.allocations.empty());
    const auto annealed = AnnealingStrategy().search(space);
    ASSERT_EQ(annealed.allocations.size(), 1u);
    expectSameAllocation(annealed.allocations.front(),
                         exhaustive.allocations.front());
    EXPECT_LT(annealed.evaluations, annealed.candidates / 10);
}

TEST(AnnealingStrategy, DeterministicAcrossThreadsAndRuns)
{
    const ComponentCpiTables tables = syntheticExtendedTables();
    const SearchSpace space(tables, AreaModel(), kBudget);
    AnnealingConfig config;
    config.seed = 7;
    const AnnealingStrategy strategy(config);
    const auto serial = strategy.search(space, 1);
    const auto wide = strategy.search(space, 4);
    const auto again = strategy.search(space, 1);
    expectSameAllocations(serial.allocations, wide.allocations);
    expectSameAllocations(serial.allocations, again.allocations);
    // The trajectory (not just the answer) is a pure function of
    // the seed: the evaluation count must agree too.
    EXPECT_EQ(serial.evaluations, wide.evaluations);
    EXPECT_EQ(serial.evaluations, again.evaluations);
}

TEST(AnnealingStrategy, DifferentSeedsConvergeToTheSameWinner)
{
    const ComponentCpiTables tables = syntheticTables();
    const SearchSpace space(tables, AreaModel(), kBudget);
    const auto reference = AnnealingStrategy().search(space);
    ASSERT_EQ(reference.allocations.size(), 1u);
    for (std::uint64_t seed : {1u, 2u, 3u}) {
        SCOPED_TRACE(seed);
        AnnealingConfig config;
        config.seed = seed;
        const auto result = AnnealingStrategy(config).search(space);
        ASSERT_EQ(result.allocations.size(), 1u);
        expectSameAllocation(result.allocations.front(),
                             reference.allocations.front());
    }
}

TEST(AnnealingStrategy, HonorsAssociativityRestriction)
{
    const ComponentCpiTables tables = syntheticTables();
    const SearchSpace space(tables, AreaModel(), kBudget, 2);
    const auto exhaustive = ExhaustiveStrategy().search(space);
    const auto annealed = AnnealingStrategy().search(space);
    ASSERT_EQ(annealed.allocations.size(), 1u);
    const Allocation &best = annealed.allocations.front();
    EXPECT_LE(best.icache.assoc, 2u);
    EXPECT_LE(best.dcache.assoc, 2u);
    expectSameAllocation(best, exhaustive.allocations.front());
}

TEST(AnnealingStrategy, PruningNeverDiscardsTheOptimum)
{
    // Tight budgets prune many options from the proposal
    // distribution; the annealer must still land on the exhaustive
    // winner.
    const ComponentCpiTables tables = syntheticExtendedTables();
    for (double budget : {30000.0, 60000.0, 120000.0}) {
        SCOPED_TRACE(budget);
        const SearchSpace space(tables, AreaModel(), budget);
        const auto exhaustive = ExhaustiveStrategy().search(space);
        ASSERT_FALSE(exhaustive.allocations.empty());
        const auto annealed = AnnealingStrategy().search(space);
        ASSERT_EQ(annealed.allocations.size(), 1u);
        expectSameAllocation(annealed.allocations.front(),
                             exhaustive.allocations.front());
        EXPECT_GT(annealed.prunedSubspaces, 0u);
    }
}

TEST(AnnealingStrategy, EmptyWhenNothingFits)
{
    const ComponentCpiTables tables = syntheticTables();
    const SearchSpace space(tables, AreaModel(), 1.0);
    EXPECT_TRUE(ExhaustiveStrategy().search(space).allocations.empty());
    const auto annealed = AnnealingStrategy().search(space);
    EXPECT_TRUE(annealed.allocations.empty());
    EXPECT_EQ(annealed.evaluations, 0u);
    EXPECT_GT(annealed.prunedSubspaces, 0u);
}

TEST(SearchSpaceDeath, RejectsSetAssociativeVictimL1)
{
    ComponentCpiTables tables = syntheticTables();
    VictimParams p;
    p.l1 = CacheGeometry::fromWords(8 * 1024, 4, 2); // two ways
    p.entries = 4;
    tables.victimOptions.push_back({p, 0.5});
    EXPECT_EXIT(SearchSpace(tables, AreaModel(), kBudget),
                testing::ExitedWithCode(1), "direct-mapped");
}

TEST(SearchSpaceDeath, RejectsUnifiedHierarchyWithL2)
{
    ComponentCpiTables tables = syntheticTables();
    HierarchyParams p;
    p.l1i.geom = CacheGeometry::fromWords(8 * 1024, 4, 2);
    p.unified = true;
    p.hasL2 = true;
    p.l2.geom = CacheGeometry::fromWords(64 * 1024, 8, 4);
    tables.hierarchyOptions.push_back({p, 0.5});
    EXPECT_EXIT(SearchSpace(tables, AreaModel(), kBudget),
                testing::ExitedWithCode(1), "unified");
}

TEST(SearchSpaceDeath, RankRejectsContradictoryTablesToo)
{
    // Every ranking funnels through SearchSpace, so the same
    // validation guards a strategy's search (before this guard the
    // L2 of a unified+L2 option was priced at zero area).
    ComponentCpiTables tables = syntheticTables();
    HierarchyParams p;
    p.l1i.geom = CacheGeometry::fromWords(8 * 1024, 4, 2);
    p.unified = true;
    p.hasL2 = true;
    p.l2.geom = CacheGeometry::fromWords(64 * 1024, 8, 4);
    tables.hierarchyOptions.push_back({p, 0.5});
    EXPECT_EXIT((void)ExhaustiveStrategy().search(
                    SearchSpace(tables, AreaModel(), kBudget)),
                testing::ExitedWithCode(1), "unified");
}

} // namespace
} // namespace oma
