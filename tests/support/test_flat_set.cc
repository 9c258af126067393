/**
 * @file
 * FlatU64Set against std::unordered_set: the same insert() answers
 * for every key, through many table doublings, including the keys the
 * open-addressing table treats specially (0 and all-ones).
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <unordered_set>

#include "support/flat_set.hh"
#include "support/rng.hh"

namespace oma
{
namespace
{

TEST(FlatU64Set, AnswersLikeAnUnorderedSetThroughGrowth)
{
    FlatU64Set flat;
    std::unordered_set<std::uint64_t> reference;
    Rng rng(3);
    // Dense line-number-like keys and sparse random ones, with many
    // repeats, past several doublings of the 1024-slot table.
    for (int i = 0; i < 200000; ++i) {
        const std::uint64_t key =
            i % 3 == 0 ? rng.next() : rng.next() % 20000;
        ASSERT_EQ(flat.insert(key), reference.insert(key).second) << i;
    }
    EXPECT_EQ(flat.size(), reference.size());
}

TEST(FlatU64Set, ZeroAndAllOnesAreOrdinaryKeys)
{
    FlatU64Set set;
    const std::uint64_t ones = ~std::uint64_t(0);
    EXPECT_TRUE(set.insert(ones));
    EXPECT_FALSE(set.insert(ones));
    EXPECT_TRUE(set.insert(0));
    EXPECT_FALSE(set.insert(0));
    EXPECT_TRUE(set.insert(ones - 1));
    EXPECT_EQ(set.size(), 3u);
}

} // namespace
} // namespace oma
