/**
 * @file
 * Adversarial synthetic cache streams shared by the one-pass
 * differential suites (tests/cache/test_cheetah_differential.cc,
 * tests/cache/test_onepass_differential.cc).
 */

#ifndef OMA_TESTS_CACHE_NASTY_TRACE_HH
#define OMA_TESTS_CACHE_NASTY_TRACE_HH

#include <cstdint>
#include <vector>

#include "support/rng.hh"
#include "trace/memref.hh"

namespace omatest
{

/** One cache access of a synthetic stream. */
struct Access
{
    std::uint64_t paddr;
    oma::RefKind kind;
};

/** Mixed synthetic trace: Zipf hot set + sequential strides + store
 * bursts, with loads and stores interleaved. */
inline std::vector<Access>
nastyTrace(std::uint64_t seed, std::size_t n)
{
    oma::Rng rng(seed);
    std::vector<Access> trace;
    trace.reserve(n);
    std::uint64_t stream_pos = 0x200000;
    while (trace.size() < n) {
        const double pick = rng.uniform();
        if (pick < 0.5) {
            // Hot working set, heavily skewed.
            const std::uint64_t word = rng.zipf(4096, 1.1);
            trace.push_back({0x10000 + word * 4,
                             rng.chance(0.3) ? oma::RefKind::Store
                                             : oma::RefKind::Load});
        } else if (pick < 0.8) {
            // Sequential streaming with a fixed stride.
            stream_pos += 16;
            if (stream_pos > 0x280000)
                stream_pos = 0x200000;
            trace.push_back({stream_pos, oma::RefKind::Load});
        } else {
            // Store burst to consecutive words.
            std::uint64_t base = 0x400000 + rng.below(1 << 14) * 4;
            const std::uint64_t burst = 1 + rng.below(8);
            for (std::uint64_t b = 0; b < burst && trace.size() < n; ++b)
                trace.push_back({base + b * 4, oma::RefKind::Store});
        }
    }
    return trace;
}

} // namespace omatest

#endif // OMA_TESTS_CACHE_NASTY_TRACE_HH
