/**
 * @file
 * Implementation of the one-pass stack simulator.
 */

#include "cache/cheetah.hh"

#include <algorithm>
#include <map>
#include <string>

#include "support/bits.hh"
#include "support/logging.hh"
#include "trace/recorded.hh"

namespace oma
{

Cheetah::Cheetah(std::uint64_t line_bytes,
                 const std::vector<Shape> &shapes)
    : _lineShift(floorLog2(line_bytes)), _lineBytes(line_bytes)
{
    fatalIf(!isPowerOfTwo(line_bytes),
            "Cheetah line size must be power of two");
    fatalIf(shapes.empty(), "Cheetah needs at least one shape");
    std::size_t stack_size = 0;
    std::size_t hist_size = 0;
    for (const Shape &shape : shapes) {
        fatalIf(!isPowerOfTwo(shape.sets),
                "Cheetah set count must be power of two");
        fatalIf(shape.maxWays == 0, "Cheetah needs max_ways >= 1");
        for (const Level &lv : _levels)
            fatalIf(lv.sets == shape.sets,
                    "Cheetah set count " + std::to_string(shape.sets) +
                        " requested twice");
        Level lv;
        lv.sets = shape.sets;
        lv.setMask = shape.sets - 1;
        lv.ways = std::size_t(shape.maxWays);
        lv.stackBase = stack_size;
        lv.histBase = hist_size;
        stack_size += std::size_t(shape.sets) * lv.ways;
        hist_size += numRefKinds * lv.ways;
        _levels.push_back(lv);
    }
    _stacks.assign(stack_size, emptyLine);
    _hist.assign(hist_size, 0);
}

Cheetah::Cheetah(std::uint64_t sets, std::uint64_t line_bytes,
                 std::uint64_t max_ways)
    : Cheetah(line_bytes, {Shape{sets, max_ways}})
{
}

Cheetah
Cheetah::covering(const std::vector<CacheGeometry> &geoms)
{
    fatalIf(geoms.empty(), "Cheetah::covering needs a geometry");
    // Deepest associativity of interest per set count, in ascending
    // set-count order (std::map keeps the level layout deterministic).
    std::map<std::uint64_t, std::uint64_t> ways_at;
    for (const CacheGeometry &geom : geoms) {
        geom.validate();
        fatalIf(geom.lineBytes != geoms.front().lineBytes,
                "Cheetah::covering: geometries mix line sizes");
        std::uint64_t &ways = ways_at[geom.numSets()];
        ways = std::max(ways, geom.assoc);
    }
    std::vector<Shape> shapes;
    for (const auto &[sets, ways] : ways_at)
        shapes.push_back({sets, ways});
    return Cheetah(geoms.front().lineBytes, shapes);
}

bool
Cheetah::exactFor(const CacheParams &params)
{
    // Random replacement breaks inclusion, FIFO ignores hits, a
    // write-back cache counts dirty evictions the stacks cannot see
    // and a no-write-allocate cache lets store misses bypass the
    // stack update.
    return params.repl == ReplacementPolicy::Lru &&
        params.write == WritePolicy::WriteThrough &&
        params.alloc == AllocPolicy::WriteAllocate;
}

void
Cheetah::reservedAddress()
{
    panic("Cheetah: the all-ones line number is reserved");
}

void
Cheetah::accessNew(std::uint64_t line, unsigned kind)
{
    _lastLine = line;
    bool resident = false;
    for (const Level &lv : _levels) {
        std::uint64_t *stack =
            &_stacks[lv.stackBase + std::size_t(line & lv.setMask) *
                                         lv.ways];
        // Find the line's depth; a miss drops the LRU slot. Either
        // way, shallower entries shift down one slot and the line
        // becomes MRU.
        std::size_t d = 0;
        while (d < lv.ways && stack[d] != line)
            ++d;
        if (d < lv.ways) {
            ++_hist[lv.histBase + kind * lv.ways + d];
            resident = true;
        } else {
            d = lv.ways - 1;
        }
        for (; d > 0; --d)
            stack[d] = stack[d - 1];
        stack[0] = line;
    }
    // A line resident in any stack has been seen before.
    if (!resident && _touched.insert(line))
        ++_compulsory;
}

void
Cheetah::replayFetchBatch(const std::uint32_t *paddr, std::size_t n)
{
    for (std::size_t i = 0; i < n; ++i)
        access(paddr[i], RefKind::IFetch);
}

void
Cheetah::replayDataBatch(const std::uint32_t *paddr,
                         const std::uint8_t *flags, std::size_t n)
{
    for (std::size_t i = 0; i < n; ++i)
        access(paddr[i], RefKind(flags[i] & RecordedTrace::kindMask));
}

std::uint64_t
Cheetah::accesses() const
{
    std::uint64_t total = 0;
    for (const std::uint64_t a : _accesses)
        total += a;
    return total;
}

const Cheetah::Level &
Cheetah::level(std::uint64_t sets, std::uint64_t ways,
               const char *what) const
{
    for (const Level &lv : _levels) {
        if (lv.sets == sets) {
            panicIf(ways == 0 || ways > lv.ways,
                    std::string(what) + ": ways out of range");
            return lv;
        }
    }
    panic(std::string(what) + ": set count " + std::to_string(sets) +
          " out of range");
}

std::uint64_t
Cheetah::misses(std::uint64_t sets, std::uint64_t ways,
                RefKind kind) const
{
    const Level &lv = level(sets, ways, "Cheetah::misses");
    const unsigned k = unsigned(kind);
    std::uint64_t hits = _repeats[k];
    for (std::size_t d = 0; d < ways; ++d)
        hits += _hist[lv.histBase + k * lv.ways + d];
    return _accesses[k] - hits;
}

std::uint64_t
Cheetah::misses(std::uint64_t ways) const
{
    panicIf(_levels.size() != 1,
            "Cheetah::misses(ways) needs a single-shape engine");
    std::uint64_t total = 0;
    for (unsigned k = 0; k < numRefKinds; ++k)
        total += misses(_levels.front().sets, ways, RefKind(k));
    return total;
}

CacheStats
Cheetah::stats(const CacheGeometry &geom) const
{
    panicIf(geom.lineBytes != _lineBytes,
            "Cheetah::stats: line size out of range");
    // An LRU write-through write-allocate cache fills a line on every
    // miss, never writes back, forwards every store word, and misses
    // compulsorily exactly once per distinct line.
    CacheStats s;
    for (unsigned k = 0; k < numRefKinds; ++k) {
        s.accesses[k] = _accesses[k];
        s.misses[k] = misses(geom.numSets(), geom.assoc, RefKind(k));
        s.lineFills += s.misses[k];
    }
    s.writebacks = 0;
    s.writeThroughWords = _accesses[unsigned(RefKind::Store)];
    s.compulsoryMisses = _compulsory;
    return s;
}

} // namespace oma
