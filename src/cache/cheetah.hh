/**
 * @file
 * Cheetah-style one-pass cache simulation.
 *
 * Single-pass simulation of every (set count, associativity) pair at
 * one line size, exploiting the LRU inclusion property through
 * per-set Mattson stack distances [Sugumar93]. The engine keeps one
 * truncated MRU-first tag stack per set at every simulated set count
 * and a stack-depth histogram per reference kind, so a cache with S
 * sets and W ways misses exactly on the references whose depth in
 * the S-set stacks is W or more. Two exact shortcuts keep the pass
 * cheap:
 *
 *  - a reference to the line just accessed is at depth 0 at every
 *    set count, so it is counted without touching the stacks;
 *  - only a reference that misses every stack can be a first touch,
 *    so only those references pay the first-touch (compulsory) lookup.
 *
 * stats() derives the complete CacheStats of an LRU, write-through,
 * write-allocate cache (the organization of every I-cache and D-cache
 * slot the sweep grid emits); exactFor() names that eligibility.
 * ComponentSweep scores such slots one pass per (kind, line size)
 * instead of one replay per configuration (docs/MODEL.md, "One-pass
 * replay"). With one set the engine also yields the miss counts of
 * every fully-associative LRU structure of capacity 1..W entries in
 * one pass, which is how the TLB-size sweeps (Figure 7) are
 * accelerated.
 */

#ifndef OMA_CACHE_CHEETAH_HH
#define OMA_CACHE_CHEETAH_HH

#include <cstdint>
#include <vector>

#include "area/geometry.hh"
#include "cache/cache.hh"
#include "support/flat_set.hh"
#include "trace/memref.hh"

namespace oma
{

/**
 * One-pass LRU simulator for every requested set count at one line
 * size.
 */
class Cheetah
{
  public:
    /** One simulated set count and the deepest associativity of
     * interest there. */
    struct Shape
    {
        std::uint64_t sets = 1;
        std::uint64_t maxWays = 1;
    };

    /**
     * @param line_bytes Line size in bytes (power of two); use 1 to
     *        treat addresses as pre-formed keys (e.g. TLB pages).
     * @param shapes Set counts to simulate (powers of two, each at
     *        most once) with their largest associativity of interest.
     */
    Cheetah(std::uint64_t line_bytes, const std::vector<Shape> &shapes);

    /** The single-shape engine: every associativity 1..max_ways of a
     * @p sets-set cache. */
    Cheetah(std::uint64_t sets, std::uint64_t line_bytes,
            std::uint64_t max_ways);

    /**
     * The smallest engine covering every geometry of @p geoms, which
     * must share one line size.
     */
    [[nodiscard]] static Cheetah
    covering(const std::vector<CacheGeometry> &geoms);

    /** True when stats() reproduces a Cache built from @p params
     * exactly: LRU replacement, write-through, write-allocate. */
    [[nodiscard]] static bool exactFor(const CacheParams &params);

    /** Observe one access. Address ~0 with 1-byte lines is reserved
     * (it marks empty stack slots). */
    void
    access(std::uint64_t addr, RefKind kind = RefKind::Load)
    {
        const unsigned k = unsigned(kind);
        ++_accesses[k];
        const std::uint64_t line = addr >> _lineShift;
        if (line == emptyLine) [[unlikely]]
            reservedAddress();
        if (line == _lastLine) {
            ++_repeats[k];
            return;
        }
        accessNew(line, k);
    }

    /** Batched instruction-fetch replay over a packed paddr column:
     * access(paddr[i], RefKind::IFetch) for each i in [0, n). */
    void replayFetchBatch(const std::uint32_t *paddr, std::size_t n);

    /** Batched data replay over packed paddr and trace-flag columns:
     * access(paddr[i], kind_i) with kind_i packed in the low bits of
     * flags[i] (RecordedTrace::kindMask). */
    void replayDataBatch(const std::uint32_t *paddr,
                         const std::uint8_t *flags, std::size_t n);

    /** Total observed accesses. */
    [[nodiscard]] std::uint64_t accesses() const;

    /** Misses of @p kind a cache with @p sets sets and @p ways ways
     * would have had (fatal for a shape the engine does not cover). */
    [[nodiscard]] std::uint64_t misses(std::uint64_t sets,
                                       std::uint64_t ways,
                                       RefKind kind) const;

    /** Total misses at associativity @p ways of a single-shape
     * engine. */
    [[nodiscard]] std::uint64_t misses(std::uint64_t ways) const;

    /** Miss ratio at associativity @p ways of a single-shape engine. */
    [[nodiscard]] double
    missRatio(std::uint64_t ways) const
    {
        const std::uint64_t total = accesses();
        return total == 0 ? 0.0
                          : double(misses(ways)) / double(total);
    }

    /** First-touch (compulsory) misses: the distinct lines observed,
     * identical for every set count and associativity. */
    [[nodiscard]] std::uint64_t compulsoryMisses() const { return _compulsory; }

    /**
     * The counters a Cache of geometry @p geom would report over the
     * observed stream, assuming exactFor() holds for its parameters
     * (fatal when the engine does not cover @p geom).
     */
    [[nodiscard]] CacheStats stats(const CacheGeometry &geom) const;

  private:
    /** One simulated set count. */
    struct Level
    {
        std::uint64_t setMask;
        std::size_t ways;
        std::size_t stackBase; //!< Offset into _stacks.
        std::size_t histBase;  //!< Offset into _hist.
        std::uint64_t sets;
    };

    /** Line-number marker of an empty stack slot. */
    static constexpr std::uint64_t emptyLine = ~std::uint64_t(0);

    /** access() for a line other than the previous one. */
    void accessNew(std::uint64_t line, unsigned kind);

    /** Fatal report of an access to the reserved address. */
    [[noreturn]] static void reservedAddress();

    /** The level simulating @p sets sets with at least @p ways ways
     * (fatal, naming @p what, when there is none). */
    [[nodiscard]] const Level &level(std::uint64_t sets,
                                     std::uint64_t ways,
                                     const char *what) const;

    unsigned _lineShift;
    std::uint64_t _lineBytes;
    std::vector<Level> _levels;
    /** Per-set MRU-first line stacks of every level, sets x ways,
     * set-major; empty slots hold emptyLine. */
    std::vector<std::uint64_t> _stacks;
    /** hist[level.histBase + kind * level.ways + d] = references of
     * kind that hit at stack depth d (0 = MRU), repeats excluded. */
    std::vector<std::uint64_t> _hist;
    std::uint64_t _accesses[numRefKinds] = {};
    /** References to the line just accessed (depth 0 everywhere). */
    std::uint64_t _repeats[numRefKinds] = {};
    std::uint64_t _lastLine = emptyLine;
    std::uint64_t _compulsory = 0;
    /** Lines ever seen, for compulsory-miss classification. */
    FlatU64Set _touched;
};

} // namespace oma

#endif // OMA_CACHE_CHEETAH_HH
