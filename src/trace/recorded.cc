/**
 * @file
 * Out-of-line pieces of RecordedTrace.
 */

#include "trace/recorded.hh"

#include "support/logging.hh"

namespace oma
{

void
RecordedTrace::checkEncodable(const MemRef &ref)
{
    fatalIf(ref.vaddr > 0xffffffffULL || ref.paddr > 0xffffffffULL,
            "reference does not fit the packed 32-bit trace encoding");
    fatalIf(ref.asid > 0xff,
            "ASID does not fit the packed trace encoding");
}

MemRef
RecordedTrace::at(std::uint64_t i) const
{
    fatalIf(i >= _size, "trace reference index out of range");
    const Chunk &c = _chunks[i / chunkRefs];
    return decode(c, std::size_t(i % chunkRefs));
}

TraceChunkView
RecordedTrace::chunkView(std::size_t c) const
{
    fatalIf(c >= numChunks(), "trace chunk index out of range");
    const Chunk &chunk = _chunks[c];
    return {chunk.vaddr.data(), chunk.paddr.data(),
            chunk.asid.data(),  chunk.flags.data(),
            chunk.size(),       _base + std::uint64_t(c) * chunkRefs};
}

void
RecordedTrace::restart(std::uint64_t base)
{
    panicIf(base % chunkRefs != 0,
            "trace window base must be chunk-aligned");
    for (Chunk &c : _chunks)
        c.clear();
    _events.clear();
    _size = 0;
    _base = base;
    _otherCpi = 0.0;
}

void
RecordedTrace::newChunk()
{
    Chunk c;
    c.vaddr.reserve(chunkRefs);
    c.paddr.reserve(chunkRefs);
    c.asid.reserve(chunkRefs);
    c.flags.reserve(chunkRefs);
    _chunks.push_back(std::move(c));
}

} // namespace oma
