/**
 * @file
 * Implementation of Tapeworm and the FA TLB size sweep.
 */

#include "tlb/tapeworm.hh"

#include "support/logging.hh"

namespace oma
{

Tapeworm::Tapeworm(const std::vector<TlbParams> &configs,
                   const TlbPenalties &penalties)
{
    fatalIf(configs.empty(), "Tapeworm needs at least one configuration");
    _mmus.reserve(configs.size());
    for (const auto &config : configs)
        _mmus.emplace_back(config, penalties);
}

void
Tapeworm::observe(const MemRef &ref)
{
    for (auto &mmu : _mmus)
        mmu.translate(ref);
}

void
Tapeworm::invalidatePage(std::uint64_t vpn, std::uint32_t asid,
                         bool global)
{
    for (auto &mmu : _mmus)
        mmu.invalidatePage(vpn, asid, global);
}

FaTlbSweep::FaTlbSweep(std::uint64_t max_entries)
    : _maxEntries(max_entries),
      _userHist(max_entries + 1, 0),
      _kernelHist(max_entries + 1, 0)
{
    fatalIf(max_entries == 0, "FaTlbSweep needs max_entries >= 1");
    _stack.reserve(max_entries);
}

void
FaTlbSweep::observe(const MemRef &ref)
{
    if (!ref.mapped || !isMappedAddress(ref.vaddr))
        return;
    ++_translations;
    const bool kernel_seg = inKseg2(ref.vaddr);
    const std::uint64_t vpn = vpnOf(ref.vaddr);
    const std::uint64_t key = kernel_seg
        ? ((1ULL << 63) | vpn)
        : ((std::uint64_t(ref.asid) << 32) | vpn);

    for (std::size_t d = 0; d < _stack.size(); ++d) {
        if (_stack[d] == key) {
            // Hit at depth d: any FA LRU TLB with > d entries hits.
            // Depth d therefore contributes a miss to sizes <= d,
            // which we record by class.
            auto &hist = kernel_seg ? _kernelHist : _userHist;
            ++hist[d];
            for (std::size_t i = d; i > 0; --i)
                _stack[i] = _stack[i - 1];
            _stack[0] = key;
            return;
        }
    }

    if (_touched.insert(key)) {
        if (kernel_seg)
            ++_coldKernel;
        else
            ++_coldUser;
    } else {
        auto &hist = kernel_seg ? _kernelHist : _userHist;
        ++hist[_maxEntries]; // warm but deeper than the tracked stack
    }
    if (_stack.size() < _maxEntries)
        _stack.push_back(0);
    for (std::size_t i = _stack.size() - 1; i > 0; --i)
        _stack[i] = _stack[i - 1];
    _stack[0] = key;
}

std::uint64_t
FaTlbSweep::misses(std::uint64_t entries) const
{
    panicIf(entries == 0 || entries > _maxEntries,
            "FaTlbSweep::misses size out of range");
    std::uint64_t sum = _coldUser + _coldKernel;
    for (std::uint64_t d = entries; d <= _maxEntries; ++d)
        sum += _userHist[d] + _kernelHist[d];
    return sum;
}

std::uint64_t
FaTlbSweep::missesOfClass(std::uint64_t entries, MissClass c) const
{
    panicIf(entries == 0 || entries > _maxEntries,
            "FaTlbSweep::missesOfClass size out of range");
    switch (c) {
      case MissClass::UserMiss: {
        std::uint64_t sum = 0;
        for (std::uint64_t d = entries; d <= _maxEntries; ++d)
            sum += _userHist[d];
        return sum;
      }
      case MissClass::KernelMiss: {
        std::uint64_t sum = 0;
        for (std::uint64_t d = entries; d <= _maxEntries; ++d)
            sum += _kernelHist[d];
        return sum;
      }
      case MissClass::PageFault:
        return _coldUser + _coldKernel;
      default:
        return 0;
    }
}

} // namespace oma
