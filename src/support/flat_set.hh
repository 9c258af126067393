/**
 * @file
 * An insert-only set of 64-bit keys in one flat array.
 *
 * The simulators' first-touch sets (compulsory-miss accounting in
 * Cache, Cheetah and Tapeworm) only ever ask "is this key new?", and
 * a sweep keeps dozens of them alive at once. A node-based
 * std::unordered_set spends about 40 bytes and one allocation per
 * key; open addressing with linear probing spends 8–16 bytes and
 * allocates only when the table doubles. Membership is all the set
 * reports, so no result can depend on its layout or probe order.
 */

#ifndef OMA_SUPPORT_FLAT_SET_HH
#define OMA_SUPPORT_FLAT_SET_HH

#include <bit>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace oma
{

/** Insert-only open-addressing set of std::uint64_t keys. */
class FlatU64Set
{
  public:
    /** Add @p key; true when it was not yet present. */
    bool
    insert(std::uint64_t key)
    {
        if (key == emptySlot) {
            // The marker value itself is tracked out of band.
            const bool fresh = !_hasMarker;
            _hasMarker = true;
            _size += fresh ? 1 : 0;
            return fresh;
        }
        // Keep the load at most one half so probe runs stay short.
        if (2 * (_size + 1) > _slots.size())
            grow();
        for (std::size_t i = home(key);; i = (i + 1) & _mask) {
            if (_slots[i] == key)
                return false;
            if (_slots[i] == emptySlot) {
                _slots[i] = key;
                ++_size;
                return true;
            }
        }
    }

    /** Distinct keys inserted. */
    [[nodiscard]] std::size_t size() const { return _size; }

  private:
    static constexpr std::uint64_t emptySlot = ~std::uint64_t(0);
    static constexpr std::size_t initialSlots = 1024;

    /** Fibonacci hashing: the top bits of key · 2^64/φ. */
    [[nodiscard]] std::size_t
    home(std::uint64_t key) const
    {
        return std::size_t((key * 0x9e3779b97f4a7c15ULL) >> _shift);
    }

    void
    grow()
    {
        const std::vector<std::uint64_t> old = std::exchange(
            _slots, std::vector<std::uint64_t>(
                        _slots.empty() ? initialSlots : 2 * _slots.size(),
                        emptySlot));
        _mask = _slots.size() - 1;
        _shift = 64 - unsigned(std::countr_zero(_slots.size()));
        for (const std::uint64_t key : old) {
            if (key == emptySlot)
                continue;
            std::size_t i = home(key);
            while (_slots[i] != emptySlot)
                i = (i + 1) & _mask;
            _slots[i] = key;
        }
    }

    std::vector<std::uint64_t> _slots; //!< Power-of-two sized.
    std::size_t _mask = 0;
    unsigned _shift = 64;
    std::size_t _size = 0;
    bool _hasMarker = false; //!< emptySlot itself was inserted.
};

} // namespace oma

#endif // OMA_SUPPORT_FLAT_SET_HH
