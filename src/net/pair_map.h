/**
 * @file
 * Sparse per-active-pair state for the delivery-order clamp: an
 * open-addressed hash map from a packed (src, dst) rank pair to the
 * pair's last delivery time. Memory is O(communicating pairs) — the
 * structure that replaced the flat R*R table whose zero-fill alone
 * made 10k+ rank fabrics infeasible (100k ranks = 80 GB).
 */

#ifndef TWOLAYER_NET_PAIR_MAP_H_
#define TWOLAYER_NET_PAIR_MAP_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "sim/logging.h"
#include "sim/types.h"

namespace tli::net {

/**
 * Open-addressed hash map: packed (src, dst) rank pair -> T, the time
 * type of the interconnect that owns it (Time in the simulator,
 * analysis::Affine in the predictor's replay).
 *
 * Absent pairs read as the map's origin — the time its owner's links
 * start idle at (0 for the fabric, as the flat table's zero-fill had
 * it). Every delivery is later than the origin, so an absent pair
 * never clamps anything.
 * Linear probing over a power-of-two table at <= 7/8 load; the hash
 * is a fixed 64-bit mix, so probe order — and therefore memory
 * layout, though never results — is identical across runs and
 * platforms. Values are only ever addressed by key; nothing iterates,
 * so table order cannot leak into simulation behaviour.
 *
 * Construction allocates nothing: a fabric over R ranks costs O(1)
 * until pairs actually communicate (the paper-scale apps touch a few
 * thousand pairs; an all-to-all would touch R^2 and degrade to the
 * dense table's footprint, which is the correct price for that
 * traffic).
 */
template <typename T>
class PairMap
{
  public:
    explicit PairMap(const T &origin = T{}) : origin_(origin) {}

    /** Pack two nonnegative 31-bit ranks into one key. */
    static std::uint64_t
    pack(Rank src, Rank dst)
    {
        return (static_cast<std::uint64_t>(
                    static_cast<std::uint32_t>(src))
                << 32) |
               static_cast<std::uint32_t>(dst);
    }

    /** Last delivery time of (src, dst); the origin if the pair never
     *  spoke. */
    const T &
    get(Rank src, Rank dst) const
    {
        if (slots_.empty())
            return origin_;
        const std::uint64_t key = pack(src, dst);
        const std::size_t mask = slots_.size() - 1;
        for (std::size_t i = hash(key) & mask;; i = (i + 1) & mask) {
            const Slot &s = slots_[i];
            if (s.key == key)
                return s.last;
            if (s.key == emptyKey)
                return origin_;
        }
    }

    /**
     * Mutable last-delivery slot of (src, dst), inserted at the origin
     * on first touch. The reference is invalidated by the next ref().
     */
    T &
    ref(Rank src, Rank dst)
    {
        if (slots_.empty())
            grow(minCapacity);
        const std::uint64_t key = pack(src, dst);
        for (;;) {
            const std::size_t mask = slots_.size() - 1;
            for (std::size_t i = hash(key) & mask;;
                 i = (i + 1) & mask) {
                Slot &s = slots_[i];
                if (s.key == key)
                    return s.last;
                if (s.key == emptyKey) {
                    // Keep load <= 7/8 so probe chains stay short.
                    if ((used_ + 1) * 8 > slots_.size() * 7)
                        break;
                    s.key = key;
                    s.last = origin_;
                    ++used_;
                    return s.last;
                }
            }
            grow(slots_.size() * 2);
        }
    }

    /** Rank pairs that have communicated at least once. */
    std::size_t activePairs() const { return used_; }

    /** Bytes held by the table (the footprint the scaling study reports). */
    std::size_t
    memoryBytes() const
    {
        return slots_.size() * sizeof(Slot);
    }

  private:
    struct Slot
    {
        std::uint64_t key = emptyKey;
        T last{};
    };

    /** Ranks are nonnegative, so the all-ones key can never be packed. */
    static constexpr std::uint64_t emptyKey = ~0ull;
    static constexpr std::size_t minCapacity = 64;

    /** Fixed 64-bit finalizer (splitmix64): deterministic everywhere. */
    static std::size_t
    hash(std::uint64_t x)
    {
        x += 0x9e3779b97f4a7c15ull;
        x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
        x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
        return static_cast<std::size_t>(x ^ (x >> 31));
    }

    void
    grow(std::size_t capacity)
    {
        TLI_ASSERT((capacity & (capacity - 1)) == 0,
                   "capacity must be a power of two");
        std::vector<Slot> old = std::move(slots_);
        slots_.assign(capacity, Slot{});
        const std::size_t mask = capacity - 1;
        for (const Slot &s : old) {
            if (s.key == emptyKey)
                continue;
            std::size_t i = hash(s.key) & mask;
            while (slots_[i].key != emptyKey)
                i = (i + 1) & mask;
            slots_[i] = s;
        }
    }

    T origin_;
    std::vector<Slot> slots_;
    std::size_t used_ = 0;
};

} // namespace tli::net

#endif // TWOLAYER_NET_PAIR_MAP_H_
