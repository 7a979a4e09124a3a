/**
 * @file
 * FNV-1a, the project's one stable string hash. Scenario fingerprints,
 * result-cache keys and tuning-table content hashes are all built on
 * it and persist across runs, so its constants must never change.
 */

#ifndef TWOLAYER_SIM_HASH_H_
#define TWOLAYER_SIM_HASH_H_

#include <cstdint>
#include <string_view>

namespace tli::sim {

/** FNV-1a of @p s, continuing the hash @p h (the default starts a new
 *  one at the 64-bit offset basis). */
constexpr std::uint64_t
fnv1a(std::string_view s, std::uint64_t h = 0xCBF29CE484222325ULL)
{
    for (unsigned char c : s) {
        h ^= c;
        h *= 0x100000001B3ULL;
    }
    return h;
}

} // namespace tli::sim

#endif // TWOLAYER_SIM_HASH_H_
