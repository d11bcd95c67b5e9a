/**
 * @file
 * The one strict decimal parser behind every number read from the
 * command line or the environment (VGUARD_CYCLES,
 * VGUARD_TRACE_CACHE_MB, --threads/--seed, the positional counts of
 * the examples and bench harnesses).
 */

#ifndef VGUARD_UTIL_DECIMAL_HPP
#define VGUARD_UTIL_DECIMAL_HPP

#include <cstdint>
#include <string_view>

namespace vguard {

/**
 * Strict unsigned decimal parse: digits only — no sign, space, base
 * prefix or trailing text — and the value must fit uint64_t. strtoull
 * would wrap "-5" to ~2^64, read "40000x" as 40000 and "010" as 8.
 * Returns false (leaving @p v untouched) on anything else.
 */
bool parseDecimal(std::string_view text, uint64_t &v);

} // namespace vguard

#endif // VGUARD_UTIL_DECIMAL_HPP
