/**
 * @file
 * Strict positional-argument parsing shared by the examples. A
 * malformed number is fatal() and names the argument: "12x" is never
 * read as 12, nor "abc" as 0.
 */

#ifndef VGUARD_EXAMPLES_EXAMPLE_ARGS_HPP
#define VGUARD_EXAMPLES_EXAMPLE_ARGS_HPP

#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdlib>

#include "util/decimal.hpp"
#include "util/logging.hpp"

namespace vguard::examples {

/** Non-negative integer argument (vguard::parseDecimal). */
inline uint64_t
countArg(const char *what, const char *text)
{
    uint64_t v = 0;
    if (!parseDecimal(text, v))
        fatal("%s: expected a non-negative integer, got '%s'", what, text);
    return v;
}

/** Positive integer argument (a cycle count). */
inline uint64_t
positiveCountArg(const char *what, const char *text)
{
    uint64_t v = 0;
    if (!parseDecimal(text, v) || v == 0)
        fatal("%s: expected a positive integer, got '%s'", what, text);
    return v;
}

/** Finite positive real, the whole text in strtod's grammar. */
inline double
positiveRealArg(const char *what, const char *text)
{
    char *end = nullptr;
    errno = 0;
    const double v = std::strtod(text, &end);
    if (end == text || *end != '\0' || errno == ERANGE ||
        !std::isfinite(v) || v <= 0.0)
        fatal("%s: expected a positive number, got '%s'", what, text);
    return v;
}

} // namespace vguard::examples

#endif // VGUARD_EXAMPLES_EXAMPLE_ARGS_HPP
