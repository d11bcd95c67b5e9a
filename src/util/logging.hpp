/**
 * @file
 * Status / error reporting helpers in the spirit of gem5's logging.hh.
 *
 * - panic():  an internal invariant was violated (library bug). Aborts.
 * - fatal():  the caller supplied an unusable configuration. Exits(1).
 * - warn():   something is questionable but simulation can continue.
 * - inform(): plain status output.
 *
 * All functions accept printf-style formatting.
 */

#ifndef VGUARD_UTIL_LOGGING_HPP
#define VGUARD_UTIL_LOGGING_HPP

#include <cstdarg>
#include <string>

namespace vguard {

/** Abort with a message; use for internal invariant violations. */
[[noreturn]] void panic(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/** Exit(1) with a message; use for bad user configuration. */
[[noreturn]] void fatal(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/** Print a warning to stderr. */
void warn(const char *fmt, ...) __attribute__((format(printf, 1, 2)));

/** Print an "info: " status line to stdout. */
void inform(const char *fmt, ...) __attribute__((format(printf, 1, 2)));

/**
 * Assert-like helper that is active in all build types.
 * Panics with the given message when the condition is false.
 */
#define VGUARD_CHECK(cond, ...)                                              \
    do {                                                                     \
        if (!(cond))                                                         \
            ::vguard::panic("check failed: %s: " #cond, __func__);           \
    } while (0)

} // namespace vguard

#endif // VGUARD_UTIL_LOGGING_HPP
