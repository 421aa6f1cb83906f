/**
 * @file
 * gem5-style status and error reporting.
 *
 * panic()  - an internal invariant broke: a pcmscrub bug. Aborts.
 * fatal()  - the user asked for something impossible (bad config,
 *            invalid arguments). Exits with status 1.
 * warn()   - something works but not as well as it should.
 * inform() - plain status output.
 */

#ifndef PCMSCRUB_COMMON_LOGGING_HH
#define PCMSCRUB_COMMON_LOGGING_HH

#include <atomic>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <string>

namespace pcmscrub {

/** printf-style informational message, to stdout. */
void inform(const char *fmt, ...) __attribute__((format(printf, 1, 2)));

/** printf-style warning, to stderr. */
void warn(const char *fmt, ...) __attribute__((format(printf, 1, 2)));

/** User error: print and exit(1). Never returns. */
[[noreturn]] void fatal(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/** Internal error: print and abort(). Never returns. */
[[noreturn]] void panic(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/** panic() unless the condition holds; a printf message is required. */
#define PCMSCRUB_ASSERT(cond, ...)                                     \
    do {                                                               \
        if (!(cond))                                                   \
            ::pcmscrub::panic("assertion '" #cond "' failed: "         \
                              __VA_ARGS__);                            \
    } while (0)

/**
 * warn(), but at most once per call site: for conditions that would
 * otherwise flood the log when every line in a sweep hits them (e.g.
 * spare-pool exhaustion during a fault storm).
 */
#define warn_once(...)                                                 \
    do {                                                               \
        static std::atomic<bool> warned_once_{false};                  \
        if (!warned_once_.exchange(true, std::memory_order_relaxed))   \
            ::pcmscrub::warn(__VA_ARGS__);                             \
    } while (0)

} // namespace pcmscrub

#endif // PCMSCRUB_COMMON_LOGGING_HH
