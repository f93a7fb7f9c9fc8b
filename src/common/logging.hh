/**
 * @file
 * Error and status reporting, following the gem5 fatal/panic convention:
 * fatal() for user errors (bad configuration), panic() for internal bugs.
 */

#ifndef MPC_COMMON_LOGGING_HH
#define MPC_COMMON_LOGGING_HH

#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>

namespace mpc
{

/** printf-style formatting into a std::string. */
std::string strprintf(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/** Internal: print a tagged message to stderr and terminate. */
[[noreturn]] void logAndAbort(const char *tag, const std::string &msg,
                              bool core_dump);

/** Print an informational message to stderr. */
void inform(const std::string &msg);

/** Print a warning message to stderr. */
void warn(const std::string &msg);

/**
 * Report an unrecoverable user-level error (bad configuration, invalid
 * arguments) and exit(1). Not a simulator bug.
 */
template <typename... Args>
[[noreturn]] void
fatal(const char *fmt, Args &&...args)
{
    logAndAbort("fatal", strprintf(fmt, std::forward<Args>(args)...), false);
}

/**
 * Report an internal invariant violation (a bug in mpclust itself) and
 * abort(), possibly dumping core.
 */
template <typename... Args>
[[noreturn]] void
panic(const char *fmt, Args &&...args)
{
    logAndAbort("panic", strprintf(fmt, std::forward<Args>(args)...), true);
}

/** Internal: MPC_ASSERT's failure path, kept out of line so a passing
 *  assertion costs its caller only the test. */
template <typename... Args>
[[noreturn, gnu::cold, gnu::noinline]] void
assertFailed(const char *cond, const char *fmt, Args &&...args)
{
    panic("assertion '%s' failed: %s", cond,
          strprintf(fmt, std::forward<Args>(args)...).c_str());
}

/** panic() with a description when @p cond is false. The description
 *  is a printf-style format string plus its arguments. */
#define MPC_ASSERT(cond, ...)                                                \
    do {                                                                     \
        if (!(cond))                                                         \
            ::mpc::assertFailed(#cond, __VA_ARGS__);                         \
    } while (0)

} // namespace mpc

#endif // MPC_COMMON_LOGGING_HH
