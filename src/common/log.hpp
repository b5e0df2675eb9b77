/**
 * @file
 * Logging and error-reporting helpers in the spirit of gem5's
 * base/logging.hh: panic() for internal invariant violations, fatal() for
 * user/configuration errors, warn() for status messages, plus the
 * printf-style format(), the JSON string escaper and the checked file
 * writer every output shares.
 */

#ifndef SPMRT_COMMON_LOG_HPP
#define SPMRT_COMMON_LOG_HPP

#include <cstdio>
#include <cstdlib>
#include <string>

namespace spmrt {
namespace log {

/** Printf-style formatting into a std::string. */
std::string format(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/**
 * @p raw escaped for the inside of a JSON string literal: quotes and
 * backslashes get a backslash, newline, tab and carriage return their
 * short forms, and other control bytes a six-character unicode escape.
 */
std::string jsonEscape(const std::string &raw);

/**
 * Replace the file at @p path with @p text. A file that cannot be
 * opened, a short write or a failed final flush (a full disk can surface
 * only when fclose() flushes the buffer) warns, naming @p what, and
 * returns false.
 */
bool writeText(const std::string &path, const std::string &text,
               const char *what);

/** Internal sinks; prefer the macros below which add location info. */
[[noreturn]] void panicImpl(const char *file, int line, const std::string &msg);
[[noreturn]] void fatalImpl(const char *file, int line, const std::string &msg);
void warnImpl(const std::string &msg);

} // namespace log
} // namespace spmrt

/**
 * Abort the process: something happened that should never happen regardless
 * of user input (a simulator/runtime bug). Calls abort() so a core dump or
 * debugger trap is produced.
 */
#define SPMRT_PANIC(...) \
    ::spmrt::log::panicImpl(__FILE__, __LINE__, \
                            ::spmrt::log::format(__VA_ARGS__))

/**
 * Terminate cleanly with an error: the condition is the user's fault
 * (bad configuration, invalid arguments), not a bug. Calls exit(1).
 */
#define SPMRT_FATAL(...) \
    ::spmrt::log::fatalImpl(__FILE__, __LINE__, \
                            ::spmrt::log::format(__VA_ARGS__))

/** Non-fatal notice that behaviour may be approximate or suspicious. */
#define SPMRT_WARN(...) \
    ::spmrt::log::warnImpl(::spmrt::log::format(__VA_ARGS__))

/** Assertion that is active in all build types (unlike <cassert>). */
#define SPMRT_ASSERT(cond, ...) \
    do { \
        if (!(cond)) { \
            ::spmrt::log::panicImpl( \
                __FILE__, __LINE__, \
                std::string("assertion failed: ") + #cond + "; " + \
                    ::spmrt::log::format(__VA_ARGS__)); \
        } \
    } while (0)

#endif // SPMRT_COMMON_LOG_HPP
