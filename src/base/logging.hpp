/**
 * @file
 * Status and error reporting helpers in the gem5 tradition.
 *
 * panic()  - a model bug: a condition that must never occur regardless
 *            of what the user does.  Aborts.
 * fatal()  - a user error: bad program text, invalid configuration.
 *            Throws FatalError so embedding code (REPL, tests) can
 *            recover.
 * warn()   - something is off but execution can continue.
 * inform() - plain status output.
 */

#ifndef PSI_BASE_LOGGING_HPP
#define PSI_BASE_LOGGING_HPP

#include <sstream>
#include <stdexcept>
#include <string>

namespace psi {

/** Exception thrown by fatal(); carries the formatted message. */
class FatalError : public std::runtime_error
{
  public:
    explicit FatalError(const std::string &msg)
        : std::runtime_error(msg)
    {}
};

namespace detail {

[[noreturn]] void panicImpl(const char *file, int line,
                            const std::string &msg);
[[noreturn]] void fatalImpl(const std::string &msg);
void warnImpl(const std::string &msg);
void informImpl(const std::string &msg);

/** Stream-concatenate a parameter pack into one string. */
template <typename... Args>
std::string
concat(Args &&...args)
{
    std::ostringstream os;
    (os << ... << std::forward<Args>(args));
    return os.str();
}

} // namespace detail

/** Abort with a model-bug diagnostic. */
template <typename... Args>
[[noreturn]] void
panic(Args &&...args)
{
    detail::panicImpl(__FILE__, __LINE__,
                      detail::concat(std::forward<Args>(args)...));
}

/** Raise a user-level error (throws FatalError). */
template <typename... Args>
[[noreturn]] void
fatal(Args &&...args)
{
    detail::fatalImpl(detail::concat(std::forward<Args>(args)...));
}

/** Emit a warning to stderr. */
template <typename... Args>
void
warn(Args &&...args)
{
    detail::warnImpl(detail::concat(std::forward<Args>(args)...));
}

/** Emit an informational message to stderr. */
template <typename... Args>
void
inform(Args &&...args)
{
    detail::informImpl(detail::concat(std::forward<Args>(args)...));
}

namespace detail {

/**
 * PSI_ASSERT's failure path.  Out of line and cold, so an assertion
 * costs its caller one compare and branch and never stops the
 * compiler from inlining the function that holds it.
 */
template <typename... Args>
[[noreturn, gnu::cold, gnu::noinline]] void
assertFailed(const char *file, int line, const Args &...args)
{
    panicImpl(file, line, concat(args...));
}

} // namespace detail

/** panic() unless the given model invariant holds. */
#define PSI_ASSERT(cond, ...)                                          \
    do {                                                               \
        if (!(cond)) {                                                 \
            ::psi::detail::assertFailed(__FILE__, __LINE__,            \
                                        "assertion '" #cond "' failed ",\
                                        ##__VA_ARGS__);                \
        }                                                              \
    } while (0)

} // namespace psi

#endif // PSI_BASE_LOGGING_HPP
