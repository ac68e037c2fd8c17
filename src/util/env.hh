/**
 * @file
 * Strict numeric parsing of environment variables and flags. lvplib
 * knobs (LVPLIB_SCALE, --jobs, ...) are numeric; a typo silently
 * becoming 0 via atoi, or -1 becoming 2^64-1 via strtoul, is worse
 * than rejecting it loudly, so everything goes through parseUnsigned.
 */

#ifndef LVPLIB_UTIL_ENV_HH
#define LVPLIB_UTIL_ENV_HH

#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string_view>

namespace lvplib
{

/** @p s as a decimal in [@p min, @p max]; std::nullopt unless the
 *  whole of @p s is digits (no sign, no spaces) naming one. */
inline std::optional<unsigned long long>
parseUnsigned(std::string_view s, unsigned long long min = 0,
              unsigned long long max =
                  ~static_cast<unsigned long long>(0))
{
    unsigned long long v = 0;
    const char *end = s.data() + s.size();
    auto [ptr, ec] = std::from_chars(s.data(), end, v);
    if (ec != std::errc() || ptr != end || v < min || v > max)
        return std::nullopt;
    return v;
}

/**
 * Parse environment variable @p name as an unsigned integer.
 *
 * @return The value when @p name is set to a whole base-10 integer
 * within [@p min, @p max]; std::nullopt when the variable is unset.
 * Garbage, trailing characters, overflow, or out-of-range values are
 * rejected with a warning on stderr (and treated as unset), never
 * silently coerced.
 */
inline std::optional<unsigned long long>
envUnsigned(const char *name, unsigned long long min = 0,
            unsigned long long max =
                ~static_cast<unsigned long long>(0))
{
    const char *s = std::getenv(name);
    if (!s || !*s)
        return std::nullopt;
    auto v = parseUnsigned(s, min, max);
    if (!v)
        std::fprintf(stderr,
                     "lvplib: ignoring %s='%s' (expected an integer "
                     "in [%llu, %llu])\n",
                     name, s, min, max);
    return v;
}

} // namespace lvplib

#endif // LVPLIB_UTIL_ENV_HH
