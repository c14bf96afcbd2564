/**
 * @file
 * Strict parsing of numeric command-line values.
 *
 * strtoul() and friends wrap "-1" to the type's maximum, stop at
 * the first bad character ("3x" reads as 3, "2e5" as 2) and read
 * text with no digits as 0, so a typo silently becomes a different
 * run. parseNumber() accepts only text that is, as a whole, one
 * unsigned decimal number (with an optional exponent for a
 * floating-point field) that fits the field's type.
 */

#ifndef MORPHCACHE_COMMON_NUMPARSE_HH
#define MORPHCACHE_COMMON_NUMPARSE_HH

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string_view>
#include <system_error>
#include <type_traits>

namespace morphcache {

/**
 * `text` as a T. Empty when the text is empty, starts with a sign or
 * whitespace, has anything after the number, does not fit in T, or
 * (for a floating-point T) is not finite.
 */
template <typename T>
std::optional<T>
parseNumber(std::string_view text)
{
    static_assert(std::is_arithmetic_v<T> && !std::is_same_v<T, bool>);
    if (text.empty() || text.front() == '-' || text.front() == '+')
        return std::nullopt;
    T value{};
    const char *end = text.data() + text.size();
    const auto [stop, ec] = std::from_chars(text.data(), end, value);
    if (ec != std::errc() || stop != end)
        return std::nullopt;
    if constexpr (std::is_floating_point_v<T>) {
        if (!std::isfinite(value))
            return std::nullopt;
    }
    return value;
}

/**
 * The value of numeric flag `flag`; on a bad value, a message naming
 * the flag and exit status 2.
 */
template <typename T>
T
flagNumber(const char *flag, std::string_view text)
{
    if (const std::optional<T> value = parseNumber<T>(text))
        return *value;
    std::fprintf(stderr, "bad value '%.*s' for %s\n",
                 static_cast<int>(text.size()), text.data(), flag);
    std::exit(2);
}

} // namespace morphcache

#endif // MORPHCACHE_COMMON_NUMPARSE_HH
