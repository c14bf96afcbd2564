/**
 * @file
 * Text formatting shared by the artifacts the tree writes: the stats
 * registry JSON, the JSONL and Chrome traces, the campaign manifest,
 * result and lease files, the config hash, checkpoint errors and
 * invariant findings. One copy of each rule, so the same value
 * renders to the same bytes in every artifact.
 */

#ifndef MORPHCACHE_COMMON_TEXTFMT_HH
#define MORPHCACHE_COMMON_TEXTFMT_HH

#include <cstdarg>
#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>

namespace morphcache {

/**
 * The body of a JSON string literal holding `s` (no surrounding
 * quotes): quote, backslash, newline and tab get their two-byte
 * escapes, other control bytes `\u00XX`.
 */
inline std::string
jsonEscape(std::string_view s)
{
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\t': out += "\\t"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

/** `v` as 16 lowercase hex digits (`%016llx`). */
inline std::string
hex64(std::uint64_t v)
{
    char buf[24];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

/** printf into a string, cut at 511 bytes (diagnostic messages). */
inline std::string
strFormat(const char *fmt, ...)
{
    va_list args;
    va_start(args, fmt);
    char buf[512];
    std::vsnprintf(buf, sizeof(buf), fmt, args);
    va_end(args);
    return std::string(buf);
}

} // namespace morphcache

#endif // MORPHCACHE_COMMON_TEXTFMT_HH
