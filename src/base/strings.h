/**
 * @file
 * String helpers used by the ADG serializer, command printers and
 * the command line's name and number parsing.
 */

#ifndef DSA_BASE_STRINGS_H
#define DSA_BASE_STRINGS_H

#include <charconv>
#include <optional>
#include <string>
#include <system_error>
#include <vector>

namespace dsa {

/** Split @p s at every occurrence of @p delim (empty pieces kept). */
std::vector<std::string> split(const std::string &s, char delim);

/** Strip leading/trailing whitespace. */
std::string trim(const std::string &s);

/** True iff @p s begins with @p prefix. */
bool startsWith(const std::string &s, const std::string &prefix);

/** Join the elements of @p parts with @p sep. */
std::string join(const std::vector<std::string> &parts,
                 const std::string &sep);

/**
 * All of @p s as a T (an integer or floating-point type), or nullopt
 * when it is not one or does not fit. std::from_chars syntax: decimal,
 * no blanks, no leading '+'.
 */
template <typename T>
std::optional<T>
parseNumber(const std::string &s)
{
    T v{};
    const char *end = s.data() + s.size();
    auto [at, ec] = std::from_chars(s.data(), end, v);
    if (ec != std::errc() || at != end)
        return std::nullopt;
    return v;
}

/** Levenshtein edit distance between @p a and @p b. */
size_t editDistance(const std::string &a, const std::string &b);

/**
 * Suffix for unknown-name errors: the nearest valid name by edit
 * distance (when close enough to be a plausible typo) plus the valid
 * list, e.g. "; did you mean 'fadd'? (valid: add, fadd, ...)". The
 * list is elided past 24 entries.
 */
std::string suggestName(const std::string &name,
                        const std::vector<std::string> &valid);

} // namespace dsa

#endif // DSA_BASE_STRINGS_H
