#include "base/strings.h"

#include <algorithm>
#include <sstream>

namespace dsa {

std::vector<std::string>
split(const std::string &s, char delim)
{
    std::vector<std::string> out;
    std::string cur;
    for (char ch : s) {
        if (ch == delim) {
            out.push_back(cur);
            cur.clear();
        } else {
            cur.push_back(ch);
        }
    }
    out.push_back(cur);
    return out;
}

std::string
trim(const std::string &s)
{
    size_t b = s.find_first_not_of(" \t\r\n");
    if (b == std::string::npos)
        return "";
    size_t e = s.find_last_not_of(" \t\r\n");
    return s.substr(b, e - b + 1);
}

bool
startsWith(const std::string &s, const std::string &prefix)
{
    return s.size() >= prefix.size() &&
           s.compare(0, prefix.size(), prefix) == 0;
}

std::string
join(const std::vector<std::string> &parts, const std::string &sep)
{
    std::ostringstream os;
    for (size_t i = 0; i < parts.size(); ++i) {
        if (i)
            os << sep;
        os << parts[i];
    }
    return os.str();
}

size_t
editDistance(const std::string &a, const std::string &b)
{
    // Two-row dynamic program; strings here are short names.
    std::vector<size_t> prev(b.size() + 1), cur(b.size() + 1);
    for (size_t j = 0; j <= b.size(); ++j)
        prev[j] = j;
    for (size_t i = 1; i <= a.size(); ++i) {
        cur[0] = i;
        for (size_t j = 1; j <= b.size(); ++j) {
            size_t sub = prev[j - 1] + (a[i - 1] == b[j - 1] ? 0 : 1);
            cur[j] = std::min({prev[j] + 1, cur[j - 1] + 1, sub});
        }
        std::swap(prev, cur);
    }
    return prev[b.size()];
}

std::string
suggestName(const std::string &name, const std::vector<std::string> &valid)
{
    std::string out;
    const std::string *nearest = nullptr;
    size_t nearestDist = 0;
    for (const auto &v : valid) {
        size_t d = editDistance(name, v);
        if (!nearest || d < nearestDist) {
            nearest = &v;
            nearestDist = d;
        }
    }
    // Only suggest plausible typos: within ~half the name's length.
    if (nearest && nearestDist <= std::max<size_t>(2, name.size() / 2))
        out += "; did you mean '" + *nearest + "'?";
    if (!valid.empty()) {
        out += " (valid: ";
        constexpr size_t kMaxListed = 24;
        for (size_t i = 0; i < valid.size() && i < kMaxListed; ++i) {
            if (i)
                out += ", ";
            out += valid[i];
        }
        if (valid.size() > kMaxListed)
            out += ", ... " + std::to_string(valid.size() - kMaxListed) +
                   " more";
        out += ")";
    }
    return out;
}

} // namespace dsa
