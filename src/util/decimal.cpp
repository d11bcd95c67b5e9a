#include "util/decimal.hpp"

#include <limits>

namespace vguard {

bool
parseDecimal(std::string_view text, uint64_t &v)
{
    if (text.empty())
        return false;
    uint64_t acc = 0;
    for (const char c : text) {
        const uint64_t digit = static_cast<uint64_t>(c - '0');
        if (digit > 9 ||
            acc > (std::numeric_limits<uint64_t>::max() - digit) / 10)
            return false;
        acc = acc * 10 + digit;
    }
    v = acc;
    return true;
}

} // namespace vguard
