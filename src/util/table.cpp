#include "util/table.hpp"

#include <algorithm>
#include <cstdio>

namespace vguard {

Table::Table(std::vector<std::string> headers) : headers_(std::move(headers))
{
}

void
Table::addRow(std::vector<std::string> cells)
{
    cells.resize(headers_.size());
    rows_.push_back(std::move(cells));
}

std::string
Table::fmt(double v, int precision)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.*g", precision, v);
    return buf;
}

std::string
Table::ascii() const
{
    std::vector<size_t> width(headers_.size(), 0);
    for (size_t c = 0; c < headers_.size(); ++c)
        width[c] = headers_[c].size();
    for (const auto &row : rows_)
        for (size_t c = 0; c < row.size(); ++c)
            width[c] = std::max(width[c], row[c].size());

    auto emit = [&](const std::vector<std::string> &row, std::string &out) {
        for (size_t c = 0; c < headers_.size(); ++c) {
            const std::string &cell = c < row.size() ? row[c] : "";
            out += cell;
            if (c + 1 < headers_.size())
                out += std::string(width[c] - cell.size() + 2, ' ');
        }
        out += '\n';
    };

    std::string out;
    emit(headers_, out);
    size_t total = 0;
    for (size_t c = 0; c < width.size(); ++c)
        total += width[c] + (c + 1 < width.size() ? 2 : 0);
    out += std::string(total, '-') + '\n';
    for (const auto &row : rows_)
        emit(row, out);
    return out;
}

} // namespace vguard
