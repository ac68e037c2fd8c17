#include "util/table.hh"

#include <algorithm>
#include <cstdio>

namespace lvplib
{

void
TextTable::header(std::vector<std::string> cells)
{
    header_ = std::move(cells);
}

void
TextTable::row(std::vector<std::string> cells)
{
    rows_.push_back(std::move(cells));
}

void
TextTable::print(std::ostream &os) const
{
    std::vector<std::size_t> widths(header_.size(), 0);
    auto widen = [&](const std::vector<std::string> &cells) {
        if (cells.size() > widths.size())
            widths.resize(cells.size(), 0);
        for (std::size_t i = 0; i < cells.size(); ++i)
            widths[i] = std::max(widths[i], cells[i].size());
    };
    widen(header_);
    for (const auto &r : rows_)
        widen(r);

    auto emit = [&](const std::vector<std::string> &cells) {
        for (std::size_t i = 0; i < widths.size(); ++i) {
            std::string cell = i < cells.size() ? cells[i] : "";
            os << cell;
            if (i + 1 < widths.size())
                os << std::string(widths[i] - cell.size() + 2, ' ');
        }
        os << '\n';
    };

    emit(header_);
    std::size_t total = 0;
    for (std::size_t w : widths)
        total += w + 2;
    os << std::string(total > 2 ? total - 2 : total, '-') << '\n';
    for (const auto &r : rows_)
        emit(r);
}

std::string
TextTable::fmtPct(double v, int prec)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.*f%%", prec, v);
    return buf;
}

std::string
TextTable::fmtDouble(double v, int prec)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.*f", prec, v);
    return buf;
}

std::string
TextTable::fmtCount(std::uint64_t v)
{
    // Render large counts with an M/K suffix like the paper's Table 1.
    char buf[32];
    if (v >= 10'000'000)
        std::snprintf(buf, sizeof(buf), "%.1fM", static_cast<double>(v) / 1e6);
    else if (v >= 10'000)
        std::snprintf(buf, sizeof(buf), "%.1fK", static_cast<double>(v) / 1e3);
    else
        std::snprintf(buf, sizeof(buf), "%llu",
                      static_cast<unsigned long long>(v));
    return buf;
}

} // namespace lvplib
