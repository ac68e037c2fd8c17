#include "sim/result_table.hh"

#include <cstdint>

#include "obs/metrics.hh"
#include "util/logging.hh"

namespace lvplib::sim
{

namespace
{

std::string
format(double v, Fmt fmt)
{
    switch (fmt) {
      case Fmt::Pct:
        return TextTable::fmtPct(v, 1);
      case Fmt::Pct2:
        return TextTable::fmtPct(v, 2);
      case Fmt::Fixed3:
        return TextTable::fmtDouble(v, 3);
      case Fmt::Count:
        return TextTable::fmtCount(static_cast<std::uint64_t>(v));
      case Fmt::Int:
        break;
    }
    return std::to_string(static_cast<std::uint64_t>(v));
}

} // namespace

void
publish(std::initializer_list<std::string_view> parts, double v)
{
    obs::metrics().gauge(obs::metricKey(parts)).set(v);
}

ResultTable::ResultTable(std::string id, std::vector<Column> columns)
    : id_(std::move(id)), columns_(std::move(columns)),
      values_(columns_.size())
{
    std::vector<std::string> header;
    for (const auto &c : columns_)
        header.push_back(c.header);
    table_.header(std::move(header));
}

ResultTable &
ResultTable::row(std::string label, std::string_view key)
{
    rowKey_ = key.empty() ? label : std::string(key);
    table_.row({std::move(label)});
    col_ = 1;
    return *this;
}

const Column &
ResultTable::current() const
{
    lvp_assert(col_ > 0 && col_ < columns_.size(),
               "%s: cell outside the table's columns", id_.c_str());
    return columns_[col_];
}

ResultTable &
ResultTable::cell(double v)
{
    return cell(v, format(v, current().fmt));
}

ResultTable &
ResultTable::cell(double v, std::string shown)
{
    const Column &col = current();
    lvp_assert(!col.key.empty(), "%s: column '%s' publishes nothing",
               id_.c_str(), col.header.c_str());
    values_[col_].push_back(v);
    publish({id_, rowKey_, col.key}, v);
    return text(std::move(shown));
}

ResultTable &
ResultTable::text(std::string s)
{
    current(); // the row has room for another cell
    table_.cell(std::move(s));
    ++col_;
    return *this;
}

ResultTable &
ResultTable::summary(std::string label, Summary fn)
{
    row(std::move(label));
    for (std::size_t c = 1; c < columns_.size(); ++c) {
        if (columns_[c].summarized)
            cell(fn(values_[c]));
        else
            text("-");
    }
    return *this;
}

} // namespace lvplib::sim
