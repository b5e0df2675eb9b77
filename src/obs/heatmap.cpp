#include "obs/heatmap.hpp"

#include "common/log.hpp"

namespace spmrt {
namespace obs {

namespace {

/** RFC 4180 quoting: labels like "(0,0)E" contain the separator. */
std::string
csvField(const std::string &field)
{
    if (field.find_first_of(",\"\n") == std::string::npos)
        return field;
    std::string quoted = "\"";
    for (char ch : field) {
        if (ch == '"')
            quoted += '"';
        quoted += ch;
    }
    quoted += '"';
    return quoted;
}

} // namespace

std::string
Heatmap::csv() const
{
    std::string out = csvField(labelColumn);
    for (const std::string &column : columns) {
        out += ',';
        out += csvField(column);
    }
    out += '\n';
    for (size_t r = 0; r < rows.size(); ++r) {
        out += csvField(labels[r]);
        for (uint64_t value : rows[r])
            out += log::format(",%llu",
                               static_cast<unsigned long long>(value));
        out += '\n';
    }
    return out;
}

bool
Heatmap::writeCsv(const std::string &path) const
{
    return log::writeText(path, csv(), "heatmap CSV");
}

} // namespace obs
} // namespace spmrt
