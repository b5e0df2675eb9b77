#include "obs/heatmap.hpp"

#include <cstdio>

#include "common/log.hpp"

namespace spmrt {
namespace obs {

namespace {

bool
writeText(const std::string &path, const std::string &text,
          const char *what)
{
    FILE *f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
        SPMRT_WARN("cannot write %s to %s", what, path.c_str());
        return false;
    }
    size_t written = std::fwrite(text.data(), 1, text.size(), f);
    std::fclose(f);
    if (written != text.size()) {
        SPMRT_WARN("short write of %s to %s", what, path.c_str());
        return false;
    }
    return true;
}

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
    return writeText(path, csv(), "heatmap CSV");
}

} // namespace obs
} // namespace spmrt
