#include "obs/stats.hpp"

#include "common/log.hpp"

namespace spmrt {
namespace obs {

void
StatRegistry::add(const std::string &name, const uint64_t *value)
{
    SPMRT_ASSERT(value != nullptr, "null counter registered as %s",
                 name.c_str());
    auto it = index_.find(name);
    if (it != index_.end()) {
        entries_[it->second].value = value;
        return;
    }
    index_.emplace(name, entries_.size());
    entries_.push_back({name, value});
}

uint64_t
StatRegistry::value(const std::string &name) const
{
    auto it = index_.find(name);
    SPMRT_ASSERT(it != index_.end(), "unknown stat %s", name.c_str());
    return *entries_[it->second].value;
}

void
StatRegistry::forEach(
    const std::function<void(const std::string &, uint64_t)> &fn) const
{
    for (const Entry &entry : entries_)
        fn(entry.name, *entry.value);
}

uint64_t
StatRegistry::sum(const std::string &prefix, const std::string &suffix) const
{
    uint64_t total = 0;
    for (const Entry &entry : entries_) {
        if (entry.name.size() < prefix.size() + suffix.size())
            continue;
        if (entry.name.compare(0, prefix.size(), prefix) != 0)
            continue;
        if (!suffix.empty() &&
            entry.name.compare(entry.name.size() - suffix.size(),
                               suffix.size(), suffix) != 0)
            continue;
        total += *entry.value;
    }
    return total;
}

std::string
StatRegistry::json() const
{
    std::string out = "{\n";
    bool first = true;
    for (const Entry &entry : entries_) {
        if (!first)
            out += ",\n";
        first = false;
        out += log::format("  \"%s\": %llu", entry.name.c_str(),
                           static_cast<unsigned long long>(*entry.value));
    }
    out += "\n}\n";
    return out;
}

} // namespace obs
} // namespace spmrt
