#include "common/stats.hh"

#include "common/log.hh"

namespace libra
{

void
StatGroup::add(const std::string &stat_name, Counter *counter)
{
    libra_assert(counter != nullptr, "null counter for ", stat_name);
    entries.emplace_back(_name + "." + stat_name, counter);
}

void
StatGroup::addChild(const StatGroup &child)
{
    for (const auto &[name, counter] : child.entries)
        entries.emplace_back(_name + "." + name, counter);
}

std::map<std::string, std::uint64_t>
StatGroup::values() const
{
    std::map<std::string, std::uint64_t> out;
    for (const auto &[name, counter] : entries)
        out[name] = counter->value();
    return out;
}

Status
StatGroup::restoreValues(const std::map<std::string, std::uint64_t> &values)
{
    if (values.size() != entries.size()) {
        return Status::error(ErrorCode::CorruptData, "stat restore: ",
                             values.size(), " saved counters vs ",
                             entries.size(), " registered");
    }
    for (auto &[name, counter] : entries) {
        const auto it = values.find(name);
        if (it == values.end()) {
            return Status::error(ErrorCode::CorruptData, "stat restore: "
                                 "no saved value for counter ", name);
        }
        counter->set(it->second);
    }
    return Status::ok();
}

} // namespace libra
