#include "common/cli.hh"

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <sstream>

#include "common/log.hh"

namespace libra
{

CliArgs::CliArgs(int argc, const char *const *argv,
                 const std::vector<std::string> &known)
{
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg.rfind("--", 0) != 0) {
            pos.push_back(arg);
            continue;
        }
        arg = arg.substr(2);
        std::string value;
        const auto eq = arg.find('=');
        if (eq != std::string::npos) {
            value = arg.substr(eq + 1);
            arg = arg.substr(0, eq);
        } else if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0)
                   != 0) {
            value = argv[++i];
        } else {
            value = "1"; // bare boolean flag
        }
        if (std::find(known.begin(), known.end(), arg) == known.end())
            fatal("unknown option --", arg);
        if (opts.count(arg) != 0)
            fatal("duplicate option --", arg);
        opts[arg] = value;
    }
}

bool
CliArgs::has(const std::string &name) const
{
    return opts.count(name) != 0;
}

std::string
CliArgs::get(const std::string &name, const std::string &fallback) const
{
    auto it = opts.find(name);
    return it == opts.end() ? fallback : it->second;
}

std::uint64_t
CliArgs::getUint(const std::string &name, std::uint64_t fallback) const
{
    auto it = opts.find(name);
    if (it == opts.end())
        return fallback;
    const std::string &text = it->second;
    // strtoull quietly wraps negative input; reject the sign up front.
    if (text.find('-') != std::string::npos) {
        fatal("option --", name, ": expected a non-negative integer, "
              "got '", text, "'");
    }
    errno = 0;
    char *end = nullptr;
    const unsigned long long value = std::strtoull(text.c_str(), &end, 0);
    if (text.empty() || end != text.c_str() + text.size())
        fatal("option --", name, ": expected an integer, got '", text,
              "'");
    if (errno == ERANGE)
        fatal("option --", name, ": value '", text, "' out of range");
    return value;
}

double
CliArgs::getDouble(const std::string &name, double fallback) const
{
    auto it = opts.find(name);
    if (it == opts.end())
        return fallback;
    const std::string &text = it->second;
    errno = 0;
    char *end = nullptr;
    const double value = std::strtod(text.c_str(), &end);
    if (text.empty() || end != text.c_str() + text.size())
        fatal("option --", name, ": expected a number, got '", text,
              "'");
    if (errno == ERANGE)
        fatal("option --", name, ": value '", text, "' out of range");
    return value;
}

bool
CliArgs::getBool(const std::string &name, bool fallback) const
{
    auto it = opts.find(name);
    if (it == opts.end())
        return fallback;
    return it->second != "0" && it->second != "false";
}

std::vector<std::string>
CliArgs::getList(const std::string &name) const
{
    std::vector<std::string> out;
    auto it = opts.find(name);
    if (it == opts.end())
        return out;
    std::stringstream ss(it->second);
    std::string item;
    while (std::getline(ss, item, ',')) {
        if (!item.empty())
            out.push_back(item);
    }
    return out;
}

} // namespace libra
