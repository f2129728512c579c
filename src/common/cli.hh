/**
 * @file
 * Tiny command-line option parser shared by the benches and examples.
 *
 * Supports "--name value", "--name=value" and boolean "--flag" forms.
 * Unknown options, repeated options and malformed numeric values
 * ("--frames=abc", "--frames=12x") are fatal so typos in sweep scripts
 * do not silently change what an experiment measures.
 */

#ifndef LIBRA_COMMON_CLI_HH
#define LIBRA_COMMON_CLI_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace libra
{

/** Parsed command line: option map plus positional arguments. */
class CliArgs
{
  public:
    /**
     * Parse argv. @p known lists every accepted option name (without the
     * leading dashes); anything else — as well as giving the same option
     * twice — is a fatal error.
     */
    CliArgs(int argc, const char *const *argv,
            const std::vector<std::string> &known);

    bool has(const std::string &name) const;
    std::string get(const std::string &name,
                    const std::string &fallback) const;

    /**
     * Numeric accessors parse the whole value; trailing garbage,
     * overflow or an empty value is fatal ("--frames=abc" must not
     * quietly run 0 frames). getUint, for counts and durations, also
     * rejects a negative value: "--frames=-1" must die here, not wrap
     * to about 4 billion frames through a static_cast.
     */
    std::uint64_t getUint(const std::string &name,
                          std::uint64_t fallback) const;

    double getDouble(const std::string &name, double fallback) const;
    bool getBool(const std::string &name, bool fallback = false) const;

    /** Comma-separated list value ("a,b,c"). */
    std::vector<std::string> getList(const std::string &name) const;

    const std::vector<std::string> &positional() const { return pos; }

  private:
    std::map<std::string, std::string> opts;
    std::vector<std::string> pos;
};

} // namespace libra

#endif // LIBRA_COMMON_CLI_HH
