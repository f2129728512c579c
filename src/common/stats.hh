/**
 * @file
 * Lightweight statistics registry.
 *
 * Components declare named Counter members and register them with a
 * StatGroup. The registry supports hierarchical naming
 * ("gpu.ru0.texcache.hits"), full dumps (run reports, the golden
 * counter dump) and restoring every value from a snapshot.
 */

#ifndef LIBRA_COMMON_STATS_HH
#define LIBRA_COMMON_STATS_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/status.hh"

namespace libra
{

/** A monotonically increasing 64-bit event counter. */
class Counter
{
  public:
    Counter() = default;

    void inc(std::uint64_t n = 1) { _value += n; }
    void set(std::uint64_t v) { _value = v; }
    std::uint64_t value() const { return _value; }

    Counter &operator++() { ++_value; return *this; }
    Counter &operator+=(std::uint64_t n) { _value += n; return *this; }

  private:
    std::uint64_t _value = 0;
};

/**
 * A named collection of counters. Groups can nest by name prefix; the
 * registry stores raw pointers, so counters must outlive the group (they
 * are members of the owning component in practice).
 */
class StatGroup
{
  public:
    explicit StatGroup(std::string name) : _name(std::move(name)) {}

    /** Register a counter under this group's prefix. */
    void add(const std::string &stat_name, Counter *counter);

    /** Register every counter of a child group under our prefix. */
    void addChild(const StatGroup &child);

    /** Flat name → value view of everything registered. */
    std::map<std::string, std::uint64_t> values() const;

    /**
     * Set every registered counter from @p values (snapshot restore).
     * The name sets must match exactly both ways — a counter with no
     * saved value or a saved value with no counter is CorruptData, so
     * a snapshot from a differently-wired machine is refused loudly
     * rather than partially applied.
     */
    Status restoreValues(const std::map<std::string, std::uint64_t> &values);

    const std::string &name() const { return _name; }

  private:
    std::string _name;
    std::vector<std::pair<std::string, Counter *>> entries;
};

} // namespace libra

#endif // LIBRA_COMMON_STATS_HH
