/**
 * @file
 * Open-addressed hash map from Addr to a small trivially-copyable value.
 *
 * The simulator's hottest lookups — MSHR matching in every cache level
 * and the texture-L1 replication refcounts — used std::unordered_map,
 * which costs a node allocation per insert and a pointer chase per
 * probe. This map stores entries inline in one power-of-two table with
 * linear probing and backward-shift deletion (no tombstones), so the
 * steady state allocates nothing and probes stay short (load factor is
 * kept at or below 1/2).
 *
 * Iteration order is table order, which depends on hash layout — do not
 * rely on it for anything deterministic-ordered; every in-tree user
 * either treats iteration as a set or sorts afterwards.
 */

#ifndef LIBRA_COMMON_OPEN_ADDR_MAP_HH
#define LIBRA_COMMON_OPEN_ADDR_MAP_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/log.hh"
#include "common/types.hh"

namespace libra
{

template <typename V>
class OpenAddrMap
{
  public:
    struct Entry
    {
        Addr key;
        V value;
        bool used = false;
    };

    /** @p expected_entries sizes the table so the load factor stays at
     *  or below 1/2 without growing (it still grows if exceeded). */
    explicit OpenAddrMap(std::size_t expected_entries = 8)
    {
        std::size_t cap = 8;
        while (cap < expected_entries * 2)
            cap *= 2;
        table.resize(cap);
    }

    std::size_t size() const { return count; }
    bool empty() const { return count == 0; }

    /** Pointer to the value for @p key, or nullptr. Stable only until
     *  the next insert/erase. */
    V *
    find(Addr key)
    {
        Entry &e = table[probe(key)];
        return e.used ? &e.value : nullptr;
    }

    const V *
    find(Addr key) const
    {
        return const_cast<OpenAddrMap *>(this)->find(key);
    }

    bool contains(Addr key) const { return find(key) != nullptr; }

    /** Insert or overwrite; returns a reference to the stored value. */
    V &
    insert(Addr key, V value)
    {
        if ((count + 1) * 2 > table.size())
            grow();
        const std::size_t mask = table.size() - 1;
        for (std::size_t i = indexOf(key);; i = (i + 1) & mask) {
            Entry &e = table[i];
            if (!e.used) {
                e.used = true;
                e.key = key;
                e.value = value;
                ++count;
                return e.value;
            }
            if (e.key == key) {
                e.value = value;
                return e.value;
            }
        }
    }

    /** Value for @p key, default-constructing it when absent. */
    V &
    operator[](Addr key)
    {
        if (V *v = find(key))
            return *v;
        return insert(key, V{});
    }

    /** Remove @p key; false when absent. */
    bool
    erase(Addr key)
    {
        const std::size_t i = probe(key);
        if (!table[i].used)
            return false;
        eraseAt(i);
        return true;
    }

    /** Decrement @p key's value and erase the entry when it reaches
     *  zero, in one probe (a refcount release); false when absent. */
    bool
    decrementOrErase(Addr key)
    {
        const std::size_t i = probe(key);
        if (!table[i].used)
            return false;
        if (--table[i].value == V{})
            eraseAt(i);
        return true;
    }

    void
    clear()
    {
        for (Entry &e : table)
            e.used = false;
        count = 0;
    }

    /** Call @p fn(key, value) for every entry, in table order. */
    template <typename Fn>
    void
    forEach(Fn &&fn) const
    {
        for (const Entry &e : table) {
            if (e.used)
                fn(e.key, e.value);
        }
    }

  private:
    /** Slot holding @p key, or the empty slot ending its probe chain. */
    std::size_t
    probe(Addr key) const
    {
        const std::size_t mask = table.size() - 1;
        std::size_t i = indexOf(key);
        while (table[i].used && table[i].key != key)
            i = (i + 1) & mask;
        return i;
    }

    /** Empty the used slot @p i. Backward-shift deletion keeps probe
     *  chains tombstone-free. */
    void
    eraseAt(std::size_t i)
    {
        const std::size_t mask = table.size() - 1;
        --count;
        std::size_t hole = i;
        for (std::size_t j = (hole + 1) & mask; table[j].used;
             j = (j + 1) & mask) {
            // An entry may fill the hole only if the hole lies within
            // its probe path (circularly between its home slot and j).
            const std::size_t home = indexOf(table[j].key);
            if (((j - home) & mask) >= ((j - hole) & mask)) {
                table[hole] = table[j];
                hole = j;
            }
        }
        table[hole].used = false;
    }

    std::size_t
    indexOf(Addr key) const
    {
        // Fibonacci hashing: multiply then keep the high bits that fit
        // the table. Line addresses share low zero bits; the multiply
        // spreads them across the whole word.
        const std::uint64_t h = key * 0x9E3779B97F4A7C15ull;
        return static_cast<std::size_t>(h >> 32) & (table.size() - 1);
    }

    void
    grow()
    {
        std::vector<Entry> old = std::move(table);
        table.assign(old.size() * 2, Entry{});
        count = 0;
        for (Entry &e : old) {
            if (e.used)
                insert(e.key, e.value);
        }
    }

    std::vector<Entry> table;
    std::size_t count = 0;
};

} // namespace libra

#endif // LIBRA_COMMON_OPEN_ADDR_MAP_HH
