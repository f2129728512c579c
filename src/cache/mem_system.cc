#include "cache/mem_system.hh"

#include <algorithm>
#include <utility>
#include <vector>

#include "cache/cache.hh"
#include "check/snapshot.hh"
#include "common/log.hh"

namespace libra
{

void
ReplicationTracker::attach(Cache &cache)
{
    libra_assert(cache.replication == nullptr,
                 cache.cfg().name, ": already has a replication tracker");
    cache.replication = this;
}

void
ReplicationTracker::recordInstall(Addr line)
{
    ++totalInstalls;
    const auto count = ++refCount[line];
    if (count > 1)
        ++replicated;
}

void
ReplicationTracker::recordEvict(Addr line)
{
    refCount.decrementOrErase(line);
}

void
ReplicationTracker::exportState(SnapshotWriter &w) const
{
    w.putU64(totalInstalls);
    w.putU64(replicated);
    std::vector<std::pair<Addr, std::uint32_t>> entries;
    refCount.forEach([&entries](Addr line, std::uint32_t refs) {
        entries.emplace_back(line, refs);
    });
    std::sort(entries.begin(), entries.end());
    w.putU64(entries.size());
    for (const auto &[line, refs] : entries) {
        w.putU64(line);
        w.putU32(refs);
    }
}

void
ReplicationTracker::importState(SnapshotReader &r)
{
    totalInstalls = r.takeU64();
    replicated = r.takeU64();
    const std::uint64_t count = r.takeU64();
    for (std::uint64_t i = 0; r.ok() && i < count; ++i) {
        const Addr line = r.takeU64();
        const std::uint32_t refs = r.takeU32();
        if (!r.check(refs > 0, "replication refcount of zero"))
            return;
        refCount[line] = refs;
    }
}

} // namespace libra
