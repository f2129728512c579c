#include "check/result_cache.hh"

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <system_error>

#include "check/snapshot.hh"
#include "common/log.hh"
#include "trace/json.hh"

namespace libra
{

namespace
{

namespace fs = std::filesystem;

} // namespace

std::string
ResultCacheKey::toString() const
{
    return "cfg:" + hex16(configHash) + ":scene:" + hex16(sceneHash)
        + ":f" + std::to_string(frames) + "@"
        + std::to_string(firstFrame) + ":v"
        + std::to_string(codeVersion);
}

std::string
ResultCache::entryFileName(const ResultCacheKey &key)
{
    return "res_" + hex16(key.configHash) + "_" + hex16(key.sceneHash)
        + "_f" + std::to_string(key.frames) + "@"
        + std::to_string(key.firstFrame) + "_v"
        + std::to_string(key.codeVersion) + ".lrc";
}

std::vector<std::uint8_t>
buildResultCacheEntry(const ResultCacheKey &key,
                      const std::string &report_json)
{
    SnapshotHeader header;
    header.configHash = key.configHash;
    header.warmPrefixHash = 0; // unused by cache entries
    header.sceneHash = key.sceneHash;
    header.codeVersion = key.codeVersion;
    header.firstFrame = key.firstFrame;
    header.framesDone = key.frames;

    SnapshotWriter w(header);
    w.beginSection(SnapSection::CachedReport);
    w.putString(report_json);
    w.endSection();
    return w.finish();
}

Result<std::string>
parseResultCacheEntry(const ResultCacheKey &key,
                      std::vector<std::uint8_t> bytes)
{
    Result<SnapshotReader> parsed =
        SnapshotReader::parse(std::move(bytes));
    if (!parsed.isOk())
        return parsed.status();
    SnapshotReader &r = *parsed;

    const SnapshotHeader &h = r.header();
    const ResultCacheKey stored{h.configHash, h.sceneHash,
                                h.codeVersion, h.framesDone,
                                h.firstFrame};
    if (!(stored == key)) {
        return Status::error(ErrorCode::FailedPrecondition,
                             "result cache: entry keyed ",
                             stored.toString(), " does not match ",
                             key.toString());
    }

    r.openSection(SnapSection::CachedReport);
    std::string report = r.takeString();
    r.closeSection();
    if (Status st = r.finish(); !st.isOk())
        return st;
    return report;
}

Result<ResultCache>
ResultCache::open(const std::string &dir)
{
    std::error_code ec;
    fs::create_directories(dir, ec);
    if (ec) {
        return Status::error(ErrorCode::IoError,
                             "result cache: cannot create ", dir, ": ",
                             ec.message());
    }
    return ResultCache(dir);
}

Result<std::string>
ResultCache::lookup(const ResultCacheKey &key) const
{
    const fs::path path = fs::path(dirPath) / entryFileName(key);
    std::error_code ec;
    if (!fs::exists(path, ec) || ec) {
        return Status::error(ErrorCode::NotFound,
                             "result cache: no entry for ",
                             key.toString());
    }
    Result<std::vector<std::uint8_t>> bytes =
        readSnapshotFile(path.string());
    if (!bytes.isOk())
        return bytes.status();
    return parseResultCacheEntry(key, std::move(*bytes));
}

Status
ResultCache::store(const ResultCacheKey &key,
                   const std::string &report_json)
{
    const std::vector<std::uint8_t> bytes =
        buildResultCacheEntry(key, report_json);
    // Unique temp name per store so concurrent writers never share a
    // partially-written file; rename is atomic within the directory.
    static std::atomic<std::uint64_t> tempSeq{0};
    const std::uint64_t seq =
        tempSeq.fetch_add(1, std::memory_order_relaxed);
    const fs::path dir(dirPath);
    const fs::path tmp =
        dir / (entryFileName(key) + ".tmp" + std::to_string(seq));
    const fs::path final_path = dir / entryFileName(key);
    if (Status st = writeSnapshotFile(tmp.string(), bytes); !st.isOk())
        return st;
    std::error_code ec;
    fs::rename(tmp, final_path, ec);
    if (ec) {
        fs::remove(tmp, ec);
        return Status::error(ErrorCode::IoError,
                             "result cache: cannot publish entry ",
                             final_path.string(), ": ", ec.message());
    }
    return Status::ok();
}

bool
ResultCache::contains(const ResultCacheKey &key) const
{
    return lookup(key).isOk();
}

Result<std::vector<std::string>>
ResultCache::entries() const
{
    std::vector<std::string> names;
    std::error_code ec;
    for (fs::directory_iterator it(dirPath, ec), end;
         !ec && it != end; it.increment(ec)) {
        const std::string name = it->path().filename().string();
        if (name.rfind("res_", 0) == 0
            && name.size() >= 4
            && name.compare(name.size() - 4, 4, ".lrc") == 0) {
            names.push_back(name);
        }
    }
    if (ec) {
        return Status::error(ErrorCode::IoError,
                             "result cache: cannot list ", dirPath,
                             ": ", ec.message());
    }
    std::sort(names.begin(), names.end());
    return names;
}

Result<std::uint64_t>
ResultCache::trim(std::uint64_t max_entries)
{
    Result<std::vector<std::string>> listed = entries();
    if (!listed.isOk())
        return listed.status();
    if (listed->size() <= max_entries)
        return std::uint64_t(0);

    struct Aged
    {
        fs::file_time_type mtime;
        std::string name;
    };
    std::vector<Aged> aged;
    aged.reserve(listed->size());
    for (const std::string &name : *listed) {
        std::error_code ec;
        const auto mtime =
            fs::last_write_time(fs::path(dirPath) / name, ec);
        if (ec)
            continue; // raced with a concurrent eviction; skip
        aged.push_back({mtime, name});
    }
    std::sort(aged.begin(), aged.end(), [](const Aged &a, const Aged &b) {
        return a.mtime != b.mtime ? a.mtime < b.mtime : a.name < b.name;
    });

    std::uint64_t removed = 0;
    for (const Aged &victim : aged) {
        if (aged.size() - removed <= max_entries)
            break;
        std::error_code ec;
        if (fs::remove(fs::path(dirPath) / victim.name, ec) && !ec)
            ++removed;
    }
    return removed;
}

} // namespace libra
