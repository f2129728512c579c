#include "check/result_cache.hh"

#include <algorithm>
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

/** The container header an entry for @p key carries; its fields are
 *  the key (the warm-prefix hash is unused by cache entries). */
SnapshotHeader
headerOf(const ResultCacheKey &key)
{
    SnapshotHeader header;
    header.configHash = key.configHash;
    header.sceneHash = key.sceneHash;
    header.codeVersion = key.codeVersion;
    header.firstFrame = key.firstFrame;
    header.framesDone = key.frames;
    return header;
}

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
    return keyedSnapshotFileName("res", headerOf(key), ".lrc");
}

std::vector<std::uint8_t>
buildResultCacheEntry(const ResultCacheKey &key,
                      const std::string &report_json)
{
    SnapshotWriter w(headerOf(key));
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
    Result<std::vector<std::uint8_t>> bytes = readSnapshotFile(
        (fs::path(dirPath) / entryFileName(key)).string());
    if (!bytes.isOk())
        return bytes.status(); // NotFound is a plain miss
    return parseResultCacheEntry(key, std::move(*bytes));
}

Status
ResultCache::store(const ResultCacheKey &key,
                   const std::string &report_json)
{
    return writeSnapshotFile(
        (fs::path(dirPath) / entryFileName(key)).string(),
        buildResultCacheEntry(key, report_json));
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
