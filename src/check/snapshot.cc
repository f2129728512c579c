#include "check/snapshot.hh"

#include <array>
#include <bit>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <mutex>

#include "common/log.hh"
#include "common/rng.hh"
#include "trace/json.hh"

namespace libra
{

namespace
{

constexpr char kMagic[4] = {'L', 'S', 'N', 'P'};
constexpr const char *kManifestSchema = "libra.snapshot_manifest/1";
constexpr const char *kManifestFile = "manifest.json";

/** CRC-32 (IEEE 802.3, reflected, poly 0xEDB88320), lazy table. */
std::uint32_t
crc32(const std::uint8_t *data, std::size_t len)
{
    static const auto table = [] {
        std::array<std::uint32_t, 256> t{};
        for (std::uint32_t i = 0; i < 256; ++i) {
            std::uint32_t c = i;
            for (int k = 0; k < 8; ++k)
                c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
            t[i] = c;
        }
        return t;
    }();
    std::uint32_t crc = 0xFFFFFFFFu;
    for (std::size_t i = 0; i < len; ++i)
        crc = table[(crc ^ data[i]) & 0xFFu] ^ (crc >> 8);
    return crc ^ 0xFFFFFFFFu;
}

void
appendU32(std::vector<std::uint8_t> &out, std::uint32_t v)
{
    for (int i = 0; i < 4; ++i)
        out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

void
appendU64(std::vector<std::uint8_t> &out, std::uint64_t v)
{
    for (int i = 0; i < 8; ++i)
        out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

std::uint32_t
readU32(const std::uint8_t *p)
{
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i)
        v |= static_cast<std::uint32_t>(p[i]) << (8 * i);
    return v;
}

std::uint64_t
readU64(const std::uint8_t *p)
{
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i)
        v |= static_cast<std::uint64_t>(p[i]) << (8 * i);
    return v;
}

/** Exact u64 from a JSON number via its preserved raw literal. */
Result<std::uint64_t>
asU64(const JsonValue *v, const char *what)
{
    return jsonExactU64(v, what, ErrorCode::CorruptData, "manifest: ");
}

std::string
manifestPath(const std::string &dir)
{
    return dir + "/" + kManifestFile;
}

/** Serializes every manifest read-modify-write in this process. */
std::mutex &
manifestMutex()
{
    static std::mutex m;
    return m;
}

} // namespace

SnapshotWriter::SnapshotWriter(const SnapshotHeader &header)
{
    out.reserve(64);
    for (const char c : kMagic)
        out.push_back(static_cast<std::uint8_t>(c));
    appendU32(out, kSnapshotFormatVersion);
    appendU64(out, header.configHash);
    appendU64(out, header.warmPrefixHash);
    appendU64(out, header.sceneHash);
    appendU32(out, header.codeVersion);
    appendU32(out, header.firstFrame);
    appendU32(out, header.framesDone);
}

void
SnapshotWriter::beginSection(SnapSection tag)
{
    libra_assert(!finished, "snapshot writer reused after finish()");
    libra_assert(!inSection, "nested snapshot section");
    appendU32(out, static_cast<std::uint32_t>(tag));
    appendU64(out, 0); // length backpatched by endSection()
    payloadStart = out.size();
    inSection = true;
}

void
SnapshotWriter::endSection()
{
    libra_assert(inSection, "endSection() outside a section");
    const std::uint64_t len = out.size() - payloadStart;
    for (int i = 0; i < 8; ++i) {
        out[payloadStart - 8 + i] =
            static_cast<std::uint8_t>(len >> (8 * i));
    }
    appendU32(out, crc32(out.data() + payloadStart,
                         static_cast<std::size_t>(len)));
    inSection = false;
}

void
SnapshotWriter::putU8(std::uint8_t v)
{
    libra_assert(inSection, "snapshot put outside a section");
    out.push_back(v);
}

void
SnapshotWriter::putU32(std::uint32_t v)
{
    libra_assert(inSection, "snapshot put outside a section");
    appendU32(out, v);
}

void
SnapshotWriter::putU64(std::uint64_t v)
{
    libra_assert(inSection, "snapshot put outside a section");
    appendU64(out, v);
}

void
SnapshotWriter::putDouble(double v)
{
    putU64(std::bit_cast<std::uint64_t>(v));
}

void
SnapshotWriter::putBool(bool v)
{
    putU8(v ? 1 : 0);
}

void
SnapshotWriter::putString(const std::string &s)
{
    putU64(s.size());
    libra_assert(inSection, "snapshot put outside a section");
    out.insert(out.end(), s.begin(), s.end());
}

std::vector<std::uint8_t>
SnapshotWriter::finish()
{
    libra_assert(!inSection, "finish() with an open section");
    finished = true;
    return std::move(out);
}

Result<SnapshotReader>
SnapshotReader::parse(std::vector<std::uint8_t> bytes)
{
    constexpr std::size_t kHeaderSize = 4 + 4 + 8 * 3 + 4 * 3;
    if (bytes.size() < kHeaderSize) {
        return Status::error(ErrorCode::CorruptData, "snapshot: ",
                             bytes.size(), " bytes is too short for a "
                             "header");
    }
    if (std::memcmp(bytes.data(), kMagic, 4) != 0) {
        return Status::error(ErrorCode::CorruptData,
                             "snapshot: bad magic");
    }
    const std::uint32_t version = readU32(bytes.data() + 4);
    if (version != kSnapshotFormatVersion) {
        return Status::error(ErrorCode::CorruptData,
                             "snapshot: unsupported format version ",
                             version, " (this build reads ",
                             kSnapshotFormatVersion, ")");
    }

    SnapshotReader r;
    r.head.configHash = readU64(bytes.data() + 8);
    r.head.warmPrefixHash = readU64(bytes.data() + 16);
    r.head.sceneHash = readU64(bytes.data() + 24);
    r.head.codeVersion = readU32(bytes.data() + 32);
    r.head.firstFrame = readU32(bytes.data() + 36);
    r.head.framesDone = readU32(bytes.data() + 40);

    std::size_t at = kHeaderSize;
    while (at < bytes.size()) {
        if (bytes.size() - at < 12) {
            return Status::error(ErrorCode::CorruptData,
                                 "snapshot: truncated section frame at "
                                 "offset ", at);
        }
        const std::uint32_t tag = readU32(bytes.data() + at);
        const std::uint64_t len = readU64(bytes.data() + at + 4);
        at += 12;
        if (len > bytes.size() - at
            || bytes.size() - at - static_cast<std::size_t>(len) < 4) {
            return Status::error(ErrorCode::CorruptData,
                                 "snapshot: section ", tag,
                                 " overruns the file (len ", len, ")");
        }
        const auto payload_len = static_cast<std::size_t>(len);
        const std::uint32_t want =
            readU32(bytes.data() + at + payload_len);
        const std::uint32_t got = crc32(bytes.data() + at, payload_len);
        if (want != got) {
            return Status::error(ErrorCode::CorruptData,
                                 "snapshot: section ", tag,
                                 " CRC mismatch");
        }
        r.sections.push_back({static_cast<SnapSection>(tag), at,
                              at + payload_len});
        at += payload_len + 4;
    }
    r.data = std::move(bytes);
    return r;
}

void
SnapshotReader::openSection(SnapSection tag)
{
    if (!err.isOk())
        return;
    if (inSection) {
        fail("section opened inside a section");
        return;
    }
    if (sectionIdx >= sections.size()) {
        fail("section missing (file ends early)");
        return;
    }
    const SectionRef &s = sections[sectionIdx];
    if (s.tag != tag) {
        err = Status::error(ErrorCode::CorruptData,
                            "snapshot: expected section ",
                            static_cast<std::uint32_t>(tag), ", found ",
                            static_cast<std::uint32_t>(s.tag));
        return;
    }
    pos = s.begin;
    sectionEnd = s.end;
    inSection = true;
}

void
SnapshotReader::closeSection()
{
    if (!err.isOk())
        return;
    if (!inSection) {
        fail("closeSection() outside a section");
        return;
    }
    if (pos != sectionEnd) {
        err = Status::error(ErrorCode::CorruptData,
                            "snapshot: section ",
                            static_cast<std::uint32_t>(
                                sections[sectionIdx].tag),
                            " has ", sectionEnd - pos,
                            " unconsumed bytes");
        return;
    }
    inSection = false;
    ++sectionIdx;
}

bool
SnapshotReader::has(std::size_t n)
{
    if (!err.isOk())
        return false;
    if (!inSection || sectionEnd - pos < n) {
        fail("field read past section end");
        return false;
    }
    return true;
}

std::uint8_t
SnapshotReader::takeU8()
{
    if (!has(1))
        return 0;
    return data[pos++];
}

std::uint32_t
SnapshotReader::takeU32()
{
    if (!has(4))
        return 0;
    const std::uint32_t v = readU32(data.data() + pos);
    pos += 4;
    return v;
}

std::uint64_t
SnapshotReader::takeU64()
{
    if (!has(8))
        return 0;
    const std::uint64_t v = readU64(data.data() + pos);
    pos += 8;
    return v;
}

double
SnapshotReader::takeDouble()
{
    return std::bit_cast<double>(takeU64());
}

bool
SnapshotReader::takeBool()
{
    const std::uint8_t v = takeU8();
    check(v <= 1, "bool field out of range");
    return v == 1;
}

std::string
SnapshotReader::takeString()
{
    const std::uint64_t len = takeU64();
    if (!check(len <= sectionEnd - pos, "string overruns its section"))
        return {};
    if (!has(static_cast<std::size_t>(len)))
        return {};
    std::string s(reinterpret_cast<const char *>(data.data() + pos),
                  static_cast<std::size_t>(len));
    pos += static_cast<std::size_t>(len);
    return s;
}

bool
SnapshotReader::check(bool cond, const char *what)
{
    if (!err.isOk())
        return false;
    if (!cond)
        fail(what);
    return cond;
}

void
SnapshotReader::fail(const char *what)
{
    if (err.isOk())
        err = Status::error(ErrorCode::CorruptData, "snapshot: ", what);
}

Status
SnapshotReader::finish() const
{
    if (!err.isOk())
        return err;
    if (inSection) {
        return Status::error(ErrorCode::CorruptData,
                             "snapshot: load ended inside a section");
    }
    if (sectionIdx != sections.size()) {
        return Status::error(ErrorCode::CorruptData, "snapshot: ",
                             sections.size() - sectionIdx,
                             " trailing unread section(s)");
    }
    return Status::ok();
}

std::uint64_t
snapshotSceneHash(const std::string &abbrev, std::uint32_t width,
                  std::uint32_t height)
{
    std::uint64_t h = 0x5ce'e4a5ull; // arbitrary fixed basis
    for (const char c : abbrev)
        h = hashCombine(h, static_cast<std::uint64_t>(
                               static_cast<unsigned char>(c)));
    h = hashCombine(h, width);
    h = hashCombine(h, height);
    return h;
}

std::string
snapshotFileName(std::uint64_t config_hash, std::uint64_t scene_hash,
                 std::uint32_t frames_done)
{
    return "ckpt_" + hex16(config_hash) + "_" + hex16(scene_hash) + "_f"
           + std::to_string(frames_done) + ".lsnp";
}

Status
writeSnapshotFile(const std::string &path,
                  const std::vector<std::uint8_t> &bytes)
{
    std::FILE *f = std::fopen(path.c_str(), "wb");
    if (!f) {
        return Status::error(ErrorCode::IoError, "snapshot: cannot open ",
                             path, " for writing: ",
                             std::strerror(errno));
    }
    const std::size_t n = std::fwrite(bytes.data(), 1, bytes.size(), f);
    const bool write_ok = n == bytes.size();
    const bool close_ok = std::fclose(f) == 0;
    if (!write_ok || !close_ok) {
        return Status::error(ErrorCode::IoError,
                             "snapshot: short write to ", path);
    }
    return Status::ok();
}

Result<std::vector<std::uint8_t>>
readSnapshotFile(const std::string &path)
{
    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (!f) {
        return Status::error(ErrorCode::IoError, "snapshot: cannot open ",
                             path, ": ", std::strerror(errno));
    }
    std::vector<std::uint8_t> bytes;
    std::uint8_t buf[65536];
    std::size_t n;
    while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0)
        bytes.insert(bytes.end(), buf, buf + n);
    const bool read_error = std::ferror(f) != 0;
    std::fclose(f);
    if (read_error) {
        return Status::error(ErrorCode::IoError, "snapshot: read of ",
                             path, " failed");
    }
    return bytes;
}

Result<std::vector<SnapshotManifestEntry>>
loadSnapshotManifest(const std::string &dir)
{
    std::vector<SnapshotManifestEntry> entries;
    const std::string path = manifestPath(dir);
    Result<std::string> text = readTextFile(path);
    if (!text.isOk()) {
        if (text.status().code() == ErrorCode::NotFound)
            return entries; // fresh checkpoint dir: no manifest yet
        return Status::error(text.status().code(), "manifest: ",
                             text.status().message());
    }

    Result<JsonValue> doc = parseJson(*text);
    if (!doc.isOk())
        return doc.status();
    const JsonValue *schema = doc->find("schema");
    if (!schema || !schema->isString()
        || schema->str != kManifestSchema) {
        return Status::error(ErrorCode::CorruptData, "manifest ", path,
                             ": wrong schema (expected ",
                             kManifestSchema, ")");
    }
    const JsonValue *snaps = doc->find("snapshots");
    if (!snaps || !snaps->isArray()) {
        return Status::error(ErrorCode::CorruptData, "manifest ", path,
                             ": missing snapshots array");
    }
    for (const JsonValue &row : snaps->items) {
        if (!row.isObject()) {
            return Status::error(ErrorCode::CorruptData, "manifest ",
                                 path, ": snapshot row is not an "
                                 "object");
        }
        SnapshotManifestEntry e;
        const JsonValue *cfg = row.find("config_hash");
        const JsonValue *scene = row.find("scene_hash");
        const JsonValue *file = row.find("file");
        if (!cfg || !cfg->isString() || !scene || !scene->isString()
            || !file || !file->isString()) {
            return Status::error(ErrorCode::CorruptData, "manifest ",
                                 path, ": row lacks hashes/file");
        }
        Result<std::uint64_t> ch =
            parseHex64(cfg->str, "config_hash", "manifest: ");
        if (!ch.isOk())
            return ch.status();
        e.configHash = *ch;
        Result<std::uint64_t> sh =
            parseHex64(scene->str, "scene_hash", "manifest: ");
        if (!sh.isOk())
            return sh.status();
        e.sceneHash = *sh;
        e.file = file->str;

        Result<std::uint64_t> cv =
            asU64(row.find("code_version"), "code_version");
        if (!cv.isOk())
            return cv.status();
        e.codeVersion = static_cast<std::uint32_t>(*cv);
        Result<std::uint64_t> ff =
            asU64(row.find("first_frame"), "first_frame");
        if (!ff.isOk())
            return ff.status();
        e.firstFrame = static_cast<std::uint32_t>(*ff);
        Result<std::uint64_t> fd =
            asU64(row.find("frames_done"), "frames_done");
        if (!fd.isOk())
            return fd.status();
        e.framesDone = static_cast<std::uint32_t>(*fd);
        entries.push_back(std::move(e));
    }
    return entries;
}

Status
recordSnapshotInManifest(const std::string &dir,
                         const SnapshotManifestEntry &entry)
{
    std::lock_guard<std::mutex> lock(manifestMutex());
    std::vector<SnapshotManifestEntry> entries;
    Result<std::vector<SnapshotManifestEntry>> loaded =
        loadSnapshotManifest(dir);
    if (loaded.isOk()) {
        entries = std::move(*loaded);
    } else {
        warn("checkpoint manifest in ", dir, " unreadable (",
             loaded.status().toString(), "); rewriting it");
    }

    bool replaced = false;
    for (SnapshotManifestEntry &e : entries) {
        if (e.configHash == entry.configHash
            && e.sceneHash == entry.sceneHash
            && e.firstFrame == entry.firstFrame
            && e.framesDone == entry.framesDone) {
            e = entry;
            replaced = true;
            break;
        }
    }
    if (!replaced)
        entries.push_back(entry);

    JsonWriter w;
    w.beginObject();
    w.key("schema");
    w.value(kManifestSchema);
    w.key("snapshots");
    w.beginArray();
    for (const SnapshotManifestEntry &e : entries) {
        w.beginObject();
        w.key("config_hash");
        w.value(hex16(e.configHash));
        w.key("scene_hash");
        w.value(hex16(e.sceneHash));
        w.key("code_version");
        w.value(std::uint64_t(e.codeVersion));
        w.key("first_frame");
        w.value(std::uint64_t(e.firstFrame));
        w.key("frames_done");
        w.value(std::uint64_t(e.framesDone));
        w.key("file");
        w.value(e.file);
        w.endObject();
    }
    w.endArray();
    w.endObject();
    return writeTextFile(manifestPath(dir), w.str());
}

const SnapshotManifestEntry *
findSnapshotEntry(const std::vector<SnapshotManifestEntry> &entries,
                  std::uint64_t config_hash, std::uint64_t scene_hash,
                  std::uint32_t first_frame, std::uint32_t max_frames)
{
    const SnapshotManifestEntry *best = nullptr;
    for (const SnapshotManifestEntry &e : entries) {
        if (e.configHash != config_hash || e.sceneHash != scene_hash
            || e.codeVersion != kSnapshotCodeVersion
            || e.firstFrame != first_frame || e.framesDone > max_frames)
            continue;
        // Total order: freshest first (most frames done), ties broken
        // by file path ascending. Manifest enumeration order is append
        // order — a manifest rewritten after concurrent sweeps can list
        // equal-framesDone entries either way round, and resume must
        // pick the same snapshot every time.
        if (!best || e.framesDone > best->framesDone
            || (e.framesDone == best->framesDone && e.file < best->file))
            best = &e;
    }
    return best;
}

} // namespace libra
