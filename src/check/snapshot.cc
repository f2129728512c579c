#include "check/snapshot.hh"

#include <array>
#include <atomic>
#include <bit>
#include <cerrno>
#include <cstdio>
#include <cstring>

#include <unistd.h>

#include "common/log.hh"
#include "common/rng.hh"
#include "trace/json.hh"

namespace libra
{

namespace
{

constexpr char kMagic[4] = {'L', 'S', 'N', 'P'};

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

/** Spelled out, not looped: GCC -O2 merges this into one load on a
 *  little-endian host, which keeps snapshotCrc32's 8-byte step near
 *  one cycle per byte. */
std::uint32_t
readU32(const std::uint8_t *p)
{
    return static_cast<std::uint32_t>(p[0])
        | static_cast<std::uint32_t>(p[1]) << 8
        | static_cast<std::uint32_t>(p[2]) << 16
        | static_cast<std::uint32_t>(p[3]) << 24;
}

std::uint64_t
readU64(const std::uint8_t *p)
{
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i)
        v |= static_cast<std::uint64_t>(p[i]) << (8 * i);
    return v;
}

} // namespace

std::uint32_t
snapshotCrc32(const std::uint8_t *data, std::size_t len)
{
    // t[0] is the classic byte table; t[k][i] is t[k-1][i] advanced
    // through one more zero byte, so t[k] folds a byte that k more
    // bytes of its 8-byte step follow. The static's initialisation is
    // thread-safe: farm connection threads and workers checksum
    // concurrently.
    static const auto t = [] {
        std::array<std::array<std::uint32_t, 256>, 8> tables{};
        for (std::uint32_t i = 0; i < 256; ++i) {
            std::uint32_t c = i;
            for (int k = 0; k < 8; ++k)
                c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
            tables[0][i] = c;
        }
        for (std::size_t k = 1; k < 8; ++k) {
            for (std::uint32_t i = 0; i < 256; ++i) {
                const std::uint32_t prev = tables[k - 1][i];
                tables[k][i] = tables[0][prev & 0xFFu] ^ (prev >> 8);
            }
        }
        return tables;
    }();
    std::uint32_t crc = 0xFFFFFFFFu;
    for (; len >= 8; data += 8, len -= 8) {
        // readU32 assembles little-endian words byte by byte: no
        // assumption about host byte order or alignment.
        const std::uint32_t lo = crc ^ readU32(data);
        const std::uint32_t hi = readU32(data + 4);
        crc = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu]
            ^ t[5][(lo >> 16) & 0xFFu] ^ t[4][lo >> 24]
            ^ t[3][hi & 0xFFu] ^ t[2][(hi >> 8) & 0xFFu]
            ^ t[1][(hi >> 16) & 0xFFu] ^ t[0][hi >> 24];
    }
    for (; len != 0; ++data, --len)
        crc = t[0][(crc ^ *data) & 0xFFu] ^ (crc >> 8);
    return crc ^ 0xFFFFFFFFu;
}

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
    appendU32(out, snapshotCrc32(out.data() + payloadStart,
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
        const std::uint32_t got =
            snapshotCrc32(bytes.data() + at, payload_len);
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
keyedSnapshotFileName(const char *stem, const SnapshotHeader &key,
                      const char *ext)
{
    return std::string(stem) + "_" + hex16(key.configHash) + "_"
        + hex16(key.sceneHash) + "_f" + std::to_string(key.framesDone)
        + "@" + std::to_string(key.firstFrame) + "_v"
        + std::to_string(key.codeVersion) + ext;
}

Status
writeSnapshotFile(const std::string &path,
                  const std::vector<std::uint8_t> &bytes)
{
    static std::atomic<std::uint64_t> tempSeq{0};
    const std::string tmp = path + ".tmp" + std::to_string(::getpid())
        + "_"
        + std::to_string(tempSeq.fetch_add(1, std::memory_order_relaxed));
    std::FILE *f = std::fopen(tmp.c_str(), "wb");
    if (!f) {
        return Status::error(ErrorCode::IoError, "snapshot: cannot open ",
                             tmp, " for writing: ", std::strerror(errno));
    }
    const std::size_t n = std::fwrite(bytes.data(), 1, bytes.size(), f);
    const bool write_ok = n == bytes.size();
    const bool close_ok = std::fclose(f) == 0;
    if (!write_ok || !close_ok) {
        std::remove(tmp.c_str());
        return Status::error(ErrorCode::IoError,
                             "snapshot: short write to ", tmp);
    }
    if (std::rename(tmp.c_str(), path.c_str()) != 0) {
        const int err = errno;
        std::remove(tmp.c_str());
        return Status::error(ErrorCode::IoError, "snapshot: cannot publish ",
                             path, ": ", std::strerror(err));
    }
    return Status::ok();
}

Result<std::vector<std::uint8_t>>
readSnapshotFile(const std::string &path)
{
    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (!f) {
        const int err = errno;
        return Status::error(err == ENOENT ? ErrorCode::NotFound
                                           : ErrorCode::IoError,
                             "snapshot: cannot open ", path, ": ",
                             std::strerror(err));
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

} // namespace libra
