#include "sim/journal.hh"

#include <cerrno>
#include <cstring>
#include <unistd.h>

#include "common/log.hh"

namespace libra
{

Journal::~Journal()
{
    if (file)
        std::fclose(file);
}

Status
Journal::open(const std::string &path, Mode mode)
{
    std::lock_guard<std::mutex> lock(mtx);
    std::FILE *f =
        std::fopen(path.c_str(), mode == Mode::Append ? "ab" : "wb");
    if (!f) {
        return Status::error(ErrorCode::IoError, "journal: cannot open ",
                             path, ": ", std::strerror(errno));
    }
    if (file)
        std::fclose(file);
    file = f;
    filePath = path;
    return Status::ok();
}

Status
Journal::append(const std::string &line)
{
    std::lock_guard<std::mutex> lock(mtx);
    if (killedFlag)
        return Status::ok(); // the "process" is dead; bytes go nowhere
    if (!file) {
        return Status::error(ErrorCode::FailedPrecondition,
                             "journal: append on a closed journal");
    }
    const std::string out = line + '\n';

    ++appendCount;
    if (killAt != 0 && appendCount == killAt) {
        // Simulated kill(9) mid-write: half the line reaches the file,
        // no newline, no fsync, and the process never writes again.
        std::fwrite(out.data(), 1, out.size() / 2, file);
        std::fflush(file);
        killedFlag = true;
        return Status::ok();
    }

    if (std::fwrite(out.data(), 1, out.size(), file) != out.size()) {
        return Status::error(ErrorCode::IoError, "journal: short write "
                             "to ", filePath);
    }
    if (std::fflush(file) != 0 || ::fsync(::fileno(file)) != 0) {
        return Status::error(ErrorCode::IoError, "journal: flush/fsync "
                             "of ", filePath, " failed: ",
                             std::strerror(errno));
    }
    return Status::ok();
}

void
Journal::armKill(std::uint64_t at_append)
{
    std::lock_guard<std::mutex> lock(mtx);
    killAt = at_append;
}

bool
Journal::killed() const
{
    std::lock_guard<std::mutex> lock(mtx);
    return killedFlag;
}

Result<std::vector<JsonValue>>
Journal::load(const std::string &path, const char *schema)
{
    std::vector<JsonValue> records;
    Result<std::string> text = readTextFile(path);
    if (!text.isOk()) {
        if (text.status().code() == ErrorCode::NotFound)
            return records; // no journal yet: nothing recorded
        return Status::error(text.status().code(), "journal: ",
                             text.status().message());
    }

    std::vector<std::string> lines;
    std::size_t start = 0;
    while (start < text->size()) {
        std::size_t end = text->find('\n', start);
        if (end == std::string::npos)
            end = text->size();
        if (end > start)
            lines.push_back(text->substr(start, end - start));
        start = end + 1;
    }

    for (std::size_t i = 0; i < lines.size(); ++i) {
        const bool last = i + 1 == lines.size();
        // A record is only durable once its newline hit the disk; a
        // final line without one is the torn tail of a killed process.
        const bool has_newline = !last || text->back() == '\n';

        Result<JsonValue> doc = parseJson(lines[i]);
        if (!doc.isOk() || !has_newline) {
            if (last) {
                warn("journal ", path, ": discarding torn trailing "
                     "line (", lines[i].size(), " bytes) — interrupted "
                     "append");
                break;
            }
            return Status::error(ErrorCode::CorruptData, "journal ",
                                 path, ": line ", i + 1,
                                 " is unparseable: ",
                                 doc.status().message());
        }
        const JsonValue *s = doc->find("schema");
        if (!s || !s->isString() || s->str != schema) {
            return Status::error(ErrorCode::CorruptData, "journal ",
                                 path, ": line ", i + 1,
                                 " has wrong schema (expected ", schema,
                                 ")");
        }
        records.push_back(std::move(*doc));
    }
    return records;
}

} // namespace libra
