#include "check/fault_injector.hh"

#include <charconv>
#include <sstream>

#include "common/rng.hh"

namespace libra
{

const char *
faultKindName(FaultKind kind)
{
    switch (kind) {
      case FaultKind::WatchdogTrip: return "watchdog";
      case FaultKind::DropCacheFill: return "dropfill";
      case FaultKind::DramStall: return "dramstall";
      case FaultKind::TransientFail: return "transient";
      case FaultKind::KillPoint: return "kill";
    }
    return "unknown";
}

namespace
{

/** Split @p s on @p sep into non-empty trimmed pieces. */
std::vector<std::string>
split(std::string_view s, char sep)
{
    std::vector<std::string> out;
    std::size_t start = 0;
    while (start <= s.size()) {
        std::size_t end = s.find(sep, start);
        if (end == std::string_view::npos)
            end = s.size();
        std::string_view piece = s.substr(start, end - start);
        while (!piece.empty() && piece.front() == ' ')
            piece.remove_prefix(1);
        while (!piece.empty() && piece.back() == ' ')
            piece.remove_suffix(1);
        if (!piece.empty())
            out.emplace_back(piece);
        start = end + 1;
    }
    return out;
}

Result<std::uint64_t>
parseU64(std::string_view text, std::string_view what)
{
    std::uint64_t value = 0;
    const char *first = text.data();
    const char *last = text.data() + text.size();
    auto [ptr, ec] = std::from_chars(first, last, value);
    if (ec != std::errc() || ptr != last || text.empty()) {
        return Status::error(ErrorCode::InvalidArgument,
                             "fault plan: bad number for ", what, ": '",
                             std::string(text), "'");
    }
    return value;
}

/** One "k=v" pair applied onto @p spec; unknown keys are errors. */
Status
applyParam(FaultSpec &spec, std::string_view key, std::uint64_t value)
{
    if (key == "frame")
        spec.frame = value;
    else if (key == "every")
        spec.every = value;
    else if (key == "ticks")
        spec.ticks = value;
    else if (key == "job")
        spec.job = value;
    else if (key == "count")
        spec.count = value;
    else if (key == "append")
        spec.append = value;
    else {
        return Status::error(ErrorCode::InvalidArgument,
                             "fault plan: unknown parameter '",
                             std::string(key), "' for ",
                             faultKindName(spec.kind));
    }
    return Status::ok();
}

} // namespace

std::string
FaultPlan::toString() const
{
    if (faults.empty() && seed == 0)
        return ""; // the empty plan round-trips to the empty spec
    std::ostringstream os;
    os << "seed=" << seed;
    for (const FaultSpec &f : faults) {
        os << ';' << faultKindName(f.kind);
        switch (f.kind) {
          case FaultKind::WatchdogTrip:
            os << "@frame=" << f.frame;
            break;
          case FaultKind::DropCacheFill:
            os << ':' << f.target << "@every=" << f.every;
            break;
          case FaultKind::DramStall:
            os << "@every=" << f.every << ",ticks=" << f.ticks;
            break;
          case FaultKind::TransientFail:
            os << "@job=" << f.job << ",count=" << f.count;
            break;
          case FaultKind::KillPoint:
            os << "@append=" << f.append;
            break;
        }
    }
    return os.str();
}

Result<FaultPlan>
FaultPlan::parse(const std::string &spec)
{
    FaultPlan plan;
    for (const std::string &item : split(spec, ';')) {
        // item := keyword[:target][@k=v[,k=v...]]  |  seed=N
        const std::size_t at = item.find('@');
        std::string head = item.substr(0, at);
        const std::string params =
            at == std::string::npos ? "" : item.substr(at + 1);

        if (head.rfind("seed=", 0) == 0) {
            Result<std::uint64_t> s = parseU64(
                std::string_view(head).substr(5), "seed");
            if (!s.isOk())
                return s.status();
            plan.seed = *s;
            continue;
        }

        FaultSpec fault;
        const std::size_t colon = head.find(':');
        const std::string keyword = head.substr(0, colon);
        if (colon != std::string::npos)
            fault.target = head.substr(colon + 1);

        if (keyword == "watchdog")
            fault.kind = FaultKind::WatchdogTrip;
        else if (keyword == "dropfill")
            fault.kind = FaultKind::DropCacheFill;
        else if (keyword == "dramstall")
            fault.kind = FaultKind::DramStall;
        else if (keyword == "transient")
            fault.kind = FaultKind::TransientFail;
        else if (keyword == "kill")
            fault.kind = FaultKind::KillPoint;
        else {
            return Status::error(ErrorCode::InvalidArgument,
                                 "fault plan: unknown fault '", item,
                                 "'");
        }

        for (const std::string &kv : split(params, ',')) {
            const std::size_t eq = kv.find('=');
            if (eq == std::string::npos) {
                return Status::error(ErrorCode::InvalidArgument,
                                     "fault plan: expected k=v, got '",
                                     kv, "' in '", item, "'");
            }
            Result<std::uint64_t> value =
                parseU64(std::string_view(kv).substr(eq + 1), kv);
            if (!value.isOk())
                return value.status();
            if (Status st = applyParam(
                    fault, std::string_view(kv).substr(0, eq), *value);
                !st.isOk())
                return st;
        }

        if (fault.kind == FaultKind::DropCacheFill
            && (fault.target.empty() || fault.every == 0)) {
            return Status::error(ErrorCode::InvalidArgument,
                                 "fault plan: dropfill needs a :target "
                                 "and every>0 in '", item, "'");
        }
        if (fault.kind == FaultKind::DramStall && fault.every == 0) {
            return Status::error(ErrorCode::InvalidArgument,
                                 "fault plan: dramstall needs every>0 "
                                 "in '", item, "'");
        }
        plan.faults.push_back(std::move(fault));
    }
    return plan;
}

FaultPlan
fuzzFaultPlan(std::uint64_t seed, std::uint64_t num_jobs)
{
    FaultPlan plan;
    plan.seed = seed;
    Rng rng(hashCombine(seed, 0x7a017'fa0175ull));

    // A reproducible mix: each category appears with its own
    // probability so plans range from benign to nasty. Periods and
    // magnitudes are kept in ranges that perturb timing visibly without
    // making small test sweeps run for minutes.
    if (rng.chance(0.35)) {
        FaultSpec f;
        f.kind = FaultKind::WatchdogTrip;
        f.frame = rng.below(3);
        plan.faults.push_back(f);
    }
    if (rng.chance(0.5)) {
        static const char *const targets[] = {"l2", "tile_cache",
                                              "vertex_cache", "tex"};
        FaultSpec f;
        f.kind = FaultKind::DropCacheFill;
        f.target = targets[rng.below(4)];
        f.every = 16 + rng.below(241); // 16..256
        plan.faults.push_back(f);
    }
    if (rng.chance(0.5)) {
        FaultSpec f;
        f.kind = FaultKind::DramStall;
        f.every = 64 + rng.below(961);  // 64..1024
        f.ticks = 100 + rng.below(1901); // 100..2000
        plan.faults.push_back(f);
    }
    if (rng.chance(0.6) && num_jobs > 0) {
        FaultSpec f;
        f.kind = FaultKind::TransientFail;
        f.job = rng.below(num_jobs);
        f.count = 1 + rng.below(2); // 1..2 failed attempts
        plan.faults.push_back(f);
    }
    return plan;
}

std::vector<std::uint8_t>
corruptTrace(std::vector<std::uint8_t> bytes, TraceCorruption mode,
             std::uint64_t seed)
{
    constexpr std::size_t header_bytes = 24; // see trace/frame_trace.cc
    std::uint64_t mix = hashCombine(seed, 0xc0a2u);
    switch (mode) {
      case TraceCorruption::TruncateMidRecord: {
        if (bytes.size() <= header_bytes + 1) {
            bytes.clear();
            return bytes;
        }
        // Cut strictly inside the record area: at least one byte of it
        // survives, at least one byte is lost.
        const std::size_t record_area = bytes.size() - header_bytes;
        const std::size_t keep =
            1 + static_cast<std::size_t>(mix % (record_area - 1));
        bytes.resize(header_bytes + keep);
        return bytes;
      }
      case TraceCorruption::BitFlipHeader: {
        if (bytes.empty())
            return bytes;
        const std::size_t limit =
            std::min<std::size_t>(header_bytes, bytes.size());
        const std::size_t byte = mix % limit;
        const unsigned bit = static_cast<unsigned>((mix / limit) % 8);
        bytes[byte] ^= static_cast<std::uint8_t>(1u << bit);
        return bytes;
      }
    }
    return bytes;
}

bool
FaultInjector::tripWatchdogAtFrame(std::uint64_t frame) const
{
    for (const FaultSpec &f : thePlan.faults) {
        if (f.kind == FaultKind::WatchdogTrip && f.frame == frame)
            return true;
    }
    return false;
}

std::uint64_t
FaultInjector::dropFillEvery(std::string_view cache_name) const
{
    for (const FaultSpec &f : thePlan.faults) {
        if (f.kind == FaultKind::DropCacheFill
            && cache_name.substr(0, f.target.size()) == f.target)
            return f.every;
    }
    return 0;
}

std::uint64_t
FaultInjector::dramStallEvery() const
{
    for (const FaultSpec &f : thePlan.faults) {
        if (f.kind == FaultKind::DramStall)
            return f.every;
    }
    return 0;
}

Tick
FaultInjector::dramStallTicks() const
{
    for (const FaultSpec &f : thePlan.faults) {
        if (f.kind == FaultKind::DramStall)
            return f.ticks;
    }
    return 0;
}

bool
FaultInjector::failAttempt(std::uint64_t attempt) const
{
    for (const FaultSpec &f : thePlan.faults) {
        if (f.kind == FaultKind::TransientFail && f.job == jobIndex
            && attempt < f.count)
            return true;
    }
    return false;
}

std::uint64_t
FaultInjector::killAtAppend() const
{
    for (const FaultSpec &f : thePlan.faults) {
        if (f.kind == FaultKind::KillPoint)
            return f.append;
    }
    return 0;
}

} // namespace libra
