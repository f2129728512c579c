#include "gpu/policy_registry.hh"

#include <algorithm>
#include <charconv>

namespace libra
{

const std::vector<PolicyInfo> &
policyRegistry()
{
    // Stable registration order: tests and the fuzzer index into this
    // list, and reordering would silently reshuffle fuzz seeds.
    static const std::vector<PolicyInfo> registry{
        {"zorder", "interleaved Z-order tile assignment (PTR baseline)",
         SchedulerPolicy::ZOrder, false},
        {"scanline", "row-major traversal (§II-B conventional order)",
         SchedulerPolicy::Scanline, false},
        {"supertile", "fixed-size Z-order supertiles (Fig. 16 static)",
         SchedulerPolicy::StaticSupertile, false},
        {"temperature",
         "temperature-ranked hot/cold order, fixed supertiles",
         SchedulerPolicy::TemperatureStatic, false},
        {"libra", "full LIBRA adaptive scheduler (§III-D)",
         SchedulerPolicy::Libra, false},
        {"re", "Rendering Elimination over Z-order PTR (Anglada et al.)",
         SchedulerPolicy::ZOrder, true},
        {"re-libra", "Rendering Elimination composed with LIBRA",
         SchedulerPolicy::Libra, true},
    };
    return registry;
}

namespace
{

// Legacy config-spec heads (parseConfigSpec), kept so that existing farm
// clients, journals and result-cache keys keep working. Both name the
// zorder entry: `ptr[:RxC]` takes the registry's shape argument,
// `baseline[:C]` is one Raster Unit of C cores (Table I's baseline).
constexpr std::string_view kPtrAlias = "ptr";
constexpr std::string_view kBaselineAlias = "baseline";
constexpr std::string_view kAliasedPolicy = "zorder";
constexpr std::uint32_t kBaselineCores = 8;

/** Whether @p policy reads SchedulerConfig::staticSupertileSize. */
bool
readsStaticSupertileSize(SchedulerPolicy policy)
{
    return policy == SchedulerPolicy::StaticSupertile
        || policy == SchedulerPolicy::TemperatureStatic;
}

/** Decimal count >= 1 spanning all of @p digits. */
bool
parseCount(std::string_view digits, std::uint32_t &out)
{
    const char *end = digits.data() + digits.size();
    const auto [p, ec] = std::from_chars(digits.data(), end, out);
    return ec == std::errc() && p == end && out > 0;
}

} // namespace

const PolicyInfo *
findPolicy(std::string_view name)
{
    for (const PolicyInfo &info : policyRegistry())
        if (name == info.name)
            return &info;
    return nullptr;
}

Status
applyPolicy(GpuConfig &cfg, std::string_view name)
{
    const PolicyInfo *info = findPolicy(name);
    if (!info) {
        return Status::error(ErrorCode::InvalidArgument,
                             "unknown policy \"", std::string(name),
                             "\"; registered: ", policyNames());
    }
    cfg.sched.policy = info->sched;
    cfg.renderingElimination = info->renderingElimination;
    return Status::ok();
}

std::string
policyNames()
{
    std::string names;
    for (const PolicyInfo &info : policyRegistry()) {
        if (!names.empty())
            names += ", ";
        names += info.name;
    }
    return names;
}

const char *
policyNameFor(const GpuConfig &cfg)
{
    for (const PolicyInfo &info : policyRegistry()) {
        if (info.sched == cfg.sched.policy
            && info.renderingElimination == cfg.renderingElimination) {
            return info.name;
        }
    }
    return "?";
}

Result<GpuConfig>
parseConfigSpec(std::string_view spec)
{
    auto bad = [&](const char *what, std::string_view text) {
        return Status::error(ErrorCode::InvalidArgument, "config spec '",
                             spec, "': ", what, " '", text, "'");
    };

    // <name>, then each ':'-separated argument.
    const std::string_view name = spec.substr(0, spec.find(':'));
    std::vector<std::string_view> args;
    for (std::size_t pos = name.size(); pos < spec.size();) {
        const std::size_t end = std::min(spec.find(':', pos + 1),
                                         spec.size());
        args.push_back(spec.substr(pos + 1, end - pos - 1));
        pos = end;
    }

    const bool baseline = name == kBaselineAlias;
    const PolicyInfo *info = findPolicy(
        baseline || name == kPtrAlias ? kAliasedPolicy : name);
    if (!info) {
        return Status::error(ErrorCode::InvalidArgument, "config spec '",
                             spec, "': unknown policy '", name,
                             "' (registered: ", policyNames(),
                             "; legacy: ", kPtrAlias, ", ",
                             kBaselineAlias, ")");
    }

    GpuConfig cfg; // default shape: LIBRA's two RUs of four cores
    cfg.rasterUnits = 2;
    cfg.coresPerRu = 4;
    std::size_t next = 0;
    if (baseline) {
        cfg.rasterUnits = 1;
        cfg.coresPerRu = kBaselineCores;
        if (next < args.size()) {
            const std::string_view cores = args[next++];
            if (!parseCount(cores, cfg.coresPerRu))
                return bad("bad core count", cores);
        }
    } else {
        // The shape always holds an 'x'; an argument without one is :S.
        if (next < args.size()
            && args[next].find('x') == std::string_view::npos) {
            const std::string_view size = args[next++];
            if (!readsStaticSupertileSize(info->sched))
                return bad("policy takes no :S argument", size);
            if (!parseCount(size, cfg.sched.staticSupertileSize))
                return bad("bad supertile size", size);
        }
        if (next < args.size()) {
            const std::string_view shape = args[next++];
            const std::size_t x = shape.find('x');
            if (x == std::string_view::npos
                || !parseCount(shape.substr(0, x), cfg.rasterUnits)
                || !parseCount(shape.substr(x + 1), cfg.coresPerRu)) {
                return bad("bad RxC shape", shape);
            }
        }
    }
    if (next != args.size())
        return bad("extra argument", args[next]);
    if (Status st = applyPolicy(cfg, info->name); !st.isOk())
        return st;
    return cfg;
}

} // namespace libra
