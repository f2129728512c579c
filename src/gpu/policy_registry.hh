/**
 * @file
 * Named registry of scheduling/pipeline policies.
 *
 * A registry entry is a *mechanism preset* — the scheduling policy
 * (traversal/ranking, core/scheduling_policy.hh) plus the pipeline
 * mechanisms that compose with it (today: Rendering Elimination) —
 * applied onto an existing GpuConfig without touching its machine
 * shape (Raster Units, cores, caches). The registry makes mechanisms
 * enumerable by name, so:
 *
 *  - every bench accepts `--policy <name>` (bench/bench_common.hh);
 *  - every name is a config spec (parseConfigSpec below), the one
 *    grammar farm requests use to name a machine (DESIGN.md §12);
 *  - fuzzGpuConfig draws uniformly over the registry, so the
 *    conservation laws sweep every mechanism (src/check);
 *  - tests/test_policy_conformance.cc runs the full determinism /
 *    invariant / snapshot contract against each entry by iterating
 *    this list — a new mechanism registered here inherits the whole
 *    contract with no new test code (DESIGN.md §13).
 */

#ifndef LIBRA_GPU_POLICY_REGISTRY_HH
#define LIBRA_GPU_POLICY_REGISTRY_HH

#include <string>
#include <string_view>
#include <vector>

#include "common/status.hh"
#include "gpu/gpu_config.hh"

namespace libra
{

/** One named mechanism preset. */
struct PolicyInfo
{
    /** CLI name (`--policy <name>`, farm config specs). */
    const char *name;

    /** One-line description for help text and error messages. */
    const char *summary;

    /** Scheduling mechanism this entry selects. */
    SchedulerPolicy sched;

    /** Whether Rendering Elimination is enabled. */
    bool renderingElimination;
};

/** Every registered policy, in stable registration order. */
const std::vector<PolicyInfo> &policyRegistry();

/** Registry entry named @p name, or null when unknown. */
const PolicyInfo *findPolicy(std::string_view name);

/**
 * Apply the policy named @p name onto @p cfg (scheduling policy and
 * pipeline-mechanism flags only; machine shape untouched). Unknown
 * names return InvalidArgument listing the registered names.
 */
Status applyPolicy(GpuConfig &cfg, std::string_view name);

/** Comma-separated registered names (for help/error text). */
std::string policyNames();

/**
 * Reverse lookup: the registry name matching @p cfg's mechanism
 * fields, or "?" when the combination is not a registered preset.
 * Run reports echo it as their "scheduler" member.
 */
const char *policyNameFor(const GpuConfig &cfg);

/**
 * Parse a config spec, the one grammar that names a preset machine:
 *
 *   <name>[:S][:RxC]
 *
 *   <name>  any registry entry, applied with applyPolicy() to a
 *           default GpuConfig of R Raster Units of C cores each
 *   :S      sched.staticSupertileSize (default 4); accepted only for
 *           the policies that read it (supertile, temperature)
 *   :RxC    machine shape, R and C >= 1 (default 2x4)
 *
 * e.g. `libra`, `zorder:1x8`, `supertile:4:2x4`, `re-libra:4x2`.
 * Two legacy heads stay as aliases, so existing farm clients, journals
 * and result-cache keys keep working:
 *
 *   ptr[:RxC]      = zorder[:RxC]
 *   baseline[:C]   = zorder:1xC (default C = 8)
 *
 * Resolution is left at the GpuConfig default and the result is not
 * validated. A malformed spec is InvalidArgument naming the bad part.
 */
Result<GpuConfig> parseConfigSpec(std::string_view spec);

} // namespace libra

#endif // LIBRA_GPU_POLICY_REGISTRY_HH
