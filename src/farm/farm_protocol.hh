/**
 * @file
 * Wire protocol of the sim-farm (DESIGN.md §12): newline-delimited JSON
 * over a local stream socket.
 *
 * Every request is one `libra.farm_request/1` JSON line; every reply
 * starts with one `libra.farm_response/1` header line. A successful
 * simulate reply is followed by exactly `report_bytes` bytes of
 * `libra.run_report/1` JSON plus a terminating newline — the stored
 * report is streamed verbatim, so a cache hit is byte-identical to the
 * miss that populated it (reports never contain raw newlines; the
 * explicit byte count makes that a checked property, not an
 * assumption). Request keys the parser does not know are ignored, so
 * lines written by older clients, and journals holding them, still
 * parse.
 *
 * Request ops:
 *   simulate (default) — run/memoize one (benchmark, resolution,
 *                        config, frame range) simulation
 *   ping               — liveness probe, status "ok"
 *   stats              — server counters as a JSON object (one line)
 *   shutdown           — stop the server after acknowledging
 *
 * A simulate request names its machine with a config spec, in the
 * grammar parseConfigSpec (gpu/policy_registry.hh) defines: any
 * registered policy name, with optional supertile size and RxC shape.
 */

#ifndef LIBRA_FARM_FARM_PROTOCOL_HH
#define LIBRA_FARM_FARM_PROTOCOL_HH

#include <cstdint>
#include <string>
#include <string_view>

#include "common/status.hh"
#include "gpu/gpu_config.hh"

namespace libra
{

inline constexpr const char *kFarmRequestSchema = "libra.farm_request/1";
inline constexpr const char *kFarmResponseSchema =
    "libra.farm_response/1";

/** Request operations. */
enum class FarmOp
{
    Simulate,
    Ping,
    Stats,
    Shutdown,
};

const char *farmOpName(FarmOp op);

/** Inverse of farmOpName; InvalidArgument names @p name and the ops. */
Result<FarmOp> parseFarmOp(std::string_view name);

/** One parsed request line. */
struct FarmRequest
{
    FarmOp op = FarmOp::Simulate;
    std::string id; //!< client-chosen correlation tag, echoed back

    // Simulate payload:
    std::string benchmark;     //!< abbrev, e.g. "CCS"
    std::uint32_t width = 960;
    std::uint32_t height = 544;
    std::uint32_t frames = 4;
    std::uint32_t firstFrame = 0;
    std::string config; //!< config spec (parseConfigSpec grammar)
};

/** How a simulate reply was produced. */
enum class FarmCacheState
{
    None,      //!< not a simulate reply
    Hit,       //!< served from the persistent result cache
    Miss,      //!< simulated by this request
    Coalesced, //!< attached to an identical in-flight request
};

const char *farmCacheStateName(FarmCacheState state);

/** One reply header line. */
struct FarmResponse
{
    std::string id;          //!< echo of the request id
    std::string status;      //!< "ok" | "error" | "rejected"
    FarmCacheState cache = FarmCacheState::None;
    std::string key;         //!< ResultCacheKey::toString() (simulate)
    std::string code;        //!< errorCodeName (non-ok)
    std::string message;     //!< human-readable failure (non-ok)
    std::uint64_t reportBytes = 0; //!< raw report bytes that follow
    std::string payload;     //!< inline payload (stats JSON, pings)

    bool ok() const { return status == "ok"; }
};

/** Serialize @p req as one JSON line (no trailing newline). */
std::string farmRequestLine(const FarmRequest &req);

/** Parse one request line; InvalidArgument/CorruptData on bad input. */
Result<FarmRequest> parseFarmRequest(const std::string &line);

/** Serialize @p resp as one JSON header line (no trailing newline). */
std::string farmResponseLine(const FarmResponse &resp);

/** Parse one response header line. */
Result<FarmResponse> parseFarmResponse(const std::string &line);

/**
 * Build the GpuConfig a request describes: config spec + resolution.
 * The config is validated; InvalidArgument names the bad field so the
 * client sees an attributable error.
 */
Result<GpuConfig> farmRequestConfig(const FarmRequest &req);

} // namespace libra

#endif // LIBRA_FARM_FARM_PROTOCOL_HH
