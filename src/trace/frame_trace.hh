/**
 * @file
 * Frame trace capture and replay.
 *
 * The evaluation methodology of the paper replays GPU traces captured
 * from commercial games. This module provides the equivalent workflow
 * for libra-sim: serialize a sequence of frames (the screen-space draw
 * stream plus the texture pool geometry) into a compact binary ".ltrc"
 * file, and replay it later — decoupling workload generation from
 * timing simulation, enabling trace sharing, and guaranteeing that two
 * experiments consumed byte-identical inputs.
 *
 * Format (little-endian):
 *   header:  magic "LTRC", u32 version, u32 screenW, u32 screenH,
 *            u32 textureCount, u32 frameCount
 *   texture: u32 width, u32 height                  (xtextureCount)
 *   frame:   u32 drawCount                          (xframeCount)
 *     draw:  u64 vertexAddr, u32 vertexCount, u16 vertexCost,
 *            u32 triCount
 *       tri: 3 x (f32 x,y,z, f32 u,v), u32 textureId, u16 aluOps,
 *            u8 texSamples, u8 flags (bit0 blend, bit1 useMips)
 *
 * Hard format limits, enforced by the loader (a file that violates any
 * of them is rejected with ErrorCode::CorruptData — the loader never
 * trusts an on-disk count without checking it against these ceilings
 * AND against the bytes actually remaining in the file, so a truncated
 * or bit-flipped trace can neither crash the process nor trigger a
 * count-driven huge allocation):
 *   screen dimensions:    1 .. 16384 pixels per axis
 *   textures:             0 .. 4096, each 1 .. 16384 per axis
 *   frames:               0 .. 65536
 *   draws per frame:      0 .. 1048576 (and >= 18 bytes each on disk)
 *   triangles per draw:   0 .. 4194304 (and 68 bytes each on disk)
 *   vertex attributes:    all 15 floats finite, |x| and |y| at most
 *                         maxVertexCoord (2^20)
 */

#ifndef LIBRA_TRACE_FRAME_TRACE_HH
#define LIBRA_TRACE_FRAME_TRACE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.hh"
#include "workload/scene.hh"
#include "workload/texture.hh"

namespace libra
{

/** Loader-enforced .ltrc limits (see the format comment above). */
namespace trace_limits
{
constexpr std::uint32_t maxScreenDim = 16384;
constexpr std::uint32_t maxTextures = 4096;
constexpr std::uint32_t maxTextureDim = 16384;
constexpr std::uint32_t maxFrames = 1u << 16;
constexpr std::uint32_t maxDrawsPerFrame = 1u << 20;
constexpr std::uint32_t maxTrisPerDraw = 1u << 22;
/** Largest |x| or |y| of a vertex, in pixels. Far beyond any screen,
 *  yet small enough that the rasterizer's float-to-int bounding box
 *  casts and edge products stay finite and in range. */
constexpr float maxVertexCoord = 1048576.0f; // 2^20
} // namespace trace_limits

/** A loaded trace: everything needed to drive Gpu::renderFrame. */
class FrameTrace
{
  public:
    FrameTrace() = default;

    /**
     * Load a trace file, replacing any previous content. On failure the
     * trace is left empty and the Status carries IoError (unreadable
     * file) or CorruptData (structural validation failed).
     */
    Status load(const std::string &path);

    std::uint32_t screenWidth() const { return screenW; }
    std::uint32_t screenHeight() const { return screenH; }
    std::size_t frameCount() const { return frames.size(); }

    /** @p index must be < frameCount(); out of range is a caller bug. */
    const FrameData &frame(std::size_t index) const;

    const TexturePool &textures() const { return pool; }

    /** In-memory construction (used by the writer and the tests). */
    void
    set(std::uint32_t screen_w, std::uint32_t screen_h,
        std::vector<std::pair<std::uint32_t, std::uint32_t>> texture_dims,
        std::vector<FrameData> frame_data);

  private:
    Status loadImpl(const std::string &path);

    std::uint32_t screenW = 0;
    std::uint32_t screenH = 0;
    TexturePool pool;
    std::vector<FrameData> frames;
};

/**
 * Capture @p count frames of @p scene starting at @p first_frame into
 * @p path. @return IoError on write failure.
 */
Status writeTrace(const std::string &path, const Scene &scene,
                  std::uint32_t first_frame, std::uint32_t count);

/** Serialize an in-memory trace (lower-level entry point). */
Status writeTrace(const std::string &path, std::uint32_t screen_w,
                  std::uint32_t screen_h,
                  const std::vector<std::pair<std::uint32_t,
                                              std::uint32_t>> &texture_dims,
                  const std::vector<FrameData> &frames);

} // namespace libra

#endif // LIBRA_TRACE_FRAME_TRACE_HH
