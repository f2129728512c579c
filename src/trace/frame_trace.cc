#include "trace/frame_trace.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <memory>

#include "common/log.hh"

namespace libra
{

namespace
{

constexpr char magic[4] = {'L', 'T', 'R', 'C'};
constexpr std::uint32_t version = 1;

// On-disk record sizes, used to bound untrusted counts against the
// bytes actually present in the file before any allocation happens.
constexpr std::uint64_t headerBytes = 24; //!< magic + 5 x u32
constexpr std::uint64_t textureBytes = 8; //!< u32 w, u32 h
constexpr std::uint64_t drawHeaderBytes = 18; //!< u64+u32+u16+u32
constexpr std::uint64_t triangleBytes = 68;   //!< 15 x f32 + 4+2+1+1

/** RAII FILE handle. */
struct File
{
    explicit File(std::FILE *fp) : fp(fp) {}
    ~File()
    {
        if (fp)
            std::fclose(fp);
    }
    File(const File &) = delete;
    File &operator=(const File &) = delete;
    std::FILE *fp;
};

template <typename T>
bool
put(std::FILE *fp, const T &value)
{
    return std::fwrite(&value, sizeof(T), 1, fp) == 1;
}

template <typename T>
bool
get(std::FILE *fp, T &value)
{
    return std::fread(&value, sizeof(T), 1, fp) == 1;
}

bool
putTriangle(std::FILE *fp, const Triangle &tri)
{
    for (const auto &v : tri.v) {
        if (!put(fp, v.pos.x) || !put(fp, v.pos.y) || !put(fp, v.pos.z)
            || !put(fp, v.uv.x) || !put(fp, v.uv.y)) {
            return false;
        }
    }
    const std::uint8_t flags = (tri.blend ? 1u : 0u)
        | (tri.useMips ? 2u : 0u);
    return put(fp, tri.textureId) && put(fp, tri.shaderAluOps)
        && put(fp, tri.texSamples) && put(fp, flags);
}

bool
getTriangle(std::FILE *fp, Triangle &tri)
{
    for (auto &v : tri.v) {
        if (!get(fp, v.pos.x) || !get(fp, v.pos.y) || !get(fp, v.pos.z)
            || !get(fp, v.uv.x) || !get(fp, v.uv.y)) {
            return false;
        }
    }
    std::uint8_t flags = 0;
    if (!get(fp, tri.textureId) || !get(fp, tri.shaderAluOps)
        || !get(fp, tri.texSamples) || !get(fp, flags)) {
        return false;
    }
    tri.blend = (flags & 1) != 0;
    tri.useMips = (flags & 2) != 0;
    return true;
}

Status
corrupt(const std::string &path, const std::string &what)
{
    return Status::error(ErrorCode::CorruptData, path, ": ", what);
}

} // namespace

Status
writeTrace(const std::string &path, std::uint32_t screen_w,
           std::uint32_t screen_h,
           const std::vector<std::pair<std::uint32_t,
                                       std::uint32_t>> &texture_dims,
           const std::vector<FrameData> &frames)
{
    File file(std::fopen(path.c_str(), "wb"));
    if (!file.fp) {
        return Status::error(ErrorCode::IoError,
                             "cannot open trace file for writing: ",
                             path);
    }
    std::FILE *fp = file.fp;
    const auto io_fail = [&path] {
        return Status::error(ErrorCode::IoError, "short write to ", path);
    };

    if (std::fwrite(magic, 1, 4, fp) != 4 || !put(fp, version)
        || !put(fp, screen_w) || !put(fp, screen_h)
        || !put(fp, static_cast<std::uint32_t>(texture_dims.size()))
        || !put(fp, static_cast<std::uint32_t>(frames.size()))) {
        return io_fail();
    }
    for (const auto &[w, h] : texture_dims) {
        if (!put(fp, w) || !put(fp, h))
            return io_fail();
    }
    for (const auto &frame : frames) {
        if (!put(fp, static_cast<std::uint32_t>(frame.draws.size())))
            return io_fail();
        for (const auto &draw : frame.draws) {
            if (!put(fp, draw.vertexAddr) || !put(fp, draw.vertexCount)
                || !put(fp, draw.vertexCostCycles)
                || !put(fp,
                        static_cast<std::uint32_t>(draw.tris.size()))) {
                return io_fail();
            }
            for (const auto &tri : draw.tris) {
                if (!putTriangle(fp, tri))
                    return io_fail();
            }
        }
    }
    if (std::fflush(fp) != 0)
        return io_fail();
    return Status::ok();
}

Status
writeTrace(const std::string &path, const Scene &scene,
           std::uint32_t first_frame, std::uint32_t count)
{
    std::vector<std::pair<std::uint32_t, std::uint32_t>> dims;
    for (std::uint32_t i = 0; i < scene.textures().count(); ++i) {
        const Texture &tex = scene.textures().get(i);
        dims.emplace_back(tex.width(), tex.height());
    }
    std::vector<FrameData> frames;
    frames.reserve(count);
    for (std::uint32_t f = 0; f < count; ++f)
        frames.push_back(scene.frame(first_frame + f));
    return writeTrace(path, scene.screenWidth(), scene.screenHeight(),
                      dims, frames);
}

Status
FrameTrace::load(const std::string &path)
{
    Status st = loadImpl(path);
    if (!st.isOk()) {
        // Leave the trace empty rather than half-loaded on failure.
        screenW = 0;
        screenH = 0;
        pool = TexturePool();
        frames.clear();
    }
    return st;
}

Status
FrameTrace::loadImpl(const std::string &path)
{
    // Replace any previous content.
    screenW = 0;
    screenH = 0;
    pool = TexturePool();
    frames.clear();

    File file(std::fopen(path.c_str(), "rb"));
    if (!file.fp) {
        return Status::error(ErrorCode::IoError,
                             "cannot open trace file: ", path);
    }
    std::FILE *fp = file.fp;

    // Every on-disk count is validated against the bytes that are
    // actually left in the file before it is used to size anything.
    if (std::fseek(fp, 0, SEEK_END) != 0)
        return Status::error(ErrorCode::IoError, "cannot seek: ", path);
    const long file_size = std::ftell(fp);
    if (file_size < 0)
        return Status::error(ErrorCode::IoError, "cannot tell: ", path);
    if (std::fseek(fp, 0, SEEK_SET) != 0)
        return Status::error(ErrorCode::IoError, "cannot seek: ", path);
    if (static_cast<std::uint64_t>(file_size) < headerBytes)
        return corrupt(path, "truncated header");
    std::uint64_t remaining =
        static_cast<std::uint64_t>(file_size) - headerBytes;

    char m[4];
    std::uint32_t ver = 0, tex_count = 0, frame_count = 0;
    if (std::fread(m, 1, 4, fp) != 4 || std::memcmp(m, magic, 4) != 0)
        return corrupt(path, "not a LTRC trace (bad magic)");
    if (!get(fp, ver))
        return corrupt(path, "truncated header");
    if (ver != version) {
        return corrupt(path, detail::format("unsupported trace version ",
                                            ver));
    }
    if (!get(fp, screenW) || !get(fp, screenH) || !get(fp, tex_count)
        || !get(fp, frame_count)) {
        return corrupt(path, "truncated header");
    }
    if (screenW == 0 || screenH == 0
        || screenW > trace_limits::maxScreenDim
        || screenH > trace_limits::maxScreenDim) {
        return corrupt(path, detail::format("bad screen size ", screenW,
                                            "x", screenH));
    }
    if (tex_count > trace_limits::maxTextures) {
        return corrupt(path, detail::format("implausible texture count ",
                                            tex_count));
    }
    if (std::uint64_t(tex_count) * textureBytes > remaining) {
        return corrupt(path,
                       detail::format("texture table needs ",
                                      std::uint64_t(tex_count)
                                          * textureBytes,
                                      " bytes, ", remaining, " left"));
    }
    if (frame_count > trace_limits::maxFrames) {
        return corrupt(path, detail::format("implausible frame count ",
                                            frame_count));
    }
    if (std::uint64_t(frame_count) * 4 > remaining) {
        return corrupt(path,
                       detail::format("frame table needs ",
                                      std::uint64_t(frame_count) * 4,
                                      " bytes, ", remaining, " left"));
    }

    for (std::uint32_t i = 0; i < tex_count; ++i) {
        std::uint32_t w = 0, h = 0;
        if (!get(fp, w) || !get(fp, h))
            return corrupt(path, "truncated texture table");
        remaining -= textureBytes;
        if (w == 0 || h == 0 || w > trace_limits::maxTextureDim
            || h > trace_limits::maxTextureDim) {
            return corrupt(path,
                           detail::format("bad texture ", i, ": ", w,
                                          "x", h));
        }
        pool.create(w, h);
    }

    frames.reserve(frame_count);
    for (std::uint32_t f = 0; f < frame_count; ++f) {
        FrameData frame;
        frame.frameIndex = f;
        std::uint32_t draw_count = 0;
        if (!get(fp, draw_count))
            return corrupt(path, "truncated frame table");
        remaining -= std::min<std::uint64_t>(remaining, 4);
        if (draw_count > trace_limits::maxDrawsPerFrame) {
            return corrupt(path,
                           detail::format("frame ", f,
                                          ": implausible draw count ",
                                          draw_count));
        }
        if (std::uint64_t(draw_count) * drawHeaderBytes > remaining) {
            return corrupt(path,
                           detail::format("frame ", f, ": ", draw_count,
                                          " draws need ",
                                          std::uint64_t(draw_count)
                                              * drawHeaderBytes,
                                          " bytes, ", remaining,
                                          " left"));
        }
        frame.draws.resize(draw_count);
        for (auto &draw : frame.draws) {
            std::uint32_t tri_count = 0;
            if (!get(fp, draw.vertexAddr) || !get(fp, draw.vertexCount)
                || !get(fp, draw.vertexCostCycles)
                || !get(fp, tri_count)) {
                return corrupt(path, "truncated draw header");
            }
            remaining -=
                std::min<std::uint64_t>(remaining, drawHeaderBytes);
            if (tri_count > trace_limits::maxTrisPerDraw) {
                return corrupt(
                    path, detail::format("implausible triangle count ",
                                         tri_count));
            }
            if (std::uint64_t(tri_count) * triangleBytes > remaining) {
                return corrupt(
                    path, detail::format(tri_count,
                                         " triangles need ",
                                         std::uint64_t(tri_count)
                                             * triangleBytes,
                                         " bytes, ", remaining,
                                         " left"));
            }
            draw.tris.resize(tri_count);
            for (auto &tri : draw.tris) {
                if (!getTriangle(fp, tri))
                    return corrupt(path, "truncated triangle data");
                remaining -=
                    std::min<std::uint64_t>(remaining, triangleBytes);
                // The rasterizer casts floored coordinates to int and
                // the texture unit casts uv to unsigned: a NaN, an
                // infinity or a huge coordinate is undefined behaviour
                // there (and breaks the span search's monotonicity).
                for (const auto &v : tri.v) {
                    const float vals[5] = {v.pos.x, v.pos.y, v.pos.z,
                                           v.uv.x, v.uv.y};
                    for (const float f : vals) {
                        if (!std::isfinite(f)) {
                            return corrupt(path, "non-finite vertex "
                                                 "attribute");
                        }
                    }
                    if (std::fabs(v.pos.x) > trace_limits::maxVertexCoord
                        || std::fabs(v.pos.y)
                            > trace_limits::maxVertexCoord) {
                        return corrupt(
                            path, detail::format(
                                      "vertex (", v.pos.x, ", ", v.pos.y,
                                      ") outside +/-",
                                      trace_limits::maxVertexCoord));
                    }
                }
                // Replay indexes the texture pool with this id; an
                // unchecked id would panic mid-simulation.
                if (tri.textureId >= tex_count) {
                    return corrupt(
                        path, detail::format("triangle references "
                                             "texture ",
                                             tri.textureId, " of ",
                                             tex_count));
                }
            }
        }
        frames.push_back(std::move(frame));
    }
    return Status::ok();
}

const FrameData &
FrameTrace::frame(std::size_t index) const
{
    libra_assert(index < frames.size(), "trace frame ", index,
                 " out of range (", frames.size(), " frames loaded)");
    return frames[index];
}

void
FrameTrace::set(std::uint32_t screen_w, std::uint32_t screen_h,
                std::vector<std::pair<std::uint32_t,
                                      std::uint32_t>> texture_dims,
                std::vector<FrameData> frame_data)
{
    screenW = screen_w;
    screenH = screen_h;
    pool = TexturePool();
    for (const auto &[w, h] : texture_dims)
        pool.create(w, h);
    frames = std::move(frame_data);
}

} // namespace libra
