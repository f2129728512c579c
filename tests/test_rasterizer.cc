/**
 * @file
 * Tests for the edge-function rasterizer, including the shared-edge
 * exactly-once coverage property that makes output schedule-invariant.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <map>
#include <utility>
#include <vector>

#include "common/rng.hh"
#include "gpu/raster/rasterizer.hh"
#include "workload/texture.hh"

using namespace libra;

namespace
{

Triangle
makeTri(Vec2 a, Vec2 b, Vec2 c, float za = 0.5f, float zb = 0.5f,
        float zc = 0.5f)
{
    Triangle t;
    t.v[0] = {{a.x, a.y, za}, {0.0f, 0.0f}};
    t.v[1] = {{b.x, b.y, zb}, {1.0f, 0.0f}};
    t.v[2] = {{c.x, c.y, zc}, {1.0f, 1.0f}};
    return t;
}

/** Collect covered pixels of a rasterization as a map pixel→count. */
std::map<std::pair<int, int>, int>
coverage(const Triangle &tri, const Texture &tex, const IRect &rect)
{
    const TriangleSetup setup(tri, tex);
    RasterOutput out;
    setup.rasterize(rect, out);
    std::map<std::pair<int, int>, int> pixels;
    for (const Quad &quad : out.quads) {
        for (int bit = 0; bit < 4; ++bit) {
            if (quad.mask & (1 << bit)) {
                pixels[{quad.px + (bit & 1), quad.py + (bit >> 1)}]++;
            }
        }
    }
    return pixels;
}

/** Reference inclusion test at pixel centers (strictly inside only). */
bool
strictlyInside(const Triangle &tri, float cx, float cy)
{
    const Vec2 p{cx, cy};
    float s0 = cross2(tri.v[1].pos.xy() - tri.v[0].pos.xy(),
                      p - tri.v[0].pos.xy());
    float s1 = cross2(tri.v[2].pos.xy() - tri.v[1].pos.xy(),
                      p - tri.v[1].pos.xy());
    float s2 = cross2(tri.v[0].pos.xy() - tri.v[2].pos.xy(),
                      p - tri.v[2].pos.xy());
    if (tri.signedArea2() < 0) {
        s0 = -s0;
        s1 = -s1;
        s2 = -s2;
    }
    return s0 > 0 && s1 > 0 && s2 > 0;
}

} // namespace

TEST(Rasterizer, FullSquareCoverage)
{
    TexturePool pool;
    const Texture &tex = pool.create(64, 64);
    // Two triangles forming the square [0,8)x[0,8).
    const Triangle t1 = makeTri({0, 0}, {8, 0}, {8, 8});
    const Triangle t2 = makeTri({0, 0}, {8, 8}, {0, 8});
    auto c1 = coverage(t1, tex, {0, 0, 8, 8});
    auto c2 = coverage(t2, tex, {0, 0, 8, 8});
    std::map<std::pair<int, int>, int> total = c1;
    for (const auto &[px, n] : c2)
        total[px] += n;
    EXPECT_EQ(total.size(), 64u);
    for (const auto &[px, n] : total)
        EXPECT_EQ(n, 1) << "pixel " << px.first << "," << px.second;
}

TEST(Rasterizer, SharedEdgeCoveredExactlyOnceRandom)
{
    TexturePool pool;
    const Texture &tex = pool.create(64, 64);
    Rng rng(77);
    const IRect rect{0, 0, 32, 32};
    for (int iter = 0; iter < 200; ++iter) {
        // Quad split along a random diagonal: every pixel covered by
        // the union must be covered exactly once.
        Vec2 p[4];
        for (auto &v : p) {
            v = {static_cast<float>(rng.uniform(0.0, 32.0)),
                 static_cast<float>(rng.uniform(0.0, 32.0))};
        }
        const Triangle t1 = makeTri(p[0], p[1], p[2]);
        const Triangle t2 = makeTri(p[0], p[2], p[3]);
        if (std::fabs(t1.signedArea2()) < 1.0f
            || std::fabs(t2.signedArea2()) < 1.0f) {
            continue;
        }
        // Only valid when the quad is convex (the diagonal is shared
        // cleanly); enforce by requiring consistent winding.
        if ((t1.signedArea2() > 0) != (t2.signedArea2() > 0))
            continue;

        auto c1 = coverage(t1, tex, rect);
        auto c2 = coverage(t2, tex, rect);
        for (const auto &[px, n] : c1) {
            EXPECT_EQ(n, 1);
            if (c2.count(px)) {
                ADD_FAILURE() << "pixel " << px.first << ","
                              << px.second << " covered by both halves"
                              << " (iter " << iter << ")";
            }
        }
        for (const auto &[px, n] : c2)
            EXPECT_EQ(n, 1);
    }
}

TEST(Rasterizer, MatchesReferenceInsideTest)
{
    TexturePool pool;
    const Texture &tex = pool.create(64, 64);
    Rng rng(99);
    const IRect rect{0, 0, 24, 24};
    for (int iter = 0; iter < 100; ++iter) {
        Triangle tri = makeTri(
            {static_cast<float>(rng.uniform(0.0, 24.0)),
             static_cast<float>(rng.uniform(0.0, 24.0))},
            {static_cast<float>(rng.uniform(0.0, 24.0)),
             static_cast<float>(rng.uniform(0.0, 24.0))},
            {static_cast<float>(rng.uniform(0.0, 24.0)),
             static_cast<float>(rng.uniform(0.0, 24.0))});
        if (std::fabs(tri.signedArea2()) < 2.0f)
            continue;
        auto cov = coverage(tri, tex, rect);
        for (int y = 0; y < 24; ++y) {
            for (int x = 0; x < 24; ++x) {
                const bool covered = cov.count({x, y}) > 0;
                const bool inside = strictlyInside(
                    tri, static_cast<float>(x) + 0.5f,
                    static_cast<float>(y) + 0.5f);
                // Strictly-inside pixels must be covered; boundary
                // pixels may go either way (top-left rule).
                if (inside) {
                    EXPECT_TRUE(covered) << x << "," << y;
                }
                const bool outside = !strictlyInside(
                    tri, static_cast<float>(x) + 0.5f,
                    static_cast<float>(y) + 0.5f);
                const Vec2 c{static_cast<float>(x) + 0.5f,
                             static_cast<float>(y) + 0.5f};
                // A covered pixel must not be strictly outside all
                // edges (cheap sanity: covered implies not far away).
                if (covered && outside) {
                    // It must then lie exactly on an edge: verify by
                    // checking at least one edge function is ~0.
                    float winding = tri.signedArea2() > 0 ? 1.0f : -1.0f;
                    bool on_edge = false;
                    for (int e = 0; e < 3; ++e) {
                        const Vec2 a = tri.v[e].pos.xy();
                        const Vec2 b = tri.v[(e + 1) % 3].pos.xy();
                        const float w =
                            winding * cross2(b - a, c - a);
                        if (std::fabs(w) < 1e-3f)
                            on_edge = true;
                        if (w < -1e-3f)
                            on_edge = false;
                    }
                    (void)on_edge; // boundary handling is rule-defined
                }
            }
        }
    }
}

TEST(Rasterizer, ClipsToTileRect)
{
    TexturePool pool;
    const Texture &tex = pool.create(64, 64);
    const Triangle tri = makeTri({-100, -100}, {200, -100}, {50, 200});
    const IRect rect{32, 32, 64, 64};
    auto cov = coverage(tri, tex, rect);
    EXPECT_FALSE(cov.empty());
    for (const auto &[px, n] : cov) {
        EXPECT_GE(px.first, 32);
        EXPECT_LT(px.first, 64);
        EXPECT_GE(px.second, 32);
        EXPECT_LT(px.second, 64);
    }
}

TEST(Rasterizer, DepthInterpolation)
{
    TexturePool pool;
    const Texture &tex = pool.create(64, 64);
    // z varies from 0 at x=0 to 1 at x=16.
    Triangle tri = makeTri({0, 0}, {16, 0}, {0, 16}, 0.0f, 1.0f, 0.0f);
    const TriangleSetup setup(tri, tex);
    RasterOutput out;
    setup.rasterize({0, 0, 16, 16}, out);
    for (const Quad &quad : out.quads) {
        for (int bit = 0; bit < 4; ++bit) {
            if (!(quad.mask & (1 << bit)))
                continue;
            const float cx = static_cast<float>(quad.px + (bit & 1))
                + 0.5f;
            const float expected = cx / 16.0f;
            EXPECT_NEAR(quad.z[bit], expected, 1e-4f);
        }
    }
}

TEST(Rasterizer, UvInterpolatedAtQuadCenter)
{
    TexturePool pool;
    const Texture &tex = pool.create(64, 64);
    Triangle tri;
    tri.v[0] = {{0, 0, 0}, {0.0f, 0.0f}};
    tri.v[1] = {{16, 0, 0}, {1.0f, 0.0f}};
    tri.v[2] = {{0, 16, 0}, {0.0f, 1.0f}};
    const TriangleSetup setup(tri, tex);
    RasterOutput out;
    setup.rasterize({0, 0, 16, 16}, out);
    ASSERT_FALSE(out.quads.empty());
    for (const Quad &quad : out.quads) {
        const float cx = static_cast<float>(quad.px) + 1.0f;
        const float cy = static_cast<float>(quad.py) + 1.0f;
        EXPECT_NEAR(quad.uv.x, cx / 16.0f, 1e-4f);
        EXPECT_NEAR(quad.uv.y, cy / 16.0f, 1e-4f);
    }
}

TEST(Rasterizer, MipSelectionFromDensity)
{
    TexturePool pool;
    const Texture &tex = pool.create(256, 256);
    // uv spans the whole texture over 16 pixels: 16 texels per pixel
    // → mip 4.
    Triangle tri;
    tri.v[0] = {{0, 0, 0}, {0.0f, 0.0f}};
    tri.v[1] = {{16, 0, 0}, {1.0f, 0.0f}};
    tri.v[2] = {{0, 16, 0}, {0.0f, 1.0f}};
    tri.useMips = true;
    EXPECT_EQ(TriangleSetup(tri, tex).mip(), 4u);
    tri.useMips = false;
    EXPECT_EQ(TriangleSetup(tri, tex).mip(), 0u);
}

TEST(Rasterizer, WindingNormalized)
{
    TexturePool pool;
    const Texture &tex = pool.create(64, 64);
    const Triangle ccw = makeTri({0, 0}, {8, 0}, {0, 8});
    Triangle cw = ccw;
    std::swap(cw.v[1], cw.v[2]);
    EXPECT_EQ(coverage(ccw, tex, {0, 0, 8, 8}),
              coverage(cw, tex, {0, 0, 8, 8}));
}

TEST(Rasterizer, BlocksScannedCountsWork)
{
    TexturePool pool;
    const Texture &tex = pool.create(64, 64);
    const Triangle tri = makeTri({0, 0}, {16, 0}, {0, 16});
    const TriangleSetup setup(tri, tex);
    RasterOutput out;
    setup.rasterize({0, 0, 16, 16}, out);
    EXPECT_EQ(out.blocksScanned, 64u); // 8x8 2x2-blocks in the bbox
}

TEST(Rasterizer, TinyTriangleBetweenPixelCentersCoversNothing)
{
    TexturePool pool;
    const Texture &tex = pool.create(64, 64);
    const Triangle tri = makeTri({3.1f, 3.1f}, {3.4f, 3.1f},
                                 {3.1f, 3.4f});
    auto cov = coverage(tri, tex, {0, 0, 8, 8});
    EXPECT_TRUE(cov.empty());
}

// ---------------------------------------------------------------------
// Bit-identity against the per-pixel edge function.
// ---------------------------------------------------------------------

namespace
{

/**
 * Reference rasterizer: TriangleSetup's setup math and the per-pixel
 * loop as it was before the row/column hoist, evaluating each edge as
 * cross2(edge, p - v) at every pixel center. TriangleSetup::rasterize
 * must reproduce its output bit for bit.
 */
class ReferenceRaster
{
  public:
    explicit ReferenceRaster(const Triangle &tri)
    {
        for (int i = 0; i < 3; ++i) {
            v[i] = tri.v[i].pos.xy();
            uvs[i] = tri.v[i].uv;
            zs[i] = tri.v[i].pos.z;
        }
        float area2 = cross2(v[1] - v[0], v[2] - v[0]);
        if (area2 < 0.0f) {
            std::swap(v[1], v[2]);
            std::swap(uvs[1], uvs[2]);
            std::swap(zs[1], zs[2]);
            area2 = -area2;
        }
        for (int i = 0; i < 3; ++i) {
            const Vec2 e = v[(i + 1) % 3] - v[i];
            edgeVec[i] = e;
            edgeAccepts[i] = e.y < 0.0f || (e.y == 0.0f && e.x > 0.0f);
        }
        const float inv_det = 1.0f / area2;
        const Vec2 d1 = v[1] - v[0];
        const Vec2 d2 = v[2] - v[0];
        auto gradient = [&](float a0, float a1, float a2, float &ddx,
                            float &ddy) {
            ddx = ((a1 - a0) * d2.y - (a2 - a0) * d1.y) * inv_det;
            ddy = ((a2 - a0) * d1.x - (a1 - a0) * d2.x) * inv_det;
        };
        gradient(zs[0], zs[1], zs[2], dzdx, dzdy);
        float du_dx, du_dy, dv_dx, dv_dy;
        gradient(uvs[0].x, uvs[1].x, uvs[2].x, du_dx, du_dy);
        gradient(uvs[0].y, uvs[1].y, uvs[2].y, dv_dx, dv_dy);
        dudx = {du_dx, dv_dx};
        dudy = {du_dy, dv_dy};
    }

    float
    edgeAt(int i, float x, float y) const
    {
        const Vec2 p{x, y};
        return cross2(edgeVec[i], p - v[i]);
    }

    void
    rasterize(const IRect &rect, std::uint8_t mip, RasterOutput &out) const
    {
        const float min_xf = std::min({v[0].x, v[1].x, v[2].x});
        const float max_xf = std::max({v[0].x, v[1].x, v[2].x});
        const float min_yf = std::min({v[0].y, v[1].y, v[2].y});
        const float max_yf = std::max({v[0].y, v[1].y, v[2].y});
        const IRect box{
            std::max(rect.x0, static_cast<std::int32_t>(std::floor(min_xf))),
            std::max(rect.y0, static_cast<std::int32_t>(std::floor(min_yf))),
            std::min(rect.x1, static_cast<std::int32_t>(std::ceil(max_xf))),
            std::min(rect.y1, static_cast<std::int32_t>(std::ceil(max_yf)))};
        if (box.empty())
            return;
        const std::int32_t qx0 = box.x0 & ~1;
        const std::int32_t qy0 = box.y0 & ~1;
        for (std::int32_t qy = qy0; qy < box.y1; qy += 2) {
            for (std::int32_t qx = qx0; qx < box.x1; qx += 2) {
                ++out.blocksScanned;
                Quad quad;
                quad.px = static_cast<std::uint16_t>(qx);
                quad.py = static_cast<std::uint16_t>(qy);
                quad.mip = mip;
                for (int bit = 0; bit < 4; ++bit) {
                    const std::int32_t px = qx + (bit & 1);
                    const std::int32_t py = qy + (bit >> 1);
                    if (!rect.contains(px, py))
                        continue;
                    const float cx = static_cast<float>(px) + 0.5f;
                    const float cy = static_cast<float>(py) + 0.5f;
                    bool inside = true;
                    for (int e = 0; e < 3 && inside; ++e) {
                        const float w = edgeAt(e, cx, cy);
                        if (w < 0.0f || (w == 0.0f && !edgeAccepts[e]))
                            inside = false;
                    }
                    if (!inside)
                        continue;
                    quad.mask |= static_cast<std::uint8_t>(1 << bit);
                    quad.z[bit] = zs[0] + dzdx * (cx - v[0].x)
                        + dzdy * (cy - v[0].y);
                }
                if (quad.mask != 0) {
                    const float cx = static_cast<float>(qx) + 1.0f;
                    const float cy = static_cast<float>(qy) + 1.0f;
                    quad.uv = {uvs[0].x + dudx.x * (cx - v[0].x)
                                   + dudy.x * (cy - v[0].y),
                               uvs[0].y + dudx.y * (cx - v[0].x)
                                   + dudy.y * (cy - v[0].y)};
                    out.quads.push_back(quad);
                }
            }
        }
    }

  private:
    Vec2 v[3];
    Vec2 uvs[3];
    float zs[3];
    Vec2 edgeVec[3];
    bool edgeAccepts[3];
    float dzdx = 0.0f, dzdy = 0.0f;
    Vec2 dudx, dudy;
};

std::uint32_t
bits(float f)
{
    return std::bit_cast<std::uint32_t>(f);
}

/** Rasterize @p tri into @p rect both ways; count the mismatches. */
int
compareWithReference(const Triangle &tri, const Texture &tex,
                     const IRect &rect)
{
    const TriangleSetup setup(tri, tex);
    RasterOutput got;
    setup.rasterize(rect, got);
    RasterOutput want;
    ReferenceRaster(tri).rasterize(rect, setup.mip(), want);

    int bad = 0;
    EXPECT_EQ(got.blocksScanned, want.blocksScanned) << ++bad;
    EXPECT_EQ(got.quads.size(), want.quads.size()) << ++bad;
    const std::size_t n = std::min(got.quads.size(), want.quads.size());
    for (std::size_t i = 0; i < n && bad == 0; ++i) {
        const Quad &a = got.quads[i];
        const Quad &b = want.quads[i];
        const bool same = a.px == b.px && a.py == b.py && a.mask == b.mask
            && a.mip == b.mip && bits(a.uv.x) == bits(b.uv.x)
            && bits(a.uv.y) == bits(b.uv.y)
            && std::equal(std::begin(a.z), std::end(a.z), std::begin(b.z),
                          [](float x, float y) { return bits(x) == bits(y); });
        if (!same) {
            ++bad;
            ADD_FAILURE() << "quad " << i << " at " << a.px << "," << a.py
                          << " differs from the reference at " << b.px
                          << "," << b.py << " (mask " << int(a.mask)
                          << " vs " << int(b.mask) << ")";
        }
    }
    return bad;
}

/** A random coordinate in [lo, hi), snapped to 1/16 pixel half the time
 *  so pixel centers land exactly on edges. */
float
coord(Rng &rng, double lo, double hi)
{
    const double x = rng.uniform(lo, hi);
    return static_cast<float>(rng.below(2) ? std::round(x * 16.0) / 16.0
                                           : x);
}

/** The center of a random pixel of a 64x64 area. */
Vec2
pixelCenter(Rng &rng)
{
    return {static_cast<float>(rng.below(64)) + 0.5f,
            static_cast<float>(rng.below(64)) + 0.5f};
}

Triangle
randomTri(Rng &rng, Vec2 a, Vec2 b, Vec2 c)
{
    Triangle t;
    const Vec2 p[3] = {a, b, c};
    for (int i = 0; i < 3; ++i) {
        t.v[i].pos = {p[i].x, p[i].y,
                      static_cast<float>(rng.uniform(0.0, 1.0))};
        t.v[i].uv = {static_cast<float>(rng.uniform(-1.0, 2.0)),
                     static_cast<float>(rng.uniform(-1.0, 2.0))};
    }
    if (rng.below(2))
        std::swap(t.v[1], t.v[2]); // the other winding
    return t;
}

/** Rects with odd and even origins, some cutting the triangle's box. */
std::vector<IRect>
testRects(Rng &rng)
{
    std::vector<IRect> rects = {{0, 0, 64, 64}, {1, 3, 33, 30},
                                {-3, -5, 70, 71}};
    for (int i = 0; i < 3; ++i) {
        const auto x0 = static_cast<std::int32_t>(rng.range(-4, 40));
        const auto y0 = static_cast<std::int32_t>(rng.range(-4, 40));
        rects.push_back({x0, y0,
                         x0 + static_cast<std::int32_t>(rng.range(1, 40)),
                         y0 + static_cast<std::int32_t>(rng.range(1, 40))});
    }
    return rects;
}

} // namespace

TEST(Rasterizer, BitIdenticalToPerPixelEdgeFunction)
{
    TexturePool pool;
    const Texture &tex = pool.create(256, 256);
    Rng rng(2024);
    int bad = 0;
    int cases = 0;
    for (int iter = 0; iter < 300 && bad == 0; ++iter) {
        std::vector<Triangle> tris;
        // Two triangles sharing the diagonal of a random quad.
        Vec2 p[4];
        for (Vec2 &q : p)
            q = {coord(rng, -8.0, 72.0), coord(rng, -8.0, 72.0)};
        tris.push_back(randomTri(rng, p[0], p[1], p[2]));
        tris.push_back(randomTri(rng, p[0], p[2], p[3]));
        // Axis-aligned legs on whole and half pixels: edges run
        // through pixel centers, so the top-left rule decides.
        const float x0 = static_cast<float>(rng.range(-4, 50)) * 0.5f;
        const float y0 = static_cast<float>(rng.range(-4, 50)) * 0.5f;
        const float w = static_cast<float>(rng.range(1, 40)) * 0.5f;
        const float h = static_cast<float>(rng.range(1, 40)) * 0.5f;
        tris.push_back(randomTri(rng, {x0, y0}, {x0 + w, y0}, {x0, y0 + h}));
        tris.push_back(
            randomTri(rng, {x0 + w, y0}, {x0 + w, y0 + h}, {x0, y0 + h}));
        // Sub-pixel sliver: long and thinner than a pixel.
        const Vec2 s0{coord(rng, 0.0, 60.0), coord(rng, 0.0, 60.0)};
        const Vec2 s1{coord(rng, 0.0, 60.0), coord(rng, 0.0, 60.0)};
        const float thin = static_cast<float>(rng.uniform(0.01, 0.6));
        tris.push_back(randomTri(rng, s0, s1, {s1.x + thin, s1.y - thin}));
        // Edges through pixel centers at irrational slopes: the edge
        // function there is rounding noise, so its sign flips under
        // any reassociation of the per-pixel arithmetic.
        const Vec2 g0 = pixelCenter(rng);
        const Vec2 g1 = pixelCenter(rng);
        const double theta = rng.uniform(0.0, 6.283185307179586);
        const Vec2 dir{static_cast<float>(std::cos(theta)),
                       static_cast<float>(std::sin(theta))};
        const Vec2 a = g0 - dir * static_cast<float>(rng.uniform(1.0, 30.0));
        const Vec2 b = g0 + dir * static_cast<float>(rng.uniform(1.0, 30.0));
        const Vec2 c =
            g1 + (g1 - b) * static_cast<float>(rng.uniform(0.1, 2.0));
        tris.push_back(randomTri(rng, a, b, c));
        // Two vertices as far out as a trace may place them (up to
        // trace_limits::maxVertexCoord): cx - v.x rounds coarsely, the
        // hardest case for the span search's monotonicity argument.
        const double far = iter % 2 ? 1048576.0 : 4096.0;
        tris.push_back(randomTri(
            rng, {coord(rng, -far, far), coord(rng, -far, far)},
            {coord(rng, -far, far), coord(rng, -far, far)},
            {coord(rng, -8.0, 72.0), coord(rng, -8.0, 72.0)}));

        for (const Triangle &tri : tris) {
            if (tri.signedArea2() == 0.0f)
                continue; // degenerate: culled before rasterization
            for (const IRect &rect : testRects(rng)) {
                bad += compareWithReference(tri, tex, rect);
                ++cases;
            }
        }
    }
    EXPECT_EQ(bad, 0);
    EXPECT_GT(cases, 5000);
}

TEST(Rasterizer, BitIdenticalOnRectsWiderThanATile)
{
    // A box wider than the rasterizer's on-stack column buffer.
    TexturePool pool;
    const Texture &tex = pool.create(256, 256);
    Rng rng(7);
    for (int iter = 0; iter < 20; ++iter) {
        const Triangle tri = randomTri(
            rng, {coord(rng, -20.0, 10.0), coord(rng, -20.0, 10.0)},
            {coord(rng, 250.0, 400.0), coord(rng, 0.0, 90.0)},
            {coord(rng, 0.0, 300.0), coord(rng, 60.0, 120.0)});
        if (tri.signedArea2() == 0.0f)
            continue;
        EXPECT_EQ(compareWithReference(tri, tex, {-3, 1, 333, 101}), 0);
        EXPECT_EQ(compareWithReference(tri, tex, {0, 0, 1024, 128}), 0);
    }
}
