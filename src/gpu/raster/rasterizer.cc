#include "gpu/raster/rasterizer.hh"

#include <algorithm>
#include <cmath>

#include "common/log.hh"

namespace libra
{

TriangleSetup::TriangleSetup(const Triangle &tri, const Texture &tex)
{
    v[0] = tri.v[0].pos.xy();
    v[1] = tri.v[1].pos.xy();
    v[2] = tri.v[2].pos.xy();
    uvs[0] = tri.v[0].uv;
    uvs[1] = tri.v[1].uv;
    uvs[2] = tri.v[2].uv;
    zs[0] = tri.v[0].pos.z;
    zs[1] = tri.v[1].pos.z;
    zs[2] = tri.v[2].pos.z;

    area2 = cross2(v[1] - v[0], v[2] - v[0]);
    if (area2 < 0.0f) {
        // Normalize winding so the interior is the positive side of
        // every edge function.
        std::swap(v[1], v[2]);
        std::swap(uvs[1], uvs[2]);
        std::swap(zs[1], zs[2]);
        area2 = -area2;
    }

    for (int i = 0; i < 3; ++i) {
        const Vec2 e = v[(i + 1) % 3] - v[i];
        edgeVec[i] = e;
        // Tie-break rule for pixels exactly on an edge: a boundary pixel
        // belongs to exactly one of the two triangles sharing the edge
        // (the shared edge is traversed in opposite directions, and the
        // predicate below differs under e → -e).
        edgeAccepts[i] = e.y < 0.0f || (e.y == 0.0f && e.x > 0.0f);
    }

    // Affine attribute gradients from the vertex deltas.
    const float inv_det = 1.0f / area2;
    const Vec2 d1 = v[1] - v[0];
    const Vec2 d2 = v[2] - v[0];
    auto gradient = [&](float a0, float a1, float a2, float &ddx,
                        float &ddy) {
        ddx = ((a1 - a0) * d2.y - (a2 - a0) * d1.y) * inv_det;
        ddy = ((a2 - a0) * d1.x - (a1 - a0) * d2.x) * inv_det;
    };
    gradient(zs[0], zs[1], zs[2], dzdx, dzdy);
    z0 = zs[0];
    float du_dx, du_dy, dv_dx, dv_dy;
    gradient(uvs[0].x, uvs[1].x, uvs[2].x, du_dx, du_dy);
    gradient(uvs[0].y, uvs[1].y, uvs[2].y, dv_dx, dv_dy);
    dudx = {du_dx, dv_dx};
    dudy = {du_dy, dv_dy};
    uv0 = uvs[0];

    // LOD from the larger of the two screen-axis texel footprints.
    const float w = static_cast<float>(tex.width());
    const float h = static_cast<float>(tex.height());
    const float fx = std::sqrt(du_dx * w * du_dx * w
                               + dv_dx * h * dv_dx * h);
    const float fy = std::sqrt(du_dy * w * du_dy * w
                               + dv_dy * h * dv_dy * h);
    _texelsPerPixel = std::max(fx, fy);
    _mip = tri.useMips
        ? static_cast<std::uint8_t>(
              std::min<std::uint32_t>(tex.selectMip(_texelsPerPixel), 255))
        : 0;
}

void
TriangleSetup::rasterize(const IRect &rect, RasterOutput &out) const
{
    // Clip the triangle bbox to the target rectangle.
    const float min_xf = std::min({v[0].x, v[1].x, v[2].x});
    const float max_xf = std::max({v[0].x, v[1].x, v[2].x});
    const float min_yf = std::min({v[0].y, v[1].y, v[2].y});
    const float max_yf = std::max({v[0].y, v[1].y, v[2].y});
    IRect box{std::max(rect.x0,
                       static_cast<std::int32_t>(std::floor(min_xf))),
              std::max(rect.y0,
                       static_cast<std::int32_t>(std::floor(min_yf))),
              std::min(rect.x1,
                       static_cast<std::int32_t>(std::ceil(max_xf))),
              std::min(rect.y1,
                       static_cast<std::int32_t>(std::ceil(max_yf)))};
    if (box.empty())
        return;

    // Snap to even coordinates: quads are 2x2-aligned in screen space.
    const std::int32_t qx0 = box.x0 & ~1;
    const std::int32_t qy0 = box.y0 & ~1;

    // Edge i at pixel center (cx, cy) is cross2(edgeVec[i], p - v[i]) =
    // edgeVec[i].x * (cy - v[i].y) - edgeVec[i].y * (cx - v[i].x). The
    // first product depends only on the pixel row and the second only
    // on the pixel column, so each is computed once per row / column
    // and a pixel test is the same two products and one subtraction:
    // bit-identical to evaluating cross2 at that pixel. Depth
    // is hoisted the same way, keeping its (z0 + x term) + y term order.
    const std::size_t cols =
        static_cast<std::size_t>((box.x1 - qx0 + 1) & ~1);
    constexpr std::size_t kStackCols = 128;
    float stack_cols[4 * kStackCols];
    std::vector<float> heap_cols; // only for boxes over 128 px wide
    float *col_buf = stack_cols;
    if (cols > kStackCols) {
        heap_cols.resize(4 * cols);
        col_buf = heap_cols.data();
    }
    float *const edge_col[3] = {col_buf, col_buf + cols,
                                col_buf + 2 * cols};
    float *const z_col = col_buf + 3 * cols;
    for (std::size_t c = 0; c < cols; ++c) {
        const float cx =
            static_cast<float>(qx0 + static_cast<std::int32_t>(c)) + 0.5f;
        for (int e = 0; e < 3; ++e)
            edge_col[e][c] = edgeVec[e].y * (cx - v[e].x);
        z_col[c] = dzdx * (cx - v[0].x);
    }

    // Within one pixel row, edge e's value w = edge_row - edge_col[c]
    // is monotone in the column: cx - v.x and the product with the
    // constant edgeVec[e].y are round-to-nearest of monotone exact
    // values, and round-to-nearest is monotone. The per-pixel test
    // (w > 0, or w == 0 on an accepting edge) is monotone in w, so the
    // columns passing edge e form a prefix of the row (edgeVec[e].y >
    // 0), a suffix (< 0) or all-or-nothing (== 0, w is constant), and
    // the columns passing all three edges form one interval. A binary
    // search finds it with the exact per-pixel test at every probe, so
    // coverage is bit-identical to testing every pixel. Requires finite
    // edge values, which FrameTrace::load and the scene generator
    // guarantee (a NaN breaks monotonicity).
    auto passes = [&](const float *row, int e, std::size_t c) {
        const float w = row[e] - edge_col[e][c];
        return !(w < 0.0f || (w == 0.0f && !edgeAccepts[e]));
    };
    // The rect's columns as buffer indices; non-empty, because the
    // box is non-empty and lies inside the rect.
    const std::size_t rect_lo =
        static_cast<std::size_t>(std::max(0, rect.x0 - qx0));
    const std::size_t rect_hi =
        std::min(cols, static_cast<std::size_t>(rect.x1 - qx0));
    // Sets [lo, hi) to the covered columns of the row with edge values
    // @p row; empty (lo == hi) when none.
    auto span = [&](const float *row, std::size_t &lo, std::size_t &hi) {
        lo = rect_lo;
        hi = rect_hi;
        for (int e = 0; e < 3 && lo < hi; ++e) {
            const float ey = edgeVec[e].y;
            if (ey == 0.0f) {
                if (!passes(row, e, lo))
                    hi = lo;
                continue;
            }
            // Binary search for the first column where the test flips:
            // to passing on a suffix edge, to failing on a prefix edge.
            const bool suffix = ey < 0.0f;
            std::size_t a = lo, b = hi;
            while (a < b) {
                const std::size_t m = a + (b - a) / 2;
                if (passes(row, e, m) == suffix)
                    b = m;
                else
                    a = m + 1;
            }
            if (suffix)
                lo = a;
            else
                hi = a;
        }
    };

    for (std::int32_t qy = qy0; qy < box.y1; qy += 2) {
        float edge_row[2][3];
        float z_row[2];
        std::size_t lo[2] = {0, 0}, hi[2] = {0, 0};
        for (int r = 0; r < 2; ++r) {
            const std::int32_t py = qy + r;
            const float cy = static_cast<float>(py) + 0.5f;
            for (int e = 0; e < 3; ++e)
                edge_row[r][e] = edgeVec[e].x * (cy - v[e].y);
            z_row[r] = dzdy * (cy - v[0].y);
            if (py >= rect.y0 && py < rect.y1)
                span(edge_row[r], lo[r], hi[r]);
        }
        // Raster timing still charges every 2x2 block of the box row.
        out.blocksScanned += static_cast<std::uint32_t>(cols / 2);

        // Emit quads across the union of the two rows' spans.
        std::size_t first = cols, last = 0;
        for (int r = 0; r < 2; ++r) {
            if (lo[r] < hi[r]) {
                first = std::min(first, lo[r]);
                last = std::max(last, hi[r]);
            }
        }
        if (first >= last)
            continue;

        const float quad_cy = static_cast<float>(qy) + 1.0f;
        const Vec2 uv_row{dudy.x * (quad_cy - v[0].y),
                          dudy.y * (quad_cy - v[0].y)};

        for (std::size_t qc = first & ~std::size_t(1); qc < last; qc += 2) {
            const std::int32_t qx = qx0 + static_cast<std::int32_t>(qc);
            Quad quad;
            quad.px = static_cast<std::uint16_t>(qx);
            quad.py = static_cast<std::uint16_t>(qy);
            quad.mip = _mip;

            for (int bit = 0; bit < 4; ++bit) {
                const int r = bit >> 1;
                const std::size_t c = qc + static_cast<std::size_t>(bit & 1);
                if (c < lo[r] || c >= hi[r])
                    continue;
                quad.mask |= static_cast<std::uint8_t>(1 << bit);
                quad.z[bit] = z0 + z_col[c] + z_row[r];
            }

            if (quad.mask != 0) {
                const float cx = static_cast<float>(qx) + 1.0f;
                quad.uv = {uv0.x + dudx.x * (cx - v[0].x) + uv_row.x,
                           uv0.y + dudx.y * (cx - v[0].x) + uv_row.y};
                out.quads.push_back(quad);
            }
        }
    }
}

} // namespace libra
