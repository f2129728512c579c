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
    // and every pixel test is the same two products and one
    // subtraction: bit-identical to evaluating cross2 per pixel. Depth
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

    for (std::int32_t qy = qy0; qy < box.y1; qy += 2) {
        float edge_row[2][3];
        float z_row[2];
        bool row_in[2];
        for (int r = 0; r < 2; ++r) {
            const std::int32_t py = qy + r;
            const float cy = static_cast<float>(py) + 0.5f;
            for (int e = 0; e < 3; ++e)
                edge_row[r][e] = edgeVec[e].x * (cy - v[e].y);
            z_row[r] = dzdy * (cy - v[0].y);
            row_in[r] = py >= rect.y0 && py < rect.y1;
        }
        const float quad_cy = static_cast<float>(qy) + 1.0f;
        const Vec2 uv_row{dudy.x * (quad_cy - v[0].y),
                          dudy.y * (quad_cy - v[0].y)};

        for (std::int32_t qx = qx0; qx < box.x1; qx += 2) {
            ++out.blocksScanned;
            Quad quad;
            quad.px = static_cast<std::uint16_t>(qx);
            quad.py = static_cast<std::uint16_t>(qy);
            quad.mip = _mip;

            for (int bit = 0; bit < 4; ++bit) {
                const std::int32_t px = qx + (bit & 1);
                const int r = bit >> 1;
                if (!row_in[r] || px < rect.x0 || px >= rect.x1)
                    continue;
                const std::size_t c = static_cast<std::size_t>(px - qx0);
                bool inside = true;
                for (int e = 0; e < 3 && inside; ++e) {
                    const float w = edge_row[r][e] - edge_col[e][c];
                    if (w < 0.0f || (w == 0.0f && !edgeAccepts[e]))
                        inside = false;
                }
                if (!inside)
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
