/**
 * @file
 * Edge-function rasterizer: discretizes one primitive inside one tile
 * into 2x2-fragment quads (paper §II-A).
 *
 * The rasterizer also interpolates the primitive's attributes: per-pixel
 * depth for Early-Z, the texture coordinate at each quad's center and
 * the per-primitive LOD (mip level) from the screen-space uv gradients.
 * Coverage follows a top-left fill rule so triangles sharing an edge
 * cover every pixel exactly once — the property that makes the final
 * image independent of tile scheduling.
 */

#ifndef LIBRA_GPU_RASTER_RASTERIZER_HH
#define LIBRA_GPU_RASTER_RASTERIZER_HH

#include <cstdint>
#include <vector>

#include "common/geom.hh"
#include "workload/texture.hh"

namespace libra
{

/** A 2x2 block of fragments produced by the rasterizer. */
struct Quad
{
    std::uint16_t px = 0;    //!< screen x of the quad's top-left pixel
    std::uint16_t py = 0;    //!< screen y
    std::uint8_t mask = 0;   //!< coverage bits: (0,0),(1,0),(0,1),(1,1)
    std::uint8_t mip = 0;    //!< selected texture LOD
    float z[4] = {0, 0, 0, 0}; //!< interpolated depth per fragment
    Vec2 uv;                 //!< interpolated uv at the quad center

    int
    coveredCount() const
    {
        return (mask & 1) + ((mask >> 1) & 1) + ((mask >> 2) & 1)
            + ((mask >> 3) & 1);
    }
};

/** Result of rasterizing one primitive in one tile. */
struct RasterOutput
{
    std::vector<Quad> quads;   //!< quads with nonzero coverage
    std::uint32_t blocksScanned = 0; //!< 2x2 blocks visited (timing)
};

/**
 * Per-primitive setup computed once and reused for each covered tile:
 * normalized winding, edge coefficients, attribute gradients and LOD.
 */
class TriangleSetup
{
  public:
    TriangleSetup(const Triangle &tri, const Texture &tex);

    /** Rasterize into @p rect (usually one tile), appending quads. */
    void rasterize(const IRect &rect, RasterOutput &out) const;

    std::uint8_t mip() const { return _mip; }

  private:
    Vec2 v[3];       //!< winding-normalized positions
    Vec2 uvs[3];
    float zs[3];
    float area2 = 0.0f;
    // Edge i runs v[i] → v[(i+1)%3]; exact-zero coverage uses the
    // top-left rule precomputed per edge.
    Vec2 edgeVec[3];
    bool edgeAccepts[3];
    // Attribute gradients (affine interpolation).
    float dzdx = 0.0f, dzdy = 0.0f, z0 = 0.0f;
    Vec2 dudx, dudy; //!< (du/dx, dv/dx) and (du/dy, dv/dy) packed
    Vec2 uv0;
    std::uint8_t _mip = 0;
    float _texelsPerPixel = 1.0f;
};

} // namespace libra

#endif // LIBRA_GPU_RASTER_RASTERIZER_HH
