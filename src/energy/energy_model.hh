/**
 * @file
 * Event-energy model — the McPAT/DRAMsim3-energy substitute.
 *
 * Energy = sum over event classes of (count x per-event energy) plus
 * static (leakage + clock tree) power integrated over execution time.
 * The per-event constants are plausible 22 nm mobile-GPU values; the
 * paper's energy results are first-order driven by (a) execution-time
 * reduction (static share) and (b) DRAM traffic/latency, both of which
 * this captures. All energies in picojoules, results in millijoules.
 */

#ifndef LIBRA_ENERGY_ENERGY_MODEL_HH
#define LIBRA_ENERGY_ENERGY_MODEL_HH

#include <cstdint>

namespace libra
{

/** Per-event energies (pJ) and static power (pJ per GPU cycle). */
struct EnergyParams
{
    double aluOpPj = 6.0;          //!< per warp-instruction executed
    double l1AccessPj = 14.0;      //!< per L1 cache access (any L1)
    double l2AccessPj = 75.0;      //!< per L2 access
    double dramLinePj = 6200.0;    //!< per 64B DRAM read/write burst
    double dramActivatePj = 1900.0; //!< per row activation (ACT+PRE)
    double rasterQuadPj = 4.0;     //!< rasterizer + Early-Z per quad
    double blendQuadPj = 3.0;      //!< blend + color-buffer write
    double vertexPj = 60.0;        //!< per vertex processed
    double staticPjPerCycle = 500.0; //!< leakage + clock, 0.4 W @ 800MHz
};

/** Event counts for an interval (usually one frame or one run). */
struct EnergyEvents
{
    std::uint64_t warpInstructions = 0;
    std::uint64_t l1Accesses = 0;
    std::uint64_t l2Accesses = 0;
    std::uint64_t dramLines = 0;
    std::uint64_t dramActivates = 0;
    std::uint64_t rasterQuads = 0;
    std::uint64_t blendQuads = 0;
    std::uint64_t vertices = 0;
    std::uint64_t cycles = 0;
};

/** Energy totals in millijoules. */
struct EnergyBreakdown
{
    double coreMj = 0.0;
    double cacheMj = 0.0;
    double dramMj = 0.0;
    double fixedFunctionMj = 0.0;
    double staticMj = 0.0;
    double totalMj = 0.0;

    bool operator==(const EnergyBreakdown &) const = default;
};

/** Fold events into a breakdown under @p params. */
EnergyBreakdown computeEnergy(const EnergyParams &params,
                              const EnergyEvents &events);

} // namespace libra

#endif // LIBRA_ENERGY_ENERGY_MODEL_HH
