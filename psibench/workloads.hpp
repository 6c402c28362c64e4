/**
 * @file
 * The three psibench workloads and the engine loop they share.
 */

#ifndef PSIBENCH_WORKLOADS_HPP
#define PSIBENCH_WORKLOADS_HPP

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common.hpp"

namespace psibench {

struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string outDir; ///< where the traced run writes its spans
};

/** Set-ups per run (serve_small: one per round); setup_s is their
 *  median. */
constexpr int kSetups = 6;

/** Programs whose requests light_p99_ms covers, in every workload. */
bool isLight(const std::string &id);

/** Registry programs by id, in the order given. */
std::vector<psi::programs::BenchProgram>
programsById(const std::vector<std::string> &ids);

/** Median of @p v (a copy is sorted). */
double medianOf(std::vector<double> v);

// ----- engine loop ------------------------------------------------------------

/** One program's precompiled image. */
struct Image
{
    const psi::programs::BenchProgram *program;
    std::shared_ptr<const psi::kl0::CompiledProgram> image;
    double compileNs = 0.0;
};

/** Compile every program (spans "kl0.compile"). */
std::vector<Image> compileImages(const std::vector<psi::programs::BenchProgram> &programs);

/** Per (program, mode) tallies of the closed engine loop. */
struct PairStats
{
    std::uint64_t runs = 0;
    Samples loadNs, parseNs, solveCallNs;
    /** @name Counters of the first run (they repeat exactly) */
    /// @{
    std::uint64_t steps = 0, modelNs = 0;
    std::uint64_t clauseTries = 0, indexHits = 0, indexFallbacks = 0;
    /// @}
};

/**
 * End-to-end figures of one measuring window: a paper_suite round or
 * a slice of a serving phase.  A run reports the median over its
 * quieter windows, so host stalls spoil some windows, not the run.
 */
struct WindowStats
{
    std::int64_t startNs = 0, endNs = 0;
    /** How much the host disturbed the window (lower is quieter): the
     *  steal share of a serving window; the length in seconds of a
     *  paper_suite round, since every round does the same work. */
    double disturbance = 0.0;
    double lipsFast = 0.0, lipsFidelity = 0.0, goodput = 0.0;
    double p50Ns = 0.0, p99Ns = 0.0, lightP99Ns = 0.0;
};

/** Set every window's disturbance to the steal share it suffered. */
void tagSteal(std::vector<WindowStats> &windows);

/**
 * Median of one field over the windows that have it and were no more
 * disturbed than their median: the quieter half (or more, on ties) of
 * the run.
 */
double medianOver(const std::vector<WindowStats> &windows,
                  double WindowStats::*field);

/** Set the latency metrics of @p r from the median over @p windows. */
void reportLatency(const std::vector<WindowStats> &windows, Report &r);

/** Print each window's p50 / p99 / light p99, in ms. */
void noteWindows(const std::string &what,
                 const std::vector<WindowStats> &windows);

struct EngineLoopResult
{
    std::vector<PairStats> fast, fidelity; ///< indexed like the images
    std::vector<WindowStats> rounds;
    Samples latencyNs; ///< load + parse + solve, every run
    Samples lightNs;   ///< the same, light programs only
    std::uint64_t attempted = 0, failed = 0, wrong = 0;
    double elapsedNs = 0.0;
    double cpuNs = 0.0; ///< process CPU time over the loop
};

/**
 * Closed loop on one warm engine per mode, one thread: rounds in
 * seeded order over every (program, mode) pair, each pair repeated
 * until it has done about @p roundInferences inferences, until
 * @p seconds have passed at a round boundary.  Every answer is
 * checked against the pinned reference.
 */
EngineLoopResult runEngineLoop(const std::vector<Image> &images,
                               double seconds, std::uint64_t seed,
                               double roundInferences);

/** The kl0 / interp / fast per-layer metrics of one engine loop,
 *  plus the fresh-engine and after-big-request load probes. */
void engineLayerMetrics(const std::vector<Image> &images,
                        const EngineLoopResult &loop, Report &r);

// ----- workloads ----------------------------------------------------------------

void runPaperSuite(const Options &opt, Report &r);
void runServeSmall(const Options &opt, Report &r);
void runServeMixed(const Options &opt, Report &r);

/** Every per-layer metric name with its unit, in report order; a
 *  traced run reports each (0 where the workload has no such layer). */
const std::vector<std::pair<std::string, std::string>> &perLayerMetrics();

} // namespace psibench

#endif // PSIBENCH_WORKLOADS_HPP
