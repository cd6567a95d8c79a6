/**
 * @file
 * The four workloads (README.md "Workloads") and the layer probes of
 * the traced run. Each workload runs set-up once, then whole passes
 * of its fixed operation list until the run's time is spent, checks
 * every operation's output and fills a Report.
 */

#ifndef PERFBENCH_WORKLOADS_HH
#define PERFBENCH_WORKLOADS_HH

#include <cstdint>
#include <string>
#include <vector>

#include "checks.hh"
#include "harness.hh"

namespace perfbench
{

struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10;

    /** The traced run: per-layer metrics instead of end-to-end ones. */
    bool trace = false;

    /** Threads the reference loop that scales the run's times runs
     *  on (HostSpeed). */
    unsigned speedThreads = 1;

    /** When main() hands over to the workload: the origin of
     *  setup_s. */
    double start = 0;
};

struct Report
{
    RunStats stats;
    std::vector<Metric> metrics;
    Tracer tracer;

    /** Set-up could not run: no result is printed. */
    std::string error;
};

void runEm3dFig9(const Options &opt, Report &report);
void runEm3dWeak4k(const Options &opt, Report &report);
void runBsortPar4(const Options &opt, Report &report);
void runServeMixed(const Options &opt, Report &report);

/** One round of serving requests, in send order. */
struct ServeRound
{
    std::vector<ServeJob> jobs;
    std::uint64_t distinctSims = 0;
    std::uint64_t distinctPreds = 0;
};

/**
 * Seeded random DAG requests: @p sims distinct simulate jobs,
 * @p preds distinct predict jobs and @p repeats repeats of an
 * earlier request, shuffled so every repeat follows its original.
 */
ServeRound generateServeRound(std::uint64_t seed, std::size_t sims,
                              std::size_t preds, std::size_t repeats);

/**
 * Host cost of single calls into the simulator's lower layers (alpha
 * core, storage, shell remote access, torus transit), in ns per call,
 * as `alpha.*`, `mem.*`, `shell.*` and `net.*` metrics. Transit is
 * timed on a torus of @p pes PEs.
 */
std::vector<Metric> layerProbes(std::uint32_t pes, Tracer &tracer);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HH
