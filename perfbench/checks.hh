/**
 * @file
 * Output checks made apart from the program: every expected value is
 * recomputed here from the workload's inputs, by the benchmark's own
 * code, and compared with what the library returned. Each check
 * returns an empty string on success or a message naming the
 * mismatch; a failed check counts the operation as failed.
 */

#ifndef PERFBENCH_CHECKS_HH
#define PERFBENCH_CHECKS_HH

#include <cstdint>
#include <string>
#include <vector>

#include "apps/bsort/bsort.hh"
#include "em3d/em3d.hh"
#include "taskgraph/service.hh"

namespace perfbench
{

/** FNV-1a over the little-endian bytes of a u64 sequence. */
std::uint64_t fnv1a64(const std::vector<std::uint64_t> &xs);

/**
 * EM3D reference: replay the leapfrog on the host from @p graph's
 * edges and the initial field values in @p machine's storage (as
 * Graph::build left them), in the program's accumulation order, and
 * return the checksum em3d::Graph::checksum would give.
 */
double em3dReferenceChecksum(const t3dsim::em3d::Graph &graph,
                             t3dsim::machine::Machine &machine);

/** bsort reference: keyOf() for every (PE, index), std::sort, FNV. */
std::uint64_t bsortReferenceChecksum(
    const t3dsim::apps::bsort::Config &config, std::uint32_t pes);

std::string checkEm3d(double checksum, double reference);

std::string checkBsort(const t3dsim::apps::bsort::Result &r,
                       std::uint64_t reference, std::uint64_t keys);

/** Same simulated cycles on two schedulers (bit-identity). */
std::string checkCyclesEqual(std::uint64_t a, std::uint64_t b);

/** One serving request and what its answer must satisfy. */
struct ServeJob
{
    std::string id;
    std::string line;      ///< the full request line
    std::string graphText; ///< the "graph" object alone
    std::uint32_t pes = 8;
    bool predict = false;

    /** Index of the request this one repeats (own index if new). */
    std::size_t origin = 0;

    /** Longest compute-weighted path through the DAG, in cycles. */
    std::uint64_t criticalPath = 0;
};

/** Compute critical path of a DAG whose edges run from lower to
 *  higher task index: node weight = cycles + flops. */
std::uint64_t criticalPathCycles(
    const std::vector<std::uint64_t> &weight,
    const std::vector<std::pair<std::uint32_t, std::uint32_t>> &edges);

/** Raw text of top-level field @p key in a response line ("" if
 *  absent; string values lose their quotes). */
std::string responseField(const std::string &line, const std::string &key);

/**
 * A response is ok, of the requested mode, no shorter than the DAG's
 * compute critical path, and — for a repeat — carries the same answer
 * as the response to the request it repeats (@p origin_response,
 * empty for a new request).
 */
std::string checkServe(const ServeJob &job, const std::string &response,
                       const std::string &origin_response);

/** Executions the service ran equal the distinct keys sent, and
 *  every other job was answered from the cache. */
std::string checkServiceStats(const t3dsim::taskgraph::JobService::Stats &s,
                              std::uint64_t distinct_sims,
                              std::uint64_t distinct_preds,
                              std::uint64_t jobs);

/**
 * Self-test: run each check once on a correct value and once on a
 * perturbed one; every check must pass the first and fail the second.
 * Prints one line per case; returns the number of cases that did not
 * behave.
 */
int selfTest();

} // namespace perfbench

#endif // PERFBENCH_CHECKS_HH
