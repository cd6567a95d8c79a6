#include "checks.hh"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <sstream>

#include "workloads.hh"

namespace perfbench
{

using namespace t3dsim;

std::uint64_t
fnv1a64(const std::vector<std::uint64_t> &xs)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (std::uint64_t x : xs) {
        for (int b = 0; b < 8; ++b) {
            h ^= (x >> (8 * b)) & 0xff;
            h *= 0x100000001b3ull;
        }
    }
    return h;
}

namespace
{

/** One leapfrog half-step: every node of one side becomes
 *  0.5 * old + sum(weight * producer value) over its edges. */
void
leapfrogSide(const em3d::Graph &g, bool e_side, std::vector<double> &dst,
             const std::vector<double> &src)
{
    const std::size_t n = g.config.nodesPerPe;
    for (PeId pe = 0; pe < g.pes; ++pe) {
        const auto &edges = e_side ? g.perPe[pe].e.edges
                                   : g.perPe[pe].h.edges;
        std::size_t i = 0;
        while (i < edges.size()) {
            const std::uint32_t node = edges[i].dstIdx;
            double acc = 0;
            for (; i < edges.size() && edges[i].dstIdx == node; ++i) {
                acc += edges[i].weight *
                       src[edges[i].srcPe * n + edges[i].srcIdx];
            }
            double &v = dst[pe * n + node];
            v = 0.5 * v + acc;
        }
    }
}

} // namespace

double
em3dReferenceChecksum(const em3d::Graph &g, machine::Machine &machine)
{
    const std::size_t n = g.config.nodesPerPe;
    std::vector<double> e(g.pes * n), h(g.pes * n);
    for (PeId pe = 0; pe < g.pes; ++pe) {
        auto &storage = machine.node(pe).storage();
        for (std::size_t i = 0; i < n; ++i) {
            e[pe * n + i] = std::bit_cast<double>(
                storage.readU64(g.eValsBase + Addr{i} * 8));
            h[pe * n + i] = std::bit_cast<double>(
                storage.readU64(g.hValsBase + Addr{i} * 8));
        }
    }
    for (int it = 0; it < g.config.iterations; ++it) {
        leapfrogSide(g, true, e, h);
        leapfrogSide(g, false, h, e);
    }
    double sum = 0;
    for (std::size_t k = 0; k < e.size(); ++k) {
        sum += e[k];
        sum += h[k];
    }
    return sum;
}

std::uint64_t
bsortReferenceChecksum(const apps::bsort::Config &config, std::uint32_t pes)
{
    std::vector<std::uint64_t> keys;
    keys.reserve(std::size_t{pes} * config.keysPerPe);
    for (PeId pe = 0; pe < pes; ++pe) {
        for (std::uint32_t i = 0; i < config.keysPerPe; ++i)
            keys.push_back(apps::bsort::keyOf(config.seed, pe, i));
    }
    std::sort(keys.begin(), keys.end());
    return fnv1a64(keys);
}

std::string
checkEm3d(double checksum, double reference)
{
    if (checksum == reference)
        return {};
    char buf[96];
    std::snprintf(buf, sizeof buf, "em3d checksum %.17g != reference %.17g",
                  checksum, reference);
    return buf;
}

std::string
checkBsort(const apps::bsort::Result &r, std::uint64_t reference,
           std::uint64_t keys)
{
    if (!r.sorted)
        return "bsort output not sorted";
    if (r.keysTotal != keys)
        return "bsort sorted " + std::to_string(r.keysTotal) + " keys, sent " +
               std::to_string(keys);
    if (r.checksum != reference)
        return "bsort checksum " + std::to_string(r.checksum) +
               " != reference " + std::to_string(reference);
    return {};
}

std::string
checkCyclesEqual(std::uint64_t a, std::uint64_t b)
{
    if (a == b)
        return {};
    return "cycles differ across schedulers: " + std::to_string(a) +
           " vs " + std::to_string(b);
}

std::uint64_t
criticalPathCycles(
    const std::vector<std::uint64_t> &weight,
    const std::vector<std::pair<std::uint32_t, std::uint32_t>> &edges)
{
    std::vector<std::vector<std::uint32_t>> preds(weight.size());
    for (const auto &[src, dst] : edges)
        preds[dst].push_back(src);
    std::vector<std::uint64_t> finish(weight.size(), 0);
    std::uint64_t best = 0;
    for (std::size_t t = 0; t < weight.size(); ++t) {
        std::uint64_t start = 0;
        for (std::uint32_t p : preds[t])
            start = std::max(start, finish[p]);
        finish[t] = start + weight[t];
        best = std::max(best, finish[t]);
    }
    return best;
}

std::string
responseField(const std::string &line, const std::string &key)
{
    const std::string tag = "\"" + key + "\":";
    const std::size_t at = line.find(tag);
    if (at == std::string::npos)
        return {};
    std::size_t b = at + tag.size();
    if (b < line.size() && line[b] == '"') {
        const std::size_t e = line.find('"', b + 1);
        return e == std::string::npos ? std::string{}
                                      : line.substr(b + 1, e - b - 1);
    }
    std::size_t e = b;
    while (e < line.size() && line[e] != ',' && line[e] != '}')
        ++e;
    return line.substr(b, e - b);
}

std::string
checkServe(const ServeJob &job, const std::string &response,
           const std::string &origin_response)
{
    if (responseField(response, "ok") != "true")
        return "job " + job.id + " failed: " + response.substr(0, 200);
    if (responseField(response, "id") != job.id)
        return "job " + job.id + " answered as '" +
               responseField(response, "id") + "'";
    const std::string mode = job.predict ? "predict" : "simulate";
    if (responseField(response, "mode") != mode)
        return "job " + job.id + " answered in the wrong mode";
    const std::string key = job.predict ? "predicted_cycles"
                                        : "makespan_cycles";
    const std::string text = responseField(response, key);
    const std::uint64_t cycles = std::strtoull(text.c_str(), nullptr, 10);
    if (text.empty() || cycles < job.criticalPath)
        return "job " + job.id + " " + key + " " + text +
               " below the compute critical path " +
               std::to_string(job.criticalPath);
    if (!origin_response.empty()) {
        for (const char *k : {"makespan_cycles", "predicted_cycles",
                              "checksum", "finish_hash", "graph_hash"}) {
            if (responseField(response, k) !=
                responseField(origin_response, k)) {
                return "repeat " + job.id + " differs from its first "
                       "answer in " + k;
            }
        }
    }
    return {};
}

std::string
checkServiceStats(const taskgraph::JobService::Stats &s,
                  std::uint64_t distinct_sims, std::uint64_t distinct_preds,
                  std::uint64_t jobs)
{
    std::ostringstream os;
    if (s.simulations != distinct_sims || s.predictions != distinct_preds ||
        s.jobs != jobs || s.errors != 0 ||
        s.cacheHits != jobs - distinct_sims - distinct_preds) {
        os << "service stats {jobs " << s.jobs << ", simulations "
           << s.simulations << ", predictions " << s.predictions
           << ", cache hits " << s.cacheHits << ", errors " << s.errors
           << "} for " << jobs << " jobs with " << distinct_sims
           << " distinct simulate and " << distinct_preds
           << " distinct predict keys";
    }
    return os.str();
}

namespace
{

/** One self-test case: @p good must pass and @p bad must fail. */
int
expect(const char *name, const std::string &good, const std::string &bad)
{
    const bool ok = good.empty() && !bad.empty();
    std::cout << (ok ? "ok    " : "WRONG ") << name << ": correct -> "
              << (good.empty() ? "pass" : good) << "; perturbed -> "
              << (bad.empty() ? "pass" : bad) << "\n";
    return ok ? 0 : 1;
}

} // namespace

int
selfTest()
{
    int wrong = 0;

    // EM3D at 8 PEs: the program's checksum against the reference,
    // then the same checksum one ulp off.
    {
        em3d::Config cfg;
        cfg.nodesPerPe = 20;
        cfg.degree = 4;
        machine::Machine m(machine::MachineConfig::t3d(8));
        const em3d::Graph g = em3d::Graph::build(m, cfg);
        const double ref = em3dReferenceChecksum(g, m);
        splitc::SplitcConfig sc;
        sc.hostThreads = -1;
        const em3d::Result r = em3d::run(cfg, em3d::Version::Get, 8, sc);
        wrong += expect("em3d checksum", checkEm3d(r.checksum, ref),
                        checkEm3d(std::nextafter(r.checksum, 0.0), ref));
    }

    // bsort at 8 PEs: checksum flipped in its low bit, then a result
    // marked unsorted, then a dropped key.
    {
        apps::bsort::Config cfg;
        cfg.keysPerPe = 64;
        splitc::SplitcConfig sc;
        sc.hostThreads = -1;
        const apps::bsort::Result r =
            apps::bsort::run(cfg, apps::Variant::Bulk, 8, sc);
        const std::uint64_t ref = bsortReferenceChecksum(cfg, 8);
        const std::uint64_t keys = 8 * cfg.keysPerPe;
        apps::bsort::Result bad = r;
        bad.checksum ^= 1;
        wrong += expect("bsort checksum", checkBsort(r, ref, keys),
                        checkBsort(bad, ref, keys));
        bad = r;
        bad.sorted = false;
        wrong += expect("bsort sorted flag", checkBsort(r, ref, keys),
                        checkBsort(bad, ref, keys));
        bad = r;
        bad.keysTotal -= 1;
        wrong += expect("bsort key count", checkBsort(r, ref, keys),
                        checkBsort(bad, ref, keys));
        wrong += expect("scheduler cycles",
                        checkCyclesEqual(r.elapsed, r.elapsed),
                        checkCyclesEqual(r.elapsed, r.elapsed + 1));
    }

    // Serving: one simulate and one predict job answered directly,
    // then answers with a failure, a short makespan, and a repeat
    // that disagrees with its first answer.
    {
        const ServeRound round = generateServeRound(7, 2, 1, 1);
        const taskgraph::ServiceOptions opts;
        std::vector<std::string> resp;
        for (const ServeJob &job : round.jobs) {
            resp.push_back(taskgraph::JobService::runStandalone(
                job.line, opts.model, ""));
        }
        for (std::size_t i = 0; i < round.jobs.size(); ++i) {
            const ServeJob &job = round.jobs[i];
            const std::string origin =
                job.origin == i ? "" : resp[job.origin];
            std::string bad = resp[i];
            const std::string key =
                job.predict ? "predicted_cycles" : "makespan_cycles";
            const std::size_t at = bad.find("\"" + key + "\":");
            bad.replace(at, key.size() + 3 +
                                responseField(bad, key).size(),
                        "\"" + key + "\":1");
            const std::string name = "serve " + job.id + " cycles";
            wrong += expect(name.c_str(), checkServe(job, resp[i], origin),
                            checkServe(job, bad, origin));
        }
        const ServeJob &job = round.jobs[0];
        wrong += expect("serve job ok",
                        checkServe(job, resp[0], ""),
                        checkServe(job, "{\"id\":\"" + job.id +
                                            "\",\"ok\":false}", ""));
        std::size_t rep = 0;
        while (round.jobs[rep].origin == rep)
            ++rep;
        std::string other = resp[round.jobs[rep].origin];
        char &digit = other[other.find("\"graph_hash\":\"0x") + 16];
        digit = digit == '0' ? '1' : '0';
        wrong += expect("serve repeat agrees",
                        checkServe(round.jobs[rep], resp[rep],
                                   resp[round.jobs[rep].origin]),
                        checkServe(round.jobs[rep], resp[rep], other));

        taskgraph::JobService::Stats s;
        s.jobs = 4;
        s.simulations = 2;
        s.predictions = 1;
        s.cacheHits = 1;
        taskgraph::JobService::Stats bad = s;
        bad.simulations = 3;
        bad.cacheHits = 0;
        wrong += expect("service stats", checkServiceStats(s, 2, 1, 4),
                        checkServiceStats(bad, 2, 1, 4));
    }

    std::cout << (wrong ? "self-test FAILED\n" : "self-test passed\n");
    return wrong;
}

} // namespace perfbench
