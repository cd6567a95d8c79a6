/**
 * @file
 * The serving workload: seeded random DAG requests sent in a closed
 * loop to an in-process taskgraph::JobService, mostly cache misses.
 */

#include <algorithm>
#include <condition_variable>
#include <mutex>
#include <sstream>

#include "model/measure.hh"
#include "model/primitives.hh"
#include "taskgraph/graph.hh"
#include "taskgraph/lower.hh"
#include "taskgraph/predict.hh"
#include "taskgraph/run.hh"
#include "taskgraph/service.hh"
#include "workloads.hh"

namespace perfbench
{

using namespace t3dsim;

namespace
{

/** Edge payloads on both sides of every lowering threshold (local,
 *  store <= 256 B, put <= 2 KiB, get <= 9728 B, BLT above). */
constexpr std::uint64_t edgeBytes[] = {0,    8,    64,   256,  264,  1024,
                                       2048, 2056, 4096, 9728, 9736, 16384};

constexpr std::uint32_t peChoices[] = {8, 16, 32, 64};

/**
 * One distinct DAG. Sizes are stratified, not drawn: job k of a kind
 * gets PEs from peChoices[k % 4] and a task count from a golden-ratio
 * sequence over 16..128, so every seed sends the same mix of sizes and
 * only the structure, weights and payloads vary with the seed.
 */
ServeJob
makeDag(SplitMix64 &rng, std::uint64_t seed, std::size_t k, bool predict)
{
    ServeJob job;
    job.predict = predict;
    job.pes = peChoices[k % 4];
    const double frac = double(k) * 0.6180339887498949;
    const std::uint32_t tasks =
        16 + std::uint32_t(113 * (frac - double(std::uint64_t(frac))));

    std::vector<std::uint64_t> weight(tasks);
    std::vector<std::pair<std::uint32_t, std::uint32_t>> edges;
    std::ostringstream g;
    g << "{\"name\":\"s" << seed << (predict ? "p" : "s") << k
      << "\",\"tasks\":[";
    for (std::uint32_t t = 0; t < tasks; ++t) {
        const std::uint64_t cycles = 200 + rng.below(3000);
        const std::uint64_t flops = rng.below(400);
        weight[t] = cycles + flops; // LowerOptions::flopCycles == 1
        g << (t ? "," : "") << "{\"id\":\"t" << t << "\",\"cycles\":"
          << cycles << ",\"flops\":" << flops << "}";
    }
    g << "],\"edges\":[";
    bool first = true;
    for (std::uint32_t t = 1; t < tasks; ++t) {
        if (rng.below(8) == 0)
            continue; // a new root
        const std::uint32_t fan_in = 1 + std::uint32_t(rng.below(3));
        std::vector<std::uint32_t> srcs;
        for (std::uint32_t d = 0; d < fan_in; ++d) {
            const std::uint32_t src =
                t - 1 - std::uint32_t(rng.below(std::min(t, 12u)));
            if (std::find(srcs.begin(), srcs.end(), src) != srcs.end())
                continue;
            srcs.push_back(src);
            edges.emplace_back(src, t);
            g << (first ? "" : ",") << "{\"src\":\"t" << src
              << "\",\"dst\":\"t" << t << "\",\"bytes\":"
              << edgeBytes[rng.below(std::size(edgeBytes))] << "}";
            first = false;
        }
    }
    g << "]}";
    job.graphText = g.str();
    job.criticalPath = criticalPathCycles(weight, edges);
    return job;
}

} // namespace

ServeRound
generateServeRound(std::uint64_t seed, std::size_t sims, std::size_t preds,
                   std::size_t repeats)
{
    SplitMix64 rng{seed * 0x2545f4914f6cdd1dull + 17};
    std::vector<ServeJob> distinct;
    for (std::size_t k = 0; k < sims; ++k)
        distinct.push_back(makeDag(rng, seed, k, false));
    for (std::size_t k = 0; k < preds; ++k)
        distinct.push_back(makeDag(rng, seed, k, true));

    // Send order: the distinct requests shuffled, then each repeat
    // inserted at a random place after the request it repeats.
    std::vector<std::size_t> order(distinct.size());
    for (std::size_t i = 0; i < order.size(); ++i)
        order[i] = i;
    for (std::size_t i = order.size(); i > 1; --i)
        std::swap(order[i - 1], order[rng.below(i)]);
    std::vector<bool> is_repeat(order.size(), false);
    for (std::size_t r = 0; r < repeats; ++r) {
        const std::size_t d = std::size_t(rng.below(distinct.size()));
        const std::size_t first =
            std::size_t(std::find(order.begin(), order.end(), d) -
                        order.begin());
        const std::size_t at =
            first + 1 + std::size_t(rng.below(order.size() - first));
        order.insert(order.begin() + std::ptrdiff_t(at), d);
        is_repeat.insert(is_repeat.begin() + std::ptrdiff_t(at), true);
    }

    ServeRound round;
    round.distinctSims = sims;
    round.distinctPreds = preds;
    std::vector<std::size_t> first_pos(distinct.size());
    for (std::size_t p = 0; p < order.size(); ++p) {
        ServeJob job = distinct[order[p]];
        if (!is_repeat[p])
            first_pos[order[p]] = p;
        job.origin = is_repeat[p] ? first_pos[order[p]] : p;
        job.id = "j" + std::to_string(p);
        job.line = "{\"id\":\"" + job.id + "\",\"mode\":\"" +
                   (job.predict ? "predict" : "simulate") +
                   "\",\"pes\":" + std::to_string(job.pes) +
                   ",\"graph\":" + job.graphText + "}";
        round.jobs.push_back(std::move(job));
    }
    return round;
}

namespace
{

/** Requests in flight at once (the closed loop's client count). */
constexpr std::size_t outstanding = 4;

/** What one round of the closed loop observed. */
struct RoundResult
{
    std::vector<double> sent, done;
    std::vector<std::string> responses;
    taskgraph::JobService::Stats stats;
};

/**
 * Send every request of @p round to a fresh JobService (so its cache
 * starts empty), keeping `outstanding` requests in flight: the next
 * request goes out when an answer comes back.
 */
RoundResult
serveRound(const ServeRound &round, const model::CostModel &cost)
{
    const std::size_t n = round.jobs.size();
    RoundResult rr;
    rr.sent.resize(n);
    rr.done.resize(n);
    rr.responses.resize(n);
    std::mutex m;
    std::condition_variable cv;
    std::size_t in_flight = 0;

    taskgraph::ServiceOptions opts;
    opts.workers = 2;
    opts.model = cost;
    taskgraph::JobService service(
        std::move(opts), [&](std::uint64_t tag, const std::string &line) {
            const double t = nowS();
            {
                std::lock_guard<std::mutex> lock(m);
                rr.responses[tag] = line;
                rr.done[tag] = t;
                --in_flight;
            }
            cv.notify_one();
        });
    for (std::size_t i = 0; i < n; ++i) {
        {
            std::unique_lock<std::mutex> lock(m);
            cv.wait(lock, [&] { return in_flight < outstanding; });
            ++in_flight;
            rr.sent[i] = nowS();
        }
        service.submit(round.jobs[i].line, i);
    }
    service.drain();
    rr.stats = service.stats();
    return rr;
}

/** Check every answer of a round, then the service's own counts of
 *  the round, which count as one more operation. */
void
checkRound(const ServeRound &round, const RoundResult &rr, RunStats &stats)
{
    for (std::size_t i = 0; i < round.jobs.size(); ++i) {
        const ServeJob &job = round.jobs[i];
        const std::string err = checkServe(
            job, rr.responses[i],
            job.origin == i ? std::string{} : rr.responses[job.origin]);
        stats.op(err.empty(), err);
    }
    const std::string err = checkServiceStats(
        rr.stats, round.distinctSims, round.distinctPreds, round.jobs.size());
    stats.op(err.empty(), "service stats: " + err);
}

} // namespace

void
runServeMixed(const Options &opt, Report &rep)
{
    Tracer &tracer = rep.tracer;
    tracer.setEnabled(opt.trace);
    model::CostModel cost;
    ServeRound round;
    {
        ScopedSpan setup(&tracer, "setup");
        {
            ScopedSpan s(&tracer, "model.fit");
            std::string err;
            const std::vector<model::Sweep> sweeps = model::measureAll(&err);
            if (sweeps.empty()) {
                rep.error = "model sweeps: " + err;
                return;
            }
            cost = model::fitCostModel(sweeps);
        }
    }
    const double setup_s = scaledSetupS(opt.start);
    {
        ScopedSpan s(&tracer, "serve.generate");
        // 60% distinct simulate, 20% distinct predict, 20% repeats.
        round = generateServeRound(opt.seed, 150, 50, 50);
    }

    if (!opt.trace) {
        checkRound(round, serveRound(round, cost), rep.stats); // warm-up
        HostSpeed speed(opt.speedThreads);
        speed.mark();
        const double end = nowS() + opt.seconds;
        do {
            const double w0 = nowS(), c0 = processCpuS();
            const RoundResult rr = serveRound(round, cost);
            const double wall = nowS() - w0, cpu = processCpuS() - c0;
            const std::size_t first_op = rep.stats.opLatencyMs.size();
            for (std::size_t i = 0; i < rr.sent.size(); ++i)
                rep.stats.opLatencyMs.push_back(1e3 *
                                                (rr.done[i] - rr.sent[i]));
            rep.stats.endPass(wall, cpu, speed.mark(), first_op);
            checkRound(round, rr, rep.stats);
        } while (nowS() < end);
        rep.metrics = endToEndMetrics(rep.stats, setup_s);
        return;
    }

    // Traced run: alternating untraced and traced rounds; a traced
    // round records one service.job span per request.
    std::vector<double> untraced, traced;
    RoundResult last;
    const double end = nowS() + opt.seconds;
    while (traced.empty() || nowS() < end) {
        double t0 = nowS();
        last = serveRound(round, cost);
        untraced.push_back(nowS() - t0);
        checkRound(round, last, rep.stats);
        t0 = nowS();
        const int span = tracer.open("serve.round");
        last = serveRound(round, cost);
        for (std::size_t i = 0; i < last.sent.size(); ++i)
            tracer.record("service.job", span, last.sent[i], last.done[i]);
        tracer.close(span);
        traced.push_back(nowS() - t0);
        checkRound(round, last, rep.stats);
    }

    // Direct calls on the round's distinct requests: the work the
    // service wraps, without queue or cache.
    double parse_ms = 0, lower_ms = 0, sim_ms = 0, pred_us = 0, direct_s = 0,
           latency_s = 0, pe_cycles = 0;
    std::size_t distinct = 0;
    for (std::size_t i = 0; i < round.jobs.size(); ++i) {
        const ServeJob &job = round.jobs[i];
        if (job.origin != i)
            continue;
        ++distinct;
        const double t0 = nowS();
        taskgraph::TaskGraph graph;
        taskgraph::Plan plan;
        std::string err;
        {
            ScopedSpan s(&tracer, "taskgraph.parse");
            if (!taskgraph::TaskGraph::parseText(job.graphText, graph, err) ||
                !graph.validate(job.pes, err)) {
                rep.stats.op(false, job.id + " direct parse: " + err);
                continue;
            }
        }
        const double t1 = nowS();
        {
            ScopedSpan s(&tracer, "taskgraph.lower");
            taskgraph::LowerOptions lo;
            lo.pes = job.pes;
            if (!taskgraph::Plan::build(graph, lo, plan, err)) {
                rep.stats.op(false, job.id + " direct lower: " + err);
                continue;
            }
        }
        const double t2 = nowS();
        std::uint64_t cycles = 0;
        if (job.predict) {
            ScopedSpan s(&tracer, "taskgraph.predict");
            cycles = std::uint64_t(
                taskgraph::predictGraph(graph, plan, cost).cycles);
        } else {
            ScopedSpan s(&tracer, "taskgraph.simulate");
            cycles = taskgraph::simulate(graph, plan).makespanCycles;
        }
        const double t3 = nowS();
        parse_ms += 1e3 * (t1 - t0);
        lower_ms += 1e3 * (t2 - t1);
        if (job.predict) {
            pred_us += 1e6 * (t3 - t2);
        } else {
            sim_ms += 1e3 * (t3 - t2);
            pe_cycles += double(cycles) * job.pes;
        }
        direct_s += t3 - t0;
        latency_s += last.done[i] - last.sent[i];
        // The direct answer must be the service's answer.
        const std::string key = job.predict ? "predicted_cycles"
                                            : "makespan_cycles";
        const bool same =
            responseField(last.responses[i], key) == std::to_string(cycles);
        rep.stats.op(same, job.id + " direct " + key + " " +
                               std::to_string(cycles) + " != service's");
    }

    const double sims = double(round.distinctSims);
    const double preds = double(round.distinctPreds);
    rep.metrics = {
        {"trace.overhead_s", median(traced) - median(untraced), "s"},
        {"model.fit_ms", tracer.meanMs("model.fit"), "ms"},
        {"taskgraph.parse_ms", parse_ms / double(distinct), "ms"},
        {"taskgraph.lower_ms", lower_ms / double(distinct), "ms"},
        {"taskgraph.simulate_ms", sim_ms / sims, "ms"},
        {"taskgraph.predict_us", pred_us / preds, "us"},
        {"service.wait_ms", 1e3 * (latency_s - direct_s) / double(distinct),
         "ms"},
        {"service.cache_hits", double(last.stats.cacheHits), "count"},
        {"service.simulations", double(last.stats.simulations), "count"},
        {"service.predictions", double(last.stats.predictions), "count"},
        {"sim.pe_cycles", pe_cycles, "cycles"},
        {"host_ns_per_pe_cycle", 1e6 * sim_ms / pe_cycles, "ns"},
    };
    for (Metric &m : layerProbes(64, tracer))
        rep.metrics.push_back(m);
}

} // namespace perfbench
