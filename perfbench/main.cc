/**
 * @file
 * perfbench: the repository benchmark (README.md). One run measures
 * one workload:
 *
 *   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
 *   perfbench --self-test
 *
 * The last line of standard output is one JSON object with the keys
 * correct, attempted, failed and metrics: the end-to-end metrics with
 * --trace 0, the per-layer metrics with --trace 1. A copy of the
 * result with a host descriptor, and the traced run's spans, go under
 * .bench_out/ in the working directory.
 */

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <thread>

#include "model/json.hh"
#include "workloads.hh"

using namespace perfbench;
using namespace t3dsim;

namespace
{

struct Workload
{
    const char *name;
    void (*run)(const Options &, Report &);

    /** One busy thread (the sequential scheduler), or several that
     *  move among the CPUs (bsort's workers, the service's). */
    bool sequential;
};

constexpr Workload workloads[] = {
    {"em3d-fig9", runEm3dFig9, true},
    {"bsort-par4", runBsortPar4, false},
    {"em3d-weak-4k", runEm3dWeak4k, true},
    {"serve-mixed", runServeMixed, false},
};

/**
 * The metrics a result reports, in BENCHMARK.json's order: its
 * "end_to_end" list for the untimed run, "per_layer" for the traced
 * one. Each entry is a name and a unit; empty on a missing or
 * malformed file, with the reason in @p err.
 */
std::vector<Metric>
declaredMetrics(bool trace, std::string &err)
{
    const model::Json doc = model::Json::parseFile("BENCHMARK.json", &err);
    const char *key = trace ? "per_layer" : "end_to_end";
    std::vector<Metric> out;
    if (!err.empty())
        return out;
    if (!doc.isObject() || !doc.has(key) || !doc[key].isArray()) {
        err = std::string("BENCHMARK.json has no \"") + key + "\" list";
        return out;
    }
    for (const model::Json &m : doc[key].array()) {
        if (!m.isObject() || !m.has("name") || !m["name"].isString() ||
            !m.has("unit") || !m["unit"].isString()) {
            err = std::string("BENCHMARK.json: malformed \"") + key +
                  "\" entry";
            return {};
        }
        out.push_back({m["name"].str(), 0, m["unit"].str()});
    }
    return out;
}

/**
 * Fill @p declared with the values a run measured. Every measured
 * metric must be declared, with the same unit; an end-to-end metric
 * must also be measured, while a per-layer one that the workload
 * never reaches reads 0. Returns "" or what disagrees.
 */
std::string
fillDeclared(std::vector<Metric> &declared,
             const std::vector<Metric> &measured, bool trace)
{
    for (const Metric &x : measured) {
        auto it = std::find_if(
            declared.begin(), declared.end(),
            [&](const Metric &d) { return d.name == x.name; });
        if (it == declared.end())
            return "measured metric " + x.name + " is not in BENCHMARK.json";
        if (it->unit != x.unit)
            return "metric " + x.name + " is in " + x.unit +
                   ", BENCHMARK.json says " + it->unit;
        it->value = x.value;
    }
    for (const Metric &d : declared) {
        const bool seen = std::any_of(
            measured.begin(), measured.end(),
            [&](const Metric &x) { return x.name == d.name; });
        if (!trace && !seen)
            return "end-to-end metric " + d.name + " was not measured";
    }
    return "";
}

std::string
cpuModel()
{
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("model name", 0) == 0) {
            const std::size_t colon = line.find(':');
            return colon == std::string::npos ? line
                                              : line.substr(colon + 2);
        }
    }
    return "unknown";
}

std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        if (static_cast<unsigned char>(c) >= 0x20)
            out += c;
    }
    return out + "\"";
}

std::string
jsonArray(const std::vector<double> &xs)
{
    std::ostringstream os;
    os.precision(17);
    os << "[";
    for (std::size_t i = 0; i < xs.size(); ++i)
        os << (i ? "," : "") << xs[i];
    os << "]";
    return os.str();
}

std::string
hostDescriptor()
{
    std::ostringstream os;
    os << "{\"nproc\":" << std::thread::hardware_concurrency()
       << ",\"cpu\":" << jsonString(cpuModel())
       << ",\"compiler\":" << jsonString(PERFBENCH_COMPILER)
       << ",\"build_type\":" << jsonString(PERFBENCH_BUILD_TYPE) << "}";
    return os.str();
}

std::string
resultJson(const Report &rep)
{
    std::ostringstream os;
    os.precision(17);
    os << "{\"correct\":"
       << (rep.stats.failed == 0 ? "true" : "false")
       << ",\"attempted\":" << rep.stats.attempted
       << ",\"failed\":" << rep.stats.failed << ",\"metrics\":{";
    for (std::size_t i = 0; i < rep.metrics.size(); ++i) {
        const Metric &m = rep.metrics[i];
        os << (i ? "," : "") << jsonString(m.name) << ":{\"value\":"
           << (std::isfinite(m.value) ? m.value : 0.0)
           << ",\"unit\":" << jsonString(m.unit) << "}";
    }
    os << "}}";
    return os.str();
}

int
usage()
{
    std::cerr << "usage: perfbench --workload <name> --seed <n> "
                 "--seconds <s> --trace <0|1>\n"
                 "       perfbench --self-test\nworkloads:";
    for (const Workload &w : workloads)
        std::cerr << " " << w.name;
    std::cerr << "\n";
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt;

    // The simulator reads these at run time; only bsort-par4 asks for
    // worker threads, and it sets them itself below.
    for (const char *var :
         {"T3DSIM_COUNTERS", "T3DSIM_TRACE", "T3DSIM_HOST_THREADS"})
        unsetenv(var);

    if (argc == 2 && std::strcmp(argv[1], "--self-test") == 0)
        return selfTest() == 0 ? 0 : 1;

    bool have_seed = false, have_seconds = false, have_trace = false;
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string flag = argv[i];
        char *end = nullptr;
        if (flag == "--workload") {
            opt.workload = argv[i + 1];
        } else if (flag == "--seed") {
            opt.seed = std::strtoull(argv[i + 1], &end, 10);
            have_seed = *end == '\0';
        } else if (flag == "--seconds") {
            opt.seconds = std::strtod(argv[i + 1], &end);
            have_seconds = *end == '\0' && opt.seconds > 0;
        } else if (flag == "--trace") {
            opt.trace = std::strcmp(argv[i + 1], "1") == 0;
            have_trace = opt.trace || std::strcmp(argv[i + 1], "0") == 0;
        } else {
            return usage();
        }
    }
    const Workload *workload = nullptr;
    for (const Workload &w : workloads) {
        if (opt.workload == w.name)
            workload = &w;
    }
    if (argc % 2 == 0 || !workload || !have_seed || !have_seconds ||
        !have_trace)
        return usage();
    if (opt.workload == "bsort-par4")
        setenv("T3DSIM_HOST_THREADS", "4", 1);

    std::string err;
    std::vector<Metric> declared = declaredMetrics(opt.trace, err);
    if (!err.empty()) {
        std::cerr << "perfbench: " << err << "\n";
        return 1;
    }

    opt.speedThreads = workload->sequential
                           ? 1
                           : std::max(1u, std::thread::hardware_concurrency());
    opt.start = nowS();
    Report rep;
    workload->run(opt, rep);
    if (rep.error.empty())
        rep.error = fillDeclared(declared, rep.metrics, opt.trace);
    if (!rep.error.empty()) {
        std::cerr << "perfbench: " << opt.workload << ": " << rep.error
                  << "\n";
        return 1;
    }
    rep.metrics = std::move(declared);
    for (const std::string &f : rep.stats.failures)
        std::cerr << "perfbench: check failed: " << f << "\n";

    const std::string result = resultJson(rep);
    const std::string host = hostDescriptor();
    const std::string stem = ".bench_out/" + opt.workload + "-seed" +
                             std::to_string(opt.seed) +
                             (opt.trace ? "-trace" : "");
    std::filesystem::create_directories(".bench_out");
    std::ofstream(stem + ".json")
        << "{\"workload\":" << jsonString(opt.workload)
        << ",\"seed\":" << opt.seed << ",\"seconds\":" << opt.seconds
        << ",\"trace\":" << (opt.trace ? 1 : 0) << ",\"host\":" << host
        << ",\"pass_wall_s\":" << jsonArray(rep.stats.passWallS)
        << ",\"pass_cpu_s\":" << jsonArray(rep.stats.passCpuS)
        << ",\"pass_scale\":" << jsonArray(rep.stats.passScale)
        << ",\"result\":" << result << "}\n";

    std::cout << "workload " << opt.workload << " seed " << opt.seed
              << ": " << rep.stats.attempted << " operations checked, "
              << rep.stats.failed << " failed\n";
    if (opt.trace) {
        std::ofstream spans(stem + ".spans.json");
        rep.tracer.writeJson(spans);
        std::cout << "span self times (ms), all spans in " << stem
                  << ".spans.json:\n";
        for (const auto &[name, t] : rep.tracer.totals()) {
            std::cout << "  " << name << ": count " << t.count
                      << " total " << t.totalMs << " self " << t.selfMs
                      << "\n";
        }
    }
    std::cout << "host " << host << "\n" << result << std::endl;
    return 0;
}
