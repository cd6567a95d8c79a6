#include "harness.hh"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <ctime>
#include <ostream>
#include <stdexcept>

#include <pthread.h>
#include <sys/mman.h>
#include <sys/resource.h>

namespace perfbench
{

double
nowS()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

double
processCpuS()
{
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return double(ts.tv_sec) + 1e-9 * double(ts.tv_nsec);
}

double
peakRssMiB()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return double(ru.ru_maxrss) / 1024.0; // ru_maxrss is in KiB
}

namespace
{

constexpr std::size_t loopLookupWords = 1u << 16;
constexpr std::size_t loopStateWords = 1u << 15;
constexpr std::uint32_t loopEvents = 1024;
constexpr std::uint32_t loopSteps = 200000;

struct LoopEvent
{
    std::uint64_t time;
    std::uint32_t id;
};

/** One thread's share of the reference loop over @p state and the
 *  event heap @p heap (loopEvents entries); returns a digest so the
 *  work cannot be optimised away. */
std::uint64_t
referenceLoop(const std::uint32_t *lookup, std::uint64_t *state,
              LoopEvent *heap)
{
    const auto later = [](const LoopEvent &a, const LoopEvent &b) {
        return a.time > b.time;
    };
    std::fill(state, state + loopStateWords, 1);
    for (std::uint32_t i = 0; i < loopEvents; ++i) {
        heap[i] = {i * 7ull, i * 2654435761u};
        std::push_heap(heap, heap + i + 1, later);
    }
    LoopEvent *const last = heap + loopEvents - 1;
    for (std::uint32_t n = 0; n < loopSteps; ++n) {
        std::pop_heap(heap, heap + loopEvents, later);
        const LoopEvent e = *last;
        std::uint64_t &s = state[e.id & (loopStateWords - 1)];
        const std::uint32_t r = lookup[(s ^ e.time) & (loopLookupWords - 1)];
        s = s * 6364136223846793005ull + r;
        if (s & 0x10)
            state[r & (loopStateWords - 1)] ^= e.time;
        const std::uint64_t delay =
            (s >> 60) == 0 ? 1000 + (r & 1023) : 1 + (r & 63);
        *last = {e.time + delay, e.id + (r & 3)};
        std::push_heap(heap, heap + loopEvents, later);
    }
    std::uint64_t digest = 0;
    for (std::size_t i = 0; i < loopStateWords; ++i)
        digest ^= state[i];
    return digest;
}

/** One thread's share of a referenceLoopS call. */
struct LoopShare
{
    const std::uint32_t *lookup;
    std::uint64_t *state;
    LoopEvent *heap;
    std::uint64_t digest;
    double seconds;
};

void *
runLoopShare(void *arg)
{
    auto *share = static_cast<LoopShare *>(arg);
    const double t0 = nowS();
    share->digest = referenceLoop(share->lookup, share->state, share->heap);
    share->seconds = nowS() - t0;
    return nullptr;
}

} // namespace

double
referenceLoopS(unsigned threads)
{
    // The loop leaves the allocator as the program left it: its memory
    // is mapped apart from the heap and unmapped at the end, and its
    // helper threads are bare pthreads that never call malloc, so no
    // allocator arena or mmap threshold changes under the program.
    // The mapping is populated up front, so no page fault is timed.
    const std::size_t n = std::max(1u, threads);
    const std::size_t per_thread = loopStateWords * sizeof(std::uint64_t) +
                                   loopEvents * sizeof(LoopEvent);
    const std::size_t bytes =
        loopLookupWords * sizeof(std::uint32_t) + n * per_thread;
    void *mem = mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS | MAP_POPULATE, -1, 0);
    if (mem == MAP_FAILED)
        throw std::runtime_error("reference loop: mmap failed");
    auto *lookup = static_cast<std::uint32_t *>(mem);
    SplitMix64 rng{7};
    for (std::size_t i = 0; i < loopLookupWords; ++i)
        lookup[i] = std::uint32_t(rng.next());
    char *const base = reinterpret_cast<char *>(lookup + loopLookupWords);

    std::vector<LoopShare> shares(n);
    for (std::size_t i = 0; i < n; ++i) {
        auto *state = reinterpret_cast<std::uint64_t *>(base + i * per_thread);
        shares[i] = {lookup, state,
                     reinterpret_cast<LoopEvent *>(state + loopStateWords), 0,
                     0};
    }
    std::vector<pthread_t> helpers;
    for (std::size_t i = 1; i < n; ++i) {
        pthread_t t;
        if (pthread_create(&t, nullptr, runLoopShare, &shares[i]) != 0)
            throw std::runtime_error("reference loop: pthread_create failed");
        helpers.push_back(t);
    }
    runLoopShare(&shares[0]);
    for (pthread_t t : helpers)
        pthread_join(t, nullptr);
    munmap(mem, bytes);

    static volatile std::uint64_t sink = 0;
    double total = 0;
    for (const LoopShare &share : shares) {
        sink = sink ^ share.digest;
        total += share.seconds;
    }
    return total / double(n);
}

double
scaledSetupS(double start)
{
    const double raw = nowS() - start;
    return raw * referenceLoopNominalS / referenceLoopS(1);
}

double
HostSpeed::mark()
{
    const double now = referenceLoopS(_threads);
    const double loop = _last > 0 ? 0.5 * (_last + now) : now;
    _last = now;
    return referenceLoopNominalS / loop;
}

double
quantile(std::vector<double> xs, double q)
{
    if (xs.empty())
        return 0;
    std::sort(xs.begin(), xs.end());
    const double rank = std::ceil(q * double(xs.size()));
    const std::size_t idx =
        rank < 1 ? 0 : std::min(xs.size(), std::size_t(rank)) - 1;
    return xs[idx];
}

double
median(const std::vector<double> &xs)
{
    return quantile(xs, 0.5);
}

void
RunStats::op(bool ok, const std::string &what)
{
    ++attempted;
    if (ok)
        return;
    ++failed;
    if (failures.size() < 8)
        failures.push_back(what);
}

void
RunStats::endPass(double wall_s, double cpu_s, double scale,
                  std::size_t first_op)
{
    passWallS.push_back(wall_s);
    passCpuS.push_back(cpu_s);
    passScale.push_back(scale);
    for (std::size_t i = first_op; i < opLatencyMs.size(); ++i)
        opLatencyMs[i] *= scale;
}

std::vector<Metric>
endToEndMetrics(const RunStats &stats, double setup_s)
{
    double wall = 0, cpu = 0;
    for (std::size_t i = 0; i < stats.passWallS.size(); ++i) {
        wall += stats.passWallS[i] * stats.passScale[i];
        cpu += stats.passCpuS[i] * stats.passScale[i];
    }
    const double passes = double(std::max<std::size_t>(
        1, stats.passWallS.size()));
    return {
        {"setup_s", setup_s, "s"},
        {"pass_s", wall / passes, "s"},
        {"cpu_s", cpu / passes, "s"},
        {"peak_rss_mb", peakRssMiB(), "MiB"},
        {"jobs_per_s",
         wall > 0 ? double(stats.opLatencyMs.size()) / wall : 0,
         "jobs/s"},
        {"job_latency_p50_ms", quantile(stats.opLatencyMs, 0.50), "ms"},
        {"job_latency_p95_ms", quantile(stats.opLatencyMs, 0.95), "ms"},
    };
}

int
Tracer::open(const std::string &name)
{
    const int id = int(_spans.size());
    _spans.push_back({name, current(), nowS(), 0});
    _stack.push_back(id);
    return id;
}

void
Tracer::close(int id)
{
    _spans[std::size_t(id)].end = nowS();
    if (!_stack.empty() && _stack.back() == id)
        _stack.pop_back();
}

int
Tracer::record(const std::string &name, int parent, double start,
               double end)
{
    _spans.push_back({name, parent, start, end});
    return int(_spans.size()) - 1;
}

std::map<std::string, Tracer::Totals>
Tracer::totals() const
{
    // Self time: a span's duration minus the part of it that its
    // children cover. Children of one parent may overlap (the
    // service's concurrent jobs), so covered time is the union of
    // their intervals, not the sum.
    std::vector<std::vector<std::pair<double, double>>> kids(
        _spans.size());
    for (const Span &s : _spans) {
        if (s.parent >= 0)
            kids[std::size_t(s.parent)].emplace_back(s.start, s.end);
    }
    std::map<std::string, Totals> out;
    for (std::size_t i = 0; i < _spans.size(); ++i) {
        const Span &s = _spans[i];
        auto &iv = kids[i];
        std::sort(iv.begin(), iv.end());
        double covered = 0, lo = 0, hi = -1;
        for (const auto &[a, b] : iv) {
            if (a > hi) {
                covered += hi > lo ? hi - lo : 0;
                lo = a;
                hi = b;
            } else {
                hi = std::max(hi, b);
            }
        }
        covered += hi > lo ? hi - lo : 0;
        Totals &t = out[s.name];
        ++t.count;
        t.totalMs += 1e3 * (s.end - s.start);
        t.selfMs += 1e3 * std::max(0.0, s.end - s.start - covered);
    }
    return out;
}

double
Tracer::meanMs(const std::string &name) const
{
    double total = 0;
    std::uint64_t n = 0;
    for (const Span &s : _spans) {
        if (s.name == name) {
            total += 1e3 * (s.end - s.start);
            ++n;
        }
    }
    return n ? total / double(n) : 0;
}

void
Tracer::writeJson(std::ostream &os) const
{
    const double t0 = _spans.empty() ? 0 : _spans.front().start;
    os.precision(12);
    os << "{\"spans\":[";
    for (std::size_t i = 0; i < _spans.size(); ++i) {
        const Span &s = _spans[i];
        os << (i ? ",\n" : "\n") << "{\"id\":" << i << ",\"name\":\""
           << s.name << "\",\"parent\":" << s.parent
           << ",\"start_us\":" << 1e6 * (s.start - t0)
           << ",\"end_us\":" << 1e6 * (s.end - t0) << "}";
    }
    os << "],\n\"self_ms\":{";
    bool first = true;
    for (const auto &[name, t] : totals()) {
        os << (first ? "\n" : ",\n") << "\"" << name
           << "\":{\"count\":" << t.count << ",\"total_ms\":" << t.totalMs
           << ",\"self_ms\":" << t.selfMs << "}";
        first = false;
    }
    os << "}}\n";
}

} // namespace perfbench
