/**
 * @file
 * Simulation-throughput benchmark for the GpuSim hot path.
 *
 * The serving/fleet roadmap multiplies simulated work by orders of
 * magnitude, so the simulator's own speed — simulated device-seconds
 * per CPU second — is a first-class metric. This bench replays two
 * workload shapes straight against the GpuSim API and times only
 * the run() calls (thread CPU time), so the numbers isolate the
 * discrete-event core from engine building and report assembly:
 *
 *  - "serving": the bench_serving shape — a few deeply saturated
 *    streams per device (AlexNet batch ladder, Poisson arrivals
 *    released with delayUntil(), NX + AGX). Stresses per-event
 *    arithmetic: share recomputation, water-fill, trace append.
 *  - "fleet": the EdgeFleet shape — many mostly-idle streams per
 *    device (one camera each at modest fps). Stresses the event
 *    calendar: most streams hold a pending release-time delay, so
 *    per-event cost is dominated by how fast the simulator can find
 *    the next event among hundreds of sleepers.
 *
 * Raw speed measures the host as much as the code, so the gate
 * divides it by the speed of a reference loop built into this
 * binary (standard library only, no EdgeRT code). Every replay is
 * paired with reference loops run just before it; a repetition runs
 * pairs until each side has at least kMinTimedS of CPU time and
 * keeps the median pair ratio (simulated seconds per reference
 * loop), and the workload's figure is the median over repetitions.
 * Under --check-baseline the process exits non-zero when a
 * workload's figure falls below kGateFraction of the committed
 * `bench/sim_speed_baseline.json` value — that is the CI gate.
 *
 * `--smoke` runs fewer repetitions for CI; the JSON shape is
 * identical.
 */

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <fstream>
#include <functional>
#include <limits>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.hh"
#include "core/builder.hh"
#include "core/engine.hh"
#include "core/timing_cache.hh"
#include "gpusim/sim.hh"
#include "nn/model_zoo.hh"
#include "obs/metrics.hh"
#include "report.hh"
#include "runtime/context.hh"
#include "serve/workload.hh"

namespace {

using namespace edgert;

constexpr const char *kModel = "alexnet";

/** Least CPU time each side of a repetition accumulates. */
constexpr double kMinTimedS = 0.5;

/** A workload passes while its median ratio is at least this
 *  fraction of the committed one: a 20% slowdown fails it. */
constexpr double kGateFraction = 0.90;

/** This thread's CPU seconds: time the host spent on other work
 *  (other processes, preemption) does not count. */
double
threadCpuSeconds()
{
    timespec ts{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) +
           static_cast<double>(ts.tv_nsec) * 1e-9;
}

/** Workload knobs; must stay fixed so baseline numbers compare. */
struct Workload
{
    std::string name;
    std::vector<gpusim::DeviceSpec> devices;
    int streams_per_device = 4;
    double qps_per_stream = 300.0;
    double duration_s = 4.0;
};

std::vector<Workload>
makeWorkloads()
{
    std::vector<Workload> ws;
    {
        Workload w;
        w.name = "serving";
        w.devices.push_back(gpusim::DeviceSpec::xavierNX());
        w.devices.push_back(gpusim::DeviceSpec::xavierAGX());
        w.streams_per_device = 4;
        w.qps_per_stream = 300.0; // deep saturation
        ws.push_back(w);
    }
    {
        Workload w;
        w.name = "fleet";
        w.devices.push_back(gpusim::DeviceSpec::xavierNX());
        w.devices.push_back(gpusim::DeviceSpec::xavierAGX());
        w.streams_per_device = 256; // one camera per stream
        w.qps_per_stream = 0.5;     // sparse per-camera triggers
        ws.push_back(w);
    }
    return ws;
}

/** AlexNet power-of-two engine ladder for one device. */
std::vector<core::Engine>
buildLadder(const gpusim::DeviceSpec &spec,
            core::TimingCache &cache)
{
    core::BuilderConfig bcfg;
    bcfg.build_id = 1;
    bcfg.jobs = 1;
    bcfg.timing_cache = &cache;
    core::Builder builder(spec, bcfg);
    std::vector<core::Engine> ladder;
    for (int b : {1, 2, 4, 8})
        ladder.push_back(builder.build(nn::buildZooModel(kModel, b)));
    return ladder;
}

struct ReplayResult
{
    double simulated_s = 0.0; //!< summed device makespans
    double cpu_s = 0.0;       //!< run() CPU time only
    std::int64_t inferences = 0;
    std::uint64_t trace_records = 0;
    double speed() const
    {
        return cpu_s > 0.0 ? simulated_s / cpu_s : 0.0;
    }
    void add(const ReplayResult &r)
    {
        simulated_s += r.simulated_s;
        cpu_s += r.cpu_s;
        inferences += r.inferences;
        trace_records += r.trace_records;
    }
};

/**
 * Enqueue the workload's replay into fresh sims and time only the
 * run() calls (CPU time). Engine choice cycles the ladder per
 * arrival so every batch size stays resident, like a mixed dispatch
 * plan. Every call replays the same seeded arrivals.
 * @param mode    Trace policy. Baseline-compared rows use kSampled,
 *                the serving CLIs' default: kFull's trace stream
 *                makes the figure track host memory bandwidth more
 *                than the code.
 * @param publish Publish each device's sim.* gauges into the
 *                registry the bench report embeds.
 */
ReplayResult
runReplay(const Workload &w,
          const std::vector<std::vector<core::Engine>> &ladders,
          gpusim::TraceMode mode = gpusim::TraceMode::kSampled,
          bool publish = false)
{
    ReplayResult res;
    std::vector<std::unique_ptr<gpusim::GpuSim>> sims;
    std::vector<
        std::vector<std::unique_ptr<runtime::ExecutionContext>>>
        ctxs; // [device * stream][engine]

    Rng root(42);
    for (std::size_t d = 0; d < w.devices.size(); d++) {
        auto sim = std::make_unique<gpusim::GpuSim>(w.devices[d]);
        sim->setTraceMode(mode);
        for (int s = 0; s < w.streams_per_device; s++) {
            int stream = s == 0 ? 0 : sim->createStream();
            ctxs.emplace_back();
            for (const auto &eng : ladders[d])
                ctxs.back().push_back(
                    std::make_unique<runtime::ExecutionContext>(
                        eng, *sim, stream));
            serve::ArrivalConfig ac;
            ac.qps = w.qps_per_stream;
            Rng rng =
                root.fork(static_cast<std::uint64_t>(d * 1000 + s));
            std::vector<double> arrivals =
                serve::generateArrivals(ac, w.duration_s, rng);
            std::size_t i = 0;
            for (double t : arrivals) {
                sim->delayUntil(stream, t);
                ctxs.back()[i % ladders[d].size()]->enqueueInference(
                    true, true);
                res.inferences++;
                i++;
            }
        }
        sims.push_back(std::move(sim));
    }

    std::vector<double> dev_cpu_s(sims.size(), 0.0);
    for (std::size_t d = 0; d < sims.size(); d++) {
        double t0 = threadCpuSeconds();
        sims[d]->run();
        dev_cpu_s[d] = threadCpuSeconds() - t0;
        res.cpu_s += dev_cpu_s[d];
    }
    for (auto &sim : sims) {
        res.simulated_s += sim->nowSeconds();
        res.trace_records += sim->trace().size();
    }
    if (publish)
        for (std::size_t d = 0; d < sims.size(); d++)
            gpusim::publishSimMetrics(*sims[d],
                                      {{"workload", w.name},
                                       {"device", w.devices[d].name},
                                       {"index", std::to_string(d)}},
                                      dev_cpu_s[d]);
    return res;
}

/**
 * One reference loop: the kind of work the event loop does — a
 * time-ordered heap of sleepers, slot reads and writes scattered
 * over a 1 MiB pool (well past the L1 cache), a short max-min style
 * pass of floating-point arithmetic, and small allocations — on the
 * standard library only, so it measures the host and never the code
 * under test. Returns a checksum so nothing is elided.
 */
double
referenceLoop()
{
    struct Slot
    {
        double t = 0.0;
        std::int64_t next = -1;
        std::array<double, 6> pad{};
    };
    using Pending = std::pair<double, std::int32_t>;
    std::vector<Pending> heap;
    std::vector<Slot> pool(1 << 14);
    std::array<double, 8> active{}, grant{};
    std::vector<std::vector<double>> scratch;
    std::uint64_t x = 0x2545f4914f6cdd1dULL;
    auto next = [&x] {
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        return x * 0x2545f4914f6cdd1dULL;
    };
    auto uniform = [&next] {
        return static_cast<double>(next() >> 11) * 0x1.0p-53;
    };
    for (std::int32_t i = 0; i < 2048; i++)
        heap.emplace_back(uniform(), i);
    std::make_heap(heap.begin(), heap.end(), std::greater<>());
    double sum = 0.0;
    for (int step = 0; step < 25000; step++) {
        std::pop_heap(heap.begin(), heap.end(), std::greater<>());
        Pending p = heap.back();
        heap.pop_back();
        Slot &slot = pool[next() & (pool.size() - 1)];
        Slot &link = pool[static_cast<std::size_t>(
            (slot.next + p.second) & (pool.size() - 1))];
        slot.t = p.first;
        slot.next = static_cast<std::int64_t>(link.t * 16384.0);
        double total = 0.0;
        for (double a : active)
            total += a + 1.0;
        for (std::size_t i = 0; i < active.size(); i++) {
            grant[i] = std::min(active[i] + 1.0, 8.0 * active[i] / total);
            active[i] = 0.5 * active[i] + 0.5 * link.pad[i % 6] + slot.t;
        }
        link.pad[static_cast<std::size_t>(p.second) % 6] = grant[0];
        sum += grant[static_cast<std::size_t>(p.second) % 8];
        if (step % 64 == 0) {
            scratch.emplace_back(static_cast<std::size_t>(8 + step % 24),
                                 p.first);
            if (scratch.size() > 64)
                scratch.erase(scratch.begin());
        }
        heap.emplace_back(p.first + uniform(), p.second);
        std::push_heap(heap.begin(), heap.end(), std::greater<>());
    }
    return sum + static_cast<double>(scratch.size());
}

double
median(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/** One repetition of one workload, paired with the reference. */
struct RepResult
{
    ReplayResult replay;
    double ref_rate = 0.0; //!< reference loops per CPU second
    double ratio = 0.0;    //!< median over pairs of speed / ref rate
};

/**
 * Pair every replay with the reference loops run just before it
 * (for at least as much CPU time as the previous replay took), until
 * both sides have accumulated kMinTimedS. Each pair's ratio compares
 * code and host over the same few milliseconds, and the median over
 * pairs drops pairs that a burst of host noise hit on one side only.
 */
RepResult
measureRep(const Workload &w,
           const std::vector<std::vector<core::Engine>> &ladders)
{
    static volatile double sink = 0.0;
    RepResult rep;
    double ref_s = 0.0, ref_loops = 0.0, last_replay_s = 0.0;
    std::vector<double> ratios;
    while (ref_s < kMinTimedS || rep.replay.cpu_s < kMinTimedS) {
        double chunk_s = 0.0, chunk_loops = 0.0;
        do {
            double t0 = threadCpuSeconds();
            sink = sink + referenceLoop();
            chunk_s += threadCpuSeconds() - t0;
            chunk_loops += 1.0;
        } while (chunk_s < last_replay_s);
        ref_s += chunk_s;
        ref_loops += chunk_loops;
        ReplayResult r = runReplay(w, ladders);
        rep.replay.add(r);
        last_replay_s = r.cpu_s;
        ratios.push_back(r.speed() / (chunk_loops / chunk_s));
    }
    rep.ref_rate = ref_loops / ref_s;
    rep.ratio = median(ratios);
    return rep;
}

/** Pull `"key": <number>` out of a flat JSON document (no parser in
 *  common/, and the baseline file is trusted repo content). */
bool
extractNumber(const std::string &doc, const std::string &key,
              double *out)
{
    std::string needle = "\"" + key + "\":";
    std::size_t pos = doc.find(needle);
    if (pos == std::string::npos)
        return false;
    pos += needle.size();
    *out = std::strtod(doc.c_str() + pos, nullptr);
    return true;
}

/** Committed simulated seconds per reference loop; 0 = absent. */
double
loadBaseline(const std::string &doc, const std::string &workload)
{
    double v = 0.0;
    return extractNumber(doc, workload + "_sim_s_per_ref_loop", &v)
               ? v
               : 0.0;
}

std::string
loadBaselineDoc(const std::string &path)
{
    for (const std::string &p :
         {path, "../bench/" + path, "../../bench/" + path,
          "bench/" + path}) {
        std::ifstream f(p);
        if (!f)
            continue;
        std::stringstream ss;
        ss << f.rdbuf();
        return ss.str();
    }
    return "";
}

} // namespace

int
main(int argc, char **argv)
{
    bool smoke = false;
    bool check_baseline = false;
    std::string baseline_path = "sim_speed_baseline.json";
    for (int i = 1; i < argc; i++) {
        if (std::strcmp(argv[i], "--smoke") == 0)
            smoke = true;
        else if (std::strcmp(argv[i], "--check-baseline") == 0)
            check_baseline = true;
        else if (std::strncmp(argv[i], "--baseline=", 11) == 0)
            baseline_path = argv[i] + 11;
    }
    const int reps = smoke ? 5 : 9;
    // Keep freed heap pages mapped: every replay then reuses memory
    // an earlier one already faulted in, and the timed run() calls
    // measure the simulator instead of the host's page-fault path.
    mallopt(M_MMAP_MAX, 0);
    mallopt(M_TRIM_THRESHOLD, std::numeric_limits<int>::max());

    obs::MetricRegistry::global().reset();
    std::vector<Workload> workloads = makeWorkloads();

    core::TimingCache cache;
    std::vector<std::vector<core::Engine>> ladders;
    for (const auto &spec : workloads[0].devices)
        ladders.push_back(buildLadder(spec, cache));

    std::string base_doc = loadBaselineDoc(baseline_path);
    if (base_doc.empty())
        std::printf("baseline file not found (looked for %s); "
                    "reporting raw speeds only\n",
                    baseline_path.c_str());

    struct Row
    {
        ReplayResult res;             //!< all repetitions summed
        std::vector<double> speeds;   //!< per repetition
        std::vector<double> ratios;   //!< speed / reference rate
        double ratio = 0.0;           //!< median of `ratios`
        double committed = 0.0;       //!< baseline ratio, 0 = absent
        double vs_committed = 0.0;
        bool pass = true;
        ReplayResult full;    //!< one TraceMode::kFull replay
        ReplayResult off;     //!< one TraceMode::kOff replay
    };
    std::vector<Row> rows(workloads.size());
    std::vector<double> ref_rates;
    for (int rep = 0; rep < reps; rep++) {
        for (std::size_t i = 0; i < workloads.size(); i++) {
            RepResult r = measureRep(workloads[i], ladders);
            rows[i].res.add(r.replay);
            rows[i].speeds.push_back(r.replay.speed());
            rows[i].ratios.push_back(r.ratio);
            ref_rates.push_back(r.ref_rate);
        }
    }
    std::printf("reference: %.1f loops per CPU second (median)\n",
                median(ref_rates));

    bool all_pass = true;
    for (std::size_t i = 0; i < workloads.size(); i++) {
        const Workload &w = workloads[i];
        Row &row = rows[i];
        std::printf("=== %s: %s ladder replay, %d streams/device, "
                    "%.1f qps/stream, %.1fs, %d reps%s ===\n",
                    w.name.c_str(), kModel, w.streams_per_device,
                    w.qps_per_stream, w.duration_s, reps,
                    smoke ? " (smoke)" : "");
        row.ratio = median(row.ratios);
        std::printf("simulated %.3f device-seconds in %.3f run() CPU "
                    "seconds; median %.1fx realtime, %.4f simulated "
                    "s per reference loop\n",
                    row.res.simulated_s, row.res.cpu_s,
                    median(row.speeds), row.ratio);
        row.committed = loadBaseline(base_doc, w.name);
        if (row.committed > 0.0) {
            row.vs_committed = row.ratio / row.committed;
            row.pass = row.vs_committed >= kGateFraction;
            std::printf("baseline: committed %.4f -> %.0f%% (gate "
                        "%.0f%%)%s\n",
                        row.committed, row.vs_committed * 100.0,
                        kGateFraction * 100.0,
                        row.pass ? "" : "  ** REGRESSION **");
        }
        all_pass = all_pass && row.pass;
        // Trace-mode reference points (one replay, outside the
        // baseline comparison): what keeping every record costs and
        // what dropping them buys. The full replay also publishes
        // the sim.* gauges.
        row.full = runReplay(w, ladders, gpusim::TraceMode::kFull,
                             /*publish=*/true);
        row.off = runReplay(w, ladders, gpusim::TraceMode::kOff);
        std::printf("trace modes: full %.1fx (%llu records), "
                    "off %.1fx\n",
                    row.full.speed(),
                    static_cast<unsigned long long>(
                        row.full.trace_records),
                    row.off.speed());
    }

    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    auto seconds = [](const timeval &tv) {
        return static_cast<double>(tv.tv_sec) +
               static_cast<double>(tv.tv_usec) * 1e-6;
    };

    bench::saveBenchReport(
        "BENCH_sim_speed.json", "bench_sim_speed",
        [&](bench::JsonWriter &w2) {
            w2.field("smoke", smoke);
            w2.field("model", kModel);
            w2.field("reps", reps);
            w2.field("min_timed_seconds", kMinTimedS);
            w2.field("gate_fraction", kGateFraction);
            w2.field("reference_loops_per_s", median(ref_rates));
            // Headline: the fleet shape is what the SimCore
            // overhaul is for; serving rides along as the
            // arithmetic-bound reference point.
            w2.field("sim_speed", median(rows.back().speeds));
            w2.field("pass", all_pass);
            w2.field("user_seconds", seconds(ru.ru_utime));
            w2.field("sys_seconds", seconds(ru.ru_stime));
            w2.field("peak_rss_mb",
                     static_cast<double>(ru.ru_maxrss) / 1024.0);
            w2.key("workloads").beginArray();
            for (std::size_t i = 0; i < workloads.size(); i++) {
                const Workload &w = workloads[i];
                const Row &row = rows[i];
                w2.beginObject();
                w2.field("name", w.name);
                w2.key("devices").beginArray();
                for (const auto &spec : w.devices)
                    w2.value(spec.name);
                w2.endArray();
                w2.field("streams_per_device", w.streams_per_device);
                w2.field("qps_per_stream", w.qps_per_stream);
                w2.field("duration_s", w.duration_s);
                w2.field("inferences", row.res.inferences);
                w2.field("trace_records", row.res.trace_records);
                w2.field("simulated_seconds", row.res.simulated_s);
                w2.field("run_cpu_seconds", row.res.cpu_s);
                w2.field("sim_speed", median(row.speeds));
                w2.field("sim_s_per_ref_loop", row.ratio);
                w2.key("rep_sim_s_per_ref_loop").beginArray();
                for (double r : row.ratios)
                    w2.value(r);
                w2.endArray();
                w2.field("committed_sim_s_per_ref_loop",
                         row.committed);
                w2.field("vs_committed", row.vs_committed);
                w2.field("pass", row.pass);
                w2.field("trace_full_sim_speed", row.full.speed());
                w2.field("trace_full_records", row.full.trace_records);
                w2.field("trace_off_sim_speed", row.off.speed());
                w2.endObject();
            }
            w2.endArray();
        });

    if (check_baseline && !all_pass) {
        std::fprintf(stderr,
                     "sim-speed regression: a workload's median "
                     "speed per reference loop is below %.0f%% of "
                     "its committed baseline\n",
                     kGateFraction * 100.0);
        return 1;
    }
    return 0;
}
