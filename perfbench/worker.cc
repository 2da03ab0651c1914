/**
 * @file
 * perfbench_worker — one timed run of one benchmark workload.
 *
 * The worker turns (workload, seed) into a runner config, calls the
 * runner once, serializes the report and prints one JSON line of
 * host measurements taken around that call. A process runs exactly
 * one call, so its peak RSS belongs to that call alone. run.py
 * spawns the workers, checks the reports and computes the metrics.
 *
 *   perfbench_worker --workload fleet_steady --seed 1 \
 *       --report-out r.json [--setup] [--sim-threads N] \
 *       [--trace --spans-out s.json --metrics-out m.json]
 *   perfbench_worker --calibrate
 *
 * --setup makes the same call with no traffic and no scheduled
 * events (the set-up cost every CLI call pays). --trace enables the
 * global tracer (and serve's simulator self-metrics), writes the
 * recorded spans and the metric registry, and adds two probes of
 * hot functions measured on the workload's own inputs.
 *
 * --calibrate times a fixed loop that calls no EdgeRT code, so a
 * change to the program cannot move it: run.py interleaves it with
 * the runs to measure how fast the host is at the moment.
 */

#include <sys/resource.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <queue>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/cliflags.hh"
#include "common/json.hh"
#include "common/logging.hh"
#include "common/rng.hh"
#include "fleet/fleet.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "serve/server.hh"
#include "stream/stream.hh"

using namespace edgert;

namespace {

struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    bool setup = false;
    bool calibrate = false;
    int sim_threads = 1;
    bool trace = false;
    std::string report_out;
    std::string spans_out;
    std::string metrics_out;
};

/** Host measurements of one runner call plus its toJson(). */
struct Measured
{
    std::string report;
    double wall_s = 0.0;
    double user_s = 0.0;
    double sys_s = 0.0;
    long minor_faults = 0;
};

/** 500 nodes, 120k qps aggregate, one failure and a staged rollout:
 *  the control plane, replay enqueue and memory at fleet scale. */
fleet::FleetConfig
fleetSteady(const Options &o)
{
    fleet::FleetConfig cfg;
    cfg.groups = {fleet::parseNodeGroup("nx:400"),
                  fleet::parseNodeGroup("agx:80"),
                  fleet::parseNodeGroup(
                      "nx:20:clock=0.6:name=straggler")};
    fleet::FleetModelConfig mc;
    mc.model = "resnet-18";
    mc.slo_ms = 50.0;
    mc.arrivals.qps = o.setup ? 0.0 : 120000.0;
    // On all 500 nodes the load is so light that the fleet p99 is a
    // batch service time, identical on every seed; on 80% of them
    // the tail includes queueing, so it can move.
    mc.nodes_pct = 80.0;
    cfg.models = {mc};
    cfg.duration_s = 1.0;
    cfg.seed = o.seed;
    cfg.route_policy = fleet::RoutePolicy::kLeastSojourn;
    cfg.sojourn_choices = 4;
    cfg.placement = fleet::PlacementPolicy::kCalibrated;
    cfg.sim_threads = o.sim_threads;
    if (!o.setup) {
        cfg.failures = {{7, 0.3, 0.6}};
        fleet::RolloutSpec ro;
        ro.model = "resnet-18";
        ro.candidate_build_id = 2;
        ro.stages = {{0.2, 1.0}, {0.4, 10.0}, {0.7, 100.0}};
        // Wide enough that every class accepts the candidate, so
        // all three stages execute.
        ro.gate.max_disagreement_pct = 100.0;
        cfg.rollouts = {ro};
    }
    return cfg;
}

/** 100 NX nodes at about twice their capacity: the admit / shed /
 *  quarantine / reroute path, with almost no replay. */
fleet::FleetConfig
fleetOverload(const Options &o)
{
    fleet::FleetConfig cfg;
    cfg.groups = {fleet::parseNodeGroup("nx:100")};
    fleet::FleetModelConfig mc;
    mc.model = "resnet-18";
    mc.slo_ms = 50.0;
    mc.arrivals.qps = o.setup ? 0.0 : 80000.0;
    cfg.models = {mc};
    cfg.duration_s = 10.0;
    cfg.seed = o.seed;
    cfg.route_policy = fleet::RoutePolicy::kLeastSojourn;
    cfg.quarantine_on_page = true;
    cfg.sim_threads = o.sim_threads;
    return cfg;
}

/** Three models contending on NX + AGX with watch and a mid-window
 *  hot-swap: the serve loop near its knee. */
serve::ServeConfig
serveMix(const Options &o)
{
    auto model = [&](const char *name, nn::Precision prec,
                     serve::ArrivalKind kind, double qps,
                     double slo_ms) {
        serve::ModelConfig mc;
        mc.model = name;
        mc.precision = prec;
        mc.arrivals.kind = kind;
        mc.arrivals.qps = o.setup ? 0.0 : qps;
        mc.slo_ms = slo_ms;
        return mc;
    };
    serve::ServeConfig cfg;
    cfg.models = {model("resnet-18", nn::Precision::kFp16,
                        serve::ArrivalKind::kBursty, 200.0, 25.0),
                  model("mobilenetv1", nn::Precision::kInt8,
                        serve::ArrivalKind::kPoisson, 200.0, 15.0),
                  model("tiny-yolov3", nn::Precision::kFp16,
                        serve::ArrivalKind::kPoisson, 100.0, 50.0)};
    cfg.devices = {serve::parseDevice("nx"),
                   serve::parseDevice("agx")};
    cfg.duration_s = 120.0;
    cfg.seed = o.seed;
    cfg.sim_threads = o.sim_threads;
    cfg.sim_metrics = o.trace;
    cfg.trace_mode = gpusim::TraceMode::kSampled;
    cfg.trace_sample_every = 16;
    cfg.watch.enabled = true;
    if (!o.setup) {
        serve::SwapSpec sw;
        sw.model = "resnet-18";
        sw.t_s = cfg.duration_s / 2.0;
        sw.candidate_build_id = 2;
        cfg.swaps = {sw};
    }
    return cfg;
}

/** 32 jittered 30 fps cameras over two models and two devices: the
 *  stream control loop and its pipelined three-stream replay. */
stream::StreamConfig
streamCams(const Options &o)
{
    auto model = [](const char *name, nn::Precision prec,
                    stream::BackpressurePolicy policy) {
        stream::StreamModelConfig mc;
        mc.model = name;
        mc.precision = prec;
        mc.streams = 16;
        mc.fps = 30.0;
        mc.arrival = stream::FrameArrival::kJitteredCamera;
        mc.policy = policy;
        return mc;
    };
    stream::StreamConfig cfg;
    cfg.models = {
        model("tiny-yolov3", nn::Precision::kInt8,
              stream::BackpressurePolicy::kSkipToLatest),
        model("mobilenetv1", nn::Precision::kMixed,
              stream::BackpressurePolicy::kDropOldest)};
    cfg.devices = {serve::parseDevice("nx"),
                   serve::parseDevice("agx")};
    // fps cannot be 0, so set-up runs a window far shorter than a
    // frame gap: each camera's first frame lands at a uniform phase
    // in [0, 1/fps), so one lands inside it with odds ~1e-6.
    cfg.duration_s = o.setup ? 1e-9 : 60.0;
    cfg.seed = o.seed;
    cfg.sim_threads = o.sim_threads;
    cfg.trace_mode = gpusim::TraceMode::kSampled;
    cfg.trace_sample_every = 16;
    return cfg;
}

double
seconds(const timeval &tv)
{
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
}

using Clock = std::chrono::steady_clock;

double
since(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** Time `run()` (the runner call) and the report's toJson(). */
template <typename RunFn>
Measured
measure(RunFn run)
{
    Measured m;
    rusage ru0{}, ru1{};
    getrusage(RUSAGE_SELF, &ru0);
    auto t0 = Clock::now();
    {
        auto report = [&] {
            obs::ScopedSpan span("bench.run");
            return run();
        }();
        obs::ScopedSpan span("bench.serialize");
        m.report = report.toJson();
    }
    m.wall_s = since(t0);
    getrusage(RUSAGE_SELF, &ru1);
    m.user_s = seconds(ru1.ru_utime) - seconds(ru0.ru_utime);
    m.sys_s = seconds(ru1.ru_stime) - seconds(ru0.ru_stime);
    m.minor_faults = ru1.ru_minflt - ru0.ru_minflt;
    return m;
}

/** Build the workload's config from the seed, then measure it. */
template <typename Config, typename Report>
Measured
runWith(Config (*make)(const Options &),
        Report (*runner)(const Config &), const Options &o)
{
    Config cfg = [&] {
        obs::ScopedSpan span("bench.setup");
        return make(o);
    }();
    return measure([&] { return runner(cfg); });
}

Measured
runWorkload(const Options &o)
{
    if (o.workload == "fleet_steady")
        return runWith(fleetSteady, fleet::runFleet, o);
    if (o.workload == "fleet_overload")
        return runWith(fleetOverload, fleet::runFleet, o);
    if (o.workload == "serve_mix")
        return runWith(serveMix, serve::runServer, o);
    if (o.workload == "stream_cams")
        return runWith(streamCams, stream::runStreams, o);
    fatal("unknown workload '", o.workload, "'");
}

/**
 * The host-speed reference: the kind of work the runners' event
 * loops do, on the standard library only. It drains a time-ordered
 * event heap whose events update a cache-resident hash map and
 * allocate small buffers. Returns a checksum so nothing is elided.
 */
std::uint64_t
calibrationLoop()
{
    std::uint64_t x = 0x9e3779b97f4a7c15ULL, sum = 0;
    auto rnd = [&x] {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        return x;
    };
    using Event = std::pair<std::uint64_t, std::uint64_t>;
    std::priority_queue<Event, std::vector<Event>, std::greater<>> heap;
    std::unordered_map<std::uint64_t, std::uint64_t> state;
    std::vector<std::vector<double>> buffers;
    for (std::uint64_t i = 0; i < 4096; i++)
        heap.push({rnd() % 1000000, i});
    for (int step = 0; step < 1500000; step++) {
        auto [t, id] = heap.top();
        heap.pop();
        std::uint64_t &v = state[rnd() % 16384];
        v += t ^ id;
        sum += v & 0xff;
        if (step % 32 == 0)
            buffers.emplace_back(64, static_cast<double>(t));
        heap.push({t + 1 + rnd() % 1000, id});
    }
    for (const auto &b : buffers)
        sum += static_cast<std::uint64_t>(b.front()) & 1;
    return sum + state.size();
}

/** ns per HashRing::successors(key, 4) on the fleet's full ring. */
double
probeRingSuccessors(const fleet::FleetConfig &cfg)
{
    fleet::HashRing ring(cfg.seed, cfg.vnodes);
    std::vector<int> nodes;
    for (const auto &g : cfg.groups)
        for (int i = 0; i < g.count; i++)
            nodes.push_back(static_cast<int>(nodes.size()));
    ring.reset(nodes);
    constexpr int kCalls = 200000;
    std::int64_t sink = 0;
    auto t0 = Clock::now();
    for (int i = 0; i < kCalls; i++)
        sink += ring.successors(ring.keyFor(i), 4).front();
    double s = since(t0);
    if (sink < 0)
        fatal("ring probe routed to a negative node");
    return s * 1e9 / kCalls;
}

/** ns per Histogram::record through a MetricRegistry handle. */
double
probeHistogramRecord(const Options &o)
{
    obs::MetricRegistry reg;
    obs::Histogram h = reg.histogram("perfbench.probe_ms");
    Rng rng(o.seed);
    constexpr int kCalls = 1000000;
    std::vector<double> values;
    values.reserve(kCalls);
    for (int i = 0; i < kCalls; i++)
        values.push_back(rng.uniform(0.1, 50.0));
    auto t0 = Clock::now();
    for (double v : values)
        h.record(v);
    double s = since(t0);
    if (h.count() != kCalls)
        fatal("histogram probe lost records");
    return s * 1e9 / kCalls;
}

void
writeFile(const std::string &path, const std::string &bytes)
{
    std::ofstream f(path, std::ios::binary);
    f.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    if (!f)
        fatal("cannot write '", path, "'");
}

std::string
spansJson(const std::vector<obs::SpanRecord> &spans)
{
    std::string out = "[";
    for (std::size_t i = 0; i < spans.size(); i++) {
        const auto &s = spans[i];
        out += i ? ",\n" : "\n";
        out += "{\"name\":\"" + jsonEscape(s.name) +
               "\",\"thread\":" + std::to_string(s.thread) +
               ",\"start_ns\":" + std::to_string(s.start_ns) +
               ",\"end_ns\":" + std::to_string(s.end_ns) + "}";
    }
    return out + "\n]\n";
}

Options
parse(int argc, char **argv)
{
    Options o;
    FlagParser flags(argc, argv);
    while (flags.next()) {
        if (flags.is("--workload"))
            o.workload = flags.value();
        else if (flags.is("--seed"))
            o.seed = flags.unsignedValue();
        else if (flags.is("--setup"))
            o.setup = true;
        else if (flags.is("--calibrate"))
            o.calibrate = true;
        else if (flags.is("--sim-threads"))
            o.sim_threads = static_cast<int>(flags.unsignedValue());
        else if (flags.is("--trace"))
            o.trace = true;
        else if (flags.is("--report-out"))
            o.report_out = flags.value();
        else if (flags.is("--spans-out"))
            o.spans_out = flags.value();
        else if (flags.is("--metrics-out"))
            o.metrics_out = flags.value();
        else
            fatal("unknown option '", flags.arg(), "'");
    }
    if (!o.calibrate && (o.workload.empty() || o.report_out.empty()))
        fatal("--workload and --report-out are required");
    if (o.sim_threads < 1)
        fatal("--sim-threads must be at least 1");
    if (o.trace && (o.spans_out.empty() || o.metrics_out.empty()))
        fatal("--trace needs --spans-out and --metrics-out");
    return o;
}

int
run(int argc, char **argv)
{
    Options o = parse(argc, argv);
    if (o.calibrate) {
        rusage ru0{}, ru1{};
        getrusage(RUSAGE_SELF, &ru0);
        auto t0 = Clock::now();
        std::uint64_t sum = calibrationLoop();
        double wall = since(t0);
        getrusage(RUSAGE_SELF, &ru1);
        std::printf("{\"wall_s\":%s,\"user_s\":%s,\"sys_s\":%s,"
                    "\"checksum\":%llu}\n",
                    jsonNumber(wall).c_str(),
                    jsonNumber(seconds(ru1.ru_utime) -
                               seconds(ru0.ru_utime)).c_str(),
                    jsonNumber(seconds(ru1.ru_stime) -
                               seconds(ru0.ru_stime)).c_str(),
                    static_cast<unsigned long long>(sum));
        return 0;
    }
    // Alerts and progress chatter would time terminal I/O.
    setLogLevel(LogLevel::kError);
    obs::Tracer &tracer = obs::Tracer::global();
    tracer.setEnabled(o.trace);
    Measured m = runWorkload(o);
    tracer.setEnabled(false);

    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    writeFile(o.report_out, m.report);

    std::string probes;
    if (o.trace) {
        writeFile(o.spans_out, spansJson(tracer.spans()));
        obs::MetricRegistry::global().save(o.metrics_out);
        double ring_ns = 0.0;
        if (o.workload == "fleet_steady")
            ring_ns = probeRingSuccessors(fleetSteady(o));
        else if (o.workload == "fleet_overload")
            ring_ns = probeRingSuccessors(fleetOverload(o));
        probes = ",\"ring_successors_ns\":" + jsonNumber(ring_ns) +
                 ",\"histogram_record_ns\":" +
                 jsonNumber(probeHistogramRecord(o));
    }
    std::printf("{\"wall_s\":%s,\"user_s\":%s,\"sys_s\":%s,"
                "\"minor_faults\":%ld,\"maxrss_kb\":%ld%s}\n",
                jsonNumber(m.wall_s).c_str(),
                jsonNumber(m.user_s).c_str(),
                jsonNumber(m.sys_s).c_str(), m.minor_faults,
                ru.ru_maxrss, probes.c_str());
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    try {
        return run(argc, argv);
    } catch (const FatalError &) {
        return 1;
    }
}
