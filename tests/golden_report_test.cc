/**
 * @file
 * Golden reports: small seeded serve, fleet and stream runs whose
 * report JSON, watch/freshness files and metric snapshots (under a
 * FakeClock) must match the committed files in tests/golden/ byte
 * for byte. Any refactor of the serving loops has to keep these
 * bytes; a deliberate output change regenerates them.
 *
 * On a mismatch the test writes the bytes it produced to
 * golden_actual/<name> in its working directory; after reviewing
 * the diff, copy that file over tests/golden/<name> to accept it.
 *
 * The committed bytes come from a GCC 12 / glibc 2.36 (Debian 12)
 * x86-64 build. Another C library's math functions may move the
 * last digits of some numbers; on such a toolchain, regenerate the
 * files from the parent commit before using them as an oracle.
 */

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "fleet/fleet.hh"
#include "fleet/spec.hh"
#include "obs/clock.hh"
#include "obs/metrics.hh"
#include "serve/server.hh"
#include "stream/stream.hh"

namespace edgert {
namespace {

namespace fs = std::filesystem;

std::string
readFile(const fs::path &path)
{
    std::ifstream f(path, std::ios::binary);
    std::ostringstream os;
    os << f.rdbuf();
    return os.str();
}

/** Compare `actual` with tests/golden/<name>; on a mismatch, keep
 *  the actual bytes under golden_actual/ for review. */
void
expectGolden(const std::string &name, const std::string &actual)
{
    const fs::path golden = fs::path(EDGERT_GOLDEN_DIR) / name;
    const bool exists = fs::exists(golden);
    if (exists && readFile(golden) == actual)
        return;
    fs::create_directories("golden_actual");
    std::ofstream(fs::path("golden_actual") / name, std::ios::binary)
        << actual;
    ADD_FAILURE() << name << (exists ? " differs from " : " is missing: ")
                  << golden << "; the produced bytes are in "
                  << "golden_actual/" << name;
}

/** Run `body` from a clean global registry under a FakeClock, so
 *  host-timed histograms read the same on every run. */
template <typename Body>
void
underFakeClock(Body body)
{
    obs::MetricRegistry::global().reset();
    obs::FakeClock fake(1'000'000, 500);
    obs::ScopedClock scoped(&fake);
    body();
}

std::string
tempPath(const std::string &name)
{
    return (fs::temp_directory_path() /
            ("edgert_golden_" + std::to_string(::getpid()) + "_" +
             name))
        .string();
}

TEST(GoldenReports, ServeWithWatchHotSwapAndLoadFault)
{
    serve::ServeConfig cfg;
    serve::ModelConfig a;
    a.model = "alexnet";
    a.slo_ms = 10.0;
    a.arrivals.qps = 700.0;
    a.batching.max_batch = 4;
    serve::ModelConfig b;
    b.model = "mobilenetv1";
    b.slo_ms = 20.0;
    b.arrivals.qps = 150.0;
    b.arrivals.kind = serve::ArrivalKind::kBursty;
    b.batching.max_batch = 2;
    cfg.models = {a, b};
    cfg.devices = {serve::parseDevice("nx"), serve::parseDevice("agx")};
    cfg.duration_s = 1.0;
    cfg.seed = 3;
    cfg.faults.engine_load_failures["alexnet"] = 1;
    serve::SwapSpec sw;
    sw.model = "mobilenetv1";
    sw.t_s = 0.5;
    sw.candidate_build_id = 2;
    cfg.swaps.push_back(sw);
    const std::string watch_path = tempPath("serve_watch.json");
    cfg.watch.enabled = true;
    cfg.watch.out_path = watch_path;

    underFakeClock([&] {
        serve::ServeReport rep = serve::runServer(cfg);
        expectGolden("serve_report.json", rep.toJson());
        expectGolden("serve_watch.json", readFile(watch_path));
        expectGolden("serve_metrics.json",
                     obs::MetricRegistry::global().toJson(
                         {"serve.", "deploy."}));
    });
    std::remove(watch_path.c_str());
}

TEST(GoldenReports, FleetWithFailoverAndThreeStageRollout)
{
    fleet::FleetConfig cfg;
    cfg.groups = {fleet::parseNodeGroup("nx:3"),
                  fleet::parseNodeGroup("agx:1"),
                  fleet::parseNodeGroup("nx:1:clock=0.6:name=slow")};
    fleet::FleetModelConfig mc;
    mc.model = "alexnet";
    mc.slo_ms = 60.0;
    mc.arrivals.qps = 600.0;
    mc.batching.max_batch = 4;
    cfg.models.push_back(mc);
    cfg.route_policy = fleet::RoutePolicy::kLeastSojourn;
    cfg.duration_s = 1.0;
    cfg.seed = 5;
    fleet::FailureSpec fail;
    fail.node = 1;
    fail.fail_s = 0.3;
    fail.rejoin_s = 0.7;
    cfg.failures.push_back(fail);
    fleet::RolloutSpec ro;
    ro.model = "alexnet";
    ro.candidate_build_id = 2;
    ro.stages = {{0.2, 1.0}, {0.4, 10.0}, {0.6, 100.0}};
    cfg.rollouts.push_back(ro);

    underFakeClock([&] {
        fleet::FleetReport rep = fleet::runFleet(cfg);
        expectGolden("fleet_report.json", rep.toJson());
        expectGolden("fleet_metrics.json",
                     obs::MetricRegistry::global().toJson({"fleet."}));
    });
}

TEST(GoldenReports, StreamWithEveryBackpressurePolicy)
{
    stream::StreamConfig cfg;
    cfg.devices = {serve::parseDevice("nx")};
    cfg.duration_s = 1.0;
    cfg.seed = 9;
    auto model = [](const char *name, stream::BackpressurePolicy p,
                    int streams) {
        stream::StreamModelConfig mc;
        mc.model = name;
        mc.streams = streams;
        mc.fps = 30.0;
        mc.policy = p;
        mc.arrival = stream::FrameArrival::kJitteredCamera;
        return mc;
    };
    cfg.models = {
        model("tiny-yolov3", stream::BackpressurePolicy::kDropOldest, 16),
        model("mobilenetv1", stream::BackpressurePolicy::kSkipToLatest,
              24),
        model("alexnet", stream::BackpressurePolicy::kBlock, 12)};
    const std::string fresh_path = tempPath("stream_freshness.json");
    cfg.watch.enabled = true;
    cfg.watch.out_path = fresh_path;

    underFakeClock([&] {
        stream::StreamReport rep = stream::runStreams(cfg);
        expectGolden("stream_report.json", rep.toJson());
        expectGolden("stream_freshness.json", readFile(fresh_path));
        expectGolden("stream_metrics.json",
                     obs::MetricRegistry::global().toJson(
                         {"stream."}));
    });
    std::remove(fresh_path.c_str());
}

} // namespace
} // namespace edgert
