/**
 * @file
 * edgertstream — EdgeStream from the command line: serve continuous
 * camera streams through the staged decode → preprocess → infer →
 * postprocess pipeline on a simulated Jetson fleet and report
 * per-stream freshness.
 *
 * Examples:
 *   edgertstream --model=tiny-yolov3 --streams=4 --fps=30
 *   edgertstream --model=tiny-yolov3@int8:streams=8:fps=30 \
 *                --policy=skip_to_latest --devices=nx,agx \
 *                --duration-s=10 --report-out=stream.json
 *   edgertstream --model=resnet-18:fps=15:stale_ms=80 \
 *                --watch-out=freshness.json --metrics-format=prom \
 *                --metrics-out=metrics.prom
 */

#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "common/cliflags.hh"
#include "common/fileio.hh"
#include "common/logging.hh"
#include "common/strutil.hh"
#include "nn/model_zoo.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "serve/server.hh"
#include "stream/stream.hh"

using namespace edgert;

namespace {

/**
 * Parse one --model spec:
 *   <zoo-name>[@fp16|@int8|@mixed]
 *            [:streams=..][:fps=..][:policy=..][:budget=..]
 *            [:stale_ms=..][:arrival=fixed|jitter][:jitter_pct=..]
 *            [:max_batch=..][:timeout_us=..][:instances=..]
 *            [:decode_ms=..][:preprocess_ms=..][:postprocess_ms=..]
 *            [:stage_jitter_pct=..][:calib_seed=..]
 * Per-spec options override the --streams/--fps/--policy globals,
 * which are applied by the caller before the overrides land here.
 */
stream::StreamModelConfig
parseModelSpec(const std::string &text,
               const stream::StreamModelConfig &defaults)
{
    ModelSpec spec("--model", text);
    stream::StreamModelConfig mc = defaults;
    mc.model = spec.model;
    if (!spec.precision.empty())
        mc.precision = nn::parsePrecisionName(spec.precision);
    for (const auto &[k, v] : spec.options) {
        if (k == "streams")
            mc.streams = spec.integer(k, v);
        else if (k == "fps")
            mc.fps = spec.number(k, v);
        else if (k == "policy")
            mc.policy = stream::parseBackpressurePolicy(v);
        else if (k == "budget")
            mc.frame_budget = spec.integer(k, v);
        else if (k == "stale_ms")
            mc.stale_ms = spec.number(k, v);
        else if (k == "arrival")
            mc.arrival = stream::parseFrameArrival(v);
        else if (k == "jitter_pct")
            mc.arrival_jitter_pct = spec.number(k, v);
        else if (k == "max_batch")
            mc.batching.max_batch = spec.integer(k, v);
        else if (k == "timeout_us")
            mc.batching.timeout_us = spec.number(k, v);
        else if (k == "instances")
            mc.instances_per_device = spec.integer(k, v);
        else if (k == "decode_ms")
            mc.stages.decode_ms = spec.number(k, v);
        else if (k == "preprocess_ms")
            mc.stages.preprocess_ms = spec.number(k, v);
        else if (k == "postprocess_ms")
            mc.stages.postprocess_ms = spec.number(k, v);
        else if (k == "stage_jitter_pct")
            mc.stages.jitter_pct = spec.number(k, v);
        else if (k == "calib_seed")
            mc.calibration_seed =
                static_cast<std::uint64_t>(spec.integer(k, v));
        else
            spec.unknown(k);
    }
    return mc;
}

struct Args
{
    stream::StreamConfig cfg;
    std::string metrics_out;
    std::string metrics_format = "json"; //!< json | prom
    std::string report_out;
    bool quiet = false;
};

void
usage()
{
    std::printf(
        "usage: edgertstream [options]\n"
        "  --model <spec>        stream a model; repeatable. Spec:\n"
        "                        name[@fp16|@int8|@mixed]\n"
        "                        [:streams=N][:fps=N]\n"
        "                        [:policy=drop_oldest|"
        "skip_to_latest|block]\n"
        "                        [:budget=N][:stale_ms=N]\n"
        "                        [:arrival=fixed|jitter]"
        "[:jitter_pct=N]\n"
        "                        [:max_batch=N][:timeout_us=N]\n"
        "                        [:instances=N][:decode_ms=N]\n"
        "                        [:preprocess_ms=N]"
        "[:postprocess_ms=N]\n"
        "                        [:stage_jitter_pct=N]"
        "[:calib_seed=N]\n"
        "  --streams <n>         default camera streams per model\n"
        "                        (default 4)\n"
        "  --fps <n>             default per-stream frame rate\n"
        "                        (default 30)\n"
        "  --policy <p>          default backpressure policy\n"
        "                        (default drop_oldest)\n"
        "  --devices nx,agx      simulated fleet (default nx)\n"
        "  --duration-s <n>      camera window in seconds "
        "(default 5)\n"
        "  --seed <n>            frame/stage seed (default 1)\n"
        "  --ram-fraction <f>    device RAM share for contexts "
        "(default 0.5)\n"
        "  --sim-threads <n>     replay worker threads (default 1;\n"
        "                        reports are byte-identical for "
        "any n)\n"
        "  --trace-mode <m>      kernel trace: full|sampled|off\n"
        "                        (default sampled)\n"
        "  --trace-sample <n>    keep 1 in n trace records when\n"
        "                        sampled (default 16)\n"
        "  --report-out <f>      write the stream report JSON\n"
        "  --metrics-out <f>     write the metric-registry "
        "snapshot\n"
        "  --metrics-format <f>  snapshot format: json (default) "
        "or\n"
        "                        prom (Prometheus text "
        "exposition)\n"
        "  --watch-out <f>       write the per-stream freshness\n"
        "                        burn-rate report here\n"
        "  --stale-alert-pct <x> freshness objective for the\n"
        "                        burn-rate alerts, percent "
        "(default 99)\n"
        "  --dump-trace <f>      write a merged chrome://tracing\n"
        "                        timeline (host spans + one "
        "process\n"
        "                        per device)\n"
        "  --quiet               warnings and errors only\n"
        "  --list                list zoo models\n"
        "Options also accept --opt=value syntax.\n");
}

std::optional<Args>
parse(int argc, char **argv)
{
    Args a;
    // Interactive tooling defaults to the thinned trace (the
    // library default stays full for canonical reports).
    a.cfg.trace_mode = gpusim::TraceMode::kSampled;
    std::string devices = "nx";
    stream::StreamModelConfig defaults;
    std::vector<std::string> model_specs;
    FlagParser flags(argc, argv);
    while (flags.next()) {
        if (flags.is("--model"))
            model_specs.push_back(flags.value());
        else if (flags.is("--streams"))
            defaults.streams = flags.positiveValue();
        else if (flags.is("--fps"))
            defaults.fps = flags.numberValue();
        else if (flags.is("--policy"))
            defaults.policy =
                stream::parseBackpressurePolicy(flags.value());
        else if (flags.is("--devices"))
            devices = flags.value();
        else if (flags.is("--duration-s"))
            a.cfg.duration_s = flags.numberValue();
        else if (flags.is("--seed"))
            a.cfg.seed = flags.unsignedValue();
        else if (flags.is("--ram-fraction"))
            a.cfg.ram_fraction = flags.numberValue();
        else if (flags.is("--sim-threads"))
            a.cfg.sim_threads = flags.positiveValue();
        else if (flags.is("--trace-mode"))
            a.cfg.trace_mode = gpusim::parseTraceMode(flags.value());
        else if (flags.is("--trace-sample"))
            a.cfg.trace_sample_every = flags.positiveValue();
        else if (flags.is("--report-out"))
            a.report_out = flags.value();
        else if (flags.is("--metrics-out"))
            a.metrics_out = flags.value();
        else if (flags.is("--metrics-format"))
            a.metrics_format = flags.choiceValue({"json", "prom"});
        else if (flags.is("--watch-out")) {
            a.cfg.watch.enabled = true;
            a.cfg.watch.out_path = flags.value();
        } else if (flags.is("--stale-alert-pct")) {
            double pct = flags.numberValue();
            if (pct <= 0.0 || pct >= 100.0)
                fatal("invalid value '", pct,
                      "' for --stale-alert-pct: must be in "
                      "(0, 100)");
            a.cfg.watch.slo_objective_pct = pct;
        } else if (flags.is("--dump-trace")) {
            a.cfg.trace_out = flags.value();
            obs::Tracer::global().setEnabled(true);
        } else if (flags.is("--quiet"))
            a.quiet = true;
        else if (flags.is("--list")) {
            for (const auto &m : nn::zooModelNames())
                std::printf("%s\n", m.c_str());
            return std::nullopt;
        } else if (flags.is("--help") || flags.is("-h")) {
            usage();
            return std::nullopt;
        } else {
            std::fprintf(stderr, "unknown option: %s\n",
                         flags.arg().c_str());
            usage();
            return std::nullopt;
        }
    }
    for (const auto &spec : model_specs)
        a.cfg.models.push_back(parseModelSpec(spec, defaults));
    for (const auto &d : split(devices, ','))
        a.cfg.devices.push_back(serve::parseDevice(d));
    return a;
}

int
run(int argc, char **argv)
{
    auto parsed = parse(argc, argv);
    if (!parsed)
        return 0;
    Args args = *parsed;
    if (args.quiet)
        setLogLevel(LogLevel::kWarn);
    if (args.cfg.models.empty()) {
        usage();
        fatal("at least one --model is required");
    }

    say("[edgertstream] %zu model(s) on %zu device(s), %.1f s "
        "camera window, seed %llu\n",
        args.cfg.models.size(), args.cfg.devices.size(),
        args.cfg.duration_s,
        static_cast<unsigned long long>(args.cfg.seed));

    stream::StreamReport report = stream::runStreams(args.cfg);

    for (const auto &m : report.models) {
        say("[edgertstream] %-18s %d stream(s) @ %.1f fps (%s, "
            "%s, %s) | produced %lld | completed %lld | dropped "
            "%lld | in flight %lld | stale %.1f%% | age p99 %.2f "
            "ms (budget %.0f ms) | mean batch %.2f%s\n",
            m.model.c_str(), m.streams, m.fps, m.precision.c_str(),
            m.policy.c_str(), m.arrival.c_str(),
            static_cast<long long>(m.freshness.produced),
            static_cast<long long>(m.freshness.completed),
            static_cast<long long>(m.freshness.dropped),
            static_cast<long long>(m.freshness.in_flight),
            m.freshness.stale_rate_pct, m.freshness.age_p99_ms,
            m.stale_ms, m.mean_batch,
            m.conserved ? "" : " | CONSERVATION VIOLATED");
        say("[edgertstream] %-18s stage means: decode %.2f | "
            "preprocess %.2f | queue %.2f | dispatch %.2f | "
            "upload %.2f | compute %.2f | download %.2f | "
            "postprocess %.2f ms\n",
            m.model.c_str(), m.decode_mean_ms, m.preprocess_mean_ms,
            m.queue_mean_ms, m.dispatch_wait_mean_ms,
            m.upload_mean_ms, m.compute_mean_ms, m.download_mean_ms,
            m.postprocess_mean_ms);
    }
    for (const auto &d : report.devices)
        say("[edgertstream] device %-12s %d instance(s) | GPU util "
            "%.1f%% | copy %.1f%% | drained at %.2f s | ctx RAM "
            "%.1f / %.1f MiB\n",
            d.device.c_str(), d.instances, d.sm_util_pct,
            d.copy_busy_pct, d.makespan_s,
            static_cast<double>(d.ram_used_bytes) /
                (1024.0 * 1024.0),
            static_cast<double>(d.ram_budget_bytes) /
                (1024.0 * 1024.0));
    say("[edgertstream] freshness alerts: %lld page / %lld warn / "
        "%lld clear%s%s\n",
        static_cast<long long>(report.freshness_pages),
        static_cast<long long>(report.freshness_warns),
        static_cast<long long>(report.freshness_clears),
        args.cfg.watch.out_path.empty() ? "" : ", report at ",
        args.cfg.watch.out_path.c_str());
    if (report.first_page_s >= 0.0)
        say("[edgertstream] freshness: first page alert at "
            "%.3f s\n",
            report.first_page_s);

    if (!args.report_out.empty()) {
        writeFileChecked(args.report_out, report.toJson());
        say("[edgertstream] report written to %s\n",
            args.report_out.c_str());
    }
    if (!args.metrics_out.empty()) {
        obs::MetricRegistry::global().saveAs(args.metrics_out,
                                             args.metrics_format);
        say("[edgertstream] metrics written to %s (%s)\n",
            args.metrics_out.c_str(), args.metrics_format.c_str());
    }
    if (!args.cfg.trace_out.empty())
        say("[edgertstream] timeline written to %s (open in "
            "chrome://tracing)\n",
            args.cfg.trace_out.c_str());
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    return runCli(run, argc, argv);
}
