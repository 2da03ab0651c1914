/**
 * @file
 * edgertdeploy — drive the EdgeDeploy engine lifecycle from the
 * command line: build engine versions into a repository, gate
 * candidates against the live incumbent, promote, roll back and
 * inspect the lineage.
 *
 * Examples:
 *   edgertdeploy build --repo repo --model resnet-18 --seed 1
 *   edgertdeploy build --repo repo --model resnet-18 --seed 2
 *   edgertdeploy gate --repo repo --model resnet-18
 *   edgertdeploy inspect --repo repo --model resnet-18
 *   edgertdeploy promote --repo repo --model resnet-18 --version 2
 *   edgertdeploy rollback --repo repo --model resnet-18
 *   edgertdeploy list --repo repo
 */

#include <cstdio>
#include <string>

#include "common/cliflags.hh"
#include "common/logging.hh"
#include "common/strutil.hh"
#include "core/builder.hh"
#include "deploy/drift_gate.hh"
#include "deploy/rebuild_worker.hh"
#include "deploy/repository.hh"
#include "nn/model_zoo.hh"
#include "obs/metrics.hh"
#include "serve/server.hh"

using namespace edgert;

namespace {

void
usage()
{
    std::printf(
        "usage: edgertdeploy <command> [options]\n"
        "commands:\n"
        "  build      build an engine version into the repository\n"
        "             (auto-promoted when nothing is live yet)\n"
        "  gate       drift-gate the newest candidate against the\n"
        "             live version; promote or quarantine it\n"
        "  promote    force-promote a stored version\n"
        "  rollback   revert the live version to its parent\n"
        "  inspect    print one key's manifest\n"
        "  list       list every key in the repository\n"
        "options:\n"
        "  --repo <dir>          repository root (required)\n"
        "  --model <name>        zoo model name\n"
        "  --device <nx|agx>     build target (default nx)\n"
        "  --precision <p>       engine precision: fp32|fp16|int8|"
        "mixed\n"
        "                        (default fp16; selects the "
        "lineage key)\n"
        "  --calibration-seed <n> calibration batch for int8/mixed\n"
        "                        builds (default 0)\n"
        "  --gate-against <p>    gate the candidate against the "
        "live\n"
        "                        version of this precision lineage\n"
        "                        (default: same as --precision; a\n"
        "                        cross-precision gate applies the\n"
        "                        wider disagreement band)\n"
        "  --seed <n>            builder seed for `build` "
        "(default 1)\n"
        "  --jobs <n>            autotuner sweep workers "
        "(default 1)\n"
        "  --version <n>         version for `promote`\n"
        "  --drift-gate-pct <x>  max canary top-1 disagreement, "
        "percent\n"
        "                        (default 0.4)\n"
        "  --metrics-out <f>     write the metric-registry "
        "snapshot\n"
        "  --metrics-format <f>  snapshot format: json (default) "
        "or\n"
        "                        prom (Prometheus text exposition)\n"
        "  --quiet               warnings and errors only\n"
        "Options also accept --opt=value syntax.\n");
}

struct Args
{
    std::string command;
    std::string repo;
    std::string model;
    std::string device = "nx";
    std::string precision = "fp16";
    std::string gate_against; //!< empty = same as precision
    std::uint64_t calibration_seed = 0;
    std::uint64_t seed = 1;
    int jobs = 1;
    int version = -1;
    double drift_gate_pct = -1.0;
    std::string metrics_out;
    std::string metrics_format = "json"; //!< json | prom
};

/** The manifest of `key`, as a printed lineage table. */
void
printManifest(const deploy::Manifest &m)
{
    std::printf("%s (live: %s)\n", m.key.displayName().c_str(),
                m.live_version < 0
                    ? "none"
                    : std::to_string(m.live_version).c_str());
    for (const auto &e : m.entries) {
        std::printf(
            "  v%-3d %-11s build %-4llu fingerprint %016llx "
            "plan %lld B timings %lld/%lld hit",
            e.version, deploy::versionStateName(e.state),
            static_cast<unsigned long long>(e.build_id),
            static_cast<unsigned long long>(e.fingerprint),
            static_cast<long long>(e.plan_bytes),
            static_cast<long long>(e.timing_cache_hits),
            static_cast<long long>(e.timing_measurements +
                                   e.timing_cache_hits));
        if (e.parent_version >= 0)
            std::printf(" parent v%d", e.parent_version);
        if (!e.created_by.empty())
            std::printf(" by %s", e.created_by.c_str());
        if (!e.reason.empty())
            std::printf(" [%s, drift %.3f%%]", e.reason.c_str(),
                        e.drift_pct);
        std::printf("\n");
    }
}

/** fatal()s unless `st` is OK. */
void
must(const Status &st)
{
    if (!st.ok())
        fatal(st.message());
}

int
dispatch(const Args &a)
{
    deploy::EngineRepository repo(a.repo);
    gpusim::DeviceSpec device = serve::parseDevice(a.device);
    nn::Precision precision = nn::parsePrecisionName(a.precision);
    deploy::ModelKey key{a.model, device.name, precision};
    deploy::DriftGateConfig gate_cfg;
    if (a.drift_gate_pct >= 0.0)
        gate_cfg.max_disagreement_pct = a.drift_gate_pct;
    if (a.command == "list") {
        for (const auto &k : repo.list()) {
            auto m = repo.manifest(k);
            if (m.ok())
                printManifest(*m);
        }
        return 0;
    }
    if (a.model.empty())
        fatal("--model is required for '", a.command, "'");

    if (a.command == "build") {
        nn::Network net = nn::buildZooModel(a.model, 1);
        core::BuilderConfig bc;
        bc.precision = precision;
        bc.calibration_seed = a.calibration_seed;
        bc.build_id = a.seed;
        bc.jobs = a.jobs;
        core::Builder builder(device, bc);
        core::BuildReport report;
        core::Engine engine = builder.build(net, &report);
        auto version = repo.put(
            engine, deploy::BuildMeta::from(report, "edgertdeploy"));
        if (!version.ok())
            fatal(version.status().message());
        auto manifest = repo.manifest(key);
        if (manifest.ok() && manifest->live_version < 0)
            must(repo.promote(key, *version));
        std::printf("stored %s v%d (build %llu, fingerprint "
                    "%016llx)%s\n",
                    key.displayName().c_str(), *version,
                    static_cast<unsigned long long>(a.seed),
                    static_cast<unsigned long long>(
                        engine.fingerprint()),
                    manifest.ok() && manifest->live_version < 0
                        ? ", promoted (bootstrap)"
                        : "");
        return 0;
    }
    if (a.command == "gate") {
        auto manifest = repo.manifest(key);
        if (!manifest.ok())
            fatal(manifest.status().message());
        int candidate = a.version;
        if (candidate < 0) {
            for (const auto &e : manifest->entries)
                if (e.state == deploy::VersionState::kCandidate)
                    candidate = e.version;
        }
        if (candidate < 0)
            fatal("no candidate version of ", key.displayName(),
                  " to gate");
        // --gate-against judges the candidate against another
        // precision lineage's live engine (cross-precision
        // promotion); it is still promoted under its own key.
        deploy::ModelKey gate_key = key;
        if (!a.gate_against.empty())
            gate_key.precision =
                nn::parsePrecisionName(a.gate_against);
        auto incumbent = repo.loadLive(gate_key);
        if (!incumbent.ok())
            fatal(incumbent.status().message());
        auto engine = repo.loadVersion(key, candidate);
        if (!engine.ok())
            fatal(engine.status().message());
        deploy::DriftGate gate(gate_cfg);
        deploy::DriftVerdict v = gate.evaluate(*incumbent, *engine);
        std::printf("%s\n", v.toJson().c_str());
        if (v.accepted)
            must(repo.promote(key, candidate));
        else
            must(repo.quarantine(key, candidate, v.reason,
                                 v.disagreement_pct));
        std::printf("%s v%d %s\n", key.displayName().c_str(),
                    candidate,
                    v.accepted ? "promoted" : "quarantined");
        return v.accepted ? 0 : 2;
    }
    if (a.command == "promote") {
        if (a.version < 0)
            fatal("--version is required for 'promote'");
        must(repo.promote(key, a.version));
        std::printf("%s v%d promoted\n", key.displayName().c_str(),
                    a.version);
        return 0;
    }
    if (a.command == "rollback") {
        must(repo.rollback(key));
        auto m = repo.manifest(key);
        std::printf("%s rolled back to v%d\n",
                    key.displayName().c_str(),
                    m.ok() ? m->live_version : -1);
        return 0;
    }
    if (a.command == "inspect") {
        auto m = repo.manifest(key);
        if (!m.ok())
            fatal(m.status().message());
        printManifest(*m);
        return 0;
    }
    usage();
    fatal("unknown command '", a.command, "'");
}

int
run(int argc, char **argv)
{
    Args a;
    FlagParser flags(argc, argv);
    while (flags.next()) {
        if (!flags.isOption()) {
            if (!a.command.empty())
                fatal("unexpected argument '", flags.arg(),
                      "' after command '", a.command, "'");
            a.command = flags.arg();
        } else if (flags.is("--repo"))
            a.repo = flags.value();
        else if (flags.is("--model"))
            a.model = flags.value();
        else if (flags.is("--device"))
            a.device = flags.value();
        else if (flags.is("--precision"))
            a.precision = flags.value();
        else if (flags.is("--gate-against"))
            a.gate_against = flags.value();
        else if (flags.is("--calibration-seed"))
            a.calibration_seed = flags.unsignedValue();
        else if (flags.is("--seed"))
            a.seed = flags.unsignedValue();
        else if (flags.is("--jobs"))
            a.jobs = static_cast<int>(flags.intValue());
        else if (flags.is("--version"))
            a.version = static_cast<int>(flags.intValue());
        else if (flags.is("--drift-gate-pct"))
            a.drift_gate_pct = flags.numberValue();
        else if (flags.is("--metrics-out"))
            a.metrics_out = flags.value();
        else if (flags.is("--metrics-format"))
            a.metrics_format = flags.choiceValue({"json", "prom"});
        else if (flags.is("--quiet"))
            setLogLevel(LogLevel::kWarn);
        else if (flags.is("--help") || flags.is("-h")) {
            usage();
            return 0;
        } else
            fatal("unknown option: ", flags.arg());
    }
    if (a.command.empty()) {
        usage();
        fatal("missing command");
    }
    if (a.repo.empty())
        fatal("--repo is required");

    int rc = dispatch(a);
    if (!a.metrics_out.empty()) {
        obs::MetricRegistry::global().saveAs(a.metrics_out,
                                             a.metrics_format);
    }
    return rc;
}

} // namespace

int
main(int argc, char **argv)
{
    return runCli(run, argc, argv);
}
