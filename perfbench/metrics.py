"""Pure functions behind the benchmark: report outcomes and checks,
span self time and gap naming, and the per-layer metrics.

Nothing here runs a process or reads a file, so the tests can feed
it fixed reports and synthetic span lists.
"""

import json

FLEET, SERVE, STREAM = "fleet", "serve", "stream"

# Which runner each workload drives.
KIND = {
    "fleet_steady": FLEET,
    "fleet_overload": FLEET,
    "serve_mix": SERVE,
    "stream_cams": STREAM,
}

# The runner's own outermost span, if it has one. It covers the
# whole call, so the gap split looks through it.
UMBRELLA = {"fleet_run"}

# Program spans each workload must emit; a metric built on one of
# them reads "missing" (None) when it is absent.
EXPECTED_SPANS = {
    "fleet_steady": {"fleet_run", "fleet_build", "fleet_control",
                     "fleet_rollout", "fleet_replay", "build",
                     "tactic_sweep", "context_setup"},
    "fleet_overload": {"fleet_run", "fleet_build", "fleet_control",
                       "fleet_replay", "build", "tactic_sweep",
                       "context_setup"},
    "serve_mix": {"serve_build", "serve_load_version",
                  "serve_control", "deploy_swap", "serve_replay",
                  "serve_watch", "build", "tactic_sweep",
                  "context_setup"},
    "stream_cams": {"stream_build", "stream_control", "stream_replay",
                    "build", "tactic_sweep", "context_setup"},
}


# ----------------------------------------------------------------
# Simulated outcome and output checks
# ----------------------------------------------------------------

def outcome(workload, report):
    """End-to-end simulated outcome of one report.

    Returns ops (offered requests or produced frames), ops_failed
    (shed plus dropped), sim_p99_ms with its sample count, and
    sim_goodput_pct (completions within SLO, or fresh frames, over
    ops; shed and dropped ops count as misses).
    """
    kind = KIND[workload]
    if kind == FLEET:
        models = report["models"]
        ops = report["offered"]
        failed = report["shed"] + report["unaccounted"]
        good = sum(m["completed"] - m["slo_violations"]
                   for m in models)
        p99 = report["latency_ms"]["p99"]
        samples = report["completed"]
    elif kind == SERVE:
        models = report["models"]
        ops = sum(m["offered"] for m in models)
        failed = sum(m["shed"] for m in models)
        good = sum(m["completed"] - m["slo_violations"]
                   for m in models)
        worst = max(models, key=lambda m: m["latency_ms"]["p99"])
        p99 = worst["latency_ms"]["p99"]
        samples = worst["completed"]
    else:
        models = report["models"]
        ops = sum(m["produced"] for m in models)
        failed = sum(m["dropped"] for m in models)
        good = sum(m["completed"] - m["stale_completed"]
                   for m in models)
        worst = max(models, key=lambda m: m["age_ms"]["p99"])
        p99 = worst["age_ms"]["p99"]
        samples = worst["completed"]
    return {
        "ops": ops,
        "ops_failed": failed,
        "sim_p99_ms": p99,
        "p99_samples": samples,
        "sim_goodput_pct": 100.0 * good / ops if ops else 0.0,
    }


def check_report(workload, report):
    """The workload's own invariants; returns a list of failures."""
    kind = KIND[workload]
    errors = []
    if kind == FLEET:
        if report["offered"] != report["completed"] + report["shed"]:
            errors.append("fleet: offered %d != completed %d + shed %d"
                          % (report["offered"], report["completed"],
                             report["shed"]))
        if report["unaccounted"] != 0:
            errors.append("fleet: %d unaccounted requests"
                          % report["unaccounted"])
    elif kind == SERVE:
        for m in report["models"]:
            if m["offered"] != m["completed"] + m["shed"]:
                errors.append(
                    "serve %s: offered %d != completed %d + shed %d"
                    % (m["model"], m["offered"], m["completed"],
                       m["shed"]))
    else:
        for m in report["models"]:
            if m["conserved"] is not True:
                errors.append("stream %s: frames not conserved"
                              % m["model"])
    if not report.get("models"):
        errors.append("report has no models")
    return errors


def check_run(workload, report_bytes, reference_bytes):
    """Check one run's report bytes: they parse, hold the workload's
    invariants and equal the reference run's bytes (None for the
    reference run itself). Returns (parsed report or None, errors).
    """
    try:
        report = json.loads(report_bytes)
    except ValueError as e:
        return None, ["report is not JSON: %s" % e]
    errors = check_report(workload, report)
    if reference_bytes is not None and report_bytes != reference_bytes:
        errors.append("report bytes differ from the first run's")
    return report, errors


# ----------------------------------------------------------------
# Spans: nesting, self time and gap naming
# ----------------------------------------------------------------

class Span:
    def __init__(self, name, thread, start, end):
        self.name = name
        self.thread = thread
        self.start = start
        self.end = end
        self.parent = None
        self.children = []

    @property
    def dur(self):
        return self.end - self.start

    def ancestors(self):
        p = self.parent
        while p is not None:
            yield p
            p = p.parent


def nest(records):
    """Build Span trees from {name, thread, start_ns, end_ns} records.

    A span's parent is the innermost span on the same thread whose
    interval contains it. Times become seconds.
    """
    spans = [Span(r["name"], r["thread"], r["start_ns"] * 1e-9,
                  r["end_ns"] * 1e-9) for r in records]
    order = sorted(spans, key=lambda s: (s.thread, s.start, -s.end))
    stack = []
    for s in order:
        while stack and not (stack[-1].thread == s.thread and
                             stack[-1].start <= s.start and
                             s.end <= stack[-1].end):
            stack.pop()
        if stack:
            s.parent = stack[-1]
            stack[-1].children.append(s)
        stack.append(s)
    return spans


def self_time(span):
    """Duration minus what the span's children cover. Children on
    one thread are nested scopes, so they never overlap."""
    return span.dur - sum(c.dur for c in span.children)


def covering(run):
    """Top-level covered intervals inside `run`, looking through
    umbrella spans: the phase spans of the run's own thread."""
    out = []
    for c in run.children:
        if c.name in UMBRELLA:
            out.extend(covering(c))
        else:
            out.append(c)
    return sorted(out, key=lambda s: s.start)


def gaps(run):
    """Name the parts of `run` that no phase span covers.

    pre: before control; enqueue: control end to replay start;
    foldback: after a replay, before the next span; tail: after the
    last span. Returns {name: seconds}; a gap no rule names is
    "unnamed".
    """
    phases = covering(run)
    control = [s for s in phases if s.name.endswith("_control")]
    replay = [s for s in phases if s.name.endswith("_replay")]
    out = {}

    def add(name, a, b):
        if b > a:
            out[name] = out.get(name, 0.0) + (b - a)

    cursor = run.start
    prev = None
    for s in phases + [None]:
        a = cursor
        b = s.start if s is not None else run.end
        if s is None:
            name = "tail"
        elif control and b <= control[0].start:
            name = "pre"
        elif (control and replay and a >= control[0].end and
              b <= replay[0].start):
            name = "enqueue"
        elif prev is not None and prev.name.endswith("_replay"):
            name = "foldback"
        else:
            name = "unnamed"
        add(name, a, b)
        if s is not None:
            cursor = max(cursor, s.end)
            prev = s
    return out


# ----------------------------------------------------------------
# Registry helpers
# ----------------------------------------------------------------

def _base(key):
    return key.split("{", 1)[0]


def counter_sum(registry, suffix):
    return sum(v for k, v in registry.get("counters", {}).items()
               if _base(k).endswith(suffix))


def gauge_sum(registry, suffix):
    return sum(v for k, v in registry.get("gauges", {}).items()
               if _base(k).endswith(suffix))


def histogram_totals(registry, suffix):
    """(count, sum) over every histogram whose name ends in suffix."""
    count = total = 0
    for k, h in registry.get("histograms", {}).items():
        if _base(k).endswith(suffix):
            count += h["count"]
            total += h["sum"]
    return count, total


# ----------------------------------------------------------------
# Metric names and units (BENCHMARK.json lists the same)
# ----------------------------------------------------------------

E2E_UNITS = {
    "wall_s": "s",
    "cpu_s": "s",
    "host_req_per_s": "req/s",
    "peak_rss_mb": "MiB",
    "setup_s": "s",
    "sim_p99_ms": "ms",
    "sim_goodput_pct": "%",
}

# (name, unit, runner kinds it applies to); every workload prints
# every name, and a layer the workload does not run reads 0.
LAYER_METRICS = [
    ("core.build_s", "s", None),
    ("core.builds", "count", None),
    ("core.tactics_measured", "count", None),
    ("core.timing_cache_hit_pct", "%", None),
    ("runtime.contexts", "count", None),
    ("runtime.context_setup_s", "s", None),
    ("fleet.build_s", "s", FLEET),
    ("fleet.pre_s", "s", FLEET),
    ("fleet.control_s", "s", FLEET),
    ("fleet.control_ns_per_req", "ns", FLEET),
    ("fleet.ring_successors_ns", "ns", FLEET),
    ("fleet.rollout_s", "s", FLEET),
    ("fleet.enqueue_s", "s", FLEET),
    ("fleet.replay_s", "s", FLEET),
    ("fleet.replay_ns_per_launch", "ns", FLEET),
    ("fleet.tail_s", "s", FLEET),
    ("fleet.shed_pct", "%", FLEET),
    ("fleet.rerouted", "count", FLEET),
    ("fleet.quarantined", "count", FLEET),
    ("fleet.mean_batch", "count", FLEET),
    ("serve.build_s", "s", SERVE),
    ("serve.control_s", "s", SERVE),
    ("serve.control_ns_per_req", "ns", SERVE),
    ("serve.swap_s", "s", SERVE),
    ("serve.enqueue_s", "s", SERVE),
    ("serve.replay_s", "s", SERVE),
    ("serve.replay_ns_per_launch", "ns", SERVE),
    ("serve.foldback_s", "s", SERVE),
    ("serve.watch_s", "s", SERVE),
    ("serve.tail_s", "s", SERVE),
    ("serve.sim_queue_ms", "ms", SERVE),
    ("serve.sim_dispatch_wait_ms", "ms", SERVE),
    ("serve.sim_compute_ms", "ms", SERVE),
    ("serve.shed_pct", "%", SERVE),
    ("serve.mean_batch", "count", SERVE),
    ("serve.predictor_mae_pct", "%", SERVE),
    ("watch.pages", "count", SERVE),
    ("stream.build_s", "s", STREAM),
    ("stream.control_s", "s", STREAM),
    ("stream.enqueue_s", "s", STREAM),
    ("stream.replay_s", "s", STREAM),
    ("stream.foldback_s", "s", STREAM),
    ("stream.tail_s", "s", STREAM),
    ("stream.sim_queue_ms", "ms", STREAM),
    ("stream.sim_compute_ms", "ms", STREAM),
    ("stream.dropped_pct", "%", STREAM),
    ("stream.stale_pct", "%", STREAM),
    ("stream.mean_batch", "count", STREAM),
    ("gpusim.kernel_launches", "count", None),
    ("gpusim.memcpy_chunks", "count", None),
    ("gpusim.events", "count", SERVE),
    ("gpusim.arena_mb", "MiB", SERVE),
    ("gpusim.wave_waste_pct", "%", None),
    ("gpusim.stall_us", "us", None),
    ("obs.histogram_record_ns", "ns", None),
    ("os.minor_faults", "count", None),
    ("os.sys_s", "s", None),
    ("report.serialize_s", "s", None),
    ("report.bytes", "B", None),
    ("trace.overhead_pct", "%", None),
]


def _weighted(items, value, weight):
    w = sum(weight(i) for i in items)
    return sum(value(i) * weight(i) for i in items) / w if w else 0.0


def layer_metrics(workload, records, registry, report, worker,
                  untraced_wall_s):
    """Per-layer metrics of one traced run.

    records: the run's spans; registry: the MetricRegistry snapshot;
    report: the parsed report; worker: the worker's measurement line
    plus report_bytes; untraced_wall_s: the untraced median wall
    time. Returns ({name: value}, gap split), where a value of None
    means a span the workload should emit is missing.
    """
    kind = KIND[workload]
    spans = nest(records)
    present = {s.name for s in spans}
    expected = EXPECTED_SPANS[workload]
    runs = [s for s in spans if s.name == "bench.run"]
    if len(runs) != 1:
        raise ValueError("expected one bench.run span, got %d"
                         % len(runs))
    split = gaps(runs[0])

    def need(*names):
        return all(n in present or n not in expected for n in names)

    def total(name, exclude_under=None):
        return sum(s.dur for s in spans if s.name == name and not (
            exclude_under and any(a.name == exclude_under
                                  for a in s.ancestors())))

    def selft(name):
        return sum(self_time(s) for s in spans if s.name == name)

    def spanned(value, *names):
        return value if need(*names) else None

    out = outcome(workload, report)
    ops = out["ops"]
    launches = counter_sum(registry, "gpusim.kernel.launches")
    measured = counter_sum(registry, "builder.tactic.measured")
    served = counter_sum(registry, "builder.tactic.cache_served")
    waste_n, waste_sum = histogram_totals(registry,
                                          "gpusim.kernel.wave_waste_pct")
    _, stall_sum = histogram_totals(registry, "gpusim.kernel.stall_us")

    def per(value, n, scale):
        if value is None:
            return None
        return value * scale / n if n else 0.0

    m = {
        "core.build_s": spanned(total("build"), "build"),
        "core.builds": counter_sum(registry, "builder.builds"),
        "core.tactics_measured": measured,
        "core.timing_cache_hit_pct":
            100.0 * served / (served + measured)
            if served + measured else 0.0,
        "runtime.contexts": sum(1 for s in spans
                                if s.name == "context_setup"),
        "runtime.context_setup_s": spanned(total("context_setup"),
                                           "context_setup"),
        "gpusim.kernel_launches": launches,
        "gpusim.memcpy_chunks": counter_sum(registry,
                                            "gpusim.memcpy.chunks"),
        "gpusim.wave_waste_pct": waste_sum / waste_n if waste_n else 0.0,
        "gpusim.stall_us": stall_sum,
        "obs.histogram_record_ns": worker["histogram_record_ns"],
        "os.minor_faults": worker["minor_faults"],
        "os.sys_s": worker["sys_s"],
        "report.serialize_s": total("bench.serialize"),
        "report.bytes": worker["report_bytes"],
        "trace.overhead_pct":
            100.0 * (worker["wall_s"] / untraced_wall_s - 1.0),
    }
    models = report["models"]
    if kind == FLEET:
        control = spanned(selft("fleet_control"), "fleet_control")
        replay = spanned(total("fleet_replay"), "fleet_replay")
        phases = ("fleet_control", "fleet_replay")
        m.update({
            "fleet.build_s": spanned(
                total("fleet_build", exclude_under="fleet_rollout"),
                "fleet_build"),
            "fleet.pre_s": spanned(split.get("pre", 0.0), *phases),
            "fleet.control_s": control,
            "fleet.control_ns_per_req": per(control, ops, 1e9),
            "fleet.ring_successors_ns": worker["ring_successors_ns"],
            "fleet.rollout_s": spanned(total("fleet_rollout"),
                                       "fleet_rollout"),
            "fleet.enqueue_s": spanned(split.get("enqueue", 0.0),
                                       *phases),
            "fleet.replay_s": replay,
            "fleet.replay_ns_per_launch": per(replay, launches, 1e9),
            "fleet.tail_s": spanned(split.get("tail", 0.0), *phases),
            "fleet.shed_pct": 100.0 * report["shed"] / ops
            if ops else 0.0,
            "fleet.rerouted": sum(e["rerouted"]
                                  for e in report["events"]),
            "fleet.quarantined": sum(g["quarantined"]
                                     for g in report["groups"]),
            "fleet.mean_batch": _weighted(
                models, lambda x: x["mean_batch"],
                lambda x: x["batches"]),
        })
    elif kind == SERVE:
        control = spanned(selft("serve_control"), "serve_control")
        replay = spanned(total("serve_replay"), "serve_replay")
        phases = ("serve_control", "serve_replay")
        watch = report["watch"]["models"]

        def stage(name):
            return _weighted(watch,
                             lambda x: x["stage_mean_ms"][name],
                             lambda x: x["observed"])

        m.update({
            "serve.build_s": spanned(total("serve_build"),
                                     "serve_build"),
            "serve.control_s": control,
            "serve.control_ns_per_req": per(control, ops, 1e9),
            "serve.swap_s": spanned(total("deploy_swap"),
                                    "deploy_swap"),
            "serve.enqueue_s": spanned(split.get("enqueue", 0.0),
                                       *phases),
            "serve.replay_s": replay,
            "serve.replay_ns_per_launch": per(replay, launches, 1e9),
            "serve.foldback_s": spanned(split.get("foldback", 0.0),
                                        *phases),
            "serve.watch_s": spanned(total("serve_watch"),
                                     "serve_watch"),
            "serve.tail_s": spanned(split.get("tail", 0.0), *phases),
            "serve.sim_queue_ms": stage("queue"),
            "serve.sim_dispatch_wait_ms": stage("dispatch_wait"),
            "serve.sim_compute_ms": stage("compute"),
            "serve.shed_pct": 100.0 * out["ops_failed"] / ops
            if ops else 0.0,
            "serve.mean_batch": _weighted(
                models, lambda x: x["mean_batch"],
                lambda x: x["batches"]),
            "serve.predictor_mae_pct": _weighted(
                models, lambda x: x["predictor_mae_pct"],
                lambda x: x["completed"]),
            "watch.pages": report["watch"]["page_alerts"],
            "gpusim.events": gauge_sum(registry, "sim.events"),
            "gpusim.arena_mb": gauge_sum(registry, "sim.arena.bytes") /
            2**20,
        })
    else:
        phases = ("stream_control", "stream_replay")

        def stage(name):
            return _weighted(models,
                             lambda x: x["stage_mean_ms"][name],
                             lambda x: x["completed"])

        completed = sum(x["completed"] for x in models)
        m.update({
            "stream.build_s": spanned(total("stream_build"),
                                      "stream_build"),
            "stream.control_s": spanned(selft("stream_control"),
                                        "stream_control"),
            "stream.enqueue_s": spanned(split.get("enqueue", 0.0),
                                        *phases),
            "stream.replay_s": spanned(total("stream_replay"),
                                       "stream_replay"),
            "stream.foldback_s": spanned(split.get("foldback", 0.0),
                                         *phases),
            "stream.tail_s": spanned(split.get("tail", 0.0), *phases),
            "stream.sim_queue_ms": stage("queue"),
            "stream.sim_compute_ms": stage("compute"),
            "stream.dropped_pct": 100.0 * out["ops_failed"] / ops
            if ops else 0.0,
            "stream.stale_pct":
                100.0 * sum(x["stale_completed"] for x in models) /
                completed if completed else 0.0,
            "stream.mean_batch": _weighted(
                models, lambda x: x["mean_batch"],
                lambda x: x["batches"]),
        })
    for name, _, applies in LAYER_METRICS:
        if name not in m:
            if applies is not None and applies != kind:
                m[name] = 0.0
            else:
                raise KeyError("no value for %s" % name)
    return m, split
