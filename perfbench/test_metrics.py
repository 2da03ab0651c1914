"""Tests of the benchmark's own logic (no build needed):

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import contextlib
import io
import json
import os
import sys
import types
import unittest

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import metrics  # noqa: E402
import run  # noqa: E402

DATA = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                    "testdata")


def fixture(kind):
    with open(os.path.join(DATA, "%s_report.json" % kind), "rb") as f:
        return f.read()


def span(name, start, end, thread=0):
    """A span record with times in (integer) microseconds."""
    return {"name": name, "thread": thread, "start_ns": start * 1000,
            "end_ns": end * 1000}


def by_name(spans, name):
    return [s for s in spans if s.name == name]


US = 1e-6

# A fleet run on the main thread: builds, control with a nested
# rollout, contexts in the enqueue gap, then replay.
FLEET_SPANS = [
    span("bench.setup", 0, 2),
    span("bench.run", 5, 105),
    span("fleet_run", 8, 95),
    span("fleet_build", 10, 20),
    span("build", 11, 19),
    span("fleet_control", 30, 60),
    span("fleet_rollout", 40, 50),
    span("fleet_build", 41, 49),
    span("context_setup", 62, 64),
    span("fleet_replay", 70, 80),
    span("bench.serialize", 105, 107),
]


class SpanTest(unittest.TestCase):
    def test_nesting_and_self_time(self):
        spans = metrics.nest(FLEET_SPANS)
        control = by_name(spans, "fleet_control")[0]
        self.assertEqual([c.name for c in control.children],
                         ["fleet_rollout"])
        self.assertAlmostEqual(metrics.self_time(control), 20 * US)
        run = by_name(spans, "bench.run")[0]
        self.assertEqual([c.name for c in run.children], ["fleet_run"])
        self.assertIsNone(by_name(spans, "bench.serialize")[0].parent)

    def test_gap_naming(self):
        run = by_name(metrics.nest(FLEET_SPANS), "bench.run")[0]
        split = metrics.gaps(run)
        # pre: 5..10 and 20..30; enqueue: 60..62 and 64..70;
        # after the replay there is no span, so 80..105 is tail.
        self.assertEqual(set(split), {"pre", "enqueue", "tail"})
        self.assertAlmostEqual(split["pre"], 15 * US)
        self.assertAlmostEqual(split["enqueue"], 8 * US)
        self.assertAlmostEqual(split["tail"], 25 * US)

    def test_back_to_back_spans(self):
        records = [
            span("bench.run", 0, 100),
            span("serve_build", 0, 10),
            span("serve_control", 10, 40),
            span("serve_replay", 45, 60),
            span("serve_replay", 60, 70),
            span("serve_watch", 73, 90),
        ]
        run = by_name(metrics.nest(records), "bench.run")[0]
        split = metrics.gaps(run)
        # Touching spans leave no gap; 70..73 follows a replay.
        self.assertEqual(set(split), {"enqueue", "foldback", "tail"})
        self.assertAlmostEqual(split["enqueue"], 5 * US)
        self.assertAlmostEqual(split["foldback"], 3 * US)
        self.assertAlmostEqual(split["tail"], 10 * US)

    def test_worker_thread_span(self):
        records = [
            span("bench.run", 0, 100),
            span("stream_control", 10, 20),
            span("stream_replay", 30, 60),
            span("tactic_sweep", 0, 90, thread=1),
        ]
        spans = metrics.nest(records)
        sweep = by_name(spans, "tactic_sweep")[0]
        self.assertIsNone(sweep.parent)
        run = by_name(spans, "bench.run")[0]
        self.assertEqual(len(run.children), 2)
        split = metrics.gaps(run)
        # The other thread's span covers none of the run's gaps.
        self.assertAlmostEqual(split["pre"], 10 * US)
        self.assertAlmostEqual(split["enqueue"], 10 * US)
        self.assertAlmostEqual(split["tail"], 40 * US)

    def test_missing_span_reads_none(self):
        report = json.loads(fixture("fleet"))
        records = [r for r in FLEET_SPANS
                   if r["name"] != "fleet_replay"]
        worker = {"histogram_record_ns": 50.0, "ring_successors_ns": 300.0,
                  "minor_faults": 10, "sys_s": 0.1, "wall_s": 1.0,
                  "report_bytes": 100}
        layers, _ = metrics.layer_metrics("fleet_overload", records,
                                          {}, report, worker, 1.0)
        self.assertIsNone(layers["fleet.replay_s"])
        self.assertIsNone(layers["fleet.replay_ns_per_launch"])
        self.assertIsNone(layers["fleet.enqueue_s"])
        # Spans that are present still measure; layers this runner
        # does not run read 0.
        self.assertAlmostEqual(layers["fleet.control_s"], 20 * US)
        self.assertEqual(layers["serve.control_s"], 0.0)
        self.assertEqual(set(layers),
                         {n for n, _, _ in metrics.LAYER_METRICS})


class ReportTest(unittest.TestCase):
    def test_fleet_outcome(self):
        out = metrics.outcome("fleet_overload",
                              json.loads(fixture("fleet")))
        self.assertEqual(out["ops"], 799281)
        self.assertEqual(out["ops_failed"], 797221)
        self.assertAlmostEqual(out["sim_p99_ms"], 40.01891071595544)
        self.assertEqual(out["p99_samples"], 2060)
        self.assertAlmostEqual(out["sim_goodput_pct"],
                               100.0 * 2060 / 799281)

    def test_serve_outcome(self):
        out = metrics.outcome("serve_mix", json.loads(fixture("serve")))
        self.assertEqual(out["ops"], 24012 + 24122 + 12042)
        self.assertEqual(out["ops_failed"], 138 + 2)
        # The worst model's p99 (resnet-18) and its sample count.
        self.assertAlmostEqual(out["sim_p99_ms"], 59.00828167310693)
        self.assertEqual(out["p99_samples"], 23874)
        good = (23874 - 4859) + (24120 - 48) + (12042 - 4)
        self.assertAlmostEqual(out["sim_goodput_pct"],
                               100.0 * good / out["ops"])

    def test_stream_outcome(self):
        out = metrics.outcome("stream_cams",
                              json.loads(fixture("stream")))
        self.assertEqual(out["ops"], 28813 + 28819)
        self.assertEqual(out["ops_failed"], 0)
        self.assertAlmostEqual(out["sim_p99_ms"], 50.47626671520499)
        self.assertEqual(out["p99_samples"], 28807)
        self.assertAlmostEqual(out["sim_goodput_pct"],
                               100.0 * (28807 + 28816) / out["ops"])

    def test_report_layer_metrics(self):
        worker = {"histogram_record_ns": 50.0, "ring_successors_ns": 0.0,
                  "minor_faults": 10, "sys_s": 0.1, "wall_s": 1.0,
                  "report_bytes": 100}
        records = [span("bench.run", 0, 100),
                   span("serve_control", 10, 20),
                   span("serve_replay", 30, 60)]
        serve, _ = metrics.layer_metrics(
            "serve_mix", records, {}, json.loads(fixture("serve")),
            worker, 1.0)
        self.assertEqual(serve["watch.pages"], 52)
        self.assertAlmostEqual(serve["serve.shed_pct"],
                               100.0 * 140 / (24012 + 24122 + 12042))
        queue = (24012 * 2.0427176946702863 +
                 24122 * 1.7136152764964345 +
                 12042 * 1.8600499190804116) / (24012 + 24122 + 12042)
        self.assertAlmostEqual(serve["serve.sim_queue_ms"], queue)
        # serve_build was expected but not recorded.
        self.assertIsNone(serve["serve.build_s"])

        fleet, _ = metrics.layer_metrics(
            "fleet_overload", FLEET_SPANS, {},
            json.loads(fixture("fleet")), worker, 1.0)
        self.assertEqual(fleet["fleet.rerouted"], 36)
        self.assertEqual(fleet["fleet.quarantined"], 100)
        self.assertAlmostEqual(fleet["fleet.mean_batch"],
                               5.421052631578948)
        self.assertAlmostEqual(fleet["fleet.build_s"], 10 * US)
        self.assertAlmostEqual(fleet["fleet.rollout_s"], 10 * US)

    def test_registry_sums(self):
        registry = {
            "counters": {
                "fleet.nx0.gpusim.kernel.launches{device=Xavier NX}": 7,
                "gpusim.kernel.launches{device=AGX}": 3,
                "builder.tactic.measured{device=AGX}": 30,
                "builder.tactic.cache_served{device=AGX}": 10,
            },
            "histograms": {
                "gpusim.kernel.wave_waste_pct{device=AGX}":
                    {"count": 4, "sum": 20.0},
                "fleet.nx0.gpusim.kernel.wave_waste_pct{device=NX}":
                    {"count": 6, "sum": 10.0},
            },
        }
        worker = {"histogram_record_ns": 50.0, "ring_successors_ns": 0.0,
                  "minor_faults": 10, "sys_s": 0.1, "wall_s": 1.1,
                  "report_bytes": 100}
        layers, _ = metrics.layer_metrics(
            "fleet_overload", FLEET_SPANS, registry,
            json.loads(fixture("fleet")), worker, 1.0)
        self.assertEqual(layers["gpusim.kernel_launches"], 10)
        self.assertAlmostEqual(layers["gpusim.wave_waste_pct"], 3.0)
        self.assertAlmostEqual(layers["core.timing_cache_hit_pct"], 25.0)
        self.assertAlmostEqual(layers["fleet.replay_ns_per_launch"],
                               10 * US * 1e9 / 10)
        self.assertAlmostEqual(layers["trace.overhead_pct"], 10.0)


class BenchmarkJsonTest(unittest.TestCase):
    def test_metric_lists_match(self):
        path = os.path.join(os.path.dirname(DATA), "..",
                            "BENCHMARK.json")
        with open(path) as f:
            bench = json.load(f)
        self.assertEqual(
            [(m["name"], m["unit"]) for m in bench["end_to_end"]],
            list(metrics.E2E_UNITS.items()))
        self.assertEqual(
            [(m["name"], m["unit"]) for m in bench["per_layer"]],
            [(n, u) for n, u, _ in metrics.LAYER_METRICS])
        self.assertEqual([w["name"] for w in bench["workloads"]],
                         list(metrics.KIND))


class CheckTest(unittest.TestCase):
    def test_fixtures_pass(self):
        for workload, kind in (("fleet_overload", "fleet"),
                               ("serve_mix", "serve"),
                               ("stream_cams", "stream")):
            data = fixture(kind)
            report, errors = metrics.check_run(workload, data, data)
            self.assertEqual(errors, [], workload)
            self.assertIsNotNone(report)

    def test_mismatched_report_fails(self):
        data = fixture("serve")
        other = data.replace(b'"seed": 1', b'"seed": 2')
        self.assertNotEqual(data, other)
        _, errors = metrics.check_run("serve_mix", other, data)
        self.assertEqual(len(errors), 1)
        self.assertIn("differ", errors[0])

    def test_broken_invariants_fail(self):
        fleet = json.loads(fixture("fleet"))
        fleet["shed"] -= 1
        fleet["unaccounted"] = 1
        self.assertEqual(len(metrics.check_report("fleet_overload",
                                                  fleet)), 2)
        serve = json.loads(fixture("serve"))
        serve["models"][1]["completed"] += 1
        self.assertEqual(len(metrics.check_report("serve_mix", serve)),
                         1)
        stream = json.loads(fixture("stream"))
        stream["models"][0]["conserved"] = False
        self.assertEqual(len(metrics.check_report("stream_cams",
                                                  stream)), 1)
        _, errors = metrics.check_run("stream_cams", b"{truncated", None)
        self.assertEqual(len(errors), 1)


    def test_mismatched_replay_fails_the_command(self):
        good = fixture("stream")
        bad = good.replace(b'"seed": 1', b'"seed": 2')

        def fake_worker(tmp, workload, seed, setup=False, threads=1,
                        trace=False):
            data = bad if threads > 1 else good
            line = {"wall_s": 1.0, "user_s": 0.9, "sys_s": 0.1,
                    "maxrss_kb": 1024, "report_bytes": len(data)}
            return line, data, None

        args = types.SimpleNamespace(workload="stream_cams", seed=1,
                                     seconds=0.0, trace=0)
        real = run.run_worker, run.calibrate
        run.run_worker, run.calibrate = fake_worker, lambda: 0.3
        out = io.StringIO()
        try:
            with contextlib.redirect_stdout(out):
                code = run.measure(None, args)
        finally:
            run.run_worker, run.calibrate = real
        self.assertEqual(code, 1)
        result = json.loads(out.getvalue().splitlines()[-1])
        self.assertFalse(result["correct"])
        # Every op of the mismatched run counts as failed.
        self.assertEqual(result["failed"], 28813 + 28819)

    def test_run_times_scale_with_calibration(self):
        data = fixture("stream")

        def fake_worker(tmp, workload, seed, setup=False, threads=1,
                        trace=False):
            wall = 0.1 if setup else 2.1
            line = {"wall_s": wall, "user_s": wall, "sys_s": 0.0,
                    "maxrss_kb": 1024, "report_bytes": len(data)}
            return line, data, None

        args = types.SimpleNamespace(workload="stream_cams", seed=1,
                                     seconds=0.0, trace=0)
        real = run.run_worker, run.calibrate
        # The host ran the calibration at half the reference speed.
        run.run_worker = fake_worker
        run.calibrate = lambda: 2 * run.CALIBRATION_S
        out = io.StringIO()
        try:
            with contextlib.redirect_stdout(out):
                code = run.measure(None, args)
        finally:
            run.run_worker, run.calibrate = real
        self.assertEqual(code, 0)
        m = json.loads(out.getvalue().splitlines()[-1])["metrics"]
        self.assertAlmostEqual(m["wall_s"]["value"], 1.05)
        self.assertAlmostEqual(m["cpu_s"]["value"], 1.05)
        # Set-up time is reported as measured.
        self.assertAlmostEqual(m["setup_s"]["value"], 0.1)
        self.assertAlmostEqual(m["host_req_per_s"]["value"],
                               (28813 + 28819) / 1.0)


if __name__ == "__main__":
    unittest.main()
