"""Tests for the workload benchmark itself: python3 -m pytest perfbench/tests"""

import inspect
import json
import shutil
import signal
import subprocess
import sys
import time

import pytest

import check
import layers
import run as bench
import sipspectra
import workloads
from tracer import Tracer

ROOT = bench.ROOT
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_subtracts_direct_children():
    clock = FakeClock()
    tr = Tracer(clock=clock)
    roots = []

    def leaf(dt):
        roots.append(tr.outermost())
        clock.now += dt

    def middle():
        clock.now += 1.0
        tr.call("leaf", leaf, (2.0,))
        clock.now += 0.5
        tr.call("leaf", leaf, (3.0,))

    def outer():
        tr.call("middle", middle)
        clock.now += 4.0

    tr.call("outer", outer)
    totals = tr.totals()
    assert totals["leaf"] == {"calls": 2, "total_s": 5.0, "self_s": 5.0}
    assert totals["middle"] == {"calls": 1, "total_s": 6.5, "self_s": 1.5}
    assert totals["outer"] == {"calls": 1, "total_s": 10.5, "self_s": 4.0}
    assert tr.count_under("leaf", "outer") == 2
    assert tr.count_under("middle", "leaf") == 0
    assert tr.max_children("leaf", "middle") == 2
    assert tr.max_children("leaf", "outer") == 0
    assert roots == [0, 0] and tr.outermost() == -1


def test_span_closes_when_the_call_raises():
    tr = Tracer(clock=FakeClock())

    def boom():
        raise RuntimeError("x")

    with pytest.raises(RuntimeError):
        tr.call("outer", tr.call, ("inner", boom))
    tr.call("after", lambda: None)
    assert list(tr.parent) == [-1, 0, -1]


def test_reference_seconds_drop_calibrations_and_scale_by_nearby_speed():
    speed = bench.HostSpeed()
    speed.times = [0.0, 1.5, 10.0]
    speed.scale = [0.5, 1.0, 4.0]
    # 2 s between the readings, 0.5 s of it calibrating; 10.0 is too far away
    assert speed.measured_seconds((1.0, 3.0), (3.0, 3.5)) == 1.5
    assert speed.reference_seconds((1.0, 3.0), (3.0, 3.5)) == 1.5 * 0.75


def test_sampling_calibrates_inside_a_long_call_only_and_stops():
    with bench.HostSpeed().sampling() as speed:
        spans = []
        for seconds in (0.5, bench.CAL_LONG_S + 0.5):
            start = speed.clock()
            end_at = time.perf_counter() + seconds
            while time.perf_counter() < end_at:
                pass
            spans.append((start, speed.clock()))
    inside = [sum(start[0] < t < end[0] for t in speed.times) for start, end in spans]
    assert inside[0] == 1      # the one taken before the end reading
    assert inside[1] >= 2
    assert all(speed.measured_seconds(*span) > 0.45 for span in spans)
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) is signal.SIG_DFL


def _attribute_snapshot():
    snap = {}
    for name, module in sys.modules.items():
        if name == "sipspectra" or name.startswith("sipspectra."):
            for attr, value in vars(module).items():
                snap[(name, attr)] = value
                if inspect.isclass(value) and value.__module__ == name:
                    for meth, fn in vars(value).items():
                        snap[(name, attr, meth)] = fn
    return snap


def test_install_patches_and_restore_puts_every_attribute_back():
    before = _attribute_snapshot()
    tr = Tracer()
    layers.install(tr)
    try:
        from sipspectra import comparison, generators, graphs, spectral
        assert comparison.build_plan is not before[("sipspectra.comparison", "build_plan")]
        assert comparison.shortest_path is not before[("sipspectra.comparison", "shortest_path")]
        assert spectral.np is not before[("sipspectra.spectral", "np")]
        assert generators.GeneratorMatrix.carrier is not before[
            ("sipspectra.generators", "GeneratorMatrix", "carrier")]
        g = graphs.path_graph(3)
        sipspectra.spectral_gap(sipspectra.build_sip(g, 2))
        assert tr.totals()["generators.build"]["calls"] == 1
    finally:
        tr.restore()
    after = _attribute_snapshot()
    assert after.keys() == before.keys()
    changed = [k for k in before if after[k] is not before[k]]
    assert changed == []


def test_every_traced_target_resolves():
    targets = [t for ts in layers.SPANNED.values() for t in ts] + list(layers.COUNTED.values())
    for target in targets:
        assert callable(layers._resolve(target)[2]), target


def test_a_missing_target_stops_the_install(monkeypatch):
    monkeypatch.setitem(layers.SPANNED, "graphs.gone", ("graphs.no_such_function",))
    before = _attribute_snapshot()
    tr = Tracer()
    with pytest.raises(LookupError, match="no_such_function"):
        try:
            layers.install(tr)
        finally:
            tr.restore()
    after = _attribute_snapshot()
    assert [k for k in before if after[k] is not before[k]] == []


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_same_seed_gives_same_inputs(name):
    a = workloads.build(name, 5)
    b = workloads.build(name, 5)
    prints = [r.fingerprint for r in [a.warmup, *a.requests]]
    assert prints == [r.fingerprint for r in [b.warmup, *b.requests]]
    other = workloads.build(name, 6)
    assert prints != [r.fingerprint for r in [other.warmup, *other.requests]]


def test_verdict_matches_ints_exactly_and_floats_within_tolerance():
    ref = [{"experiment": "e", "records": [{
        "name": "r", "passed": True, "tolerance": 1e-8,
        "computed": {"triples": 10, "gap": 0.5, "rows": [1.0, 2.0]}}]}]

    def result(**computed):
        rec = dict(ref[0]["records"][0], computed={**ref[0]["records"][0]["computed"],
                                                   **computed})
        return [{"experiment": "e", "records": [rec]}]

    assert check.verdict(result(), ref) is None
    assert check.verdict(result(gap=0.5 + 1e-9), ref) is None
    assert "gap" in check.verdict(result(gap=0.5 + 1e-6), ref)
    assert "triples" in check.verdict(result(triples=11), ref)
    assert "rows" in check.verdict(result(rows=[1.0]), ref)
    informational = [{"experiment": "e", "records": [
        dict(ref[0]["records"][0], tolerance=0.0)]}]
    assert check.verdict(result(gap=0.5 + 1e-12), informational) is None
    assert "gap" in check.verdict(result(gap=0.5 + 1e-8), informational)
    failing = result()
    failing[0]["records"][0]["passed"] = False
    assert "check failed" in check.verdict(failing, None)


def _single_request(monkeypatch, name):
    """Make the workload one cheap request (its warm-up) long."""
    build = workloads.BY_NAME[name]

    def one(seed):
        wl = build(seed)
        return workloads.Workload(name, [wl.warmup], wl.warmup)

    monkeypatch.setitem(workloads.BY_NAME, name, one)


def _last_json(out: str) -> dict:
    return json.loads(out.strip().splitlines()[-1])


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_one_request_smoke_run(name, monkeypatch, capsys):
    _single_request(monkeypatch, name)
    counts = []
    for _ in range(2):
        assert bench.main(["--workload", name, "--seed", "1", "--seconds", "0",
                           "--trace", "1"]) == 0
        traced = _last_json(capsys.readouterr().out)
        assert traced["correct"] and traced["failed"] == 0
        assert set(traced["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
        assert traced["metrics"]["trace.spans"]["value"] > 0
        counts.append({k: m["value"] for k, m in traced["metrics"].items()
                       if m["unit"] != "s"})
    assert counts[0] == counts[1]


def test_untraced_output_has_every_end_to_end_metric(monkeypatch, capsys):
    _single_request(monkeypatch, "compare")
    assert bench.main(["--workload", "compare", "--seed", "1", "--seconds", "0"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    details, result = json.loads(lines[-2]), json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] == 2
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert details["environment"]["seed"] == 1
    assert details["reference_checked"] == 2


def test_fails_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(bench.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "compare", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
