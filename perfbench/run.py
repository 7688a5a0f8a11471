"""Workload benchmark for sipspectra.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the library is imported from its
``src`` directory.  One client sends the workload's requests in a closed
loop, in one process, with BLAS pinned to one thread.  A pass is one round
over the workload's requests; passes repeat while another one is expected to
end within ``--seconds``; at least one pass runs, and none is cut short.

``--trace 0`` reports the end-to-end metrics: median pass time, median and
p90 request latency, set-up time (median of three set-ups: this process and
two fresh interpreters, each importing the library, generating the inputs
and running one warm-up request) and peak resident memory.  Times are in
reference seconds (see ``HostSpeed``); the measured seconds are in the
details line.  ``--trace 1`` runs one untraced and one traced pass and
reports the per-layer metrics of the traced one; its spans are written to
``.perfbench_out/``.

Every request is checked (see ``check.py``); the last line of output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import os

BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_ENV:  # before numpy loads; child set-ups inherit it
    os.environ[_var] = "1"

import argparse  # noqa: E402
import bisect  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
SETUP_REPEATS = 3
CHILD_TIMEOUT_S = 120
CAL_EVERY_S = 0.2     # seconds between two calibrations
CAL_LONG_S = 1.0      # a request running this long is calibrated inside, too
CAL_WINDOW_S = 1.0    # calibrations this close to a request give its host speed
CAL_SETUP = 10        # calibrations right after each set-up
CAL_REF_S = 0.008     # the calibration task's median seconds on the reference host


def _import_library() -> float:
    """Import sipspectra from this checkout's ``src``; seconds taken."""
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import sipspectra
    elapsed = time.perf_counter() - t0
    origin = Path(sipspectra.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise ImportError(f"sipspectra was imported from {origin}, not from {SRC}")
    return elapsed


def _percentile(values: list[float], q: float) -> float:
    """Linear-interpolated percentile (q in [0, 100])."""
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    pos = (len(ordered) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def _calibration_task() -> None:
    """Fixed work that follows the host's speed; the library is not involved.

    Interpreter work on tuples and dicts, as in enumeration and plan
    building, then numpy array work and a small dense eigensolve, as in
    assembly and the dense spectra.
    """
    import numpy as np

    counts: dict = {}
    for i in range(18_000):
        key = (i % 31, i % 37, i % 41)
        counts[key] = counts.get(key, 0) + (i * i) % 7
    a = np.linspace(1.0, 2.0, 60_000)
    for _ in range(8):
        a = np.sqrt(a * a + 1.0)
    np.linalg.eigvalsh(np.add.outer(np.arange(60.0), np.arange(60.0)))


class HostSpeed:
    """Calibration samples of one process; turns measured into reference seconds.

    On a shared host the speed of a core can drift by a factor of two over
    tens of seconds.  While ``sampling`` runs, ``clock`` runs the calibration
    task between requests, at most every CAL_EVERY_S, and a timer signal runs
    it every CAL_EVERY_S inside a request that has run for CAL_LONG_S (the
    handler runs between two bytecodes, so a long C call delays it).  A
    request's reference seconds are its seconds less the calibrations inside
    it, times the mean of CAL_REF_S / (calibration seconds) over the
    calibrations within CAL_WINDOW_S of it: its latency on a host where the
    task takes CAL_REF_S.  A change to the library does not touch the task,
    so it shows in full.
    """

    def __init__(self):
        self.times: list[float] = []    # midpoint of each calibration
        self.scale: list[float] = []    # CAL_REF_S / its duration
        self.spent = 0.0                # seconds spent calibrating
        self._last_clock = time.perf_counter()
        self._busy = False

    def _on_timer(self, *_signal_args) -> None:
        # only inside a long request: a short one is not interrupted, because
        # a calibration inside it would slow it by more than its own time
        if time.perf_counter() - self._last_clock >= CAL_LONG_S:
            self.sample()

    def sample(self) -> None:
        if self._busy:  # the timer fired during a calibration
            return
        self._busy = True
        t0 = time.perf_counter()
        _calibration_task()
        t1 = time.perf_counter()
        self.times.append((t0 + t1) / 2)
        self.scale.append(CAL_REF_S / (t1 - t0))
        self.spent += t1 - t0
        self._busy = False

    @contextlib.contextmanager
    def sampling(self):
        """Calibrate at the start and end of the block, and by timer inside long requests."""
        previous = signal.signal(signal.SIGALRM, self._on_timer)
        try:
            self.sample()
            signal.setitimer(signal.ITIMER_REAL, CAL_EVERY_S, CAL_EVERY_S)
            yield self
            signal.setitimer(signal.ITIMER_REAL, 0)
            self.sample()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def clock(self) -> tuple[float, float]:
        """Time and calibration seconds so far; calibrates first when one is due."""
        if not self.times or time.perf_counter() - self.times[-1] >= CAL_EVERY_S:
            self.sample()
        self._last_clock = time.perf_counter()
        return self._last_clock, self.spent

    @staticmethod
    def measured_seconds(start: tuple[float, float], end: tuple[float, float]) -> float:
        """Seconds between two ``clock`` readings, less the calibrations between them."""
        return end[0] - start[0] - (end[1] - start[1])

    def reference_seconds(self, start: tuple[float, float], end: tuple[float, float]) -> float:
        """``measured_seconds`` at reference speed."""
        lo = bisect.bisect_left(self.times, start[0] - CAL_WINDOW_S)
        hi = bisect.bisect_right(self.times, end[0] + CAL_WINDOW_S)
        near = self.scale[lo:hi]
        return self.measured_seconds(start, end) * sum(near) / len(near)

    def mean_scale(self) -> float:
        return sum(self.scale) / len(self.scale)


class UnknownWorkload(ValueError):
    pass


class Run:
    """One benchmark run: set-up, timed passes, correctness bookkeeping."""

    def __init__(self, workload: str, seed: int):
        import check
        import workloads

        if workload not in workloads.WORKLOADS:
            raise UnknownWorkload(
                f"unknown workload {workload!r}; choose from {', '.join(workloads.WORKLOADS)}")
        self.check = check
        self.workload = workloads.build(workload, seed)
        self.references = check.load_references(workload)
        self.attempted = 0
        self.failures: list[str] = []
        self.reference_checked = 0

    @staticmethod
    def execute(request, tracer=None):
        """Run one request; returns its report texts, or the error it raised."""
        try:
            if tracer is None:
                return request.run()
            return tracer.call("request", request.run)
        except Exception as exc:  # a raising request is a failed request
            return exc

    def record(self, request, produced) -> None:
        """Count one request and check what it produced."""
        self.attempted += 1
        if isinstance(produced, Exception):
            self.failures.append(f"{request.kind} {request.fingerprint}: "
                                 f"{type(produced).__name__}: {produced}")
            return
        try:
            result = self.check.outcome(produced)
        except Exception as exc:  # an unreadable report is a failed request
            self.failures.append(f"{request.kind} {request.fingerprint}: "
                                 f"unreadable report: {type(exc).__name__}: {exc}")
            return
        reference = self.references.get(request.fingerprint)
        self.reference_checked += reference is not None
        reason = self.check.verdict(result, reference)
        if reason:
            self.failures.append(f"{request.kind} {request.fingerprint}: {reason}")

    def one_pass(self, tracer=None, clock=time.perf_counter) -> list[tuple]:
        """Run every request once; returns each one's (start, end) ``clock`` readings."""
        spans, produced = [], []
        for request in self.workload.requests:
            start = clock()
            out = self.execute(request, tracer)
            spans.append((start, clock()))
            produced.append(out)
        for request, out in zip(self.workload.requests, produced):
            self.record(request, out)
        return spans


def _setup(workload: str, seed: int) -> tuple[Run, float, float]:
    """Import, input generation and one warm-up request.

    Returns the run, the set-up's seconds, and the same in reference seconds
    by the calibrations that follow it.
    """
    t_import = _import_library()
    t0 = time.perf_counter()
    run = Run(workload, seed)
    run.record(run.workload.warmup, run.execute(run.workload.warmup))
    seconds = t_import + time.perf_counter() - t0
    speed = HostSpeed()
    for _ in range(CAL_SETUP):
        speed.sample()
    return run, seconds, seconds * speed.mean_scale()


def _child_setup(workload: str, seed: int) -> tuple[float, float]:
    """Set-up seconds, measured and in reference seconds, in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
         "--seed", str(seed), "--setup-only"],
        cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=True)
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    return out["setup_s"], out["setup_ref_s"]


def _environment(seed: int) -> dict:
    import numpy
    import scipy

    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "blas_threads": {v: os.environ.get(v) for v in BLAS_ENV},
            "seed": seed}


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def measure(args) -> dict:
    run, seconds, ref_seconds = _setup(args.workload, args.seed)
    setups = [(seconds, ref_seconds)] + [_child_setup(args.workload, args.seed)
                                         for _ in range(SETUP_REPEATS - 1)]
    passes, raw_walls = [], []
    t0 = time.perf_counter()
    with HostSpeed().sampling() as speed:
        while True:
            spans = run.one_pass(clock=speed.clock)
            passes.append(spans)
            raw_walls.append(sum(speed.measured_seconds(*span) for span in spans))
            if time.perf_counter() - t0 + statistics.median(raw_walls) > args.seconds:
                break
    per_pass = [[speed.reference_seconds(*span) for span in spans] for spans in passes]
    walls = [sum(lat) for lat in per_pass]
    latencies = [x for lat in per_pass for x in lat]
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    details = {"passes": len(walls), "requests_per_pass": len(run.workload.requests),
               "latency_samples": len(latencies), "pass_walls_s": walls,
               "measured_pass_walls_s": raw_walls, "first_pass_latencies_s": per_pass[0],
               "calibrations": len(speed.scale), "calibration_s": speed.spent,
               "host_speed": statistics.median(speed.scale),
               "setups_s": [ref for _, ref in setups],
               "measured_setups_s": [raw for raw, _ in setups]}
    metrics = {
        "wall_s": _metric(statistics.median(walls), "s"),
        "req_p50_s": _metric(_percentile(latencies, 50), "s"),
        "req_p90_s": _metric(_percentile(latencies, 90), "s"),
        "setup_s": _metric(statistics.median(ref for _, ref in setups), "s"),
        "peak_rss_mb": _metric(peak_kb / 1024.0, "MB"),
    }
    return {"run": run, "details": details, "metrics": metrics}


def _pass_seconds(spans) -> float:
    return spans[-1][1] - spans[0][0]


def measure_traced(args) -> dict:
    import layers
    from tracer import Tracer

    run, _, _ = _setup(args.workload, args.seed)
    untraced_wall = _pass_seconds(run.one_pass())
    tracer = Tracer()
    try:
        layers.install(tracer)
        traced_wall = _pass_seconds(run.one_pass(tracer))
    finally:
        tracer.restore()
    spans_path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl.gz"
    tracer.dump(spans_path)
    values = layers.layer_metrics(tracer)
    values["trace.overhead_s"] = (traced_wall - untraced_wall, "s")
    metrics = {name: _metric(v, unit) for name, (v, unit) in sorted(values.items())}
    details = {"untraced_wall_s": untraced_wall, "traced_wall_s": traced_wall,
               "spans": str(spans_path.relative_to(ROOT))}
    return {"run": run, "details": details, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=16.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="time one set-up and print it (used for set-up repeats)")
    args = parser.parse_args(argv)

    try:
        if args.setup_only:
            _, seconds, ref_seconds = _setup(args.workload, args.seed)
            print(json.dumps({"setup_s": seconds, "setup_ref_s": ref_seconds}))
            return 0
        result = measure_traced(args) if args.trace else measure(args)
    except ImportError as exc:
        print(f"cannot import the library from {SRC}: {exc}", file=sys.stderr)
        return 2
    except UnknownWorkload as exc:
        print(exc, file=sys.stderr)
        return 2
    run = result["run"]
    print(json.dumps({"workload": args.workload, "environment": _environment(args.seed),
                      "reference_checked": run.reference_checked,
                      "failed_frac": len(run.failures) / run.attempted,
                      "failures": run.failures[:20], **result["details"]}))
    print(json.dumps({"correct": not run.failures, "attempted": run.attempted,
                      "failed": len(run.failures), "metrics": result["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
