"""Benchmark worker: serves requests against the `hahnpoly` sources in src/.

run.py starts it as `python3 bench/worker.py --cpu K [--trace]`.  It prints
one JSON ready line once `hahnpoly.cli` is imported, answers one JSON
request per stdin line with one JSON reply line, and when stdin closes
prints a final line with its peak RSS and, with --trace, its span
statistics.

Times are reported at a fixed reference speed.  On a shared virtual
machine each CPU changes speed by up to a third within seconds,
independently of the other CPUs, so the worker pins itself to CPU K and
times a fixed pure-Python loop (the probe) before and after every request
and every 0.2 s during it.  A request's reported seconds are its measured
seconds times the mean of REFERENCE_PROBE_S over each probe time;
`raw_seconds` keeps the measured value.
"""

from __future__ import annotations

import os
import signal
import statistics
import sys
import time

PROBE_LOOPS = 5000
# about the probe's time on an idle CPU of the 2-vCPU Xeon VM the benchmark
# was tuned on, so reported seconds read close to measured ones there
REFERENCE_PROBE_S = 3.0e-4
PROBE_INTERVAL_S = 0.2


def probe() -> float:
    """Median of three timings of a fixed pure-Python loop."""
    times = []
    for _ in range(3):
        start = time.perf_counter()
        acc = 0.0
        for i in range(PROBE_LOOPS):
            acc += i * 0.5
        times.append(time.perf_counter() - start)
    return sorted(times)[1]


class Speed:
    """Probe times since the last reset; SIGALRM adds one every interval."""

    def __init__(self) -> None:
        self.probes: list[float] = []

    def sample(self, *_signal_args) -> None:
        self.probes.append(probe())

    def reset(self) -> None:
        self.probes = [probe()]

    def factor(self) -> float:
        # the mean speed over evenly spaced probes; a median would jump
        # between the fast and the slow state of a CPU that alternates
        return statistics.fmean(REFERENCE_PROBE_S / p for p in self.probes)


if "--cpu" in sys.argv:
    os.sched_setaffinity(0, {int(sys.argv[sys.argv.index("--cpu") + 1])})
SPEED = Speed()
SPEED.reset()

import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import hahnpoly.cli  # noqa: E402
import numpy as np  # noqa: E402
from hahnpoly.errors import HahnPolyError  # noqa: E402

from workloads import TARGETS  # noqa: E402

SPEED.sample()  # setup ends here


def digest(exit_code: int, stdout: str, arrays: dict[str, np.ndarray]) -> str:
    h = hashlib.sha256(f"{exit_code}\n{stdout}".encode())
    for key in sorted(arrays):
        h.update(key.encode())
        h.update(np.ascontiguousarray(arrays[key], dtype=np.float64).tobytes())
    return h.hexdigest()[:32]


def run_cli(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    code = 0
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            hahnpoly.cli.main.main(args=argv, prog_name="hahnpoly")
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else int(exc.code is not None)
        except Exception:
            traceback.print_exc()
            code = 1
    return code, out.getvalue(), err.getvalue()


def run_lib(req: dict) -> dict[str, np.ndarray]:
    # names are looked up on the package at call time, so traced runs see
    # the wrapped functions
    hp = sys.modules["hahnpoly"]
    fn = TARGETS[req["target"]]
    p = hp.HahnParams(req["alpha"], req["beta"], req["N"])
    u = hp.GridFunction.from_callable(fn, p, hp.IntervalMap(-1.0, 1.0, p.N).to_interval)
    m = req["m"]
    if req["op"] == "project":
        return {"coeffs": hp.project(u, m).coeffs}
    if req["op"] == "decay":
        rows = hp.decay_report(u, req["k"], range(1, m + 1))
        return {field: np.array([getattr(r, field) for r in rows])
                for field in ("coeff", "bound", "identity_residual")}
    return {"classical": hp.project(u, m, normalized=False).coeffs,
            "legendre": hp.legendre_coeffs(fn, m)}


def serve(req: dict) -> dict:
    arrays: dict[str, np.ndarray] = {}
    stdout = stderr = ""
    SPEED.reset()
    # probe only while a request runs, so no signal lands in the pipe I/O
    signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
    start = time.perf_counter()
    if req["kind"] == "cli":
        code, stdout, stderr = run_cli(req["argv"])
    else:
        code = 0
        try:
            arrays = run_lib(req)
        except HahnPolyError as exc:
            code, stderr = 3, str(exc)
        except Exception:
            code, stderr = 1, traceback.format_exc()
    seconds = time.perf_counter() - start
    signal.setitimer(signal.ITIMER_REAL, 0)
    SPEED.sample()
    return {"seconds": seconds * SPEED.factor(), "raw_seconds": seconds, "exit": code,
            "stdout": stdout, "stderr": stderr[-4000:],
            "arrays": {k: v.tolist() for k, v in arrays.items()},
            "digest": digest(code, stdout, arrays),
            "rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}


def main() -> None:
    proto = sys.stdout
    tracer = None
    if "--trace" in sys.argv:
        from tracing import Tracer, install
        tracer = Tracer()
        install(tracer)

    def send(obj: dict) -> None:
        proto.write(json.dumps(obj) + "\n")
        proto.flush()

    send({"ready": True, "speed_factor": SPEED.factor(), "hahnpoly": hahnpoly.__file__,
          "python": platform.python_version(), "numpy": np.__version__})
    signal.signal(signal.SIGALRM, SPEED.sample)
    for line in sys.stdin:
        send(serve(json.loads(line)))
    send({"rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
          "trace": tracer.stats() if tracer else None})


if __name__ == "__main__":
    main()
