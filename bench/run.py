"""Benchmark harness for hahnpoly.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs passes of the workload's seeded request list (see workloads.py) in
worker processes that import `hahnpoly` from src/: as many passes as fit
in S seconds at the seed code's measured speed, at least one
(`workloads.passes`).  The pass count depends only on the arguments, so
two runs with the same arguments judge the same requests.  With --trace 1 it runs one
plain pass and one traced pass (see tracing.py) instead.  After the timed
passes it judges every output with the correctness gate (gate.py).

Times are seconds at a fixed reference interpreter speed: each worker
measures its CPU's current speed with a probe loop and scales what it
measures (see worker.py), because on a shared host a CPU's speed changes
by a third within seconds.  The measured seconds stay in the report.

Standard output: one line per metric, one JSON report line (machine
record, per-request output digests and gate verdicts), and as the last
line the result object with the end-to-end metrics (--trace 0) or the
per-layer metrics (--trace 1) named in BENCHMARK.json.  `failed` counts
requests the gate rejects; `correct` is false when outputs differ between
passes of the same request list, traced or not.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import workloads
from tracing import SWEEPS

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
WORKER = Path(__file__).resolve().parent / "worker.py"
# workers run one at a time on single-threaded numpy, so the load is this
# harness plus at most one worker
THREAD_ENV = {name: "1" for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                     "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
                                     "NUMEXPR_NUM_THREADS")}
REPLY_TIMEOUT_S = 150
MIN_SETUPS = 5  # setup_s is a median over at least this many worker starts


class HarnessError(RuntimeError):
    """A worker process failed outside any request."""


class Worker:
    """One worker process, pinned to one CPU; `setup_s` runs from spawn to
    its ready line, at the worker's reference speed."""

    def __init__(self, trace: bool) -> None:
        env = {**os.environ, **THREAD_ENV, "PYTHONHASHSEED": "0"}
        cpu = max(os.sched_getaffinity(0))
        start = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, str(WORKER), "--cpu", str(cpu), *(["--trace"] if trace else [])],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT)
        try:
            self.info = self._read()
            self.setup_s = (time.perf_counter() - start) * self.info["speed_factor"]
            if not Path(self.info["hahnpoly"]).resolve().is_relative_to(SRC):
                raise HarnessError(f"worker imported {self.info['hahnpoly']}, not {SRC}")
        except BaseException:
            self.kill()
            raise

    def _read(self) -> dict:
        # the worker sends one line per message and nothing unasked, so
        # nothing sits in the read buffer while this waits
        if not select.select([self.proc.stdout], [], [], REPLY_TIMEOUT_S)[0]:
            raise HarnessError(f"no reply from the worker within {REPLY_TIMEOUT_S} s")
        line = self.proc.stdout.readline()
        if not line:
            raise HarnessError(f"worker exited with code {self.proc.wait()}")
        return json.loads(line)

    def request(self, req: dict) -> dict:
        self.proc.stdin.write(json.dumps(req) + "\n")
        self.proc.stdin.flush()
        return self._read()

    def close(self) -> dict:
        """Ends the worker; returns its final line."""
        self.proc.stdin.close()
        final = self._read()
        self.proc.wait(timeout=60)
        return final

    def kill(self) -> None:
        self.proc.kill()
        self.proc.wait()

    def __enter__(self) -> "Worker":
        return self

    def __exit__(self, *exc) -> None:
        if self.proc.poll() is None:
            self.kill()


@dataclass
class Pass:
    replies: list[dict] = field(default_factory=list)
    setups: list[float] = field(default_factory=list)
    rss_kb: int = 0
    info: dict = field(default_factory=dict)
    calls: dict[str, int] = field(default_factory=dict)
    self_s: dict[str, float] = field(default_factory=dict)
    dd_steps: int = 0

    @property
    def wall_s(self) -> float:
        return sum(r["seconds"] for r in self.replies)

    @property
    def raw_wall_s(self) -> float:
        return sum(r["raw_seconds"] for r in self.replies)

    @property
    def digests(self) -> list[str]:
        return [r["digest"] for r in self.replies]

    def add_worker(self, worker: Worker, replies: list[dict]) -> None:
        final = worker.close()
        self.replies += replies
        self.setups.append(worker.setup_s)
        self.info = worker.info
        self.rss_kb = max([self.rss_kb, final["rss_kb"], *(r["rss_kb"] for r in replies)])
        if final["trace"]:
            for name, n in final["trace"]["calls"].items():
                self.calls[name] = self.calls.get(name, 0) + n
            for name, s in final["trace"]["self_s"].items():
                self.self_s[name] = self.self_s.get(name, 0.0) + s
            self.dd_steps += final["trace"]["dd_steps"]


def run_pass(reqs: list[dict], fresh_process: bool, trace: bool) -> Pass:
    out = Pass()
    batches = [[req] for req in reqs] if fresh_process else [reqs]
    for batch in batches:
        with Worker(trace) as worker:
            out.add_worker(worker, [worker.request(req) for req in batch])
    return out


def setup_times(passes: list[Pass]) -> list[float]:
    """Setup times of the passes' workers, topped up with workers that
    start and stop without a request (spectra_session starts one per pass)."""
    setups = [s for p in passes for s in p.setups]
    while len(setups) < MIN_SETUPS:
        with Worker(trace=False) as worker:
            worker.close()
        setups.append(worker.setup_s)
    return setups


def end_to_end(passes: list[Pass], setups: list[float]) -> dict[str, float]:
    seconds = [r["seconds"] for p in passes for r in p.replies]
    return {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(p.wall_s for p in passes),
        "req_p50_s": statistics.median(seconds),
        "req_p90_s": statistics.quantiles(seconds, n=10, method="inclusive")[8],
        "peak_rss_mb": max(p.rss_kb for p in passes) / 1024.0,
    }


def per_layer(name: str, plain: Pass, traced: Pass) -> float:
    """Value of per-layer metric `name`: `<layer>.<function>.calls` or
    `.self_s`, or one of the derived metrics below.  Span times are scaled
    to the reference speed by the traced pass's overall speed factor."""
    speed = traced.wall_s / traced.raw_wall_s
    if name == "hahn.dd_steps":
        return traced.dd_steps
    if name == "hahn.ns_per_dd_step":
        sweep_s = speed * sum(traced.self_s.get(span, 0.0) for span in SWEEPS)
        return 1e9 * sweep_s / traced.dd_steps if traced.dd_steps else 0.0
    if name == "trace.wall_s":
        return traced.wall_s
    if name == "trace.overhead_s":
        return traced.wall_s - plain.wall_s
    span, _, kind = name.rpartition(".")
    if kind == "calls":
        return traced.calls.get(span, 0)
    if kind == "self_s":
        return speed * traced.self_s.get(span, 0.0)
    raise KeyError(f"unknown per-layer metric {name}")


def machine(info: dict) -> dict:
    try:
        # the ceiling keeps git from reporting an enclosing repository
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}).stdout.strip() or None
    except (OSError, subprocess.TimeoutExpired):
        commit = None
    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), None)
    except OSError:
        pass
    return {"commit": commit, "nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
            "python": info.get("python"), "numpy": info.get("numpy"), "threads": THREAD_ENV}


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (SRC / "hahnpoly" / "cli.py").is_file():
        print(f"error: hahnpoly sources not found under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    reqs = workloads.requests(args.workload, args.seed)
    # each CLI command starts a fresh process; library requests share one per pass
    fresh = all(req["kind"] == "cli" for req in reqs)
    try:
        if args.trace:
            passes = [run_pass(reqs, fresh, trace=False), run_pass(reqs, fresh, trace=True)]
        else:
            passes = [run_pass(reqs, fresh, trace=False)
                      for _ in range(workloads.passes(args.workload, args.seconds))]
            setups = setup_times(passes)
    except HarnessError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    # the gate runs after every timed and traced region
    sys.path.insert(0, str(SRC))
    import gate

    verdicts = [gate.judge(req, reply) for req, reply in zip(reqs, passes[0].replies)]
    failed_per_pass = sum(v is not None for v in verdicts)
    correct = all(p.digests == passes[0].digests for p in passes)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    if args.trace:
        values = {m["name"]: per_layer(m["name"], *passes) for m in wanted}
    else:
        values = end_to_end(passes, setups)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}

    for name, metric in metrics.items():
        print(f"{args.workload} {name} = {metric['value']:.6g} {metric['unit']}")
    raw_wall = statistics.median(p.raw_wall_s for p in passes)
    print(f"{args.workload} raw wall_s = {raw_wall:.6g} s (measured, not speed-normalised)")
    print(f"{args.workload} fail_frac = {failed_per_pass / len(reqs):.6g} ratio "
          f"({failed_per_pass} of {len(reqs)} requests per pass, {len(passes)} passes)")
    report = {
        "workload": args.workload, "seed": args.seed, "passes": len(passes),
        "machine": machine(passes[0].info),
        "requests": [{"request": req.get("argv") or req, "digest": reply["digest"],
                      "seconds": reply["seconds"], "raw_seconds": reply["raw_seconds"],
                      "failure": verdict}
                     for req, reply, verdict in zip(reqs, passes[0].replies, verdicts)],
    }
    print(json.dumps({"report": report}))
    print(json.dumps({"correct": correct, "attempted": len(reqs) * len(passes),
                      "failed": failed_per_pass * len(passes), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
