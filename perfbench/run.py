"""Wall-clock benchmark of the repro program over four user workloads.

Run from the root of a checkout::

    python3 perfbench/run.py --workload pipeline --seed 0 --seconds 10 --trace 0

Each workload runs in its own worker processes, with BLAS/OpenMP pinned
to one thread and a serial ``ExecutionPlan``.  ``--trace 0`` reports the
end-to-end metrics; ``--trace 1`` runs the same calls under the span
tracer and reports the per-layer metrics instead.  The last stdout line
is ``{"correct", "attempted", "failed", "metrics"}``; the line before it
holds the run's details and host fingerprint.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

from hostspeed import REF_PROBE_S
from tracing import per_layer_spec
from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))

#: Set-up is measured this many times in separate processes, half of
#: them before the measuring process and half after it, plus once in
#: the measuring process, and reported as the median.
SETUP_PROBES = 4

#: Every run must end well inside the 180 s a run is allowed.
RUN_DEADLINE_S = 170.0


class WorkerFailed(RuntimeError):
    pass


class Launcher:
    def __init__(self, root: str, args: argparse.Namespace) -> None:
        self.root = root
        self.args = args
        self.started = time.monotonic()
        base = os.path.join(root, ".perfbench_work")
        self.workdir = os.path.join(base, f"run-{os.getpid()}")
        self.trace_out = os.path.join(base, "traces",
                                      f"{args.workload}.json")
        tmp = os.path.join(self.workdir, "tmp")
        os.makedirs(tmp, exist_ok=True)
        # Probe and calls must share one core: the two cores of a shared
        # host are not equally contended.  Workers inherit the mask.
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.path.join(root, "src")
        self.env["PYTHONHASHSEED"] = "0"
        for var in ("TMPDIR", "TEMP", "TMP"):
            self.env[var] = tmp

    def worker(self, mode: str, *extra: str) -> dict:
        remaining = RUN_DEADLINE_S - (time.monotonic() - self.started)
        if remaining <= 0:
            raise WorkerFailed("run deadline passed")
        cmd = [
            sys.executable, os.path.join(HERE, "worker.py"), mode,
            "--workload", self.args.workload,
            "--seed", str(self.args.seed),
            "--workdir", self.workdir, *extra,
            "--t0", repr(time.time()),
        ]
        try:
            proc = subprocess.run(cmd, env=self.env, cwd=self.root,
                                  stdout=subprocess.PIPE, text=True,
                                  timeout=remaining)
        except subprocess.TimeoutExpired:
            raise WorkerFailed(f"{mode} worker passed the run deadline")
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise WorkerFailed(f"{mode} worker exited {proc.returncode}")
        return json.loads(lines[-1])

    def setup_sample(self) -> tuple:
        out = self.worker("setup")
        return out["setup_s"], out["setup_probe_s"]

    def run(self) -> dict:
        before = [self.setup_sample() for _ in range(SETUP_PROBES // 2)]
        extra = ["--seconds", str(self.args.seconds),
                 "--trace", str(self.args.trace)]
        if self.args.trace:
            os.makedirs(os.path.dirname(self.trace_out), exist_ok=True)
            extra += ["--trace-out", self.trace_out]
        out = self.worker("measure", *extra)
        after = [self.setup_sample()
                 for _ in range(SETUP_PROBES - SETUP_PROBES // 2)]
        out["setup_samples"] = (
            before + [(out["setup_s"], out["setup_probe_s"])] + after)
        return out


def reference_seconds(seconds: float, probe_s: float) -> float:
    """Wall seconds scaled to the reference host's speed."""
    return seconds * REF_PROBE_S / probe_s


def per_input_seconds(out: dict) -> dict:
    """Per input, the reference seconds of one of its timed calls.

    Wall seconds and probe seconds are each summed over the input's
    calls before scaling: one probe is a noisy reading of the host's
    speed during a call, the run's probes together are not.
    """
    sums: dict = {}
    for key, seconds, probe_s in zip(out["call_keys"], out["call_seconds"],
                                     out["call_probe_s"]):
        wall, probe = sums.get(key, (0.0, 0.0))
        sums[key] = (wall + seconds, probe + probe_s)
    return {key: reference_seconds(wall, probe)
            for key, (wall, probe) in sums.items()}


def setup_seconds(out: dict) -> list:
    return [reference_seconds(s, p) for s, p in out["setup_samples"]]


def end_to_end(out: dict) -> dict:
    per_key = per_input_seconds(out)
    return {
        "items_per_s": {
            "value": out["items_per_call"] * len(per_key)
            / sum(per_key.values()),
            "unit": "1/s"},
        "setup_s": {"value": statistics.median(setup_seconds(out)),
                    "unit": "s"},
        "peak_rss_mb": {"value": out["peak_rss_mb"], "unit": "MB"},
    }


def per_layer(out: dict) -> dict:
    values = out["per_layer"]
    return {name: {"value": values[name], "unit": unit}
            for name, unit, _better in per_layer_spec()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "repro", "__init__.py")):
        print("perfbench: run from the root of a repro checkout "
              "(src/repro not found)", file=sys.stderr)
        return 2

    launcher = Launcher(root, args)
    try:
        out = launcher.run()
    except WorkerFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(launcher.workdir, ignore_errors=True)

    metrics = per_layer(out) if args.trace else end_to_end(out)
    details = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "item": WORKLOADS[args.workload].unit,
        "calls": len(out["call_seconds"]),
        "call_keys": out["call_keys"],
        "call_seconds": out["call_seconds"],
        "call_probe_s": out["call_probe_s"],
        "reference_seconds": per_input_seconds(out),
        "warmup_seconds": out["warmup_seconds"],
        "setup_samples": out["setup_samples"],
        "error_rate": out["failed"] / out["attempted"],
        "errors": out["errors"],
        "fingerprint": out["fingerprint"],
    }
    for error in out["errors"]:
        print(f"perfbench: {error}", file=sys.stderr)
    print(json.dumps(details))
    print(json.dumps({
        "correct": out["failed"] == 0,
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
