"""Collect benchmark runs and compare them against BENCHMARK.json bounds.

::

    # ten untraced runs of one workload, seeds 1..10, appended to a file
    python3 perfbench/compare.py collect --workload serve --seeds 1-10 \\
        --out base.jsonl
    # run-to-run spread of every end-to-end metric (IQR / median)
    python3 perfbench/compare.py spread base.jsonl
    # regressions of new.jsonl against base.jsonl, per workload
    python3 perfbench/compare.py gate base.jsonl new.jsonl

A result file holds one JSON object per run: ``{"details", "result"}``,
the last two stdout lines of ``run.py``.  Runs whose host fingerprints
differ are never compared.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from collections import defaultdict
from typing import Dict, Iterable, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def run_once(workload: str, seed: int, seconds: float, trace: int = 0,
             env: Optional[dict] = None) -> dict:
    """One ``run.py`` invocation from the repository root."""
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, env=env,
        timeout=600,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}")
    return {"details": json.loads(lines[-2]), "result": json.loads(lines[-1])}


def load(path: str) -> List[dict]:
    with open(path) as handle:
        return [json.loads(line) for line in handle if line.strip()]


def by_workload(runs: Iterable[dict]) -> Dict[str, List[dict]]:
    out: Dict[str, List[dict]] = defaultdict(list)
    for run in runs:
        out[run["details"]["workload"]].append(run)
    return out


def values(runs: List[dict], metric: str) -> List[float]:
    return [r["result"]["metrics"][metric]["value"] for r in runs]


def relative_spread(samples: List[float]) -> float:
    """Distance between the first and third quartile, over the median."""
    q1, _q2, q3 = statistics.quantiles(samples, n=4)
    return (q3 - q1) / statistics.median(samples)


def worsening(base: List[float], new: List[float], better: str) -> float:
    """How much worse the new median is, as a share of the base median."""
    b, n = statistics.median(base), statistics.median(new)
    return (n - b) / b if better == "lower" else (b - n) / b


def check_fingerprints(runs: Iterable[dict]) -> None:
    prints = {json.dumps(r["details"]["fingerprint"], sort_keys=True)
              for r in runs}
    if len(prints) > 1:
        raise SystemExit(
            "results come from different hosts; not comparable:\n  "
            + "\n  ".join(sorted(prints))
        )


def gate(base_runs: List[dict], new_runs: List[dict]) -> Dict[str, List[str]]:
    """Per workload, the end-to-end metrics worse than their bound."""
    check_fingerprints(base_runs + new_runs)
    metrics = spec()["end_to_end"]
    base, new = by_workload(base_runs), by_workload(new_runs)
    flagged: Dict[str, List[str]] = {}
    for workload in sorted(set(base) & set(new)):
        flagged[workload] = [
            m["name"] for m in metrics
            if worsening(values(base[workload], m["name"]),
                         values(new[workload], m["name"]),
                         m["better"]) > m["bound"]
        ]
    return flagged


def parse_seeds(text: str) -> List[int]:
    if "-" in text:
        low, high = text.split("-")
        return list(range(int(low), int(high) + 1))
    return [int(s) for s in text.split(",")]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawTextHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)
    collect = sub.add_parser("collect")
    collect.add_argument("--workload", action="append", required=True)
    collect.add_argument("--seeds", type=parse_seeds, default=[1])
    collect.add_argument("--seconds", type=float,
                         default=spec()["run_seconds"])
    collect.add_argument("--out", required=True)
    show = sub.add_parser("spread")
    show.add_argument("results")
    compare = sub.add_parser("gate")
    compare.add_argument("base")
    compare.add_argument("new")
    args = parser.parse_args(argv)

    if args.command == "collect":
        with open(args.out, "a") as handle:
            for seed in args.seeds:
                for workload in args.workload:
                    run = run_once(workload, seed, args.seconds)
                    handle.write(json.dumps(run) + "\n")
                    handle.flush()
        return 0
    if args.command == "spread":
        runs = load(args.results)
        check_fingerprints(runs)
        bounds = {m["name"]: m["bound"] for m in spec()["end_to_end"]}
        for workload, group in sorted(by_workload(runs).items()):
            for name, bound in bounds.items():
                samples = values(group, name)
                if len(samples) < 2:
                    continue
                s = relative_spread(samples)
                print(f"{workload:16s} {name:12s} n={len(samples):2d} "
                      f"median={statistics.median(samples):10.4f} "
                      f"spread={s:6.3f} bound={bound:.2f} "
                      f"{'ok' if s < bound / 3 else 'WIDE'}")
        return 0
    flagged = gate(load(args.base), load(args.new))
    for workload, names in flagged.items():
        print(f"{workload:16s} {'REGRESSED: ' + ', '.join(names) if names else 'within bounds'}")
    return 1 if any(flagged.values()) else 0


if __name__ == "__main__":
    sys.exit(main())
