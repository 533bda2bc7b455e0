"""One benchmark process: set up a workload, then time calls into it.

Started by ``run.py``, which points ``PYTHONPATH`` at the checkout's
``src``.  BLAS/OpenMP are pinned to one thread here, before numpy is
imported.  The last stdout line is one JSON object.

Modes:

* ``setup`` -- set up only and report ``setup_s`` (repeated by
  ``run.py`` so the reported set-up time is a median);
* ``measure`` -- set up, make the workload's untimed warm-up calls,
  then time calls until ``--seconds`` have passed, at least the
  workload's minimum number of calls ran and the last pass is whole,
  checking every output; with ``--trace 1`` every timed call runs under
  the span tracer.
* ``expected`` -- write the default seed's outputs to ``expected/``.

``PERFBENCH_INJECT_REPEAT=module:function:n`` makes that function run
``n`` times per call; the gate self-test uses it to inject a known
slowdown from the benchmark side.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
             "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402

import repro  # noqa: E402,F401  (counted in setup_s)

from hostspeed import host_probe  # noqa: E402
from tracing import CallCounter, Patches, Tracer, resolve  # noqa: E402
from workloads import (  # noqa: E402
    DEFAULT_SEED, EXPECTED_DIR, WORKLOADS, canonical, load_expected,
)


def inject_repeat(spec: str, patches: Patches) -> None:
    module, attribute, times = spec.rsplit(":", 2)
    owner, name = resolve(module, attribute)

    def make(fn):
        def repeated(*args, **kwargs):
            for _ in range(int(times) - 1):
                fn(*args, **kwargs)
            return fn(*args, **kwargs)
        return repeated

    patches.replace(owner, name, make)


def fingerprint(workdir: str) -> dict:
    """The host facts a result is only comparable under."""
    import platform

    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "tmp_fs": filesystem_type(workdir),
    }


#: statfs(2) magic numbers of the filesystems a temp directory is
#: likely to live on.
_FS_MAGIC = {
    0xEF53: "ext4", 0x01021994: "tmpfs", 0x794C7630: "overlayfs",
    0x58465342: "xfs", 0x9123683E: "btrfs", 0x6969: "nfs",
    0x65735546: "fuse", 0x2FC12FC1: "zfs", 0x858458F6: "ramfs",
}


def filesystem_type(path: str) -> str:
    import ctypes

    buffer = ctypes.create_string_buffer(256)
    libc = ctypes.CDLL(None, use_errno=True)
    if libc.statfs(os.fsencode(path), buffer) != 0:
        return "unknown"
    magic = ctypes.c_long.from_buffer(buffer).value & 0xFFFFFFFF
    return _FS_MAGIC.get(magic, hex(magic))


def measure(workload, seconds: float, tracer, t0: float) -> dict:
    guard = CallCounter(*workload.guard) if workload.guard else None
    workload.setup()
    args = workload.args(0)
    setup_s = time.time() - t0
    setup_probe = host_probe()
    workload.prepare()
    if tracer is not None:
        tracer.install()
    expected = (
        load_expected(workload.name) if workload.seed == DEFAULT_SEED
        else None
    )
    first_output = {}
    call_seconds, call_probes, call_keys = [], [], []
    warmup_seconds, errors = [], []
    attempted = failed = 0
    start = time.perf_counter()
    i = 0
    while True:
        if i:
            args = workload.args(i)
        items = workload.items
        key = workload.key(i)
        timed = i >= workload.warmup
        guard_before = guard.calls if guard else 0
        problems = []
        # Flush dirty pages and collect garbage first, so neither the
        # writeback nor the garbage of one call lands in the next call's
        # time.
        os.sync()
        gc.collect()
        before = host_probe() if timed else 0.0
        began = time.perf_counter()
        error = None
        try:
            if tracer is not None and timed:
                result = tracer.call(workload.call, *args)
            else:
                result = workload.call(*args)
        except Exception:
            error = traceback.format_exc(limit=3)
        elapsed = time.perf_counter() - began
        after = host_probe() if timed else 0.0
        if error is not None:
            problems.append(error)
        else:
            doc = workload.output(result, i)
            problems.extend(workload.invariants(result, args, doc))
            if guard and guard.calls == guard_before:
                problems.append(
                    f"{'.'.join(workload.guard)} never ran: a cached "
                    f"result would pass as a speed-up"
                )
            if expected is not None and doc != expected.get(key):
                problems.append(f"{key}: output differs from expected/")
            if first_output.setdefault(key, doc) != doc:
                problems.append(f"{key}: repeated call gave another output")
        if timed:
            call_seconds.append(elapsed)
            call_probes.append((before + after) / 2)
            call_keys.append(key)
        else:
            warmup_seconds.append(elapsed)
        attempted += items
        if problems:
            failed += items
            errors.extend(f"call {i} ({key}): {p}" for p in problems)
        del args
        i += 1
        if not timed:
            # The window opens after the warm-up.
            start = time.perf_counter()
            continue
        n = len(call_seconds)
        if (n >= workload.min_calls and n % workload.pass_calls == 0
                and time.perf_counter() - start >= seconds):
            break
    if tracer is not None:
        tracer.uninstall()
    if guard:
        guard.restore()
    return {
        "setup_s": setup_s,
        "setup_probe_s": setup_probe,
        "call_seconds": call_seconds,
        "call_probe_s": call_probes,
        "call_keys": call_keys,
        "warmup_seconds": warmup_seconds,
        "items_per_call": workload.items,
        "attempted": attempted,
        "failed": failed,
        "errors": errors,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
    }


def write_expected(workload) -> dict:
    workload.setup()
    workload.prepare()
    docs = {}
    for i in range(workload.warmup + workload.min_calls):
        key = workload.key(i)
        if key not in docs:
            docs[key] = workload.output(workload.call(*workload.args(i)), i)
    path = os.path.join(EXPECTED_DIR, f"{workload.name}.json")
    with open(path, "w") as handle:
        handle.write(json.dumps(json.loads(canonical(docs)), indent=1,
                                sort_keys=True) + "\n")
    return {"written": path}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("mode",
                        choices=("setup", "measure", "expected"))
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trace-out", default=None)
    parser.add_argument("--t0", type=float, default=None,
                        help="wall time (time.time) the launcher started "
                             "this process at")
    args = parser.parse_args(argv)
    t0 = args.t0 if args.t0 is not None else time.time()

    workload = WORKLOADS[args.workload](args.seed, args.workdir)
    patches = Patches()
    inject = os.environ.get("PERFBENCH_INJECT_REPEAT")
    if inject:
        inject_repeat(inject, patches)

    if args.mode == "setup":
        workload.setup()
        workload.args(0)
        out = {"setup_s": time.time() - t0, "setup_probe_s": host_probe()}
    elif args.mode == "expected":
        out = write_expected(workload)
    else:
        tracer = Tracer() if args.trace else None
        out = measure(workload, args.seconds, tracer, t0)
        out["fingerprint"] = fingerprint(args.workdir)
        if tracer is not None:
            out["per_layer"] = tracer.metrics()
            if args.trace_out:
                tracer.write(args.trace_out)
    patches.restore()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
