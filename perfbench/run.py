"""jensenlab benchmark.

    python3 perfbench/run.py --workload {search,verify,scalar_paths,all}
                             --seed N --seconds S --trace {0,1}

Run from the root of a checkout.  The workload's configs are generated from
``--seed`` (see ``workloads.py``) into ``.perfbench_work/`` and handed to a
fresh worker process that imports ``jensenlab`` from the checkout's ``src``.
The worker runs the workload in a closed loop with one caller: a warm-up
pass, then timed passes for ``--seconds`` seconds.

With ``--trace 0`` the metrics are the end-to-end ones of ``BENCHMARK.json``:

* ``setup_s``: fresh interpreter to workload ready (``import jensenlab`` and
  parsing the workload's configs), median of ``SETUP_PROBES`` processes;
* ``wall_s``: median time of one pass after warm-up;
* ``peak_rss_mb``: peak resident memory of the worker process.

Both times are scaled to a reference CPU speed with a calibration kernel
timed in the same process (see ``worker.CALIBRATION_REF_S``); the raw times
and the speed factors are printed next to them.

With ``--trace 1`` the worker wraps the package's public functions from the
outside (``tracer.py``) and the metrics are the per-layer ones, plus
``trace.overhead_s``, the traced minus the untraced pass time.

Every output is checked: each experiment's verdict, each search's
evaluation count and worst ratio, each axiom report.  ``fail_ratio``
(operations whose outcome differs from the expected one, over operations
attempted) is printed; known defects count as failures but leave the
result ``correct``.  The sha256 of the canonical JSON of every output is
printed and compared with the digests recorded in ``baseline.json``; a
difference is reported as "changed", not as a failure.

The last stdout line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The exit code is 0 when a
result is printed; it is nonzero, with no result, when the checkout has no
``src/jensenlab`` or a worker does not finish.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from workloads import WORKLOADS, write_inputs

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK_DIR = ROOT / ".perfbench_work"
BASELINE = HERE / "baseline.json"
SETUP_PROBES = 7
DEADLINE_S = 170.0
# The batches are at most (n x 3) @ (3 x 2): BLAS threads only add wake-up noise.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def _child_env() -> dict:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
    env.update({var: "1" for var in THREAD_VARS})
    return env


def _worker(args: list, deadline: float) -> dict:
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before starting a worker")
    cmd = [sys.executable, str(HERE / "worker.py"), *args, "--t0", repr(time.monotonic())]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, env=_child_env(), text=True,
                              timeout=timeout, check=False)
    except subprocess.TimeoutExpired as e:
        raise BenchError(f"worker did not finish within {timeout:.0f} s") from e
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker exited with code {proc.returncode}")
    return json.loads(lines[-1])


def _baseline_digest(workload: str, seed: int):
    try:
        with open(BASELINE, encoding="utf-8") as fh:
            return json.load(fh)["digests"][workload].get(str(seed))
    except (OSError, KeyError, ValueError):
        return None


def run_workload(workload: str, seed: int, seconds: int, trace: int, spec: dict) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    WORK_DIR.mkdir(exist_ok=True)
    inputs = tempfile.mkdtemp(prefix=f"{workload}-{seed}-", dir=WORK_DIR)
    try:
        write_inputs(workload, seed, inputs)
        common = ["--workload", workload, "--inputs", inputs]
        setups = []
        if not trace:
            setups = [_worker(common + ["--setup-only"], deadline)
                      for _ in range(SETUP_PROBES)]
        args = common + ["--seconds", str(seconds), "--trace", str(trace)]
        if trace:
            spans = WORK_DIR / f"spans-{workload}.json"
            names = ",".join(m["name"] for m in spec["per_layer"])
            args += ["--spans", str(spans), "--layer-metrics", names]
        res = _worker(args, deadline)
    finally:
        shutil.rmtree(inputs, ignore_errors=True)

    if trace:
        values = res["per_layer"]
        wanted = spec["per_layer"]
    else:
        values = {"setup_s": statistics.median(p["setup_s"] for p in setups),
                  "wall_s": res["wall_s"],
                  "peak_rss_mb": res["peak_rss_mb"]}
        wanted = spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    _report(workload, seed, trace, res, metrics, setups)
    return {"correct": not res["problems"], "attempted": res["attempted"],
            "failed": res["failed"], "metrics": metrics}


def _report(workload, seed, trace, res, metrics, setups):
    env = res["env"]
    walls = res["walls"]
    print(f"workload {workload} seed {seed} trace {trace}: closed loop, 1 caller, "
          f"{res['ops']} ops per pass, warm-up pass {res['warm_wall_s']:.3f} s")
    print(f"  env: python {env['python']}, numpy {env['numpy']}, blas {env['blas']}, "
          f"nproc {env['nproc']}, blas threads {env['blas_threads']}")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    if setups:
        raw = statistics.median(p["raw_setup_s"] for p in setups)
        print(f"  setup_s: median of {len(setups)} fresh interpreters "
              f"({raw:.4f} s raw)")
    raw = statistics.median(w / s for w, s in zip(walls, res["speeds"]))
    print(f"  wall_s: median of {len(walls)} untraced passes, each at the reference speed "
          f"({raw:.4f} s raw, {res['ops'] / res['wall_s']:.3f} ops/s); "
          f"speed factors {', '.join(f'{s:.3f}' for s in res['speeds'])}")
    print(f"  fail_ratio = {res['failed'] / res['attempted']:.6g} "
          f"({res['failed']} of {res['attempted']} ops)")
    for label, ok, defect in res["outcomes"]:
        status = "as expected" if ok else ("KNOWN DEFECT: " + defect if defect else "FAILED")
        print(f"    {label}: {status}")
    base = _baseline_digest(workload, seed)
    status = "no recorded digest for this seed" if base is None else (
        "unchanged" if base == res["digest"] else "changed")
    print(f"  digest {res['digest']} ({status} vs baseline.json)")
    if trace:
        wrapped = res["wrapped"]
        print(f"  tracer: {wrapped['functions']} functions behind {wrapped['bindings']} "
              f"bindings; traced passes {res['traced_walls']}")
        for name, calls in res["bypassed"].items():
            print(f"  bypassed {name}.calls = {calls}")
    for problem in res["problems"]:
        print(f"  PROBLEM: {problem}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="jensenlab benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "jensenlab" / "__init__.py").is_file():
        print(f"perfbench: no jensenlab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        results = [run_workload(w, args.seed, args.seconds, args.trace, spec) for w in names]
    except BenchError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1
    for result in results:
        print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
