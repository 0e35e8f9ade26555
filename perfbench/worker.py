"""One benchmark process: load a workload's inputs, run its passes, report.

Started by ``run.py`` as a fresh interpreter with ``PYTHONPATH`` set to the
checkout's ``src``.  It prints one JSON object on its last stdout line.

A pass runs every operation of the plan once, in order, in a closed loop
with a single caller: the next config goes in only after the previous call
has returned.  An operation is one experiment (verify: ``load_config``,
``run_experiment``, ``emit_report``), one ``adversarial_search`` call or
one ``check_ratz_axioms`` call.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MIN_PASSES = 3
# The CPU speed of a shared host drifts by tens of percent within seconds,
# for every process alike.  Times are therefore reported at a reference
# speed: a pass's raw seconds x CALIBRATION_REF_S / (median time of the
# calibration kernel in the samples taken just before and just after that
# pass, in the same process).  CALIBRATION_REF_S is the kernel's time on an
# idle 2-core x86-64 machine.
CALIBRATION_REF_S = 0.04
CALIBRATION_SAMPLES = 2

# Functions each workload must reach.  A zero count means the tracer missed a
# binding (or the workload no longer exercises what it was built for).
COMMON_CALLS = (
    "experiments.run_experiment",
    "experiments.build_models",
    "experiments.config_to_dict",
    "experiments.measure_epsilon",
    "models.FunctionModel.eval_many",
    "models.perturbation_values",
    "spaces.norm_many",
    "sampling.sample_points",
    "sampling.orthogonal_pairs",
    "series.power_limit_many",
    "control.control_phi_norms",
    "orthogonal.pexider_reduction_check",
)
MUST_RUN = {
    "search": COMMON_CALLS + (
        "experiments.adversarial_search",
        "models.derive_seed",
        "domains.five_term_defect_many",
    ),
    "verify": COMMON_CALLS + (
        "experiments.load_config",
        "experiments.emit_report",
        "domains.five_term_defect_many",
        "domains.asymptotic_profile",
        "orthogonal.sikorska_extend",
    ),
    "scalar_paths": COMMON_CALLS + (
        "spaces.check_ratz_axioms",
        "spaces.is_orthogonal",
        "spaces.bj_margin_many",
        "control.RadialControlTable.eval_many",
    ),
}
# Paths a workload is built to bypass; their counts are reported, not gated.
BYPASSED = {
    "search": ("spaces.bj_margin_many", "control.RadialControlTable.eval_many",
               "experiments.emit_report"),
    "verify": ("spaces.bj_margin_many", "control.RadialControlTable.eval_many"),
    "scalar_paths": ("domains.five_term_defect_many", "orthogonal.sikorska_extend"),
}


def _import_jensenlab():
    import jensenlab

    src = (ROOT / "src").resolve()
    if src not in Path(jensenlab.__file__).resolve().parents:
        raise SystemExit(f"jensenlab imported from {jensenlab.__file__}, not from {src}")
    return jensenlab


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _canonical(obj) -> str:
    import numpy as np

    def default(o):
        if isinstance(o, (np.floating, np.integer, np.bool_)):
            return o.item()
        if isinstance(o, np.ndarray):
            return o.tolist()
        raise TypeError(f"not JSON serializable: {type(o)}")

    return json.dumps(obj, indent=2, sort_keys=True, default=default) + "\n"


def calibrate() -> float:
    """Seconds for a fixed mix of interpreter, small-array numpy and JSON work.

    It touches no jensenlab code, so a change to the package cannot move it.
    """
    import numpy as np

    grid = np.linspace(0.0, 1.0, 64)
    rows = np.random.default_rng(0).standard_normal((4000, 3))
    start = time.perf_counter()
    acc = 0
    for i in range(100_000):
        acc += i * i
    for i in range(300):
        v = np.interp(grid * (i % 7), grid, grid)
        acc += float(np.max(np.abs(rows[:64] @ np.ones(3))) + v[3])
    for _ in range(20):
        acc += float(np.max(np.sqrt(np.sum(rows * rows, axis=1))))
    # 6 MB temporaries, like those of the batched margin and limit kernels
    lams = np.linspace(-1.0, 1.0, 1024)[None, :, None]
    X = rows[:256, None, :]
    acc += float(np.max(np.abs(X + lams * X)))
    json.dumps([{"k": i, "x": r.tolist()} for i, r in enumerate(rows[:1500])], sort_keys=True)
    return time.perf_counter() - start


def _calibrations(n=CALIBRATION_SAMPLES) -> list:
    return [calibrate() for _ in range(n)]


class Op:
    """One operation: ``run()`` returns (canonical output, outcome as expected)."""

    def __init__(self, label, run, known_defect=None):
        self.label = label
        self.run = run
        self.known_defect = known_defect


def prepare(jl, workload: str, inputs: str) -> list:
    """Parse the workload's configs and build its operations."""
    with open(os.path.join(inputs, "plan.json"), encoding="utf-8") as fh:
        plan = json.load(fh)["ops"]
    shared = os.path.join(inputs, "configs.json")
    configs = jl.load_config(shared) if os.path.exists(shared) else None
    ops = []
    for spec in plan:
        kind = spec["op"]
        if kind == "verify":
            path = os.path.join(inputs, spec["config"])
            jl.load_config(path)  # parse once during set-up, like the other workloads

            def run(path=path, expect=spec["expect_pass"]):
                reports = [jl.run_experiment(c) for c in jl.load_config(path)]
                text = "".join(jl.emit_report(r, fmt="json") for r in reports)
                return text, all(r.passed == expect for r in reports)

            label = spec["config"]
        elif kind == "experiment":
            cfg = configs[spec["experiment"]]

            def run(cfg=cfg, expect=spec["expect_pass"]):
                report = jl.run_experiment(cfg)
                return jl.emit_report(report, fmt="json"), report.passed == expect

            label = f"experiment {cfg.theorem_id} {cfg.space.norm_kind}"
        elif kind == "search":
            cfg = configs[spec["experiment"]]
            settings = jl.SearchSettings(iterations=spec["iterations"], restarts=spec["restarts"])
            tol = jl.experiments.REPORT_TOL

            def run(cfg=cfg, settings=settings, plan_evals=spec["evaluations"], tol=tol):
                out = jl.adversarial_search(cfg, settings)
                ok = out["evaluations"] == plan_evals and out["worst_ratio"] <= 1.0 + tol
                return _canonical(out), ok

            label = f"search {cfg.theorem_id}"
        elif kind == "axioms":
            space = jl.NormedSpaceSpec.from_dict(spec["space"])
            rel = jl.OrthogonalityRelation(kind=spec["relation"])

            def run(rel=rel, space=space, trials=spec["trials"], seed=spec["seed"]):
                report = jl.check_ratz_axioms(rel, space, trials=trials, seed=seed)
                return _canonical(report.to_dict()), report.all_passed

            label = f"axioms {rel.kind} {space.norm_kind}"
        else:
            raise ValueError(f"unknown op kind {kind!r}")
        ops.append(Op(label, run, spec.get("known_defect")))
    return ops


def run_pass(ops, tracer=None):
    """Run every op once; returns (wall seconds, [(label, ok, digest)])."""
    gc.collect()
    results = []
    start = time.perf_counter()
    for k, op in enumerate(ops):
        if tracer is not None:
            tracer.op_id = k
        try:
            text, ok = op.run()
            digest = _sha(text)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            ok, digest = False, None
        results.append((op.label, ok, digest))
    return time.perf_counter() - start, results


def _timed_passes(ops, seconds, min_passes, tracer=None, on_pass=None):
    """Passes until ``seconds`` would be exceeded.

    Returns each pass's wall time at the reference speed, its speed factor
    (from the calibration samples taken just before and just after it) and
    its results.
    """
    walls, speeds, passes = [], [], []
    begin = time.perf_counter()
    before = _calibrations()
    wall = 0.0
    while len(walls) < min_passes or time.perf_counter() - begin + wall <= seconds:
        if tracer is not None:
            tracer.reset()
        wall, results = run_pass(ops, tracer)
        after = _calibrations()
        speeds.append(CALIBRATION_REF_S / statistics.median(before + after))
        walls.append(wall * speeds[-1])
        passes.append(results)
        before = after
        if on_pass is not None:
            on_pass()
    return walls, speeds, passes


def _environment():
    import numpy as np

    blas = "unknown"
    try:
        info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{info.get('name')} {info.get('version')}"
    except (TypeError, KeyError):
        pass
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": blas,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--inputs", required=True)
    ap.add_argument("--t0", type=float, required=True,
                    help="time.monotonic() when the parent started this process")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spans", default=None, help="where a traced run writes its spans")
    ap.add_argument("--layer-metrics", default="", help="comma-separated per-layer metrics")
    args = ap.parse_args(argv)

    jl = _import_jensenlab()
    ops = prepare(jl, args.workload, args.inputs)
    setup_s = time.monotonic() - args.t0
    if args.setup_only:
        calibrate()  # first call pays numpy's lazy set-up
        speed = CALIBRATION_REF_S / statistics.median(_calibrations())
        print(json.dumps({"setup_s": setup_s * speed, "raw_setup_s": setup_s, "speed": speed}))
        return 0

    warm_wall, warm = run_pass(ops)
    reference = [d for _, _, d in warm]
    out = {"warm_wall_s": warm_wall, "ops": len(ops), "env": _environment(), "problems": []}
    all_passes = [warm]

    if args.trace == 0:
        walls, speeds, passes = _timed_passes(ops, args.seconds, MIN_PASSES)
        all_passes += passes
    else:
        from tracer import Tracer, aggregate, binding_snapshot, median_metrics

        walls, speeds, passes = _timed_passes(ops, args.seconds / 2, 2)
        all_passes += passes
        tracer = Tracer(jl)
        before = binding_snapshot(jl)
        functions, bindings = tracer.install()
        aggs = []
        try:
            traced, traced_speeds, passes = _timed_passes(
                ops, args.seconds / 2, 1, tracer, on_pass=lambda: aggs.append(aggregate(tracer)))
        finally:
            tracer.uninstall()
        if binding_snapshot(jl) != before:
            out["problems"].append("tracer left a patched binding behind")
        if any([d for _, _, d in p] != reference for p in passes):
            out["problems"].append("traced outputs differ from untraced outputs")
        all_passes += passes
        metrics = [m for m in args.layer_metrics.split(",") if m and m != "trace.overhead_s"]
        layer = median_metrics(aggs, metrics)
        speed = statistics.median(traced_speeds)
        for name in layer:
            if name.endswith("self_s"):
                layer[name] *= speed
        layer["trace.overhead_s"] = statistics.median(traced) - statistics.median(walls)
        out.update(traced_walls=traced, per_layer=layer,
                   wrapped={"functions": functions, "bindings": bindings})
        calls = aggs[-1]["calls"]
        missing = [f for f in MUST_RUN[args.workload] if not calls.get(f)]
        if missing:
            out["problems"].append(f"predicted calls missing from the trace: {missing}")
        out["bypassed"] = {f: calls.get(f, 0) for f in BYPASSED[args.workload]}
        if args.spans:
            tracer.write_spans(args.spans)

    failed = 0
    for results in all_passes:
        for (label, ok, digest), op in zip(results, ops):
            if not ok:
                failed += 1
            if digest is None:
                out["problems"].append(f"{label} raised")
            elif not ok and op.known_defect is None:
                out["problems"].append(f"{label}: unexpected outcome")
    if any([d for _, _, d in p] != reference for p in all_passes):
        out["problems"].append("outputs differ between passes")
    out["outcomes"] = [(label, ok, op.known_defect) for (label, ok, _), op in zip(warm, ops)]
    out["digest"] = _sha("\n".join(str(d) for d in reference))
    out["attempted"] = len(ops) * len(all_passes)
    out["failed"] = failed
    out["walls"] = walls
    out["speeds"] = speeds
    out["wall_s"] = statistics.median(walls)
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    out["problems"] = sorted(set(out["problems"]))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
