"""Run the benchmark on several seeds and report the spread of each metric.

    python3 perfbench/steadiness.py --workloads search,verify,scalar_paths \
        --seeds 1-10 --seconds 20 [--record LABEL]

For every workload and end-to-end metric it prints the ten values, their
median and the quartile spread (q3 - q1) / median from
``statistics.quantiles(values, n=4)``, next to the metric's bound in
``BENCHMARK.json``.  A spread above a third of the bound is flagged
("wide"), one above the bound "OVER"; ``setup_s`` is shown but not held to
its bound, since only its median is compared between runs.

``--record LABEL`` writes ``baseline.json``: the output digests per workload
and seed, and the medians and quartiles of this set of runs, under LABEL
(the commit they were measured on).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _seeds(text: str) -> list:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def _run(workload: str, seed: int, seconds: int):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True, timeout=600,
    )
    lines = proc.stdout.strip().splitlines()
    digest = next(line.split()[1] for line in lines if line.startswith("  digest "))
    return json.loads(lines[-1]), digest


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workloads", default="search,verify,scalar_paths")
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=int, default=None, help="default: run_seconds")
    ap.add_argument("--record", metavar="LABEL", default=None)
    args = ap.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    digests, summary, ok = {}, {}, True
    for workload in args.workloads.split(","):
        values = {name: [] for name in bounds}
        digests[workload] = {}
        for seed in _seeds(args.seeds):
            result, digest = _run(workload, seed, seconds)
            digests[workload][str(seed)] = digest
            ok &= result["correct"]
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']} "
                  + " ".join(f"{n}={v[-1]:.4f}" for n, v in values.items()), flush=True)
        summary[workload] = {}
        for name, vals in values.items():
            q1, _, q3 = statistics.quantiles(vals, n=4)
            med = statistics.median(vals)
            spread = (q3 - q1) / med
            flag = "ok"
            if spread > bounds[name]:
                flag = "OVER"
            elif spread > bounds[name] / 3:
                flag = "wide"
            if name == "setup_s":
                flag += " (spread not gated)"
            elif flag != "ok":
                ok = False
            summary[workload][name] = {"median": med, "q1": q1, "q3": q3, "runs": len(vals)}
            print(f"  {workload} {name}: median {med:.5g} spread {spread:.4f} "
                  f"bound {bounds[name]} -> {flag}", flush=True)
    if args.record:
        out = {"label": args.record, "seconds": seconds, "digests": digests, "metrics": summary}
        (HERE / "baseline.json").write_text(json.dumps(out, indent=1, sort_keys=True) + "\n",
                                            encoding="utf-8")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
