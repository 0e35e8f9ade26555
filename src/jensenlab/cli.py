"""Command line front end.

Subcommands:

  verify    run the experiments in a config file and emit reports
  axioms    check the orthogonality axioms for a relation on R^n
  search    adversarial hill-climb for bound violations

verify --format csv writes a cor3_2 report as its shell-by-shell profile.

Exit status: 0 when every requested check passes, 1 when a check fails,
2 for configuration or usage errors.  verify names the failed checks of
each failing report on stderr.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from .experiments import (
    ConfigError,
    SearchSettings,
    adversarial_search,
    emit_report,
    emit_reports,
    load_config,
    run_experiment,
    REPORT_TOL,
)
from .spaces import (
    BIRKHOFF_JAMES,
    EUCLIDEAN,
    INNER_PRODUCT,
    P_NORM,
    SUP,
    TRIVIAL,
    NormedSpaceSpec,
    OrthogonalityRelation,
    check_ratz_axioms,
)

_RELATIONS = {"trivial": TRIVIAL, "inner": INNER_PRODUCT, "bj": BIRKHOFF_JAMES}
_NORMS = (EUCLIDEAN, SUP, P_NORM)


def _write(text: str, out: str | None):
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


def _positive_int(text: str) -> int:
    if not (text.isdecimal() and int(text) >= 1):
        raise argparse.ArgumentTypeError(f"expected an integer >= 1, got {text!r}")
    return int(text)


def _select(configs, theorem: str | None):
    if theorem is None:
        return configs
    chosen = [c for c in configs if c.theorem_id == theorem]
    if not chosen:
        raise ConfigError(f"no experiment with theorem_id {theorem!r} in config")
    return chosen


def _cmd_verify(args) -> int:
    if args.format == "csv" and args.timing:
        raise ConfigError("--timing needs --format json; csv output has no runtime block")
    configs = _select(load_config(args.config), args.theorem)
    if args.format == "csv" and len(configs) != 1:
        raise ConfigError("csv output needs exactly one experiment; filter with --theorem")
    reports = [run_experiment(c) for c in configs]
    if args.format == "csv":
        _write(emit_report(reports[0], "csv"), args.out)
    elif len(reports) == 1:
        _write(emit_report(reports[0], "json", args.timing), args.out)
    else:
        _write(emit_reports(reports, args.timing), args.out)
    for r in reports:
        status = "pass" if r.passed else "FAIL"
        failed = f"; failed: {', '.join(r.failed_checks)}" if r.failed_checks else ""
        print(
            f"{r.theorem_id}: {status} (max_ratio {r.max_ratio:.6g}, "
            f"eps_eff {r.epsilon_effective:.6g}{failed})",
            file=sys.stderr,
        )
    return 0 if all(r.passed for r in reports) else 1


def _cmd_axioms(args) -> int:
    if args.dim < 2:
        raise ConfigError(f"--dim must be >= 2 (O2-O4 are vacuous on a line), got {args.dim}")
    if (size := args.trials * args.dim) > 2**28:  # the config's ceiling, before any array
        raise ConfigError(f"{'--dim' if args.dim >= args.trials else '--trials'} is too large:"
                          f" --trials × --dim is {size} floats, past the ceiling of 2**28")
    if args.norm == P_NORM and args.p is None:
        raise ConfigError("--norm p_norm needs --p")
    if args.norm != P_NORM and args.p is not None:
        raise ConfigError(f"--p only applies to --norm p_norm, not --norm {args.norm}")
    if args.p is not None and not (1.0 <= args.p < math.inf):
        raise ConfigError(f"--p must be a finite number >= 1, got {args.p}")
    if args.relation == "inner" and args.norm != EUCLIDEAN:
        raise ConfigError(f"--relation inner needs --norm {EUCLIDEAN}, not --norm {args.norm}")
    space = NormedSpaceSpec(dim=args.dim, norm_kind=args.norm, p=args.p)
    rel = OrthogonalityRelation(kind=_RELATIONS[args.relation])
    report = check_ratz_axioms(rel, space, trials=args.trials, seed=args.seed)
    _write(json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n", args.out)
    for name, res in sorted(report.results.items()):
        print(f"{name}: {'pass' if res.passed else 'FAIL'}", file=sys.stderr)
    return 0 if report.all_passed else 1


def _cmd_search(args) -> int:
    if args.restarts > args.iters:
        raise ConfigError(f"--restarts ({args.restarts}) must not exceed --iters ({args.iters})")
    configs = _select(load_config(args.config), args.theorem)
    if len(configs) != 1:
        raise ConfigError("search needs exactly one experiment; filter with --theorem")
    settings = SearchSettings(iterations=args.iters, restarts=args.restarts)
    result = adversarial_search(configs[0], settings)
    _write(json.dumps(result, indent=2, sort_keys=True) + "\n", args.out)
    ok = result["worst_ratio"] <= 1.0 + REPORT_TOL
    print(
        f"{result['theorem_id']}: worst ratio {result['worst_ratio']:.6g} "
        f"after {result['evaluations']} evaluations",
        file=sys.stderr,
    )
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="jensenlab", description=__doc__.split("\n")[0])
    sub = ap.add_subparsers(dest="command", required=True)

    v = sub.add_parser("verify", help="run experiments from a config file")
    v.add_argument("--config", required=True, help="JSON config path")
    v.add_argument("--theorem", default=None, help="only run this theorem_id")
    v.add_argument("--format", choices=("json", "csv"), default="json")
    v.add_argument("--out", default=None, help="output path (default stdout)")
    v.add_argument("--timing", action="store_true", help="include wall-clock runtime")
    v.set_defaults(fn=_cmd_verify)

    a = sub.add_parser("axioms", help="check orthogonality axioms")
    a.add_argument("--relation", choices=sorted(_RELATIONS), required=True)
    a.add_argument("--dim", type=_positive_int, default=3)
    a.add_argument("--trials", type=_positive_int, default=200)
    a.add_argument("--seed", type=int, default=0)
    a.add_argument("--norm", choices=_NORMS, default=EUCLIDEAN)
    a.add_argument("--p", type=float, default=None)
    a.add_argument("--out", default=None)
    a.set_defaults(fn=_cmd_axioms)

    s = sub.add_parser("search", help="adversarial search for bound violations")
    s.add_argument("--config", required=True)
    s.add_argument("--theorem", default=None)
    s.add_argument("--iters", type=_positive_int, default=200)
    s.add_argument("--restarts", type=_positive_int, default=1)
    s.add_argument("--out", default=None)
    s.set_defaults(fn=_cmd_search)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0
    try:
        return args.fn(args)
    except (ConfigError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
