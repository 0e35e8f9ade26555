import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from jensenlab.cli import main
from jensenlab.experiments import emit_report, emit_reports, load_config, run_experiment

sys.path.insert(0, str(Path(__file__).resolve().parent))
from test_golden import CONFIGS as GOLDEN, VERDICTS  # noqa: E402

SRC = Path(__file__).resolve().parents[1] / "src"


def _space(dim):
    return {"dim": dim, "norm_kind": "euclidean"}


def _cor2_2_experiment(seed=11):
    return {
        "theorem_id": "cor2_2",
        "space": _space(3),
        "codomain": _space(2),
        "params": {"r": 2, "s": 1, "t": 1},
        "control": {"kind": "mixed", "epsilon": 0.3, "delta": 0.2, "p": 0.5},
        "domain": {"kind": "full"},
        "sampler": {"count": 120, "seed": seed, "radius_range": [0.05, 6.0]},
        "perturbation": [
            {"kind": "bounded", "amplitude": 0.07, "seed": 5},
            {"kind": "power", "delta": 0.04, "p": 0.5, "seed": 6},
        ],
    }


def _cor3_2_experiment(expected_decay, noisy):
    exp = {
        "theorem_id": "cor3_2",
        "space": _space(3),
        "codomain": _space(2),
        "params": {"r": 2, "s": 1, "t": 1},
        "control": {"kind": "constant", "epsilon": 0.1},
        "domain": {"kind": "full"},
        "sampler": {"count": 60, "seed": 4, "radius_range": [0.5, 8.0]},
        "shells": {"edges": [0.5, 1.0, 2.0, 4.0, 8.0, 16.0], "samples_per_shell": 100},
        "expected_decay": expected_decay,
    }
    if noisy:
        exp["perturbation"] = [{"kind": "bounded", "amplitude": 0.05, "seed": 3}]
    return exp


def _write_config(path, *experiments):
    path.write_text(
        json.dumps({"schema_version": 1, "experiments": list(experiments)}) + "\n",
        encoding="utf-8",
    )
    return str(path)


def test_verify_json_to_file(tmp_path):
    cfg = _write_config(tmp_path / "c.json", _cor2_2_experiment())
    out = tmp_path / "report.json"
    assert main(["verify", "--config", cfg, "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["theorem_id"] == "cor2_2"
    assert doc["pass"] is True
    assert "runtime" not in doc


def test_verify_stdout_and_timing(tmp_path, capsys):
    cfg = _write_config(tmp_path / "c.json", _cor2_2_experiment())
    assert main(["verify", "--config", cfg, "--timing"]) == 0
    captured = capsys.readouterr()
    doc = json.loads(captured.out)
    assert "runtime" in doc
    assert "cor2_2: pass" in captured.err and "failed" not in captured.err


def test_verify_multi_experiment_payload(tmp_path):
    cfg = _write_config(
        tmp_path / "c.json",
        _cor2_2_experiment(seed=11),
        _cor3_2_experiment(expected_decay=False, noisy=True),
    )
    out = tmp_path / "reports.json"
    assert main(["verify", "--config", cfg, "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    ids = [r["theorem_id"] for r in doc["reports"]]
    assert ids == ["cor2_2", "cor3_2"]


def test_verify_multi_experiment_bytes(tmp_path):
    # one payload holding each report as emit_report writes it alone
    cfg = _write_config(
        tmp_path / "c.json", _cor2_2_experiment(seed=11), _cor2_2_experiment(seed=12)
    )
    out = tmp_path / "reports.json"
    assert main(["verify", "--config", cfg, "--out", str(out)]) == 0
    reports = [run_experiment(c) for c in load_config(cfg)]
    assert out.read_text() == emit_reports(reports)
    doc = json.loads(out.read_text())
    assert doc == {"schema_version": 2, "reports": [json.loads(emit_report(r)) for r in reports]}


def test_verify_theorem_filter_and_csv(tmp_path):
    cfg = _write_config(
        tmp_path / "c.json",
        _cor2_2_experiment(seed=11),
        _cor3_2_experiment(expected_decay=False, noisy=True),
    )
    out = tmp_path / "rows.csv"
    rc = main(
        ["verify", "--config", cfg, "--theorem", "cor2_2", "--format", "csv",
         "--out", str(out)]
    )
    assert rc == 0
    lines = out.read_text().strip().split("\n")
    assert len(lines) == 120 + 1
    # csv over several experiments has no single table to emit
    assert main(["verify", "--config", cfg, "--format", "csv"]) == 2


def test_verify_csv_refuses_timing(tmp_path, capsys):
    # CSV has no place for the runtime block, so --timing is refused, not dropped
    cfg = _write_config(tmp_path / "c.json", _cor2_2_experiment())
    assert main(["verify", "--config", cfg, "--format", "csv", "--timing"]) == 2
    captured = capsys.readouterr()
    assert "--timing" in captured.err and captured.out == ""


def test_verify_reports_violation(tmp_path, capsys):
    cfg = _write_config(
        tmp_path / "c.json", _cor3_2_experiment(expected_decay=True, noisy=True)
    )
    assert main(["verify", "--config", cfg, "--out", str(tmp_path / "r.json")]) == 1
    err = capsys.readouterr().err
    assert "cor3_2: FAIL" in err and "; failed: decay_verdict)" in err


# The failing golden configs and the checks each one fails, as their verdicts record them.
FAILED_CHECKS = {name: ", ".join(failed) for name, (passed, failed) in VERDICTS.items()
                 if not passed}


@pytest.mark.parametrize("name", sorted(FAILED_CHECKS))
def test_verify_names_failed_checks(tmp_path, capsys, name):
    cfg = _write_config(tmp_path / "c.json", GOLDEN[name])
    assert main(["verify", "--config", cfg, "--out", str(tmp_path / "r.json")]) == 1
    err = capsys.readouterr().err
    tid = GOLDEN[name]["theorem_id"]
    assert err.startswith(f"{tid}: FAIL (max_ratio ")
    assert err.endswith(f"; failed: {FAILED_CHECKS[name]})\n")


def test_config_errors_exit_2(tmp_path, capsys):
    assert main(["verify", "--config", str(tmp_path / "missing.json")]) == 2
    bad = _cor2_2_experiment()
    bad["samplr"] = {}
    cfg = _write_config(tmp_path / "bad.json", bad)
    assert main(["verify", "--config", cfg]) == 2
    assert "samplr" in capsys.readouterr().err
    good = _write_config(tmp_path / "good.json", _cor2_2_experiment())
    assert main(["verify", "--config", good, "--theorem", "thm5_2"]) == 2


def test_usage_error_exit_2(capsys):
    assert main(["no-such-command"]) == 2
    capsys.readouterr()


def test_axioms_subcommand(tmp_path, capsys):
    out = tmp_path / "axioms.json"
    rc = main(
        ["axioms", "--relation", "inner", "--dim", "3", "--trials", "60",
         "--seed", "1", "--out", str(out)]
    )
    assert rc == 0
    doc = json.loads(out.read_text())
    assert doc["all_passed"] is True
    assert set(doc["results"]) == {"O1", "O2", "O3", "O4"}
    err = capsys.readouterr().err
    assert "O4: pass" in err


def test_axioms_p_norm_requires_p(capsys):
    assert main(["axioms", "--relation", "bj", "--norm", "p_norm", "--dim", "2"]) == 2
    capsys.readouterr()


def test_search_subcommand(tmp_path, capsys):
    cfg = _write_config(tmp_path / "c.json", _cor2_2_experiment())
    out = tmp_path / "search.json"
    rc = main(
        ["search", "--config", cfg, "--iters", "6", "--restarts", "2",
         "--out", str(out)]
    )
    assert rc == 0
    doc = json.loads(out.read_text())
    assert doc["evaluations"] == 6
    assert doc["worst_ratio"] <= 1.0 + 1e-7
    capsys.readouterr()


@pytest.mark.parametrize("iters, restarts", [(3, 2), (1, 1), (5, 3)])
def test_search_runs_exactly_iters(tmp_path, capsys, iters, restarts):
    exp = _cor2_2_experiment()
    exp["sampler"]["count"] = 20
    cfg = _write_config(tmp_path / "c.json", exp)
    out = tmp_path / "search.json"
    argv = ["search", "--config", cfg, "--iters", str(iters), "--restarts", str(restarts)]
    assert main(argv + ["--out", str(out)]) == 0
    assert json.loads(out.read_text())["evaluations"] == iters
    assert f"after {iters} evaluations" in capsys.readouterr().err


def test_shell_profile_csv_comes_from_verify(tmp_path, capsys):
    """A cor3_2 report written as CSV is its profile, one shell per line; the
    former profile subcommand wrote the same bytes and is refused now."""
    cfg = _write_config(
        tmp_path / "c.json", _cor3_2_experiment(expected_decay=False, noisy=True)
    )
    out = tmp_path / "profile.csv"
    argv = ["verify", "--config", cfg, "--theorem", "cor3_2", "--format", "csv"]
    assert main(argv + ["--out", str(out)]) == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0].startswith("shell_edge_low")
    assert len(lines) == 5 + 1
    assert "cor3_2: pass" in capsys.readouterr().err
    assert main(["profile", "--config", cfg]) == 2
    assert "invalid choice: 'profile'" in capsys.readouterr().err


def _run_console(*args):
    exe = shutil.which("jensenlab")
    cmd = [exe] if exe else [sys.executable, "-m", "jensenlab.cli"]
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        cmd + list(args),
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
    )


def test_console_script(tmp_path):
    cfg = _write_config(tmp_path / "c.json", _cor2_2_experiment())
    out = tmp_path / "report.json"
    proc = _run_console("verify", "--config", cfg, "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    assert json.loads(out.read_text())["pass"] is True

    bad = _cor2_2_experiment()
    bad["sampler"]["count"] = 10.5
    proc = _run_console("verify", "--config", _write_config(tmp_path / "bad.json", bad))
    assert proc.returncode == 2
    assert "sampler.count" in proc.stderr
    assert "Traceback" not in proc.stderr


# Merged into the cor2_2 experiment by a probe at the path (): the sections
# that make it a cor3_2 and a thm6_1 experiment.
AS_COR3_2 = {"theorem_id": "cor3_2", "expected_decay": False,
             "shells": {"edges": [0.5, 1.0, 2.0], "samples_per_shell": 8}}
AS_THM6_1 = {"theorem_id": "thm6_1", "params": {"r": 2, "s": 2, "t": 2},
             "perturbation": [], "ball": {"radius": 1.0}}
# and a thm2_1 experiment on a table control, and a thm5_2 one on
# Birkhoff-James pairs in a p-norm space
AS_THM2_1 = {"theorem_id": "thm2_1", "control": {"kind": "table", "table": {
    "radii": [0.0, 8.0], "values": [0.3, 0.3], "q": 0.0}}}
AS_THM5_2 = {"theorem_id": "thm5_2", "params": {"r": 1, "s": 1, "t": 1},
             "control": {"kind": "constant", "epsilon": 0.3},
             "space": {"dim": 3, "norm_kind": "p_norm", "p": 3.0},
             "domain": {"kind": "orthogonal", "relation": {"kind": "birkhoff_james"}}}
# One wrong value each in a 20-point cor2_2 config: (where, value, key that
# stderr must name).  None of these may crash or run.
CONFIG_PROBES = [
    (("sampler", "radius_range"), 5, "sampler.radius_range"),
    (("sampler", "count"), 10.5, "sampler.count"),
    (("sampler", "count"), True, "sampler.count"),
    (("sampler", "seed"), "x", "sampler.seed"),
    # integers past 64 bits: the report writer cannot echo them
    (("sampler", "seed"), 2**70, "sampler.seed"),
    (("control", "epsilon"), 10**20, "control.epsilon"),
    (("sampler", "pair_count"), 0, "pair_count"),
    (("space", "dim"), "3", "space.dim"),
    (("space",), 3, "space"),
    (("space",), {"dim": 3, "norm_kind": "p_norm", "p": float("inf")}, "space.p"),
    (("ball",), {}, "ball.radius"),
    (("perturbation", 0, "amplitude"), float("inf"), "perturbation[0].amplitude"),
    (("perturbation", 1, "amplitude"), "1", "perturbation[1].amplitude"),
    (("model",), {"linear": [[1.0, 0.0, 0.0], [0.5, 2.0]]}, "model.linear"),
    (("model",), {"quadratic": [1.0]}, "model.quadratic"),
    (("control", "epsilon"), float("nan"), "control.epsilon"),
    (("control", "epsilon"), float("inf"), "control.epsilon"),
    (("params", "r"), True, "params.r"),
    (("limits",), {"n_max": 2.5}, "limits.n_max"),
    (("limits",), {"tol": float("nan")}, "limits.tol"),
    (("residual_tol",), -1, "residual_tol"),
    (("residual_tol",), 0, "residual_tol"),
    (("residual_tol",), float("inf"), "residual_tol"),
    (("decay_tol",), "a", "decay_tol"),
    (("decay_tol",), 0.0, "decay_tol"),
    (("decay_tol",), float("-inf"), "decay_tol"),
    (("expected_decay",), 1, "expected_decay"),
    # p = 1 is refused: stability fails there (Gajda, Int. J. Math. Math. Sci.
    # 14 (1991), gives a counterexample for the additive equation)
    (("control", "p"), 1.0, "control.p"),
    (("perturbation", 1, "p"), 1.0, "perturbation[1].p"),
    # finite values whose defect overflows: a verdict on inf says nothing
    (("sampler", "radius_range"), [0.05, 1e300], "sampler.radius_range"),
    (("model",), {"linear_scale": 1e300}, "model.linear_scale"),
    # the λ grid of old configs is an unknown key, not type-checked and dropped
    (("domain",), {"kind": "orthogonal", "relation": {"kind": "birkhoff_james",
                                                      "grid": {"steps": "x"}}},
     "domain.relation.grid"),
    # a control or domain key that its kind does not read
    (("control",), {"kind": "constant", "epsilon": 0.3, "delta": 0.2}, "control.delta"),
    (("control",), {"kind": "constant", "epsilon": 0.3, "p": 0.5}, "control.p"),
    (("control", "table"), {"radii": [0.0, 1.0], "values": [0.3, 0.3], "q": 0.0},
     "control.table"),
    (("control",), {"kind": "constant", "table": {"radii": [0.0, 1.0], "values": [0.3, 0.3],
                                                   "q": 0.0}}, "control.table"),
    (("domain", "d"), 1.5, "domain.d"),
    (("domain", "relation"), {"kind": "trivial"}, "domain.relation"),
    # on a line no pair is independent, so trivial pairs need two dimensions too
    ((), {"theorem_id": "thm5_2", "params": {"r": 1, "s": 1, "t": 1},
          "control": {"kind": "constant", "epsilon": 0.3}, "space": _space(1),
          "domain": {"kind": "orthogonal", "relation": {"kind": "trivial"}}}, "space.dim"),
    # a perturbation key that its term's kind does not read
    (("perturbation", 0, "delta"), 0.7, "perturbation[0].delta"),
    (("perturbation", 0, "p"), 0.5, "perturbation[0].p"),
    (("perturbation", 0), {"kind": "decay", "amplitude": 0.07, "delta": 0.7},
     "perturbation[0].delta"),
    (("perturbation", 1, "amplitude"), 0.05, "perturbation[1].amplitude"),
    # an optional section on an id that does not read it
    (("ball",), {"radius": 1.0}, "ball"),
    (("shells",), {"edges": [0.5, 1.0], "samples_per_shell": 4}, "shells"),
    (("expected_decay",), True, "expected_decay"),
    ((), dict(AS_COR3_2, ball={"radius": 1.0}), "ball"),
    ((), dict(AS_THM6_1, expected_decay=True), "expected_decay"),
    # the runner-backed ids run on the full domain only
    ((), dict(AS_COR3_2, domain={"kind": "punctured"}), "domain.kind"),
    ((), dict(AS_COR3_2, domain={"kind": "exterior", "d": 1.0}), "domain.kind"),
    ((), dict(AS_THM6_1, domain={"kind": "orthogonal", "relation": {"kind": "trivial"}}),
     "domain.kind"),
    # thm6_2 runs on a punctured ball, thm6_1 on a whole one; an omitted
    # exclude_origin means false
    ((), dict(AS_THM6_1, ball={"radius": 1.0, "exclude_origin": True}), "ball.exclude_origin"),
    ((), dict(AS_THM6_1, theorem_id="thm6_2", params={"r": 4, "s": 3, "t": 3},
              ball={"radius": 1.0, "exclude_origin": False}), "ball.exclude_origin"),
    ((), dict(AS_THM6_1, theorem_id="thm6_2", params={"r": 4, "s": 3, "t": 3}),
     "ball.exclude_origin"),
    # a ball radius whose table knots underflow, whose square overflows, or
    # past 2**52 (an int there would run as a numpy object array)
    ((), dict(AS_THM6_1, ball={"radius": 1e-320}), "ball.radius"),
    ((), dict(AS_THM6_1, ball={"radius": 1e308}), "ball.radius"),
    ((), dict(AS_THM6_1, ball={"radius": 2**63}), "ball.radius"),
    # a shell below ‖x‖ + ‖y‖ = 0 is empty
    ((), dict(AS_COR3_2, shells={"edges": [-4, -1, 2], "samples_per_shell": 8}), "shells"),
    # sizes past the ceiling of 2**28 floats in one array (numpy's ValueError
    # or MemoryError before the ceiling)
    (("sampler", "count"), 2**63, "sampler.count"),
    (("sampler", "pair_count"), 2**63, "sampler.pair_count"),
    (("space", "dim"), 2**63, "space.dim"),
    (("codomain", "dim"), 2**63, "codomain.dim"),
    (("codomain", "dim"), 2**40, "codomain.dim"),
    ((), dict(AS_COR3_2, shells={"edges": [0.5, 1.0, 2.0], "samples_per_shell": 2**63}),
     "shells.samples_per_shell"),
    # an n_max past the limit's exponent clip of 2**20 (at 2**63 - 1 it crashed
    # the overflow guard, at 2**63 it wrapped to a FAIL)
    (("limits",), {"n_max": 2**63 - 1}, "limits.n_max"),
    (("limits",), {"n_max": 2**63}, "limits.n_max"),
    # a last table radius whose series passes the float range
    ((), dict(AS_THM2_1, control={"kind": "table", "table": {
        "radii": [0.0, 1.7e308], "values": [0.3, 0.3], "q": 0.0}}), "control.table"),
    # a p so large that no Birkhoff-James partner survives the sampler's draws,
    # and radii whose trivial partners overflow the independence test
    ((), dict(AS_THM5_2, space={"dim": 3, "norm_kind": "p_norm", "p": 2000}), "domain.relation"),
    ((), dict(AS_THM5_2, space=_space(3), domain={"kind": "orthogonal", "relation": {
        "kind": "trivial"}}, sampler={"count": 20, "seed": 11, "radius_range": [0.05, 1e308]}),
     "sampler.radius_range"),
    # a relation tolerance at which every pair passes
    (("domain",), {"kind": "orthogonal", "relation": {"kind": "inner_product", "tolerance": 1.0}},
     "domain.relation.tolerance"),
    # a control part past the float range at the sampled pairs
    (("control", "delta"), 1e308, "control.delta"),
    ((), dict(AS_THM2_1, control={"kind": "table", "table": {
        "radii": [0.0, 8.0], "values": [1e308, 1e308], "q": 0.0}}), "control.table"),
]


@pytest.mark.parametrize(
    "where, value, key", CONFIG_PROBES, ids=[f"{k}={v!r}" for _, v, k in CONFIG_PROBES]
)
def test_malformed_config_exits_2(tmp_path, capsys, where, value, key):
    exp = _cor2_2_experiment()
    exp["sampler"]["count"] = 20
    if not where:  # merge whole sections into the experiment
        exp.update(value)
    else:
        node = exp
        for k in where[:-1]:
            node = node[k]
        node[where[-1]] = value
    cfg = _write_config(tmp_path / "c.json", exp)
    assert main(["verify", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert key in err and "Traceback" not in err


# A last table radius of 1e307 is below the table series' hard cap, and its
# scaled args overflow only in rows past their own stop: the run warns of no
# overflow.
NEAR_FLOAT_MAX = dict(AS_THM2_1, control={"kind": "table", "table": {
    "radii": [0.0, 1e307], "values": [0.3, 0.3], "q": 0.0}})


@pytest.mark.parametrize("sections", [AS_COR3_2, AS_THM6_1, AS_THM2_1, AS_THM5_2, NEAR_FLOAT_MAX],
                         ids=["cor3_2", "thm6_1", "thm2_1", "thm5_2", "thm2_1-table-1e307"])
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_probe_bases_are_valid(tmp_path, sections):
    # the merged probes fail on their probed key alone
    exp = dict(_cor2_2_experiment(), **sections)
    exp["sampler"]["count"] = 20
    cfg = _write_config(tmp_path / "c.json", exp)
    assert main(["verify", "--config", cfg, "--out", str(tmp_path / "r.json")]) in (0, 1)


AXIOMS = ["axioms", "--relation", "bj", "--dim", "2"]


@pytest.mark.parametrize(
    "argv, flag",
    [
        (AXIOMS + ["--dim", "0"], "--dim"),
        (AXIOMS + ["--norm", "p_norm", "--p", "0.5"], "--p"),
        (AXIOMS + ["--norm", "sup", "--p", "2"], "--p"),
        (AXIOMS + ["--trials", "0"], "--trials"),
        (["search", "--config", "c.json", "--restarts", "0"], "--restarts"),
        (["search", "--config", "c.json", "--iters", "2", "--restarts", "3"], "--restarts"),
        # O2-O4 are vacuous on a line: refused, not reported as FAIL
        (AXIOMS + ["--dim", "1"], "--dim"),
        # inner-product orthogonality needs the Euclidean norm: refused, not a FAIL
        (["axioms", "--relation", "inner", "--norm", "sup"], "--norm"),
        (["axioms", "--relation", "inner", "--norm", "p_norm", "--p", "3"], "--relation"),
        # past the 2**28-float ceiling, refused before any array is built, and
        # naming the larger factor; each product is past what numpy could
        # allocate, so it would refuse the array without touching memory too
        (AXIOMS + ["--dim", str(2**63)], "--dim is too large"),
        (AXIOMS + ["--trials", str(2**63)], "--trials is too large"),
        (AXIOMS + ["--dim", str(2**40), "--trials", str(2**30)], "--dim is too large"),
        (AXIOMS + ["--dim", str(2**30), "--trials", str(2**40)], "--trials is too large"),
    ],
)
def test_flag_errors_exit_2(capsys, argv, flag):
    assert main(argv) == 2
    assert flag in capsys.readouterr().err


@pytest.mark.parametrize("p", ["1000", "2000", "1e300"])
def test_axioms_on_a_huge_p_exit_2(capsys, p):
    """A p so large that a sampled point's p-norm overflows or underflows to 0
    once ended in numpy's LinAlgError; it is refused naming --p."""
    assert main(AXIOMS + ["--norm", "p_norm", "--p", p, "--trials", "20"]) == 2
    assert "--p is too large" in capsys.readouterr().err


def _fuzz_bases():
    """Valid 8-point configs that between them use every config section."""
    sampler = {"count": 8, "seed": 3, "radius_range": [0.2, 4.0]}
    pert = [{"kind": "bounded", "amplitude": 0.02, "seed": 5},
            {"kind": "power", "delta": 0.01, "p": 0.5, "seed": 6}]
    cor2_2 = dict(
        _cor2_2_experiment(),
        space={"dim": 2, "norm_kind": "p_norm", "p": 3.0},
        sampler=sampler,
        perturbation=pert,
        model={"linear": [[1.0, 0.5], [0.0, 2.0]], "linear_scale": 1.0, "seed": 4},
        limits={"n_max": 30, "tol": 1e-9},
        residual_tol=1e-6,
        decay_tol=1e-3,
    )
    table = {"radii": [0.0, 1.0, 4.0], "values": [0.2, 0.3, 0.5], "q": 0.5}
    thm2_1 = dict(cor2_2, theorem_id="thm2_1", control={"kind": "table", "table": table})
    relation = {"kind": "inner_product", "tolerance": 1e-9}
    thm5_2 = {
        "theorem_id": "thm5_2", "space": _space(3), "codomain": _space(2),
        "params": {"r": 1, "s": 1, "t": 1}, "control": {"kind": "constant", "epsilon": 0.3},
        "domain": {"kind": "orthogonal", "relation": relation}, "sampler": sampler,
        "model": {"quadratic": [0.4, -0.2]}, "perturbation": pert[:1],
    }
    thm3_1 = dict(thm5_2, theorem_id="thm3_1", params={"r": 2, "s": 1, "t": 1},
                  domain={"kind": "exterior", "d": 2.0},
                  sampler=dict(sampler, pair_count=8))
    thm6_2 = {
        "theorem_id": "thm6_2", "space": _space(2), "codomain": _space(1),
        "params": {"r": 4, "s": 3, "t": 3},
        "sampler": dict(sampler, radius_range=[0.0, 1.0]),
        "ball": {"radius": 1.0, "exclude_origin": True},
    }
    cor3_2 = dict(_cor3_2_experiment(expected_decay=False, noisy=True), sampler=sampler,
                  shells={"edges": [0.5, 1.0, 2.0], "samples_per_shell": 8})
    return [cor2_2, thm2_1, thm5_2, thm3_1, thm6_2, cor3_2]


def _nodes(tree, where=()):
    """Every (path, value) below the root of a JSON tree."""
    items = tree.items() if isinstance(tree, dict) else enumerate(tree)
    for k, v in items:
        yield where + (k,), v
        if isinstance(v, (dict, list)):
            yield from _nodes(v, where + (k,))


FUZZ_BASES = _fuzz_bases()
FUZZ_VALUES = [True, False, None, "x", 1.5, 7, [1], {"a": 1},
               float("nan"), float("inf"), float("-inf"), 0, -1, 0.5, 1e308, -1e308,
               2**63 - 1, 2**63, 2**64, 1e-320]
BJ_P_2000 = {"space": {"dim": 3, "norm_kind": "p_norm", "p": 2000},
             "domain": {"kind": "orthogonal", "relation": {"kind": "birkhoff_james"}}}


# pick is a node's index, or in an @example the path of a probe (() merges
# into the experiment): the probe configs of CONFIG_PROBES above
@settings(derandomize=True, max_examples=150, deadline=None)
@given(
    base=st.sampled_from(range(len(FUZZ_BASES))),
    pick=st.integers(0, 10**6),
    mutation=st.sampled_from(["delete", "extra_key"] + [("set", v) for v in FUZZ_VALUES]),
)
@example(base=1, pick=("control", "table", "radii"), mutation=("set", [0.0, 1.0, 1.7e308]))
@example(base=0, pick=("limits", "n_max"), mutation=("set", 2**63 - 1))
@example(base=0, pick=("limits", "n_max"), mutation=("set", 2**63))
@example(base=2, pick=(), mutation=("set", BJ_P_2000))
@example(base=2, pick=("domain", "relation", "grid"), mutation=("set", {"steps": 4096}))
def test_verify_fuzz_exit_codes(tmp_path_factory, base, pick, mutation):
    exp = json.loads(json.dumps(FUZZ_BASES[base]))
    nodes = list(_nodes(exp))
    where, value = (pick, None) if isinstance(pick, tuple) else nodes[pick % len(nodes)]
    parent = exp
    for k in where[:-1]:
        parent = parent[k]
    if mutation == "delete":
        del parent[where[-1]]
    elif mutation == "extra_key":
        (value if isinstance(value, dict) else exp)["zz_extra"] = 1
    elif not where:
        exp.update(mutation[1])
    else:
        parent[where[-1]] = mutation[1]
    cfg = _write_config(tmp_path_factory.mktemp("fuzz") / "c.json", exp)
    assert main(["verify", "--config", cfg, "--out", os.devnull]) in (0, 1, 2)
