"""Command-line interface: reports, goldens, determinism, and exit codes."""

from __future__ import annotations

import json
import pathlib
import shlex
import subprocess
import sys
from fractions import Fraction

import pytest

import helpers
from corrhit import fourier
from corrhit.cli import _tag, main
from corrhit.dist_core import marginal, parse_distribution
from corrhit.fourier import (
    _rebase,
    analyze,
    build_basis,
    expectation,
    format_function,
    influence,
    make_anchored_symmetric,
    make_junta,
    make_mod_linear,
    make_table_function,
    parse_function,
    variance,
)

TRIT = ("0", "1", "2")


@pytest.fixture()
def workdir(tmp_path):
    (tmp_path / "basic.dist").write_text(helpers.BASIC_TEXT)
    (tmp_path / "skew.dist").write_text(helpers.SKEW_TEXT)
    dictator = make_junta(1, TRIT, [(1, "0")])
    (tmp_path / "dictator.json").write_text(format_function(dictator))
    table = make_table_function(
        1, TRIT, (Fraction(1), Fraction(0), Fraction(1, 2))
    )
    (tmp_path / "table.json").write_text(format_function(table))
    return tmp_path


def run_cli(capsys, argv):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured


def run_json(capsys, argv):
    code, captured = run_cli(capsys, argv)
    report = json.loads(captured.out)
    return code, report


# ---------------------------------------------------------------------------
# report envelope


def test_report_envelope_fields(workdir, capsys):
    code, report = run_json(capsys, ["inspect", workdir / "basic.dist"])
    assert code == 0
    # `seed` belongs to the subcommands that take --seed
    assert set(report) == {"command", "inputs", "ok", "results", "wall_time_s"}
    assert report["ok"] is True
    (path, digest), = report["inputs"].items()
    assert path.endswith("basic.dist")
    assert digest.startswith("sha256:") and len(digest) == len("sha256:") + 64
    code, report = run_json(capsys, ["invariance", "rhc", "--samples", "100", "--seed", "5"])
    assert code == 0
    assert report["seed"] == 5 and report["inputs"] == {}


def test_inspect_golden(workdir, capsys):
    _, report = run_json(capsys, ["inspect", workdir / "basic.dist"])
    res = report["results"]
    assert res["alpha"] == {"kind": "rational", "value": "1/6"}
    assert res["beta"] == {"kind": "rational", "value": "0"}
    assert res["rho"]["kind"] == "float"
    assert res["rho"]["value"] == pytest.approx(0.5, abs=1e-10)
    assert res["equal_marginals"] is True
    assert res["markov_generated"] is True
    assert res["support_size"] == 6


def test_inspect_skew_marginals(workdir, capsys):
    _, report = run_json(capsys, ["inspect", workdir / "skew.dist"])
    res = report["results"]
    assert res["equal_marginals"] is False
    assert res["alpha"] == {"kind": "rational", "value": "1/3"}


def test_table_output_mode(workdir, capsys):
    code, captured = run_cli(
        capsys, ["inspect", workdir / "basic.dist", "--table"]
    )
    assert code == 0
    assert "ok = True" in captured.out
    assert "alpha" in captured.out
    with pytest.raises(json.JSONDecodeError):
        json.loads(captured.out)


# ---------------------------------------------------------------------------
# hit


def test_hit_dictator_golden(workdir, capsys):
    code, report = run_json(
        capsys,
        ["hit", "--dist", workdir / "basic.dist",
         "--fn", workdir / "dictator.json", "--n", "1"],
    )
    assert code == 0
    assert report["results"]["expectation"] == {"kind": "rational", "value": "1/6"}


def test_hit_retargets_structured_functions(workdir, capsys):
    code, report = run_json(
        capsys,
        ["hit", "--dist", workdir / "basic.dist",
         "--fn", workdir / "dictator.json", "--n", "4"],
    )
    assert code == 0
    assert report["results"]["expectation"]["value"] == "1/6"
    assert report["results"]["n"] == 4


WINDOW = make_anchored_symmetric(
    4, TRIT, {"0": (1, 3), "2": (0, 2)}, anchor=(2, "1"), ignored=[4], zero=True
)
RESIDUE = make_mod_linear(4, TRIT, 5, [1, 2, 3, 4], 3, [0, 1, 2])


@pytest.mark.parametrize("f, n, want", [
    (WINDOW, 4, WINDOW),
    (WINDOW, 6, make_anchored_symmetric(
        6, TRIT, {"0": (1, 3), "2": (0, 2)}, anchor=(2, "1"), ignored=[4], zero=True)),
    (make_junta(2, TRIT, [(1, "0"), (1, "1")]), 5,
     make_junta(5, TRIT, [(1, "1")], zero=True)),
    (RESIDUE, 2, make_mod_linear(2, TRIT, 5, [1, 2], 3, [0, 1, 2])),
    (RESIDUE, 6, make_mod_linear(6, TRIT, 5, [1, 2, 3, 4, 0, 0], 3, [0, 1, 2])),
    (make_table_function(1, TRIT, (Fraction(1), Fraction(0), Fraction(1, 2))), 2,
     "table function of 1 coordinates cannot be re-targeted to 2"),
    (WINDOW, 2, "window bounds must lie within [0, n]"),
    (make_anchored_symmetric(4, TRIT, {}, anchor=(4, "0")), 3,
     "anchor coordinate out of range"),
    (make_anchored_symmetric(4, TRIT, {"1": (0, 3)}, ignored=[4]), 3,
     "ignored coordinate out of range"),
    (make_junta(4, TRIT, [(4, "2")]), 3, "constraint coordinate out of range"),
], ids=[
    "window-same-n", "window-anchor-ignored-zero", "junta-zero", "mod-linear-cut",
    "mod-linear-padded", "table-refused", "window-bound-above-n", "anchor-above-n",
    "ignored-above-n", "junta-coordinate-above-n",
])
def test_rebase_retargets_each_kind(f, n, want):
    """`--n` re-targets every structured kind, flags and all, and refuses a
    table or any coordinate or window bound past the new n."""
    if isinstance(want, str):
        with pytest.raises(ValueError, match=want.replace("[", r"\[")):
            _rebase(f, n)
    else:
        assert format_function(_rebase(f, n)) == format_function(want)


def test_rebase_reads_plain_int_coefficients_in_one_pass(monkeypatch):
    """Re-targeting a mod-linear function to n = 10^4 reads its padded
    coefficients without one `_integer` call per coordinate (10,005 calls
    once); the constructor takes them as they are."""
    calls = []
    integer = fourier._integer

    def counted(item, what):
        calls.append(what)
        return integer(item, what)

    monkeypatch.setattr(fourier, "_integer", counted)
    f = _rebase(RESIDUE, 10**4)
    assert f.payload["coeffs"] == (1, 2, 3, 4) + (0,) * (10**4 - 4)
    assert "a coefficient" not in calls and len(calls) < 10


def _codec_rebase(f, n):
    """The document route of re-targeting: f's JSON document with n set and
    a mod-linear function's coefficients cut or padded, parsed back."""
    if n == f.n:
        return f
    if f.kind == "table":
        raise ValueError(f"table function of {f.n} coordinates cannot be re-targeted to {n}")
    doc = json.loads(format_function(f))
    doc["n"] = n
    if f.kind == "mod_linear":
        doc["coeffs"] = doc["coeffs"][:n] + [0] * (n - f.n)
    return parse_function(json.dumps(doc))


@pytest.mark.parametrize("f", [
    WINDOW,
    make_anchored_symmetric(3, TRIT, {"1": (0, 2)}),
    make_junta(3, TRIT, [(1, "0"), (3, "2")]),
    make_junta(2, TRIT, [(1, "0"), (1, "1")]),
    RESIDUE,
    make_mod_linear(3, TRIT, 2, [1, 0, 1], 1, {"0": 0, "1": 1, "2": 1}, zero=True),
    make_table_function(1, TRIT, (Fraction(1), Fraction(0), Fraction(1, 2))),
], ids=["window", "plain-window", "junta", "junta-zero", "mod-linear", "mod-linear-zero", "table"])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 7, 50])
def test_rebase_equals_the_document_route(f, n):
    """Re-targeting through the constructors gives the function, or the
    refusal, that the JSON document route gives, for every kind."""
    try:
        want = _codec_rebase(f, n)
    except ValueError as exc:
        with pytest.raises(ValueError) as got:
            _rebase(f, n)
        assert str(got.value) == str(exc)
        return
    got = _rebase(f, n)
    assert got == want and got.payload == want.payload
    assert format_function(got) == format_function(want)


def test_hit_enumerate_refuses_a_huge_n_at_once(workdir):
    """The enumeration budget is checked before |support|^n is computed, so
    a window re-targeted at n = 10^8 is refused within seconds."""
    window = make_anchored_symmetric(1, TRIT, {"0": (0, 1)})
    (workdir / "window.json").write_text(format_function(window))
    proc = subprocess.run(
        [sys.executable, "-m", "corrhit", "hit", "--dist", str(workdir / "basic.dist"),
         "--fn", str(workdir / "window.json"), "--engine", "enumerate", "--n", "100000000"],
        capture_output=True, text=True, timeout=10,
    )
    assert proc.returncode == 1
    refusal = json.loads(proc.stdout)["results"]["refusal"]
    assert refusal == "6^100000000 support assignments exceed the budget 16777216"


def test_hit_dp_answers_juntas_and_refuses_tables(workdir, capsys):
    """The dp reads a junta and gives the enumeration engine's value, which
    'auto' also takes; it refuses a table."""
    values = {}
    for engine in ("dp", "enumerate", "auto"):
        code, report = run_json(
            capsys,
            ["hit", "--dist", workdir / "basic.dist",
             "--fn", workdir / "dictator.json", "--n", "1", "--engine", engine],
        )
        assert code == 0
        assert report["results"]["engine"] == ("enumerate" if engine == "enumerate" else "dp")
        values[engine] = report["results"]["expectation"]
    assert values["dp"] == values["enumerate"] == values["auto"]
    assert values["dp"] == {"value": "1/6", "kind": "rational"}
    code, report = run_json(
        capsys,
        ["hit", "--dist", workdir / "basic.dist",
         "--fn", workdir / "table.json", "--n", "1", "--engine", "dp"],
    )
    assert code == 1
    assert report["ok"] is False
    assert report["results"]["refusal"] == "no dynamic program for kind 'table'"


def test_hit_budget_refusal(workdir, capsys):
    code, report = run_json(
        capsys,
        ["hit", "--dist", workdir / "basic.dist",
         "--fn", workdir / "dictator.json", "--n", "6",
         "--engine", "enumerate", "--budget", "3"],
    )
    assert code == 1
    assert "refusal" in report["results"]


@pytest.mark.parametrize("fn, engine", [
    ("window.json", "dp"), ("table.json", "enumerate"),
])
def test_hit_reports_the_engine_that_ran(workdir, capsys, fn, engine):
    window = make_anchored_symmetric(2, TRIT, {"0": (1, 2)})
    (workdir / "window.json").write_text(format_function(window))
    code, report = run_json(
        capsys, ["hit", "--dist", workdir / "basic.dist", "--fn", workdir / fn]
    )
    assert code == 0
    assert report["results"]["engine"] == engine


def test_hit_multi_set(workdir, capsys):
    code, report = run_json(
        capsys,
        ["hit", "--dist", workdir / "basic.dist",
         "--fn", workdir / "dictator.json", "--fn", workdir / "table.json",
         "--n", "1"],
    )
    assert code == 0
    assert report["results"]["expectation"]["kind"] == "rational"


# ---------------------------------------------------------------------------
# decompose and fourier


def test_decompose_golden(workdir, capsys):
    code, report = run_json(capsys, ["decompose", workdir / "basic.dist"])
    assert code == 0
    res = report["results"]
    assert res["part_count"] == 4
    assert res["alpha_floor"]["value"] == "1/1296"
    assert res["rho_ceiling"]["value"] == pytest.approx(0.9996141975308642)
    assert res["guarantees_hold"] is True
    kinds = sorted(p["kind"] for p in res["parts"])
    assert kinds == ["cycle", "point", "point", "point"]
    cycle = next(p for p in res["parts"] if p["kind"] == "cycle")
    assert cycle["beta"]["value"] == "5/9"
    assert cycle["cycle"]["s"] == 3
    assert cycle["cycle"]["p"]["value"] == "1/10"
    for p in res["parts"]:
        if p["kind"] == "point":
            assert p["beta"]["value"] == "4/27"
            assert p["rho_defined"] is False


def test_decompose_refuses_unequal_marginals(workdir, capsys):
    code, report = run_json(capsys, ["decompose", workdir / "skew.dist"])
    assert code == 1
    assert "refusal" in report["results"]


def test_fourier_golden(workdir, capsys):
    code, report = run_json(
        capsys,
        ["fourier", "--dist", workdir / "basic.dist",
         "--fn", workdir / "dictator.json"],
    )
    assert code == 0
    res = report["results"]
    assert res["expectation"]["value"] == "1/3"
    assert res["variance"]["value"] == "2/9"
    assert res["influences"][0]["value"] == "2/9"
    top = res["top_coefficients"]
    assert top[0]["coefficient"]["value"] == pytest.approx(0.4714045207910317, abs=1e-9)


def test_fourier_reads_the_support_budget(workdir, capsys):
    """The step-1 marginal lives on {0, 1} of a 3-symbol alphabet, so a window
    function at n = 4 has 2^4 = 16 support points and 3^4 alphabet points:
    `--budget 16` admits it, as it does for `analyze`, whose coefficients the
    report lists."""
    thin = "alphabet 0 1 2\nsteps 2\nentry 0 0 1/3\nentry 0 1 1/3\nentry 1 2 1/3\n"
    (workdir / "thin.dist").write_text(thin)
    f = make_anchored_symmetric(4, TRIT, {"0": (1, 2)}, anchor=(2, "1"))
    (workdir / "window.json").write_text(format_function(f))
    argv = ["fourier", "--dist", workdir / "thin.dist", "--fn", workdir / "window.json"]
    code, report = run_json(capsys, [*argv, "--budget", "16", "--top", "100"])
    assert code == 0
    got = {
        tuple(c["sigma"]): c["coefficient"]["value"]
        for c in report["results"]["top_coefficients"]
    }
    basis = build_basis(marginal(parse_distribution(thin), 1))
    assert got == analyze(f, basis, budget=16).coeffs
    code, report = run_json(capsys, [*argv, "--budget", "15"])
    assert code == 1
    assert report["results"] == {"refusal": "2^4 points exceed the exact-enumeration budget 15"}


def test_fourier_refuses_an_over_budget_expansion_before_any_walk(workdir, capsys, monkeypatch):
    """The expansion's support^n check comes first, so an anchored window on
    2000 coordinates is refused before the joint-count walks of its
    expectation and influences, which take seconds at this n."""
    walks = helpers.count_walks(monkeypatch)
    f = make_anchored_symmetric(2000, TRIT, {"0": (600, 700)}, anchor=(1, "1"))
    (workdir / "wide.json").write_text(format_function(f))
    code, report = run_json(
        capsys, ["fourier", "--dist", workdir / "basic.dist", "--fn", workdir / "wide.json"]
    )
    assert code == 1
    assert report["results"]["refusal"].startswith("3^2000 points exceed")
    assert walks == []


def test_fourier_walks_once_per_coordinate_class(workdir, capsys, monkeypatch):
    """On a one-symbol marginal the expansion admits n = 50, and the report
    walks once per coordinate class of the window (its anchor, its ignored
    coordinates and the rest): 3 walks, where an expectation, a variance
    and one walk per influence once made 52."""
    (workdir / "one.dist").write_text("alphabet 0 1 2\nsteps 2\nentry 0 0 1/2\nentry 0 1 1/2\n")
    f = make_anchored_symmetric(50, TRIT, {"0": (30, 48)}, anchor=(1, "0"), ignored=[7, 50])
    (workdir / "wide.json").write_text(format_function(f))
    walks = helpers.count_walks(monkeypatch)
    code, report = run_json(
        capsys, ["fourier", "--dist", workdir / "one.dist", "--fn", workdir / "wide.json"]
    )
    assert code == 0
    assert len(walks) == 3
    assert report["results"]["expectation"] == {"value": "1", "kind": "rational"}


@pytest.mark.parametrize("f", [
    make_anchored_symmetric(5, TRIT, {"0": (1, 3), "2": (0, 2)}, anchor=(2, "1"), ignored=[4]),
    make_mod_linear(5, TRIT, 3, [1, 2, 1, 0, 2], 1, [0, 1, 2]),
    make_junta(5, TRIT, [(2, "0"), (5, "1")]),
    make_table_function(2, TRIT, [Fraction(k, 8) for k in (0, 3, 8, 1, 5, 2, 7, 4, 6)]),
], ids=["window", "mod-linear", "junta", "table"])
def test_fourier_report_equals_the_per_quantity_api(workdir, capsys, f):
    """Every kind's report carries the values that `expectation`,
    `variance` and `influence` give one by one."""
    (workdir / "f.json").write_text(format_function(f))
    code, report = run_json(
        capsys, ["fourier", "--dist", workdir / "basic.dist", "--fn", workdir / "f.json"]
    )
    assert code == 0
    pi = marginal(helpers.basic_dist(), 1)
    res = report["results"]
    assert res["expectation"] == _tag(expectation(f, pi))
    assert res["variance"] == _tag(variance(f, pi))
    assert res["influences"] == [_tag(influence(f, pi, i=i)) for i in range(1, f.n + 1)]


def run_usage_error(argv):
    """The exit code of a command line that argparse may refuse."""
    try:
        code = main([str(a) for a in argv])
    except SystemExit as exc:  # argparse's own usage errors
        code = exc.code
    return code


@pytest.mark.parametrize("top", ["-1", "-16"])
def test_fourier_refuses_a_negative_top(workdir, capsys, top):
    """A negative --top once sliced the coefficient list from the end and
    silently dropped coefficients."""
    argv = ["fourier", "--dist", workdir / "basic.dist", "--fn", workdir / "table.json"]
    code = run_usage_error([*argv, "--top", top])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.endswith(f"error: argument --top: expected an integer >= 0, got '{top}'\n")
    # the whole list and the empty one are still there
    _, every = run_json(capsys, [*argv, "--top", "100"])
    _, none = run_json(capsys, [*argv, "--top", "0"])
    assert len(every["results"]["top_coefficients"]) == 3
    assert none["results"]["top_coefficients"] == []


@pytest.mark.parametrize("argv, flag, what", [
    (["verify", "counterexamples", "--n", "x"], "--n", "integers"),
    (["verify", "counterexamples", "--n", "3,,6"], "--n", "integers"),
    (["verify", "counterexamples", "--n", "12,1.5"], "--n", "integers"),
    (["invariance", "rhc", "--offsets", "0.1,y"], "--offsets", "numbers"),
    (["invariance", "rhc", "--offsets", "0.5,"], "--offsets", "numbers"),
    (["invariance", "rhc", "--signs", "1,x"], "--signs", "integers"),
    (["invariance", "rhc", "--signs", "+1,-"], "--signs", "integers"),
])
def test_malformed_list_flags_are_usage_errors(capsys, argv, flag, what):
    """A malformed token exits 2 with argparse's refusal before any work,
    not 1 with Python's own int()/float() message in a report."""
    code = run_usage_error(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.endswith(
        f"error: argument {flag}: expected comma-separated {what}, got {argv[-1]!r}\n"
    )


@pytest.mark.parametrize("argv, flag, low", [
    (["invariance", "rhc", "--samples", "0"], "--samples", 2),
    (["invariance", "rhc", "--samples", "1"], "--samples", 2),
    (["invariance", "rhc", "--samples", "-4"], "--samples", 2),
    (["invariance", "gap", "--dist", "x.json", "--fn", "f.json", "--lambda", "0.1",
      "--samples", "1"], "--samples", 2),
    (["invariance", "rhc", "--ell", "0"], "--ell", 1),
    (["invariance", "rhc", "--ell", "-1"], "--ell", 1),
    (["invariance", "rhc", "--ell", "two"], "--ell", 1),
    (["verify", "edge-variance", "--samples", "0"], "--samples", 1),
    (["verify", "markov", "--samples", "-3"], "--samples", 1),
    (["verify", "decomposition", "--samples", "many"], "--samples", 1),
    (["verify", "counterexamples", "--three-n", "0"], "--three-n", 1),
    (["verify", "exponent", "--n", "0"], "--n", 1),
    (["hit", "--dist", "x.dist", "--fn", "f.json", "--budget", "-5"], "--budget", 1),
    (["hit", "--dist", "x.dist", "--fn", "f.json", "--budget", "0"], "--budget", 1),
    (["fourier", "--dist", "x.dist", "--fn", "f.json", "--step", "0"], "--step", 1),
    (["invariance", "hyper", "--dist", "x.dist", "--fn", "f.json", "--step", "0"],
     "--step", 1),
    (["hit", "--dist", "x.dist", "--fn", "f.json", "--n", "0"], "--n", 1),
    (["fourier", "--dist", "x.dist", "--fn", "f.json", "--n", "-3"], "--n", 1),
    (["reduce", "--dist", "x.dist", "--fn", "f.json", "--eps", "0.25", "--n", "0"], "--n", 1),
    (["invariance", "hyper", "--dist", "x.dist", "--fn", "f.json", "--n", "0"], "--n", 1),
    (["invariance", "gap", "--dist", "x.dist", "--fn", "f.json", "--lambda", "0.1",
      "--n", "two"], "--n", 1),
    (["invariance", "smooth", "--dist", "x.dist", "--fn", "f.json", "--n", "-1"], "--n", 1),
])
def test_out_of_range_counts_are_usage_errors(capsys, argv, flag, low):
    """`--samples 0` once exited 1 with a division by zero, `--samples 1`
    reported a standard error that one draw cannot give, and `--ell 0` or
    `-1` failed later under another flag's name.  `verify --samples 0` once
    exited 0 with a vacuous pass over no instance and a worst margin of
    Infinity, which is not JSON.  `verify counterexamples --three-n 0` once
    ran the skew catalog before it refused.  `--budget -5` and `--step 0`
    once loaded the files and exited 1 with a refusal in the report, and
    so did `hit --n 0` and `fourier --n -3`."""
    code = run_usage_error(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.endswith(
        f"error: argument {flag}: expected an integer >= {low}, got {argv[-1]!r}\n"
    )


def test_verify_runs_one_instance(capsys):
    code, report = run_json(capsys, ["verify", "edge-variance", "--samples", "1"])
    assert code == 0
    assert report["results"]["instances"] == 1 and report["results"]["all_hold"]


def test_one_step_rhc_and_two_samples_run(capsys):
    code, report = run_json(capsys, ["invariance", "rhc", "--ell", "1", "--samples", "2"])
    assert code == 0
    assert report["results"]["ell"] == 1 and report["results"]["samples"] == 2


# ---------------------------------------------------------------------------
# reduce


def test_reduce_density_golden(workdir, capsys):
    code, report = run_json(
        capsys,
        ["reduce", "--dist", workdir / "basic.dist",
         "--fn", workdir / "dictator.json", "--n", "2",
         "--eps", "0.25", "--k", "2"],
    )
    assert code == 0
    res = report["results"]
    assert res["loop"] == "density"
    log = res["log"]
    assert len(log["iterations"]) == 1
    assert log["iterations"][0]["loss"]["value"] == "1/3"
    assert log["params"]["iteration_bound"]["value"] == "317"
    assert log["total_loss"]["value"] == "1/3"


def test_reduce_influence_golden(workdir, capsys):
    code, report = run_json(
        capsys,
        ["reduce", "--dist", workdir / "basic.dist",
         "--fn", workdir / "dictator.json", "--fn", workdir / "dictator.json",
         "--n", "1", "--tau", "0.1"],
    )
    assert code == 0
    res = report["results"]
    assert res["loop"] == "influence"
    log = res["log"]
    assert len(log["iterations"]) == 1
    step = log["iterations"][0]
    assert step["gain"]["value"] == "4/3"
    assert step["product_before"]["value"] == "1/6"
    assert step["product_after"]["value"] == "1"
    assert log["params"]["iteration_cap"]["value"] == "53"
    assert len(log["result_functions"]) == 2


@pytest.mark.parametrize("flags, message", [
    (["--tau", "0.1", "--eps", "0.25"], "argument --eps: not allowed with argument --tau"),
    ([], "one of the arguments --tau --eps is required"),
    (["--tau", "0.1", "--k", "2"], "--k caps the density loop and needs --eps"),
], ids=["both", "neither", "k-without-eps"])
def test_reduce_takes_one_loop_and_k_only_with_eps(workdir, capsys, flags, message):
    """Usage errors, found before any input is read: the --dist named here
    does not exist."""
    argv = ["reduce", "--dist", workdir / "missing.dist", "--fn", workdir / "dictator.json",
            "--fn", workdir / "dictator.json", *flags]
    try:
        code = main([str(a) for a in argv])
    except SystemExit as exc:  # argparse's own usage errors
        code = exc.code
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.endswith(f"error: {message}\n")


# ---------------------------------------------------------------------------
# verify suites


def test_verify_counterexamples(workdir, capsys):
    code, report = run_json(
        capsys, ["verify", "counterexamples", "--n", "6,9,12", "--three-n", "12"]
    )
    assert code == 0
    res = report["results"]
    assert res["unequal_marginals"]["strictly_decreasing"] is True
    assert res["unequal_marginals"]["values"][0]["value"] == "10/729"
    assert res["three_sets"]["triple_product"]["value"] == "0"


def test_verify_counterexamples_least_passing_budget(capsys):
    """At its default flags the suite passes at --budget 20, the three-set
    walks' need at n = 60, and refuses at 19."""
    code, report = run_json(capsys, ["verify", "counterexamples", "--budget", "20"])
    assert code == 0
    assert report["results"]["three_sets"]["n"] == 60
    code, report = run_json(capsys, ["verify", "counterexamples", "--budget", "19"])
    assert code == 1
    assert report["results"]["refusal"] == "joint-count state space 20 exceeds the budget 19"


def test_verify_exponent(workdir, capsys):
    code, report = run_json(capsys, ["verify", "exponent"])
    assert code == 0
    res = report["results"]
    assert res["slopes_within_tolerance"] is True
    assert res["independent_product"]["slope"]["value"] == pytest.approx(2.0, abs=1e-6)
    assert res["identity_coupling"]["slope"]["value"] == pytest.approx(1.0, abs=1e-6)


def test_verify_edge_variance(workdir, capsys):
    code, report = run_json(capsys, ["verify", "edge-variance"])
    assert code == 0
    assert report["results"]["all_hold"] is True
    assert report["results"]["instances"] == 50


@pytest.mark.parametrize("argv", [
    ["edge-variance", "--samples", "2"],
    ["decomposition", "--samples", "2"],
    ["markov", "--samples", "2"],
    ["counterexamples", "--n", "6", "--three-n", "12"],
    ["exponent", "--n", "12"],
], ids=lambda argv: argv[0])
def test_every_verify_suite_runs_at_a_small_size(capsys, argv):
    code, report = run_json(capsys, ["verify", *argv])
    assert code == 0
    assert report["ok"] is True
    assert report["results"]["suite"] == argv[0]
    assert report["results"].get("all_hold", True) is True


# ---------------------------------------------------------------------------
# invariance subcommands


def test_invariance_hyper(workdir, capsys):
    code, report = run_json(
        capsys,
        ["invariance", "hyper", "--dist", workdir / "basic.dist",
         "--fn", workdir / "dictator.json", "--n", "2"],
    )
    assert code == 0
    res = report["results"]
    assert res["noise_inequality"]["holds"] is True
    assert res["degree_inequality"]["holds"] is True
    assert res["method"] == "exact"
    # the discrete ensemble is enumerated: no draws to seed or count
    assert not {"seed", "samples", "stderr"} & set(res)


def test_invariance_gap(workdir, capsys):
    code, report = run_json(
        capsys,
        ["invariance", "gap", "--dist", workdir / "basic.dist",
         "--fn", workdir / "dictator.json", "--n", "2",
         "--lambda", "0.2", "--samples", "20000", "--seed", "7"],
    )
    assert code == 0
    res = report["results"]
    assert res["holds"] is True
    assert res["gaussian_estimate"]["kind"] == "monte-carlo"
    assert res["samples"] == 20000


def test_invariance_smooth(workdir, capsys):
    code, report = run_json(
        capsys,
        ["invariance", "smooth", "--dist", workdir / "basic.dist",
         "--fn", workdir / "dictator.json", "--n", "2",
         "--gamma", "0.01", "--eps", "0.25"],
    )
    assert code == 0
    assert report["results"]["holds"] is True


def test_invariance_smooth_expands_within_the_budget(monkeypatch, capsys):
    """`--budget` bounds the expansion of each step function, so the 3^4
    alphabet points of the residue function are refused before any
    polynomial or the 6^4 support grid is built."""
    monkeypatch.chdir(pathlib.Path(__file__).resolve().parents[1])
    code, report = run_json(
        capsys,
        ["invariance", "smooth", "--dist", "demos/data/basic.dist",
         "--fn", "demos/data/modlinear.json", "--n", "4", "--budget", "10",
         "--gamma", "0.1", "--eps", "0.5", "--json"],
    )
    assert code == 1
    assert report["results"] == {
        "refusal": "3^4 points exceed the exact-enumeration budget 10"
    }


def test_invariance_rhc(workdir, capsys):
    code, report = run_json(
        capsys,
        ["invariance", "rhc", "--ell", "2", "--rho", "0.5",
         "--samples", "50000", "--seed", "3"],
    )
    assert code == 0
    res = report["results"]
    assert res["holds"] is True
    assert res["psd_condition"]["holds"] is True


def test_invariance_mollifier_value_and_grid(workdir, capsys):
    code, report = run_json(
        capsys, ["invariance", "mollifier", "--lambda", "0.1", "--x", "0.5"]
    )
    assert code == 0
    assert report["results"]["phi_lambda"]["value"] == pytest.approx(0.5, abs=1e-12)

    code, report = run_json(capsys, ["invariance", "mollifier", "--lambda", "0.1"])
    assert code == 0
    assert report["ok"] is True


# ---------------------------------------------------------------------------
# determinism and exit codes


def test_reports_are_deterministic_modulo_wall_time(workdir, capsys):
    argv = ["invariance", "rhc", "--ell", "2", "--rho", "0.5",
            "--samples", "20000", "--seed", "9"]
    _, first = run_json(capsys, argv)
    _, second = run_json(capsys, argv)
    first.pop("wall_time_s")
    second.pop("wall_time_s")
    assert first == second


def test_missing_file_exits_two(workdir, capsys):
    code, captured = run_cli(capsys, ["inspect", workdir / "nope.dist"])
    assert code == 2
    assert captured.out == ""
    assert "error:" in captured.err


def test_malformed_distribution_exits_two(workdir, capsys):
    bad = workdir / "bad.dist"
    bad.write_text("alphabet 0 1\nsteps 2\nentry 0 0 1/2\n")
    code, captured = run_cli(capsys, ["inspect", bad])
    assert code == 2
    assert "error:" in captured.err


MOD_DOC = {
    "n": 2, "alphabet": list(TRIT), "kind": "mod_linear",
    "modulus": 3, "coeffs": [1, 1], "residue": 0,
}
WINDOW_DOC = {"n": 2, "alphabet": list(TRIT), "kind": "anchored_symmetric"}


@pytest.mark.parametrize("doc", [
    {**MOD_DOC, "symbol_map": [0, 1]},
    {**WINDOW_DOC, "windows": {"0": [0]}},
    {**WINDOW_DOC, "windows": {"0": [0, 1]}, "anchor": [1]},
], ids=["short-symbol-map-list", "window-not-a-pair", "anchor-not-a-pair"])
def test_malformed_function_document_exits_two(workdir, capsys, doc):
    bad = workdir / "bad.json"
    bad.write_text(json.dumps(doc))
    code, captured = run_cli(capsys, ["fourier", "--dist", workdir / "basic.dist", "--fn", bad])
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith(f"error: {bad}: ")


@pytest.mark.parametrize("doc, message", [
    ({**WINDOW_DOC, "windows": [["0", [0, 1]]]}, "windows must be an object"),
    ({**MOD_DOC, "symbol_map": 3}, "symbol_map must be a list or an object"),
    ([MOD_DOC], "a function document must be a JSON object"),
    ({**MOD_DOC, "symbol_map": [0, 1, 2], "n": [1]}, "n must be an integer, not [1]"),
    ({**MOD_DOC, "symbol_map": [0, 1, 2], "coeffs": 3}, "coeffs must be a list, not 3"),
    (MOD_DOC, "the field 'symbol_map' is missing"),
    ({"n": 1, "alphabet": list(TRIT), "kind": "table", "values": ["1/0", 0, 0]},
     "zero denominator in weight '1/0'"),
    ({"n": 1, "alphabet": list(TRIT), "kind": "table", "values": [10**400, 0, 0]},
     "a table value is too large for a float"),
], ids=["windows-a-list", "symbol-map-a-number", "document-a-list", "n-a-list",
        "coeffs-a-number", "symbol-map-missing", "value-over-zero", "value-past-float"])
def test_function_document_of_the_wrong_shape_exits_two(workdir, capsys, doc, message):
    bad = workdir / "bad.json"
    bad.write_text(json.dumps(doc))
    code, captured = run_cli(capsys, ["fourier", "--dist", workdir / "basic.dist", "--fn", bad])
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith(f"error: {bad}: {message}")
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("argv, what", [
    (["fourier"], "fourier"),
    (["invariance", "hyper"], "invariance hyper"),
    (["reduce", "--n", "1", "--eps", "0.25"], "the density loop"),
], ids=["fourier", "invariance-hyper", "reduce-density"])
def test_single_function_commands_refuse_a_second_fn(workdir, capsys, argv, what):
    code, captured = run_cli(capsys, [
        *argv, "--dist", workdir / "basic.dist",
        "--fn", workdir / "dictator.json", "--fn", workdir / "table.json",
    ])
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"error: {what} takes exactly one function\n"


@pytest.mark.parametrize("argv", [["fourier"], ["invariance", "hyper"]],
                         ids=["fourier", "invariance-hyper"])
def test_a_step_past_the_distribution_is_a_usage_error(workdir, capsys, argv):
    """A --step past the distribution's steps once exited 1 with a refusal
    in the report."""
    code, captured = run_cli(capsys, [
        *argv, "--dist", workdir / "basic.dist", "--fn", workdir / "dictator.json",
        "--step", "3",
    ])
    assert code == 2
    assert captured.out == ""
    assert captured.err == "error: --step 3 exceeds the distribution's 2 steps\n"


@pytest.mark.parametrize("argv, count, what", [
    (["hit"], 3, "hit takes one function, or one per step"),
    (["invariance", "gap", "--lambda", "0.1", "--samples", "100"], 3,
     "invariance gap takes one function, or one per step"),
    (["invariance", "smooth", "--gamma", "0.1", "--eps", "0.1"], 3,
     "invariance smooth takes one function, or one per step"),
    (["reduce", "--tau", "0.1"], 1, "the influence loop takes exactly one function per step"),
    (["reduce", "--tau", "0.1"], 3, "the influence loop takes exactly one function per step"),
], ids=["hit-three", "gap-three", "smooth-three", "reduce-tau-one", "reduce-tau-three"])
def test_per_step_commands_refuse_a_wrong_fn_count(workdir, capsys, argv, count, what):
    code, captured = run_cli(capsys, [
        *argv, "--dist", workdir / "basic.dist", *["--fn", workdir / "dictator.json"] * count,
    ])
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"error: {what} of the distribution (2)\n"


def test_inspect_refuses_a_distribution_too_large_to_build(workdir, capsys):
    big = workdir / "big.dist"
    big.write_text("alphabet 0 1\nsteps 40\nentry " + "0 " * 40 + "1\n")
    code, captured = run_cli(capsys, ["inspect", big])
    assert code == 2
    assert captured.out == ""
    assert captured.err == (
        f"error: {big}: 2 symbols over 40 steps make more than 16777216 weights\n"
    )


def test_fourier_reads_a_list_symbol_map(workdir, capsys):
    (workdir / "mod.json").write_text(json.dumps({**MOD_DOC, "symbol_map": [0, 1, 2]}))
    code, report = run_json(
        capsys, ["fourier", "--dist", workdir / "basic.dist", "--fn", workdir / "mod.json"]
    )
    assert code == 0
    assert report["results"]["expectation"]["value"] == "1/3"
    # every coordinate's influence, not only the first
    assert [v["value"] for v in report["results"]["influences"]] == ["2/9", "2/9"]


def test_unknown_subcommand_exits_two(workdir, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


_DIST_FN = ["--dist", "basic.dist", "--fn", "dictator.json"]

# a valid command line per subcommand or suite, and the options it does not take
_COMMANDS = {
    "inspect": ["inspect", "basic.dist"],
    "decompose": ["decompose", "basic.dist"],
    "fourier": ["fourier", *_DIST_FN],
    "hit": ["hit", *_DIST_FN],
    "reduce": ["reduce", *_DIST_FN, "--n", "2", "--eps", "0.25"],
    "hyper": ["invariance", "hyper", *_DIST_FN, "--n", "2"],
    "smooth": ["invariance", "smooth", *_DIST_FN, "--gamma", "0.01", "--eps", "0.25"],
    "rhc": ["invariance", "rhc", "--samples", "1000"],
    "mollifier": ["invariance", "mollifier", "--lambda", "0.1", "--x", "0.5"],
    "edge-variance": ["verify", "edge-variance", "--samples", "1"],
    "decomposition": ["verify", "decomposition", "--samples", "1"],
    "markov": ["verify", "markov", "--samples", "1"],
    "counterexamples": ["verify", "counterexamples", "--n", "6", "--three-n", "12"],
    "exponent": ["verify", "exponent", "--n", "12"],
}
_UNREAD_OPTIONS = {
    "inspect": ("--budget", "--seed", "--samples"),
    "decompose": ("--budget", "--seed", "--samples"),
    "mollifier": ("--budget", "--seed", "--samples"),
    "fourier": ("--seed", "--samples"),
    "hit": ("--seed", "--samples"),
    "reduce": ("--seed", "--samples"),
    "hyper": ("--seed", "--samples"),
    "smooth": ("--seed", "--samples"),
    "rhc": ("--budget",),
    "edge-variance": ("--n", "--three-n", "--budget"),
    "decomposition": ("--n", "--three-n", "--budget"),
    "markov": ("--n", "--three-n"),
    "counterexamples": ("--seed", "--samples"),
    "exponent": ("--three-n", "--seed", "--samples"),
}


@pytest.mark.parametrize("argv, refusal", [
    *[pytest.param([*_COMMANDS[name], flag, "1"], f"unrecognized arguments: {flag} 1",
                   id=f"{name}{flag}")
      for name, flags in _UNREAD_OPTIONS.items() for flag in flags],
    pytest.param([*_COMMANDS["fourier"], "--engine", "dp"],
                 "unrecognized arguments: --engine dp", id="fourier--engine"),
    pytest.param([*_COMMANDS["inspect"], "--engine", "dp"],
                 "unrecognized arguments: --engine dp", id="inspect--engine"),
    pytest.param(["verify", "exponent", "--n", "30,1"],
                 "argument --n: expected an integer >= 1, got '30,1'", id="exponent--n-list"),
])
def test_options_a_handler_does_not_read_are_usage_errors(workdir, capsys, argv, refusal):
    """Each subcommand and suite parses only the options its handler reads.
    `inspect --seed 9` once exited 0 with `"seed": 9` in its report, and
    `verify exponent --n 30,1` read only the 30."""
    code = run_usage_error([workdir / a if a.endswith((".dist", ".json")) else a for a in argv])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.endswith(f"error: {refusal}\n")


def test_readme_command_lines_run(monkeypatch, capsys):
    """Every `corrhit ...` line of the README's "Command line" block parses
    and exits 0, so a moved flag cannot leave the README stale."""
    root = pathlib.Path(__file__).resolve().parents[1]
    section = (root / "README.md").read_text().split("## Command line", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    lines = [
        shlex.split(line)[1:] for line in block.replace("\\\n", " ").splitlines()
        if line.startswith("corrhit ")
    ]
    assert len(lines) >= 5
    monkeypatch.chdir(root)
    for argv in lines:
        assert main(argv) == 0, argv
        capsys.readouterr()


def test_module_entry_point(workdir):
    proc = subprocess.run(
        [sys.executable, "-m", "corrhit", "inspect", str(workdir / "basic.dist")],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    report = json.loads(proc.stdout)
    assert report["results"]["alpha"]["value"] == "1/6"


def test_closed_pipe_ends_quietly(workdir):
    # as in `corrhit decompose basic.dist | head -1`: the reader is gone
    # before the report is written
    proc = subprocess.Popen(
        [sys.executable, "-m", "corrhit", "decompose", str(workdir / "basic.dist")],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=120) == 0
    assert err == ""


# modules that only the test oracles (scipy), the Monte Carlo draws
# (numpy.random), the quadrature tables (numpy.polynomial) or the hashing of
# CLI input files (hashlib and OpenSSL's _hashlib) read
NOT_LOADED_AT_IMPORT = (
    "scipy", "numpy.random", "numpy.polynomial", "hashlib", "_hashlib",
)


def test_import_leaves_scipy_out():
    """`import corrhit, corrhit.cli` loads none of NOT_LOADED_AT_IMPORT, nor
    any of their submodules."""
    # a None entry marks an import that was blocked, not a loaded module
    code = (
        "import sys, corrhit, corrhit.cli; "
        f"names = {NOT_LOADED_AT_IMPORT!r}; "
        "print(sorted(m for m, mod in sys.modules.items() if mod is not None "
        "and any(m == x or m.startswith(x + '.') for x in names)))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
    )
    assert proc.stdout.strip() == "[]"
