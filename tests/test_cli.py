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
from corrhit.cli import main
from corrhit.fourier import (
    format_function,
    make_anchored_symmetric,
    make_junta,
    make_table_function,
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
    assert set(report) == {
        "command", "inputs", "seed", "ok", "results", "wall_time_s",
    }
    assert report["ok"] is True
    assert report["seed"] == 0
    (path, digest), = report["inputs"].items()
    assert path.endswith("basic.dist")
    assert digest.startswith("sha256:") and len(digest) == len("sha256:") + 64


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


def test_hit_dp_refuses_juntas(workdir, capsys):
    code, report = run_json(
        capsys,
        ["hit", "--dist", workdir / "basic.dist",
         "--fn", workdir / "dictator.json", "--n", "1", "--engine", "dp"],
    )
    assert code == 1
    assert report["ok"] is False
    assert "refusal" in report["results"]


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
    (["verify", "exponent", "--n", "12,1.5"], "--n", "integers"),
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
])
def test_out_of_range_counts_are_usage_errors(capsys, argv, flag, low):
    """`--samples 0` once exited 1 with a division by zero, `--samples 1`
    reported a standard error that one draw cannot give, and `--ell 0` or
    `-1` failed later under another flag's name."""
    code = run_usage_error(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.endswith(
        f"error: argument {flag}: expected an integer >= {low}, got {argv[-1]!r}\n"
    )


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
    (["invariance", "hyper", "--samples", "100"], "invariance hyper"),
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


@pytest.mark.parametrize("argv", [
    ["fourier", "--dist", "basic.dist", "--fn", "dictator.json", "--engine", "dp"],
    ["inspect", "basic.dist", "--engine", "dp"],
])
def test_engine_is_an_option_of_hit_only(workdir, capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main([str(workdir / a) if "." in a else a for a in argv])
    assert exc.value.code == 2


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


def test_import_leaves_scipy_out():
    code = (
        "import sys, corrhit, corrhit.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
    )
    assert proc.stdout.strip() == "[]"
