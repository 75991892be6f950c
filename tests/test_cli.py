"""End-to-end checks of the command-line surface and its exit codes."""

import contextlib
import io
import json
import math
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fractaylor import BiFracSeries, FracOrders, cli, eval_series, gammafn
from fractaylor.cases import EXAMPLES, exact_classical, example_problem
from fractaylor.cli import MAX_ROWS, TABLE_DEFAULTS, _recover, main
from fractaylor.problem import MAX_WIDTH, problem_from_config

DATA = Path(__file__).parent / "data"


def write_config(tmp_path, name="case.json", **overrides):
    cfg = {
        "alpha": 1.0,
        "beta": 1.0,
        "nt": 6,
        "nx": 8,
        "kmax": 4,
        "phi": {"kind": "ml_power", "m": 2},
        "mu1": {"kind": "zero"},
        "mu2": {"kind": "separable", "lambda": 2.0},
        "f": "self",
    }
    cfg.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --- forward --------------------------------------------------------------


def test_forward_with_inversion_prints_eight_digits(tmp_path, capsys):
    cfg = write_config(tmp_path)
    code, out, _ = run(
        capsys, "forward", "--config", cfg, "--x", "0.5", "--t", "0.05",
        "--invert", "--nt", "12", "--nx", "12",
    )
    assert code == 0
    assert abs(float(out) - math.exp(0.35)) < 1e-5
    assert out.strip() == f"{float(out):.8g}"


def test_forward_with_known_p(tmp_path, capsys):
    cfg = write_config(tmp_path, p={"kind": "coeffs", "values": [0.0, 0.0, -8.0]})
    code, out, _ = run(capsys, "forward", "--config", cfg, "--x", "0.25", "--t", "0.1")
    assert code == 0
    assert abs(float(out) - math.exp(0.2 + 0.0625)) < 1e-4


def test_forward_constant_data(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        phi={"kind": "coeffs", "values": [7.0] + [0.0] * 22},
        mu1={"kind": "zero"},
        mu2={"kind": "zero"},
        p={"kind": "coeffs", "values": [0.0]},
    )
    code, out, _ = run(capsys, "forward", "--config", cfg, "--x", "0.7", "--t", "0.3")
    assert code == 0
    assert float(out) == pytest.approx(7.0, rel=1e-12)


def test_forward_without_p_is_config_error(tmp_path, capsys):
    cfg = write_config(tmp_path)
    code, _, err = run(capsys, "forward", "--config", cfg, "--x", "0.5", "--t", "0.1")
    assert code == 2
    assert "p" in err


def test_invalid_alpha_is_config_error(tmp_path, capsys):
    cfg = write_config(tmp_path, alpha=0.0)
    code, _, err = run(capsys, "forward", "--config", cfg, "--x", "0.5", "--t", "0.1", "--invert")
    assert code == 2
    assert "alpha" in err


# --- invert ---------------------------------------------------------------


def test_invert_case1_prints_coefficient_table(tmp_path, capsys):
    cfg = write_config(tmp_path, nx=18, kmax=4)
    code, out, _ = run(capsys, "invert", "--config", cfg)
    assert code == 0
    assert "mode: separable" in out
    assert "lambda: 2" in out
    rows = {}
    for line in out.splitlines():
        parts = line.split()
        if parts and parts[0].isdigit():
            rows[int(parts[0])] = (float(parts[1]), float(parts[2]))
    assert rows[2][0] == pytest.approx(-8.0, abs=1e-9)
    assert rows[2][1] == pytest.approx(-4.0, abs=1e-9)  # monomial value


def test_invert_case2_prints_coefficient_table(tmp_path, capsys):
    cfg = write_config(tmp_path, phi={"kind": "ml_power", "m": 3},
                       mu2={"kind": "separable", "lambda": 1.0}, nx=18, kmax=6)
    code, out, _ = run(capsys, "invert", "--config", cfg)
    assert code == 0
    rows = {}
    for line in out.splitlines():
        parts = line.split()
        if parts and parts[0].isdigit():
            rows[int(parts[0])] = (float(parts[1]), float(parts[2]))
    assert rows[0][0] == pytest.approx(1.0, abs=1e-9)
    assert rows[1][0] == pytest.approx(-6.0, abs=1e-9)
    assert rows[1][1] == pytest.approx(-6.0, abs=1e-9)
    assert rows[4][0] == pytest.approx(-216.0, abs=1e-9)
    assert rows[4][1] == pytest.approx(-9.0, abs=1e-9)


def test_invert_separable_mode_rejects_non_geometric_data(tmp_path, capsys):
    cfg = write_config(tmp_path, mu2={"kind": "coeffs", "values": [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0]})
    code, _, err = run(capsys, "invert", "--config", cfg, "--mode", "separable")
    assert code == 3
    assert "geometric" in err or "separable" in err


def test_invert_newton_nonconvergence_exits_4(tmp_path, capsys):
    cfg = write_config(
        tmp_path, nt=3,
        mu1={"kind": "coeffs", "values": [0.0, 3.0, -1.0, 7.0]},
        mu2={"kind": "coeffs", "values": [1.0, 7.0, -3.0, 5.0]},
    )
    code, out, _ = run(capsys, "invert", "--config", cfg, "--mode", "newton")
    assert code == 4
    assert "converged: no" in out


def test_invert_newton_does_not_converge_on_an_unfit_level_0(tmp_path, capsys):
    # phi fixes the level-0 traces, which no p can move: mu2 = 0 misses
    # phi's x = 1 trace, so the report cannot converge whatever levels
    # 1..depth Gauss-Newton fits
    cfg = write_config(tmp_path, nt=4, kmax=2, mu2={"kind": "zero"})
    code, out, err = run(capsys, "invert", "--config", cfg, "--mode", "newton")
    assert (code, err) == (4, "")
    assert "forward residual: 5.4365e+00" in out.splitlines()
    assert "converged: no" in out.splitlines()


def test_invert_auto_falls_back_to_newton(tmp_path, capsys):
    # consistent but non-geometric data: march a non-separable coefficient
    from pathlib import Path

    from fractaylor import forward_march, problem_from_config, XSeries

    base = json.loads(Path(write_config(tmp_path, nt=3, nx=6, kmax=2)).read_text())
    spec = problem_from_config(base)
    data = forward_march(spec, XSeries(1.0, (0.5, 0.0, -1.0)))
    cfg = write_config(
        tmp_path, "mixed.json", nt=3, nx=6, kmax=2,
        mu1={"kind": "coeffs", "values": list(data.bc_trace_x0.coeffs)},
        mu2={"kind": "coeffs", "values": list(data.bc_trace_x1.coeffs)},
    )
    code, out, _ = run(capsys, "invert", "--config", cfg, "--mode", "auto")
    assert code == 0
    assert "mode: newton" in out
    assert "converged: yes" in out


def assert_one_line_solver_error(code, out, err, text):
    assert code == 3
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("solver error:") and text in err


# nt = 1 gives two trace equations; kmax = 4 asks for five unknowns, and the
# non-geometric mu2 sends the auto mode to Newton
UNDERDETERMINED = {"nt": 1, "nx": 4, "kmax": 4,
                   "mu2": {"kind": "coeffs", "values": [1.0, 3.0, 2.0]}}


@pytest.mark.parametrize("mode", ["auto", "newton"])
def test_invert_underdetermined_newton_is_solver_error(tmp_path, capsys, mode):
    cfg = write_config(tmp_path, **UNDERDETERMINED)
    assert_one_line_solver_error(
        *run(capsys, "invert", "--config", cfg, "--mode", mode),
        "underdetermined: 2 usable trace equations for 5 unknowns",
    )


def test_forward_invert_underdetermined_newton_is_solver_error(tmp_path, capsys):
    cfg = write_config(tmp_path, **UNDERDETERMINED)
    assert_one_line_solver_error(
        *run(capsys, "forward", "--config", cfg, "--x", "0.5", "--t", "0.1", "--invert"),
        "underdetermined: 2 usable trace equations for 5 unknowns",
    )


# auto does not fall back to Newton on degenerate data: Newton stalls on
# phi_0 = 0 and never fits level 0 of mu2 = 0 (see README, Exit codes)
@pytest.mark.parametrize(
    "overrides, text",
    [
        ({"phi": {"kind": "coeffs", "values": [0.0] + [1.0] * 16}}, "phi_0 = 0"),
        ({"mu2": {"kind": "zero"}}, "mu2 is identically zero"),
    ],
    ids=["phi0-zero", "mu2-zero"],
)
def test_invert_auto_on_degenerate_data_is_solver_error(tmp_path, capsys, overrides, text):
    cfg = write_config(tmp_path, nt=4, kmax=2, **overrides)
    assert_one_line_solver_error(*run(capsys, "invert", "--config", cfg), text)


@pytest.mark.parametrize("bad", [None, [2.0], True, "2"])
def test_forward_rejects_non_real_source_entries(tmp_path, capsys, bad):
    cfg = write_config(
        tmp_path, f={"kind": "coeffs2d", "values": [[1.0, bad]]},
        p={"kind": "coeffs", "values": [0.0]},
    )
    code, out, err = run(capsys, "forward", "--config", cfg, "--x", "0.5", "--t", "0.1")
    assert_one_line_config_error(code, out, err)
    assert "f values must be lists of real numbers" in err


# --- table ----------------------------------------------------------------

TABLE_ARGS = [
    "table", "--example", "1", "--alphas", "1,0.9,0.7", "--betas", "1,0.9,0.7",
    "--x-eval", "0.5", "--t-start", "0.05", "--t-step", "0.05", "--rows", "10",
]


def test_table_layout_and_exact_column(capsys):
    code, out, _ = run(capsys, *TABLE_ARGS)
    assert code == 0
    lines = out.strip().split("\n")
    assert len(lines) == 11
    labels = [
        "E(1,1)", "E(1,0.9)", "E(1,0.7)",
        "E(0.9,1)", "E(0.9,0.9)", "E(0.9,0.7)",
        "E(0.7,1)", "E(0.7,0.9)", "E(0.7,0.7)",
    ]
    assert lines[0] == "t,exact," + ",".join(labels)
    for k, line in enumerate(lines[1:]):
        cells = line.split(",")
        assert len(cells) == 11
        t = 0.05 + 0.05 * k
        assert cells[1] == f"{math.exp(2 * t + 0.25):.5f}"
        for cell in cells[2:]:
            value = float(cell)
            assert math.isfinite(value) and value >= 0.0


def test_table_is_deterministic(capsys):
    _, first, _ = run(capsys, *TABLE_ARGS)
    _, second, _ = run(capsys, *TABLE_ARGS)
    assert first == second


def test_table_error_column_shrinks_with_depth(capsys):
    # classical-limit cell: deeper marches cannot increase the error
    per_depth = []
    for nt in (6, 8, 10, 12):
        code, out, _ = run(
            capsys, "table", "--example", "1", "--alphas", "1", "--betas", "1",
            "--rows", "10", "--nt", str(nt),
        )
        assert code == 0
        rows = [line.split(",") for line in out.strip().split("\n")[1:]]
        per_depth.append([float(cells[2]) for cells in rows])
    for shallow, deep in zip(per_depth, per_depth[1:]):
        for a, b in zip(shallow, deep):
            assert b <= a + 1e-13  # slack for jitter at the rounding floor


def test_table_writes_file_with_lf_endings(tmp_path, capsys):
    out_path = tmp_path / "table.csv"
    code, out, _ = run(capsys, *TABLE_ARGS, "--rows", "3", "--output", str(out_path))
    assert code == 0
    assert out == ""
    data = out_path.read_bytes()
    assert b"\r" not in data
    assert data.decode().count("\n") == 4


def test_table_text_format(capsys):
    code, out, _ = run(capsys, "table", "--example", "2", "--rows", "2",
                       "--format", "text", "--t-start", "0.005", "--t-step", "0.005",
                       "--x-eval", "1.0")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0].split() == ["t", "exact"] + [
        f"E({a},{b})" for a in ("1", "0.9", "0.7") for b in ("1", "0.9", "0.7")
    ]
    assert lines[1].split()[0] == "0.005"
    # exact column at x = 1: exp(t + 1)
    assert lines[1].split()[1] == f"{math.exp(0.005 + 1.0):.5f}"


def test_table_custom_config_reference_is_classical_run(tmp_path, capsys):
    cfg = write_config(tmp_path)
    code, out, _ = run(capsys, "table", "--config", cfg, "--alphas", "1", "--betas", "1",
                       "--rows", "3", "--nt", "12", "--nx", "12", "--kmax", "4")
    assert code == 0
    rows = [line.split(",") for line in out.strip().split("\n")[1:]]
    # reference equals the cell's own solution at (1,1): error column ~ 0
    for cells in rows:
        assert float(cells[2]) == 0.0
        t = float(cells[0])
        assert abs(float(cells[1]) - math.exp(2 * t + 0.25)) < 1e-4


def test_table_custom_config_keeps_its_truncations(tmp_path, capsys):
    # without flags the config's own nt/nx/kmax apply (width 2*6+8+1 = 21),
    # so a phi too short for the table defaults still works
    cfg = write_config(tmp_path, nt=6, nx=8, kmax=2,
                       phi={"kind": "coeffs",
                            "values": [float(v) for v in range(1, 22)]})
    code, out, _ = run(capsys, "table", "--config", cfg, "--alphas", "1",
                       "--betas", "1", "--rows", "2")
    assert code == 0
    assert len(out.strip().split("\n")) == 3


def recovery_bits(report):
    """Every float of a report and its march as bytes, so that -0.0 and NaN compare exactly."""
    sol = report.solution
    floats = [report.p.coeffs, sol.u.array, sol.bc_trace_x0.coeffs, sol.bc_trace_x1.coeffs,
              [report.forward_residual, math.nan if report.lam is None else report.lam]]
    flags = (report.mode, report.lam is None, report.converged, report.iterations, sol.u.sizes)
    return flags, [np.asarray(v, dtype=float).tobytes() for v in floats]


@pytest.mark.parametrize(
    "case, beta",
    [(e, beta) for e in EXAMPLES for beta in (1.0, 0.9, 0.7)]
    + [(name, None) for name in ("newton_pool_self_k4", "newton_pool_known_k2",
                                 "newton_pool_self_k3_linesearch", "newton_stall_10_16_4")],
)
def test_recovery_does_not_read_alpha(case, beta):
    # table solves once per beta and relabels the solution for each alpha;
    # the golden Newton configs carry their own beta
    def spec_at(alpha):
        if beta is not None:
            return example_problem(case, alpha, beta, **TABLE_DEFAULTS)
        cfg = json.loads((DATA / f"{case}.json").read_text())
        return problem_from_config({**cfg, "alpha": alpha})

    mode = "auto" if beta is not None else "newton"
    first, *rest = [recovery_bits(_recover(spec_at(a), mode)) for a in (1.0, 0.9, 0.7, 0.3)]
    assert all(bits == first for bits in rest)


@pytest.mark.parametrize(
    "argv, recoveries",
    [
        (["--example", "1"], 3),
        (["--example", "2", "--alphas", "1,0.5", "--betas", "0.9,0.9"], 1),
        # the exact column at (1, 1) shares the beta = 1 solve
        (["--config", str(DATA / "table_config_sep.json")], 3),
    ],
)
def test_table_recovers_once_per_beta(capsys, monkeypatch, argv, recoveries):
    calls = []

    def counting_recover(spec, mode):
        calls.append(spec.orders)
        return _recover(spec, mode)

    monkeypatch.setattr(cli, "_recover", counting_recover)
    code, _, err = run(capsys, "table", *argv)
    assert (code, err) == (0, "")
    assert len(calls) == recoveries


ORDERS = st.one_of(st.sampled_from([1.0, 0.9, 0.5]), st.floats(0.3, 1.0))


@settings(max_examples=60, deadline=None)
@given(
    example=st.sampled_from(sorted(EXAMPLES)),
    alphas=st.lists(ORDERS, min_size=1, max_size=4),
    betas=st.lists(ORDERS, min_size=1, max_size=3),
    x=st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)),
    rows=st.integers(1, 10),
)
def test_table_cells_are_the_per_cell_series_values(example, alphas, betas, x, rows):
    # every cell is |eval_series(the beta solution relabelled to (alpha, beta)) - exact|,
    # printed from the same bits
    argv = ["table", "--example", str(example), "--alphas", ",".join(map(repr, alphas)),
            "--betas", ",".join(map(repr, betas)), "--x-eval", repr(x), "--t-start", "0",
            "--rows", str(rows)]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv) == 0
    printed = [line.split(",")[2:] for line in out.getvalue().splitlines()[1:]]

    ts = [0.0 + k * 0.05 for k in range(rows)]
    exact = [exact_classical(example, x, t) for t in ts]
    solved = {beta: _recover(example_problem(example, 1.0, beta, **TABLE_DEFAULTS), "auto")
              for beta in betas}
    columns = []
    for alpha in alphas:
        for beta in betas:
            u = solved[beta].solution.u
            relabelled = BiFracSeries(FracOrders(alpha, beta),
                                      [row[:n] for row, n in zip(u.array, u.sizes)])
            columns.append([f"{e:.2e}" for e in np.abs(eval_series(relabelled, x, ts) - exact)])
    assert printed == [list(cells) for cells in zip(*columns)]


def test_table_without_time_levels_is_solver_error(capsys):
    assert_one_line_solver_error(
        *run(capsys, "table", "--example", "1", "--nt", "0"),
        "underdetermined: 0 usable trace equations for 9 unknowns",
    )


# nt = 0 leaves one trace level, and an empty mu1 shares none of it
EMPTY_MU1 = {"nt": 0, "mu1": {"kind": "coeffs", "values": []},
             "mu2": {"kind": "coeffs", "values": [1.0, 2.0]}}


@pytest.mark.parametrize(
    "argv, text",
    [
        (["invert", "--mode", "separable"], "no usable trace depth"),
        (["invert"], "no usable trace depth"),
        (["table"], "no usable trace depth"),
        (["invert", "--mode", "newton"], "underdetermined: 0 usable trace equations for 5 unknowns"),
    ],
    ids=["separable", "auto", "table", "newton"],
)
def test_empty_trace_data_is_solver_error(tmp_path, capsys, argv, text):
    cfg = write_config(tmp_path, **EMPTY_MU1)
    assert_one_line_solver_error(*run(capsys, *argv, "--config", cfg), text)


def test_table_validation_errors(tmp_path, capsys):
    code, _, err = run(capsys, *TABLE_ARGS[:-1], "0")  # rows = 0
    assert code == 2 and "rows" in err
    code, _, err = run(capsys, "table", "--example", "1", "--alphas", "1.5")
    assert code == 2 and "alphas" in err
    code, _, err = run(capsys, "table", "--example", "1", "--t-start", "0.9",
                       "--t-step", "0.05", "--rows", "10")
    assert code == 2 and "[0, 1]" in err


def test_table_rows_past_the_limit_is_config_error(capsys):
    code, out, err = run(capsys, "table", "--example", "1", "--t-step", "0",
                         "--rows", str(MAX_ROWS + 1))
    assert_one_line_config_error(code, out, err)
    assert f"--rows must lie in [1, {MAX_ROWS}], got {MAX_ROWS + 1}" in err


def assert_one_line_config_error(code, out, err):
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("config error:")


def test_nan_lambda_is_config_error(tmp_path, capsys):
    cfg = write_config(tmp_path, mu2={"kind": "separable", "lambda": math.nan})
    assert "NaN" in Path(cfg).read_text()
    assert_one_line_config_error(*run(capsys, "invert", "--config", cfg))


def test_overflowing_lambda_power_is_config_error(tmp_path, capsys):
    # lambda**6 is past the float range
    cfg = write_config(tmp_path, mu2={"kind": "separable", "lambda": 1e300})
    assert_one_line_config_error(*run(capsys, "invert", "--config", cfg))


def test_overflowing_lambda_product_is_config_error(tmp_path, capsys):
    # lambda**2 is finite, the trace sequence entry lambda**2 * c is not
    cfg = write_config(tmp_path, nt=2, mu2={"kind": "separable", "lambda": 1.3e154})
    assert_one_line_config_error(
        *run(capsys, "forward", "--config", cfg, "--x", "0.5", "--t", "0.1", "--invert")
    )


# every entry of phi is finite, but its x = 1 trace sums them past the float range
OVERFLOWING_TRACE = {"nt": 2, "nx": 4, "kmax": 2, "phi": {"kind": "coeffs", "values": [1e308] * 9}}


def test_overflowing_x1_trace_of_phi_is_config_error(tmp_path, capsys):
    cfg = write_config(tmp_path, **OVERFLOWING_TRACE)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, "invert", "--config", cfg)
    assert_one_line_config_error(code, out, err)
    assert err == "config error: mu2: the x = 1 trace of phi overflows the float range\n"


@pytest.mark.parametrize("argv", [["invert"], ["forward", "--x", "0.5", "--t", "0.5"]])
def test_overflowing_x1_trace_of_the_march_is_config_error(tmp_path, capsys, argv):
    # with p = 0 the march is finite, and so is the data
    cfg = write_config(tmp_path, **OVERFLOWING_TRACE, p={"kind": "coeffs", "values": [0.0]},
                       mu2={"kind": "coeffs", "values": [1.0, 2.0, 3.0]})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, *argv, "--config", cfg)
    assert_one_line_config_error(code, out, err)
    assert err == "config error: the x = 1 trace of the march overflows the float range\n"


def test_overflowing_separable_solve_is_config_error(tmp_path, capsys):
    # lam = 1e10 passes the ratio test, and lam * phi_2 is past the float range
    cfg = write_config(tmp_path, nt=4, nx=8, kmax=2,
                       phi={"kind": "coeffs", "values": [1.0, 0.0, 1e300] + [0.0] * 14},
                       mu2={"kind": "coeffs", "values": [1.0, 1e10, 1e20, 1e30, 1e40]})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, "invert", "--config", cfg, "--mode", "separable")
    assert_one_line_config_error(code, out, err)
    assert err == "config error: the separable solve for p overflows the float range\n"


BIG = 10**400  # a JSON integer past the float range


@pytest.mark.parametrize(
    "overrides",
    [
        {"alpha": BIG},
        {"phi": {"kind": "coeffs", "values": [1.0, BIG]}},
        {"mu1": {"kind": "coeffs", "values": [0.0, BIG]}},
        {"p": {"kind": "coeffs", "values": [0.0, -BIG]}},
        {"mu2": {"kind": "separable", "lambda": BIG}},
        {"f": {"kind": "coeffs2d", "values": [[1.0, BIG]]}},
    ],
    ids=["alpha", "phi", "mu1", "p", "lambda", "coeffs2d"],
)
def test_integer_past_float_range_is_config_error(tmp_path, capsys, overrides):
    cfg = write_config(tmp_path, **{"p": {"kind": "coeffs", "values": [0.0]}, **overrides})
    assert str(BIG) in Path(cfg).read_text()
    assert_one_line_config_error(
        *run(capsys, "forward", "--config", cfg, "--x", "0.5", "--t", "0.1")
    )


@pytest.mark.parametrize(
    "old, new",
    [
        ('"alpha": 1.0', '"alpha": 1' + "0" * 5000),
        ('"f": "self"', '"f": ' + "[" * 100000 + "]" * 100000),
    ],
    ids=["integer-past-digit-limit", "nested-100000-deep"],
)
def test_undecodable_json_is_config_error(tmp_path, capsys, old, new):
    # Python's int() refuses more than 4300 digits by default, and the JSON
    # decoder recurses once per nesting level
    path = Path(write_config(tmp_path))
    path.write_text(path.read_text().replace(old, new))
    assert new in path.read_text()
    assert_one_line_config_error(*run(capsys, "invert", "--config", str(path)))


def test_config_that_is_not_utf8_is_config_error(tmp_path, capsys):
    path = tmp_path / "latin.json"
    path.write_bytes(b"\xff\xfe{}")
    code, out, err = run(capsys, "invert", "--config", str(path))
    assert_one_line_config_error(code, out, err)
    assert f"cannot read config {path}: 'utf-8' codec can't decode" in err


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "overrides, text",
    [
        ({"f": 3}, 'f must be "self" or an object {"kind": "coeffs2d", "values": [[...]]}'),
        ({"f": {"kind": "coeffs", "values": [[1.0]]}}, "f kind must be 'coeffs2d', got 'coeffs'"),
        ({"f": {"kind": "coeffs2d", "values": [[1.0]], "scale": 2}}, "unknown fields in f: scale"),
        ({"f": {"kind": "coeffs2d", "values": []}},
         "f values must be a nonempty list of coefficient lists"),
        ({"f": {"kind": "coeffs2d", "values": [[math.nan]]}},
         "f values invalid: time level 0 contains non-finite coefficients"),
        ({"f": {"kind": "coeffs2d", "values": [[]]}}, "f values invalid: time level 0 is empty"),
        ({"mu1": "zero"}, "mu1 must be a generator object with a 'kind' key"),
        ({"mu2": {"kind": "coeffs", "values": [1.0, math.nan]}},
         "coeffs generator values must all be finite"),
    ],
    ids=["f-number", "f-kind", "f-unknown-key", "f-empty", "f-nan", "f-empty-level",
         "generator-not-object", "coeffs-nan"],
)
def test_malformed_field_is_config_error(tmp_path, capsys, overrides, text):
    code, out, err = run(capsys, "invert", "--config", write_config(tmp_path, **overrides))
    assert_one_line_config_error(code, out, err)
    assert err == f"config error: {text}\n"


@pytest.mark.filterwarnings("error")
def test_config_that_is_a_json_array_is_config_error(tmp_path, capsys):
    path = tmp_path / "array.json"
    path.write_text("[1]")
    code, out, err = run(capsys, "invert", "--config", str(path))
    assert_one_line_config_error(code, out, err)
    assert err == "config error: config document must be a JSON object\n"


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "argv, text",
    [
        (["--x-eval", "1.5"], "--x-eval must lie in [0, 1], got 1.5"),
        (["--alphas", "x"],
         "--alphas must be a comma-separated list of reals: could not convert string to float: 'x'"),
        (["--alphas", ","], "--alphas must name at least one order"),
    ],
    ids=["x-eval", "alphas-not-real", "alphas-empty"],
)
def test_table_flag_errors_are_one_line(capsys, argv, text):
    code, out, err = run(capsys, "table", "--example", "1", *argv)
    assert_one_line_config_error(code, out, err)
    assert err == f"config error: {text}\n"


@pytest.mark.filterwarnings("error")
def test_separable_solve_on_too_narrow_phi_is_solver_error(tmp_path, capsys):
    # nt = 0 and nx = 2 give phi 3 entries, and the triangular solve up to
    # kmax = 2 reads phi_{kmax + 2}
    cfg = write_config(tmp_path, nt=0, nx=2, kmax=2,
                       mu2={"kind": "coeffs", "values": [1.0, 2.0, 4.0]})
    assert_one_line_solver_error(
        *run(capsys, "invert", "--config", cfg),
        "phi width 2 too small for the triangular solve up to kmax=2",
    )


def test_forward_rejects_nan_x(tmp_path, capsys):
    cfg = write_config(tmp_path, p={"kind": "coeffs", "values": [0.0, 0.0, -8.0]})
    assert_one_line_config_error(
        *run(capsys, "forward", "--config", cfg, "--x", "nan", "--t", "0.1")
    )


def test_forward_rejects_infinite_t(tmp_path, capsys):
    cfg = write_config(tmp_path, p={"kind": "coeffs", "values": [0.0, 0.0, -8.0]})
    assert_one_line_config_error(
        *run(capsys, "forward", "--config", cfg, "--x", "0.5", "--t", "inf")
    )


def test_table_rejects_nan_t_start(capsys):
    assert_one_line_config_error(*run(capsys, "table", "--example", "1", "--t-start", "nan"))


def test_table_rejects_nan_t_step(capsys):
    assert_one_line_config_error(*run(capsys, "table", "--example", "1", "--t-step", "nan"))


@pytest.mark.parametrize("target", ["missing/x.csv", "."], ids=["missing-dir", "directory"])
def test_table_unwritable_output_is_config_error(tmp_path, capsys, target):
    code, out, err = run(capsys, "table", "--example", "1", "--output", str(tmp_path / target))
    assert_one_line_config_error(code, out, err)
    assert "cannot write output" in err


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("x, t", [("1e300", "0.5"), ("0.5", "1e300")])
def test_forward_non_finite_value_is_solver_error(capsys, x, t):
    cfg = str(DATA / "table_config_sep.json")
    assert_one_line_solver_error(
        *run(capsys, "forward", "--config", cfg, "--x", x, "--t", t, "--invert"), "not finite"
    )


@pytest.mark.parametrize(
    "golden, argv",
    [
        ("table_example1.csv", ["--example", "1"]),
        ("table_example2.csv", ["--example", "2"]),
        ("table_example2_x0.6123.txt",
         ["--example", "2", "--x-eval", "0.6123", "--format", "text"]),
        # the first alpha is not 1, and the exact column shares the beta = 1 solve
        ("table_config_sep.txt",
         ["--config", str(DATA / "table_config_sep.json"), "--alphas", "0.8,1",
          "--betas", "0.7,1", "--format", "text"]),
        # the 0**0 basis term at x = 0 and t = 0, and repeated orders
        ("table_example1_edges.txt",
         ["--example", "1", "--alphas", "1,0.5,1", "--betas", "0.9,0.9,1", "--x-eval", "0",
          "--t-start", "0", "--rows", "3", "--format", "text"]),
    ],
)
def test_table_output_matches_golden_file(capsys, golden, argv):
    code, out, err = run(capsys, "table", *argv)
    assert (code, err) == (0, "")
    assert out.encode() == (DATA / golden).read_bytes()


@pytest.mark.parametrize(
    "name, exit_code",
    [
        # a self-coupled roundtrip instance at kmax = 4, beta = 0.7
        ("newton_pool_self_k4", 0),
        # a roundtrip instance with a known coeffs2d source, kmax = 2
        ("newton_pool_known_k2", 0),
        # the pool's heaviest solve, self-coupled at kmax = 3, beta = 0.9: 27
        # marches, nine of them rejected line-search trials
        ("newton_pool_self_k3_linesearch", 0),
        # alpha = beta = 0.7, (nt, nx, kmax) = (10, 16, 4): the fit stalls
        ("newton_stall_10_16_4", 4),
        # a zero known source at (2, 4, 2): the traces do not depend on p, so
        # the Jacobian is zero and the report warns that it is rank deficient
        ("newton_rank_deficient", 4),
    ],
)
def test_newton_output_matches_golden_file(capsys, name, exit_code):
    code, out, err = run(capsys, "invert", "--config", str(DATA / f"{name}.json"), "--mode", "newton")
    assert (code, err) == (exit_code, "")
    assert out.encode() == (DATA / f"{name}.txt").read_bytes()


def test_separable_output_matches_golden_file(capsys):
    # alpha = 0.9, beta = 0.7, (nt, nx, kmax) = (4, 10, 10): the separable solve at
    # fractional orders does not converge (residual 1.3), but p is pinned to 10 digits
    code, out, err = run(capsys, "invert", "--config", str(DATA / "separable_frac_4_10_10.json"),
                         "--mode", "separable")
    assert (code, err) == (0, "")
    assert out.encode() == (DATA / "separable_frac_4_10_10.txt").read_bytes()


# forward_points.txt holds one printed value per (config, point), configs outer
FORWARD_GOLDEN_CASES = [
    (config, x, t)
    for config in ("table_config_sep", "separable_frac_4_10_10",
                   "newton_pool_self_k4", "newton_pool_known_k2")
    for x, t in (("0.5", "0.5"), ("0", "0"), ("1", "0.25"))
]


@pytest.mark.parametrize("line, config, x, t",
                         [(k, *case) for k, case in enumerate(FORWARD_GOLDEN_CASES)])
def test_forward_output_matches_golden_file(capsys, line, config, x, t):
    code, out, err = run(capsys, "forward", "--config", str(DATA / f"{config}.json"),
                         "--invert", "--x", x, "--t", t)
    assert (code, err) == (0, "")
    golden = (DATA / "forward_points.txt").read_text().splitlines(keepends=True)
    assert len(golden) == len(FORWARD_GOLDEN_CASES)
    assert out == golden[line]


def test_forward_invert_that_does_not_converge_exits_4(capsys):
    code, out, err = run(capsys, "forward", "--config", str(DATA / "newton_stall_10_16_4.json"),
                         "--invert", "--mode", "newton", "--x", "0.5", "--t", "0.5")
    assert (code, out) == (4, "")
    assert err == "inversion did not converge; rerun `invert` for diagnostics\n"


def test_table_requires_example_or_config(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["table"])
    assert exc.value.code == 2


def test_repeated_calls_behave_like_fresh_ones(tmp_path, capsys, monkeypatch):
    from fractaylor.cli import _build_parser

    monkeypatch.setenv("COLUMNS", "80")  # help and usage wrap at the terminal width
    cfg = write_config(tmp_path)
    calls = (
        ["table", "--example", "1", "--rows", "2"],
        ["table", "--rows", "x"],  # argparse rejects it: exit 2
        ["invert", "--config", cfg],
        ["forward", "--config", cfg, "--x", "0.5", "--t", "0.1", "--invert", "--nx", "12"],
        ["table", "--example", "2", "--rows", "2", "--format", "text"],
        ["invert", "--help"],
        ["selfcheck"],
    )

    def call(argv):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    fresh = []
    for argv in calls:
        _build_parser.cache_clear()
        fresh.append(call(argv))
    assert fresh[1][0] == 2 and "invalid int value" in fresh[1][2]
    assert [result[0] for result in fresh] == [0, 2, 0, 0, 0, 0, 0]
    # one parser serves every call, twice through the list
    parser = _build_parser()
    for _ in range(2):
        for argv, want in zip(calls, fresh):
            assert call(argv) == want, argv
    assert _build_parser() is parser


# --- problem size and overflow limits ---------------------------------------


@pytest.fixture
def no_wide_tables(monkeypatch):
    """Fail any gamma table build past MAX_WIDTH, before it allocates."""
    build = gammafn._build_table

    def guarded(beta, width):
        assert width <= MAX_WIDTH, f"gamma table of width {width} requested"
        return build(beta, width)

    monkeypatch.setattr(gammafn, "_build_table", guarded)


@pytest.mark.parametrize(
    "argv, message",
    [
        # nx + 2*nt reaches 270 (m = 2) and 219 (m = 3): phi overflows
        (["--example", "1", "--nt", "140"], "overflows"),
        (["--example", "1", "--nt", "127"], "overflows"),
        (["--example", "2", "--nt", "102"], "overflows"),
        # nx + 2*nt + 1 = 513
        (["--example", "1", "--nt", "248"], "march width limit 512"),
        (["--example", "2", "--nx", "496", "--nt", "8"], "march width limit 512"),
        (["--example", "1", "--nt", "-1"], "nt must be a nonnegative integer, got -1"),
        # phi is finite, the march at beta = 1 overflows at level 2
        (["--example", "2", "--nt", "9", "--nx", "200", "--kmax", "0", "--rows", "1"],
         "march overflows"),
    ],
)
def test_table_oversized_or_overflowing_problem_is_config_error(
    capsys, no_wide_tables, argv, message
):
    code, out, err = run(capsys, "table", *argv)
    assert_one_line_config_error(code, out, err)
    assert message in err


@pytest.mark.parametrize("nt", ["-1", "140"], ids=["negative-nt", "ml-power-overflow"])
def test_table_example_errors_read_like_its_config(tmp_path, capsys, no_wide_tables, nt):
    # example 1 at the table sizes, written out as a config file
    cfg = write_config(tmp_path, **TABLE_DEFAULTS)
    from_example = run(capsys, "table", "--example", "1", "--nt", nt)
    from_config = run(capsys, "table", "--config", cfg, "--nt", nt)
    assert_one_line_config_error(*from_example)
    assert from_example == from_config


@pytest.mark.parametrize(
    "overrides, message",
    [
        ({"nt": 150}, "phi: the ml_power generator with m = 2 overflows"),
        ({"nt": 107, "phi": {"kind": "ml_power", "m": 3}},
         "phi: the ml_power generator with m = 3 overflows"),
        ({"nt": 252}, "nx + 2*nt + 1 = 513 exceeds the march width limit 512"),
        ({"phi": {"kind": "coeffs", "values": [1.0] * 513}}, "len(phi) = 513 exceeds"),
    ],
)
def test_invert_oversized_or_overflowing_problem_is_config_error(
    tmp_path, capsys, no_wide_tables, overrides, message
):
    cfg = write_config(tmp_path, **overrides)
    code, out, err = run(capsys, "invert", "--config", cfg)
    assert_one_line_config_error(code, out, err)
    assert message in err


def test_widest_problem_is_accepted(tmp_path, capsys, no_wide_tables):
    # p = 0 leaves the pure shift march: u = sum_j x^j / j! = e^x at every level
    cfg = write_config(
        tmp_path, phi={"kind": "coeffs", "values": [1.0] * MAX_WIDTH},
        p={"kind": "coeffs", "values": [0.0]},
    )
    code, out, err = run(capsys, "forward", "--config", cfg, "--x", "0.5", "--t", "0")
    assert (code, err) == (0, "")
    assert out == f"{math.exp(0.5):.8g}\n"


def test_overflowing_forward_march_is_config_error(tmp_path, capsys):
    cfg = write_config(
        tmp_path, alpha=0.7, beta=0.7, nt=4, nx=4, kmax=2,
        p={"kind": "coeffs", "values": [1e300, -1e300, 1e300]},
    )
    code, out, err = run(capsys, "forward", "--config", cfg, "--x", "0.5", "--t", "0.1")
    assert_one_line_config_error(code, out, err)
    assert "march overflows" in err


# --- selfcheck --------------------------------------------------------------


def test_selfcheck_passes(capsys):
    code, out, _ = run(capsys, "selfcheck")
    assert code == 0
    assert "all selfchecks passed" in out
    assert out.count("ok   ") == 6


def test_selfcheck_reports_each_failure_and_runs_on(capsys, monkeypatch):
    def off_by_one():
        raise AssertionError("off by 1")

    def no_data():
        raise ValueError("no data")

    monkeypatch.setattr(cli, "_SELFCHECKS", (
        ("passes", lambda: "fine"),
        ("asserts", off_by_one),
        ("raises", no_data),
    ))
    code, out, err = run(capsys, "selfcheck")
    assert (code, err) == (3, "")
    assert out == (
        "ok   passes (fine)\n"
        "FAIL asserts: AssertionError: off by 1\n"
        "FAIL raises: ValueError: no data\n"
        "2 selfcheck(s) failed\n"
    )


def test_selfcheck_output_matches_golden_file(capsys):
    # the deviations are rounding-level figures of the gamma arithmetic,
    # the round trip and both recoveries: any change to their bits shows here
    code, out, err = run(capsys, "selfcheck")
    assert (code, err) == (0, "")
    assert out.encode() == (DATA / "selfcheck.txt").read_bytes()
