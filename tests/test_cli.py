import json
import os
import subprocess
import sys

import numpy as np
import pytest

from conftest import (
    gap_closing_family,
    golden_closed_form,
    golden_symbol,
    promote_to_family,
    sin_mass_family,
)
import qtop
from qtop import __version__, cli
from qtop.errors import NonConvergent
from qtop.operators import IndexReport
from qtop.symbols import LaurentSymbol, assemble_chiral, save_symbol, symbol_to_dict


@pytest.fixture
def golden_file(tmp_path):
    path = tmp_path / "golden.json"
    save_symbol(golden_symbol(), path)
    return str(path)


@pytest.fixture
def golden_H_file(tmp_path):
    path = tmp_path / "golden_H.json"
    save_symbol(assemble_chiral(golden_symbol()), path)
    return str(path)


@pytest.fixture
def diag_file(tmp_path):
    path = tmp_path / "diag.json"
    sym = LaurentSymbol(2, 2, [
        ((1, 0), np.diag([1.0, 0.0])),
        ((-1, 0), np.diag([0.0, 1.0])),
    ])
    save_symbol(sym, path)
    return str(path)


def run(capsys, argv):
    code = cli.main(argv)
    out = capsys.readouterr().out
    lines = out.splitlines()
    assert lines[0] == f"# qtop {__version__}"
    return code, json.loads("\n".join(lines[1:]))


def test_version_flag(capsys):
    assert cli.main(["--version"]) == 0
    assert __version__ in capsys.readouterr().out


def test_cli_import_loads_no_scipy():
    src = os.path.dirname(os.path.dirname(qtop.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p
    ))
    probe = "import sys, qtop.cli; print([m for m in sys.modules if m.startswith('scipy')])"
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


def test_nan_coefficient_is_input_error(capsys, tmp_path):
    doc = symbol_to_dict(golden_symbol())
    doc["terms"][0]["matrix"][0][0][0] = float("nan")
    path = tmp_path / "nan.json"
    path.write_text(json.dumps(doc))
    for argv in (["index", str(path)],
                 ["factorize", str(path), "--var", "0", "--param", "1=1"]):
        code, rep = run(capsys, argv)
        assert code == 4 and rep["error"] == "InputError"


def test_oversized_coefficient_exits_cleanly(capsys, tmp_path):
    """A finite entry whose norm overflows det f: every subcommand ends in an
    error report, never a traceback or a verdict on the overflowed values."""
    doc = symbol_to_dict(golden_symbol())
    doc["terms"][0]["matrix"][0][0] = [1e308, 1e308]
    path = str(tmp_path / "huge.json")
    with open(path, "w") as fh:
        json.dump(doc, fh)
    for argv in (["index", path, "--mode", "both"],
                 ["factorize", path, "--var", "0", "--param", "1=1"],
                 ["corner", path, "--size", "3"],
                 ["flow", path, "--size", "3"],
                 ["extend", path, "--eval", "chart=DT;theta=0;rho=0;phi=0.5"],
                 ["symmetry", path, "--class", "A"]):
        code, rep = run(capsys, argv)
        assert code in (2, 3, 4) and "error" in rep, argv


def test_no_command_is_input_error():
    assert cli.main([]) == 4


def test_factorize_golden_slice(capsys, golden_file, tmp_path):
    out = tmp_path / "report.json"
    code, rep = run(capsys, [
        "factorize", golden_file, "--var", "0", "--param", "1=1j",
        "--out", str(out),
    ])
    assert code == 0
    assert rep["partial_indices"] == [0, 0]
    assert rep["residual"] <= 1e-8
    assert rep["verification_residual"] <= 1e-8
    assert json.loads("\n".join(out.read_text().splitlines()[1:])) == rep
    # the smallest truncation is judged by the factors it returns
    code, rep = run(capsys, [
        "factorize", golden_file, "--var", "0", "--param", "1=1j", "--trunc", "0",
    ])
    assert code == 0 and rep["truncation"] == 0
    assert rep["residual"] <= 1e-12 and rep["verification_residual"] <= 1e-12


def test_out_duplicates_error_reports(capsys, golden_file, tmp_path):
    out = tmp_path / "report.json"
    code, rep = run(capsys, [
        "index", golden_file, "--sizes", "0", "--out", str(out),
    ])
    assert code == 4 and rep["error"] == "InputError"
    assert json.loads("\n".join(out.read_text().splitlines()[1:])) == rep
    unwritable = tmp_path / "missing" / "report.json"
    code, rep = run(capsys, [
        "index", golden_file, "--sizes", "0", "--out", str(unwritable),
    ])
    assert code == 4 and rep["error"] == "InputError"
    assert not unwritable.exists()
    # a successful run keeps its report on stdout and exits 4 for the copy
    code, rep = run(capsys, [
        "factorize", golden_file, "--var", "0", "--param", "1=1",
        "--out", str(unwritable),
    ])
    assert code == 4 and rep["partial_indices"] == [0, 0]
    assert not unwritable.exists()


def test_factorize_obstruction_exits_two(capsys, diag_file):
    code, rep = run(capsys, [
        "factorize", diag_file, "--var", "0", "--param", "1=1",
    ])
    assert code == 2
    assert rep["error"] == "NotCanonical"
    assert rep["indices"] == [1, -1]


def test_factorize_input_errors(capsys, golden_file):
    code, rep = run(capsys, ["factorize", golden_file, "--var", "0"])
    assert code == 4 and rep["error"] == "InputError"
    code, rep = run(capsys, [
        "factorize", golden_file, "--var", "0", "--param", "0=1",
    ])
    assert code == 4
    code, rep = run(capsys, [
        "factorize", golden_file, "--var", "0", "--param", "1=abc",
    ])
    assert code == 4
    code, rep = run(capsys, ["factorize", "/nonexistent/sym.json"])
    assert code == 4


@pytest.mark.parametrize("argv", [
    ["flow", "{family}", "--tsamples", "0"],
    ["flow", "{family}", "--tsamples", "-3"],
    ["flow", "{family}", "--size", "-1"],
    ["index", "{golden}", "--mode", "w3", "--grid", "4,5,0", "--samples", "4"],
    ["index", "{golden}", "--mode", "w3", "--grid", "0,9,8", "--samples", "4"],
    ["index", "{golden}", "--mode", "w3", "--grid", "2,5,2", "--samples", "4"],
    ["index", "{golden}", "--mode", "truncation", "--sizes", "0"],
    ["index", "{golden}", "--mode", "truncation", "--sizes", "-3"],
    ["corner", "{H}", "--size", "0"],
    ["corner", "{H}", "--size", "-2"],
    ["factorize", "{golden}", "--param", "1=1", "--trunc", "-4"],
    ["factorize", "{golden}", "--var", "0", "--param", "1=1", "--trunc", "100000"],
    ["corner", "{H}", "--size", "10", "--zero-tol", "-1"],
    ["corner", "{H}", "--size", "10", "--zero-tol", "nan"],
    ["corner", "{H}", "--size", "10", "--floor", "0"],
    ["flow", "{family}", "--window", "-1", "--tsamples", "8", "--size", "4"],
    ["index", "{golden}", "--mode", "w3", "--samples", "0", "--grid", "8,5,8"],
    ["index", "{golden}", "--mode", "w3", "--samples", "-3", "--grid", "8,5,8"],
    ["index", "{golden}", "--mode", "w3", "--samples", "4", "--grid", "2000000,33,2000000"],
    ["index", "{golden}", "--grid", "2000000,33,2000000"],
    ["extend", "{golden}", "--dump", "2000000,33,2000000", "--out", "{dump}"],
    ["extend", "{family}", "--eval", "chart=TD;theta=0.3;rho=0.5;phi=0.2;t=1.5", "--tvar", "5"],
    ["extend", "{family}", "--eval", "chart=TD;theta=0.3;rho=0.5;phi=0.2;t=1.5", "--tvar", "-1"],
], ids="_".join)
def test_size_flags_out_of_range_are_input_errors(capsys, tmp_path, golden_file,
                                                  golden_H_file, argv):
    family = tmp_path / "family.json"
    save_symbol(sin_mass_family(assemble_chiral(golden_symbol())), family)
    files = {"family": str(family), "golden": golden_file, "H": golden_H_file,
             "dump": str(tmp_path / "dump")}
    code, rep = run(capsys, [a.format(**files) for a in argv])
    assert code == 4 and rep["error"] == "InputError"


def test_index_both_modes_agree(capsys, golden_file):
    code, rep = run(capsys, [
        "index", golden_file, "--grid", "16,9,16", "--samples", "8",
        "--sizes", "8,10,12",
    ])
    assert code == 0
    assert rep["agreement"] is True
    assert rep["truncation"]["index"] == 1
    assert rep["w3"]["rounded"] == 1


def test_index_disagreement_exits_five(capsys, golden_file, monkeypatch):
    fake = IndexReport(value=7, sizes=(8,), kernel_counts=(7,), cokernel_counts=(0,))
    monkeypatch.setattr(cli, "numerical_index", lambda *a, **k: fake)
    code = cli.main([
        "index", golden_file, "--grid", "16,9,16", "--samples", "8",
    ])
    out = capsys.readouterr().out
    assert code == 5
    assert "CrossCheckFailed" in out


def test_nonconvergence_exits_three(capsys, golden_file, monkeypatch):
    def bail(*a, **k):
        raise NonConvergent("residual stuck")

    monkeypatch.setattr(cli, "canonical_factorize", bail)
    code, rep = run(capsys, [
        "factorize", golden_file, "--var", "0", "--param", "1=1",
    ])
    assert code == 3
    assert rep["error"] == "NonConvergent"


def test_corner_with_class_and_csv(capsys, golden_H_file, tmp_path):
    csv_path = tmp_path / "spectrum.csv"
    code, rep = run(capsys, [
        "corner", golden_H_file, "--class", "AIII", "--size", "12",
        "--grid", "16,9,16", "--samples", "8", "--csv", str(csv_path),
    ])
    assert code == 0
    assert rep["spectrum"]["signed_count"] == 1
    assert rep["w3_of_h"]["rounded"] == 1
    assert rep["agreement"] is True
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "eigenvalue_index,lambda,chirality,participation_near_corner"
    assert len(lines) == 1 + 12 * 12 * 4


def test_corner_rejects_nonhermitian(capsys, golden_file):
    code, rep = run(capsys, ["corner", golden_file, "--size", "8"])
    assert code == 2
    assert rep["error"] == "NotHermitian"


def test_corner_cross_check_failure(capsys, golden_H_file, monkeypatch):
    from qtop.invariants import W3Result

    fake = W3Result(
        raw_value=3.0, rounded=3, residual=0.0,
        chart_values={"TD": 0.0, "DT": 0.0}, grid=(8, 5, 8), sign=1,
        history=(),
    )
    monkeypatch.setattr(cli, "w3", lambda *a, **k: fake)
    code = cli.main([
        "corner", golden_H_file, "--class", "AIII", "--size", "10",
        "--grid", "8,5,8", "--samples", "8",
    ])
    assert code == 5


def test_flow_command(capsys, tmp_path):
    path = tmp_path / "family.json"
    save_symbol(sin_mass_family(assemble_chiral(golden_symbol())), path)
    csv_path = tmp_path / "tracks.csv"
    code, rep = run(capsys, [
        "flow", str(path), "--tsamples", "8", "--size", "5",
        "--csv", str(csv_path),
    ])
    assert code == 0
    assert rep["result"]["flow"] == 0
    assert len(rep["result"]["crossings"]) == 2
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "t,eigenvalue_index,lambda,participation_near_corner"
    assert len(lines) >= 9


def test_flow_rejects_gap_closing(capsys, tmp_path):
    path = tmp_path / "closing.json"
    save_symbol(gap_closing_family(), path)
    code, rep = run(capsys, ["flow", str(path), "--tsamples", "16", "--size", "4"])
    assert code == 2
    assert rep["error"] == "NotFredholm"
    assert abs(rep["where"][-1] - 2 * np.pi / 3) <= 2 * np.pi / 16


def test_extend_eval_matches_closed_form(capsys, golden_file):
    code, rep = run(capsys, [
        "extend", golden_file, "--eval", "chart=DT;theta=0;rho=0;phi=0.5",
        "--samples", "8",
    ])
    assert code == 0
    got = np.array([[re + 1j * im for re, im in row] for row in rep["value"]])
    want = golden_closed_form().value(
        cli._parse_chart_point("chart=DT;theta=0;rho=0;phi=0.5")
    )
    assert np.max(np.abs(got - want)) <= 1e-8
    assert rep["value_display"].startswith("[[0, ")


def test_extend_eval_family_point(capsys, tmp_path):
    path = tmp_path / "fam.json"
    save_symbol(promote_to_family(golden_symbol()), path)
    code, rep = run(capsys, [
        "extend", str(path), "--eval", "chart=TD;theta=0.3;rho=0;phi=1.0;t=0.9",
        "--samples", "4",
    ])
    assert code == 0
    got = np.array([[re + 1j * im for re, im in row] for row in rep["value"]])
    want = np.diag([2.0 * np.exp(0.3j), np.exp(-0.3j)])
    assert np.max(np.abs(got - want)) <= 1e-8


def test_extend_eval_bad_points(capsys, golden_file):
    for point in (
        "chart=TD;theta=0;rho=1.5;phi=0",
        "chart=XX;theta=0;rho=0;phi=0",
        "chart=TD;theta=0;rho=0",
        "chart=TD;theta=zero;rho=0;phi=0",
        "chart=TD;theta=0;rho=0;phi=0;q=1",
    ):
        code, rep = run(capsys, ["extend", golden_file, "--eval", point])
        assert code == 4, point


def test_extend_dump_grids(capsys, golden_file, tmp_path):
    base = tmp_path / "ext"
    code, rep = run(capsys, [
        "extend", golden_file, "--dump", "6,4,6", "--out", str(base),
        "--samples", "8",
    ])
    assert code == 0
    assert rep["seam_residual"] <= 1e-8
    ref = golden_closed_form()
    thetas = 2 * np.pi * np.arange(6) / 6
    rhos = np.linspace(0.0, 1.0, 4)
    for chart in ("TD", "DT"):
        raw = (tmp_path / f"ext.{chart}.bin").read_bytes()
        header = np.frombuffer(raw[:32], dtype=np.int64)
        assert tuple(header) == (6, 4, 6, 2)
        data = np.frombuffer(raw[32:], dtype=np.float64).reshape(6, 4, 6, 2, 2, 2)
        vals = data[..., 0] + 1j * data[..., 1]
        want = ref.chart_grid(chart, thetas, rhos, thetas)
        assert np.max(np.abs(vals - want)) <= 1e-6


def test_extend_dump_requires_out(capsys, golden_file):
    code, rep = run(capsys, ["extend", golden_file, "--dump", "6,4,6"])
    assert code == 4


def test_symmetry_check(capsys, golden_H_file, golden_file):
    code, rep = run(capsys, ["symmetry", golden_H_file, "--class", "AIII"])
    assert code == 0
    assert rep["passed"] is True
    code, rep = run(capsys, ["symmetry", golden_file, "--class", "AI"])
    assert code == 2
    assert rep["error"] == "SymmetryViolation"
    code, rep = run(capsys, ["symmetry", golden_H_file, "--class", "XY"])
    assert code == 4


def test_symmetry_full_report(capsys, golden_H_file):
    code, rep = run(capsys, [
        "symmetry", golden_H_file, "--class", "AIII", "--report",
        "--grid", "16,9,16", "--samples", "8",
    ])
    assert code == 0
    assert rep["invariants"]["invariant"] == 1
    assert rep["invariants"]["invariant_label"] == "W3(h^E)"


def test_threads_resolution(capsys, golden_file, monkeypatch):
    monkeypatch.setenv("QTOP_THREADS", "2")
    code, _ = run(capsys, [
        "extend", golden_file, "--eval", "chart=TD;theta=0;rho=0;phi=0",
        "--samples", "4",
    ])
    assert code == 0
    monkeypatch.setenv("QTOP_THREADS", "zero")
    code, rep = run(capsys, [
        "extend", golden_file, "--eval", "chart=TD;theta=0;rho=0;phi=0",
    ])
    assert code == 4
    monkeypatch.setenv("QTOP_THREADS", "4")
    code, _ = run(capsys, [
        "extend", golden_file, "--eval", "chart=TD;theta=0;rho=0;phi=0",
        "--threads", "1", "--samples", "4",
    ])
    assert code == 0
