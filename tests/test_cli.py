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
from qtop.extension import ExtendedSymbol, check_samples
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


def _probe(code):
    """The stdout of ``code`` run by a fresh interpreter, with the package
    and the tests' conftest importable."""
    src = os.path.dirname(os.path.dirname(qtop.__file__))
    tests = os.path.dirname(os.path.abspath(__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, tests, os.environ.get("PYTHONPATH")) if p
    ))
    return subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          capture_output=True, text=True).stdout.strip()


def test_cli_import_loads_no_scipy():
    assert _probe("import sys, qtop.cli; "
                  "print([m for m in sys.modules if m.startswith('scipy')])") == "[]"


def test_corner_spectrum_loads_no_numpy_random():
    """Importing numpy.random would add about 5 MB to a corner run's memory."""
    assert _probe("import sys, qtop.cli\n"
                  "from conftest import golden_symbol\n"
                  "from qtop.operators import corner_spectrum\n"
                  "from qtop.symbols import assemble_chiral\n"
                  "corner_spectrum(assemble_chiral(golden_symbol()), side=12)\n"
                  "print('numpy.random' in sys.modules)") == "False"


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


# Damage a symbol file can carry, each as an in-place edit of golden's document.
_MUTATIONS = {
    "missing_num_vars": lambda d: d.pop("num_vars"),
    "missing_band_dim": lambda d: d.pop("band_dim"),
    "missing_terms": lambda d: d.pop("terms"),
    "missing_exponents": lambda d: d["terms"][0].pop("exponents"),
    "missing_matrix": lambda d: d["terms"][0].pop("matrix"),
    "num_vars_fraction": lambda d: d.update(num_vars=1.5),
    "num_vars_text": lambda d: d.update(num_vars="two"),
    "num_vars_huge": lambda d: d.update(num_vars=10**6),
    "num_vars_inf": lambda d: d.update(num_vars=float("inf")),
    "num_vars_nan": lambda d: d.update(num_vars=float("nan")),
    "band_dim_fraction": lambda d: d.update(band_dim=2.5),
    "band_dim_huge": lambda d: d.update(band_dim=10**8),
    "band_dim_inf": lambda d: d.update(band_dim=float("inf")),
    "band_dim_nan": lambda d: d.update(band_dim=float("nan")),
    "terms_number": lambda d: d.update(terms=5),
    "terms_null": lambda d: d.update(terms=None),
    "terms_object": lambda d: d.update(terms={"exponents": [0, 0]}),
    "exponents_short": lambda d: d["terms"][0].update(exponents=[1]),
    "exponents_fraction": lambda d: d["terms"][0].update(exponents=[0.5, 0]),
    "exponents_text": lambda d: d["terms"][0].update(exponents=["a", 0]),
    "exponents_huge": lambda d: d["terms"][0].update(exponents=[10**400, 0]),
    "matrix_shape": lambda d: d["terms"][0].update(matrix=[[[1.0, 0.0]]]),
    "matrix_nan": lambda d: d["terms"][0]["matrix"][0][0].__setitem__(0, float("nan")),
    "matrix_inf": lambda d: d["terms"][0]["matrix"][1][0].__setitem__(1, float("-inf")),
    "duplicate_exponent": lambda d: d["terms"][1].update(exponents=d["terms"][0]["exponents"]),
    "empty_terms_huge_band": lambda d: d.update(terms=[], band_dim=10**8),
    "empty_terms_many_vars": lambda d: d.update(terms=[], num_vars=10**6),
    "monomial_past_int64": lambda d: _scalar(d, [(10**30, 1.0)]),
    "exponent_far_out": lambda d: _scalar(d, [(0, 1.0), (10**9, 0.5)]),
    "exponent_span_past_grid_cap": lambda d: _scalar(d, [(0, 1.0), (10**7, 0.5)]),
}
# Mutations after which the file holds no symbol: every subcommand exits 4.
_REFUSED = {"num_vars_fraction", "band_dim_fraction", "monomial_past_int64",
            "exponent_far_out", "exponent_span_past_grid_cap"}


def _scalar(doc, terms):
    """Replace ``doc`` by the one-variable scalar symbol sum c z^e of ``terms``."""
    doc.update(num_vars=1, band_dim=1, terms=[
        {"exponents": [e], "matrix": [[[c, 0.0]]]} for e, c in terms
    ])


@pytest.mark.parametrize("mutation", sorted(_MUTATIONS) + ["invalid_json"])
def test_malformed_document_ends_in_a_report(capsys, tmp_path, mutation):
    """Every subcommand on a damaged file exits 0, 2, 3, 4 or 5 with a JSON
    report, never with a traceback."""
    doc = symbol_to_dict(golden_symbol())
    if mutation == "invalid_json":
        text = json.dumps(doc)[:-1]
    else:
        _MUTATIONS[mutation](doc)
        text = json.dumps(doc)
    path = tmp_path / "doc.json"
    path.write_text(text)
    for argv in (["factorize", path, "--param", "1=1"],
                 ["index", path, "--sizes", "2", "--grid", "8,5,8", "--samples", "4"],
                 ["corner", path, "--size", "2"],
                 ["flow", path, "--tsamples", "2", "--size", "2"],
                 ["extend", path, "--eval", "chart=TD;theta=0;rho=0.5;phi=0", "--samples", "4"],
                 ["extend", path, "--dump", "4,5,4", "--out", tmp_path / "dump", "--samples", "4"],
                 ["symmetry", path, "--class", "A"]):
        code, rep = run(capsys, [str(a) for a in argv])
        assert code in (0, 2, 3, 4, 5), argv
        assert code == 4 or mutation not in _REFUSED, argv


def test_far_exponent_below_the_cap_factorizes(capsys, tmp_path):
    path = tmp_path / "far.json"
    doc = {}
    _scalar(doc, [(0, 1.0), (1000, 0.5)])  # 1 + 0.5 z^1000
    path.write_text(json.dumps(doc))
    code, rep = run(capsys, ["factorize", str(path)])
    assert code == 0 and rep["partial_indices"] == [0]


@pytest.mark.parametrize("terms, indices", [
    ([(1, 1 + 0.99**2), (2, -0.99), (0, -0.99)], [1]),  # z (1 - 0.99/z)(1 - 0.99 z)
    ([(5, 1.0), (6, 0.1)], [5]),                        # z^5 (1 + 0.1 z)
    ([(-1, 1.0), (-2, 0.3)], [-1]),                     # z^-2 (z + 0.3)
    ([(511, 1.0)], [511]),
    ([(600, 1.0)], [600]),  # det winding past half the 1024-point det grid
])
def test_factorize_names_the_indices_of_slow_and_shifted_symbols(capsys, tmp_path,
                                                                 terms, indices):
    path = tmp_path / "shifted.json"
    doc = {}
    _scalar(doc, terms)
    path.write_text(json.dumps(doc))
    code, rep = run(capsys, ["factorize", str(path)])
    assert code == 2
    assert rep["error"] == "NotCanonical" and rep["indices"] == indices


def test_singular_finite_sections_exit_3(capsys, tmp_path):
    """f = [[z, 1], [0, 1/z]] is canonical (partial indices (0, 0), det f = 1)
    but every finite section of T_f is singular: numerical non-convergence,
    exit 3 with Unstable, in one variable and as g(z, w) = f(z) in two."""
    terms = [((1,), np.diag([1.0, 0.0])), ((0,), np.array([[0.0, 1.0], [0.0, 0.0]])),
             ((-1,), np.diag([0.0, 1.0]))]
    f, g = tmp_path / "f.json", tmp_path / "g.json"
    save_symbol(LaurentSymbol(1, 2, terms), f)
    save_symbol(LaurentSymbol(2, 2, [((k, 0), a) for (k,), a in terms]), g)
    for argv in (["factorize", str(f)], ["factorize", str(f), "--trunc", "5"],
                 ["index", str(g), "--mode", "both"], ["index", str(g), "--mode", "w3"]):
        code, rep = run(capsys, argv)
        assert (code, rep["error"]) == (3, "Unstable"), argv
        assert "Traceback" not in capsys.readouterr().err


def test_missing_params_are_named_briefly(capsys, tmp_path):
    path = tmp_path / "many.json"
    path.write_text(json.dumps({"num_vars": 1000000, "band_dim": 1, "terms": []}))
    assert cli.main(["factorize", str(path)]) == 4
    out = capsys.readouterr().out
    assert len(out.encode()) < 1024
    assert "[1, 2, 3, 4, 5, 6, 7, 8] (999999 in all)" in out


def test_each_slice_is_solved_once_per_command(capsys, tmp_path, golden_file,
                                               golden_H_file, monkeypatch):
    """The Fredholm certificates and the extension read one slice table per
    symbol, and golden's slices all pass on their first solve: 16 slices per
    variable for the extension (the certificates' 8 and 4 angles are among
    them), 4 angles in each of 2 directions per t for the flow.  Slices open
    in stacks, so the count is of slices over every stacked solve."""
    calls = []
    real = qtop.wiener_hopf._solve_stack
    monkeypatch.setattr(qtop.wiener_hopf, "_solve_stack",
                        lambda slices, m: calls.extend(slices) or real(slices, m))
    family = tmp_path / "family.json"
    save_symbol(sin_mass_family(assemble_chiral(golden_symbol())), family)
    for argv in (["index", golden_file, "--mode", "both"],
                 ["symmetry", golden_H_file, "--class", "AIII", "--report"],
                 ["corner", golden_H_file, "--class", "AIII", "--size", "14"],
                 ["flow", str(family), "--tsamples", "4", "--size", "4"]):
        calls.clear()
        code, _ = run(capsys, argv)
        assert (code, len(calls)) == (0, 32), argv


def test_flow_builds_no_dense_slice_section(capsys, tmp_path, monkeypatch):
    """The flow's slices are solved in band storage and all pass their
    certificate there, so no slice is solved again on a dense section."""
    built = []
    real = LaurentSymbol.section
    monkeypatch.setattr(LaurentSymbol, "section", lambda self, rows, cols: (
        self.num_vars == 1 and built.append(self)) or real(self, rows, cols))
    family = tmp_path / "family.json"
    save_symbol(sin_mass_family(assemble_chiral(golden_symbol())), family)
    code, _ = run(capsys, ["flow", str(family), "--tsamples", "4", "--size", "4"])
    assert (code, len(built)) == (0, 0)


def test_an_obstruction_certifies_each_det_once(capsys, tmp_path, monkeypatch):
    """diag(z, 1/z): the 8 slices in z open in one stack, and each one's
    partial indices reuse the winding of that stack's determinant check."""
    path = tmp_path / "obstruction.json"
    save_symbol(LaurentSymbol(2, 2, [((1, 0), np.diag([1.0, 0.0])),
                                     ((-1, 0), np.diag([0.0, 1.0]))]), path)
    calls = []
    real = qtop.wiener_hopf._det_stack
    monkeypatch.setattr(qtop.wiener_hopf, "_det_stack",
                        lambda slices: calls.append(len(slices)) or real(slices))
    code, rep = run(capsys, ["index", str(path), "--mode", "both"])
    assert (code, rep["error"], rep["indices"]) == (2, "NotFredholm", [1, -1])
    assert calls == [8]


def _skew_h():
    """h = z - (0.3 + i) - 0.2 w^3: its slice in z at w = e^{ia} has the
    root 0.3 + i + 0.2 e^{3ia}, outside the disk at a = 0, 2 pi / 3 and
    4 pi / 3 (partial index 0), inside at a = pi / 2 (partial index 1)."""
    return LaurentSymbol(2, 1, [((1, 0), [[1.0]]), ((0, 0), [[-(0.3 + 1j)]]),
                                ((0, 3), [[-0.2]])])


def test_symmetry_report_certifies_its_four_angles(capsys, tmp_path):
    """With 3 samples per circle the extension of h builds, but the report's
    slices at four angles are not among its slices: the one at pi / 2 is
    NotFredholm, not a listed partial index."""
    path = tmp_path / "H.json"
    save_symbol(assemble_chiral(_skew_h()), path)
    code, rep = run(capsys, ["symmetry", str(path), "--class", "AIII", "--report",
                             "--samples", "3", "--grid", "6,5,6"])
    assert code == 2
    assert (rep["error"], rep["direction"], rep["where"], rep["indices"]) == (
        "NotFredholm", 0, [np.pi / 2], [1])


def test_not_fredholm_detail_prints_plain_angles(capsys, tmp_path):
    """A failing slice met at a W3 chart-grid angle names it as a plain float."""
    path = tmp_path / "h.json"
    save_symbol(_skew_h(), path)
    code, rep = run(capsys, ["index", str(path), "--mode", "w3", "--samples", "3"])
    assert code == 2
    assert rep["detail"] == (
        "slice in variable 0 at (1.5707963267948966,) is not canonically factorable: "
        "partial indices [1] (partial indices [1] are not all zero)")


def test_each_reader_names_its_own_failing_slice(capsys, tmp_path):
    """diag(zw, 1/(zw)) is non-canonical in both directions.  The Fredholm
    certificate (modes both and truncation) reads direction 0 first, the
    extension alone (mode w3) direction 1, each with its own detail; the
    flow names the first failing (angle, t)."""
    path = tmp_path / "diagzw.json"
    save_symbol(LaurentSymbol(2, 2, [((1, 1), np.diag([1.0, 0.0])),
                                     ((-1, -1), np.diag([0.0, 1.0]))]), path)
    prefix = "slice in variable {} at (0.0,) is not canonically factorable: partial indices [1, -1]"
    for mode, direction, detail in (
        ("both", 0, "half-plane compression is not invertible"),
        ("truncation", 0, "half-plane compression is not invertible"),
        ("w3", 1, "partial indices [1, -1] are not all zero"),
    ):
        assert run(capsys, ["index", str(path), "--mode", mode]) == (2, {
            "command": "index", "error": "NotFredholm",
            "detail": f"{prefix.format(direction)} ({detail})",
            "indices": [1, -1], "direction": direction, "where": [0.0],
        }), mode
    closing = tmp_path / "closing.json"
    save_symbol(gap_closing_family(), closing)
    where = "(0.0, 2.356194490192345)"
    assert run(capsys, ["flow", str(closing), "--tsamples", "16", "--size", "4"]) == (2, {
        "command": "flow", "error": "NotFredholm",
        "detail": f"slice in variable 0 at {where} is not canonically factorable: partial "
                  "indices [1, -1] (half-plane compression not invertible along the family)",
        "indices": [1, -1], "direction": 0, "where": [0.0, 2.356194490192345],
    })


def test_no_command_is_input_error():
    assert cli.main([]) == 4


_BIG = "12345678901234567890"
# (argv, the exit code it must give, or None for any code of the contract);
# {g}, {H} and {F} are golden, its chiral H and the sin-mass family of H
_DAMAGED_ARGV = [
    (["index", "{g}", "--bogus"], None),
    (["corner", "{H}", "--sizes", "10"], None),
    (["frobnicate", "{g}"], None),
    (["index"], None),
    (["index", "{tmp}/missing.json"], None),
    (["index", "{g}", "--mode", "truncation", "--sizes", ""], None),
    (["index", "{g}", "--mode", "truncation", "--sizes", "0"], None),
    (["index", "{g}", "--mode", "truncation", "--sizes", "1e3"], None),
    (["index", "{g}", "--mode", "truncation", "--sizes", _BIG], None),
    (["index", "{g}", "--mode", "w3", "--grid", ""], None),
    (["index", "{g}", "--mode", "w3", "--grid", "-8,5,8"], None),
    (["index", "{g}", "--mode", "w3", "--grid", "1e3,5,8"], None),
    (["index", "{g}", "--mode", "w3", "--grid", _BIG + ",5,8"], None),
    (["extend", "{g}", "--dump", "", "--out", "{tmp}/d"], None),
    (["extend", "{g}", "--dump", "-4,5,4", "--out", "{tmp}/d"], None),
    (["extend", "{g}", "--dump", "0,5,4", "--out", "{tmp}/d"], None),
    (["extend", "{g}", "--dump", "1e3,5,4", "--out", "{tmp}/d"], None),
    (["extend", "{g}", "--dump", "4," + _BIG + ",4", "--out", "{tmp}/d"], None),
    (["index", "{g}", "--mode", "w3", "--samples", ""], None),
    (["index", "{g}", "--mode", "w3", "--samples", "1e3"], None),
    (["index", "{g}", "--mode", "w3", "--samples", _BIG], None),
    (["corner", "{H}", "--class", "AIII", "--samples", "0"], None),
    (["corner", "{H}", "--size", "6", "--zero-tol", "inf"], 4),
    (["corner", "{H}", "--size", "6", "--zero-tol", "nan"], 4),
    (["corner", "{H}", "--size", "6", "--floor", "inf"], 4),
    (["corner", "{H}", "--size", "6", "--floor", "nan"], 4),
    (["flow", "{F}", "--size", "2", "--tsamples", "2", "--window", "inf"], 4),
    (["flow", "{F}", "--size", "2", "--tsamples", "2", "--window", "nan"], 4),
    (["flow", "{F}", "--size", "2", "--tsamples", "2", "--tvar", "3"], None),
    (["extend", "{F}", "--eval", "chart=TD;theta=0;rho=0;phi=0;t=0", "--tvar", "7"], None),
    (["factorize", "{g}", "--var", "-1", "--param", "1=1"], None),
    (["factorize", "{g}", "--param", "1="], None),
    (["factorize", "{g}", "--param", "=1"], None),
    (["index", "{g}", "--mode", "w3", "--grid", "16,,9,16"], 4),
    (["symmetry", "{H}", "--class", "AIII", "--grid", "16,,9,16"], 4),
    (["index", "{g}", "--mode", "truncation", "--sizes", "10,,14,18"], 4),
    (["index", "{g}", "--mode", "truncation", "--sizes", "10,14,18,"], 4),
    (["index", "{g}", "--mode", "truncation", "--sizes", ",10,14,18"], 4),
    (["extend", "{g}", "--dump", "4,,4,4", "--out", "{tmp}/d"], 4),
    (["flow", "{F}", "--tsamples", "5000"], 4),
    (["corner", "{H}", "--size", "6", "--zero-tol", "1e308"], 0),
    (["corner", "{H}", "--size", "6", "--floor", "1e308"], 4),
    (["flow", "{F}", "--size", "2", "--tsamples", "2", "--window", "1e308"], 0),
]
# each integer flag at 0, -1 and 10^12: (argv up to the value, the exit codes)
_INT_FLAG_ARGV = [
    (["corner", "{H}", "--size"], (4, 4, 3)),
    (["flow", "{F}", "--tsamples", "2", "--size"], (4, 4, 3)),
    (["index", "{g}", "--mode", "w3", "--samples"], (4, 4, 4)),
    (["corner", "{H}", "--class", "AIII", "--size", "6", "--samples"], (4, 4, 4)),
    (["symmetry", "{H}", "--class", "AIII", "--report", "--samples"], (4, 4, 4)),
    (["symmetry", "{H}", "--class", "AIII", "--samples"], (4, 4, 4)),
    (["extend", "{g}", "--eval", "chart=TD;theta=0;rho=0;phi=0", "--samples"], (4, 4, 4)),
    (["flow", "{F}", "--size", "2", "--tsamples"], (4, 4, 4)),
    (["factorize", "{g}", "--param", "1=1", "--trunc"], (0, 4, 4)),
    (["factorize", "{g}", "--param", "1=1", "--var"], (0, 4, 4)),
    (["flow", "{F}", "--size", "2", "--tsamples", "2", "--tvar"], (0, 4, 4)),
    (["extend", "{F}", "--eval", "chart=TD;theta=0;rho=0;phi=0;t=0", "--tvar"], (0, 4, 4)),
]
_DAMAGED_ARGV += [(argv + [value], code) for argv, codes in _INT_FLAG_ARGV
                  for value, code in zip(("0", "-1", str(10 ** 12)), codes)]


@pytest.mark.parametrize("argv, expected", _DAMAGED_ARGV,
                         ids=[" ".join(a) for a, _ in _DAMAGED_ARGV])
def test_damaged_command_line_ends_in_an_exit_code(capsys, tmp_path, monkeypatch, golden_file,
                                                   golden_H_file, argv, expected):
    """A damaged command line exits 0, 2, 3, 4 or 5, never with a traceback;
    an empty field in a list flag is an input error, not dropped.  An input
    error is refused before any slice opens (a flow of 5000 t-samples would
    open 40,000)."""
    family = tmp_path / "family.json"
    save_symbol(sin_mass_family(assemble_chiral(golden_symbol())), family)
    files = {"g": golden_file, "H": golden_H_file, "F": str(family), "tmp": str(tmp_path)}
    if expected == 4:
        monkeypatch.setattr(qtop.wiener_hopf._SliceTable, "open",
                            lambda self, keys: pytest.fail("a slice opened"))
    code = cli.main([a.format(**files) for a in argv])
    assert code in (0, 2, 3, 4, 5)
    assert "Traceback" not in capsys.readouterr().err
    assert expected is None or code == expected


def test_list_flags_accept_spaces_around_a_field():
    assert cli._parse_int_tuple(" 10, 14 ,18 ", name="--sizes") == (10, 14, 18)


def test_factorize_golden_slice(capsys, golden_file, tmp_path):
    out = tmp_path / "report.json"
    code, rep = run(capsys, [
        "factorize", golden_file, "--var", "0", "--param", "1=1j",
        "--out", str(out),
    ])
    assert code == 0
    assert rep["partial_indices"] == [0, 0]
    assert rep["fixed_point"] == [[0.0, 1.0]]
    assert rep["residual"] <= 1e-8
    assert rep["verification_residual"] <= 1e-8
    assert json.loads("\n".join(out.read_text().splitlines()[1:])) == rep
    # the smallest truncation is judged by the factors it returns
    code, rep = run(capsys, [
        "factorize", golden_file, "--var", "0", "--param", "1=1j", "--trunc", "0",
    ])
    assert code == 0 and rep["truncation"] == 0
    assert rep["residual"] <= 1e-12 and rep["verification_residual"] <= 1e-12


def test_json_default_encodes_numpy_scalars_complex_and_arrays():
    assert cli._json_default(np.int64(3)) == 3 and type(cli._json_default(np.int64(3))) is int
    assert type(cli._json_default(np.float64(0.5))) is float
    assert cli._json_default(complex(1.5, -2.0)) == [1.5, -2.0]
    assert cli._json_default(np.arange(3)) == [0, 1, 2]
    text = json.dumps({"m": np.array([[1j, 2.0]])}, default=cli._json_default)
    assert text == '{"m": [[[0.0, 1.0], [2.0, 0.0]]]}'
    with pytest.raises(TypeError, match="cannot serialize set"):
        cli._json_default({1})


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
    for value in ("inf", "nan", "1+infj"):
        code, rep = run(capsys, [
            "factorize", golden_file, "--var", "0", "--param", f"1={value}",
        ])
        assert code == 4 and rep["error"] == "InputError", value
    code, rep = run(capsys, ["factorize", "/nonexistent/sym.json"])
    assert code == 4


@pytest.mark.parametrize("argv", [
    ["flow", "{family}", "--tsamples", "0"],
    ["flow", "{family}", "--tsamples", "-3"],
    ["flow", "{family}", "--size", "-1"],
    ["index", "{golden}", "--mode", "w3", "--grid", "4,5,0", "--samples", "4"],
    ["index", "{golden}", "--mode", "w3", "--grid", "0,9,8", "--samples", "4"],
    ["index", "{golden}", "--mode", "w3", "--grid", "2,5,2", "--samples", "4"],
    ["index", "{golden}", "--mode", "w3", "--grid", "8,131,8", "--samples", "4"],
    ["index", "{golden}", "--mode", "truncation", "--sizes", "0"],
    ["index", "{golden}", "--mode", "truncation", "--sizes", "-3"],
    ["corner", "{H}", "--size", "0"],
    ["corner", "{H}", "--size", "-2"],
    ["factorize", "{golden}", "--param", "1=1", "--trunc", "-4"],
    ["factorize", "{golden}", "--var", "0", "--param", "1=1", "--trunc", "100000"],
    ["factorize", "{s1}", "--var", "7"],
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
    s1 = tmp_path / "s1.json"
    save_symbol(golden_symbol().freeze({1: 1.0}), s1)
    files = {"family": str(family), "golden": golden_file, "H": golden_H_file,
             "dump": str(tmp_path / "dump"), "s1": str(s1)}
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


def test_corner_zero_tol_at_the_rounding_floor_exits_4(capsys, tmp_path):
    """Golden x 1e8 at side 5: below the rounding floor n eps sum ||a_k||
    (4.4e-6 here) the values-only and the full SVD round the null pair to
    different sides of 1e-12, so the count would depend on --csv."""
    path = tmp_path / "H.json"
    scaled = LaurentSymbol(2, 2, [(k, 1e8 * a) for k, a in golden_symbol().coeffs.items()])
    save_symbol(assemble_chiral(scaled), path)
    for csv in ([], ["--csv", str(tmp_path / "spectrum.csv")]):
        code, rep = run(capsys, ["corner", str(path), "--size", "5", "--zero-tol", "1e-12"] + csv)
        assert code == 4
        assert rep["error"] == "InputError"
        assert "rounding floor 4.441e-06" in rep["detail"]


def test_corner_class_is_case_insensitive(capsys, golden_H_file):
    code, rep = run(capsys, [
        "corner", golden_H_file, "--class", "aiii", "--size", "8",
        "--grid", "16,9,16", "--samples", "8",
    ])
    assert code == 0
    assert rep["class"] == "AIII"
    assert rep["spectrum"]["signed_count"] == 1
    assert rep["w3_of_h"]["rounded"] == 1


def _refuse(*args, **kwargs):
    raise AssertionError("dense work ran before the input was checked")


def test_det_zeros_at_degree_1200_are_obstructions(capsys, tmp_path):
    """-1.5 - z^600 - z^-600 vanishes at 1200 points of the circle: det f of
    degree 1200 is SingularOnTorus for the truncation index and factorize."""
    path = tmp_path / "far_zeros.json"
    doc = {}
    _scalar(doc, [(0, -1.5), (600, -1.0), (-600, -1.0)])
    path.write_text(json.dumps(doc))
    for argv in (["index", str(path), "--mode", "truncation"], ["factorize", str(path)]):
        code, rep = run(capsys, argv)
        assert (code, rep["error"]) == (2, "SingularOnTorus"), argv


def test_det_past_the_grid_cap_is_an_input_error(capsys, tmp_path):
    """1 + 0.5 z^600000 has winding 0, but its det grid leaves no room to
    halve twice under DET_GRID: exit 4 before any sampling, never exit 2."""
    path = tmp_path / "far_degree.json"
    doc = {}
    _scalar(doc, [(0, 1.0), (600_000, 0.5)])
    path.write_text(json.dumps(doc))
    for argv in (["index", str(path), "--mode", "truncation"], ["factorize", str(path)]):
        code, rep = run(capsys, argv)
        assert (code, rep["error"]) == (4, "InputError"), argv


def test_scaled_symbol_keeps_its_verdict(capsys, tmp_path):
    """The det cut scales with the symbol: 1e-5 golden has index 1."""
    path = tmp_path / "small.json"
    save_symbol(golden_symbol().scale(1e-5), path)
    code, rep = run(capsys, ["index", str(path), "--mode", "w3", "--grid", "16,9,16"])
    assert code == 0 and rep["w3"]["rounded"] == 1


def test_zero_of_det_between_grid_points_is_an_obstruction(capsys, tmp_path):
    """The chiral H of h = z - 2.5 - w^2 - w^-2: its slice at z = 1 vanishes
    at four points of the circle, none of them on the 1024-point det grid."""
    h = LaurentSymbol(2, 1, [((1, 0), [[1.0]]), ((0, 0), [[-2.5]]),
                             ((0, 2), [[-1.0]]), ((0, -2), [[-1.0]])])
    path = tmp_path / "Hsing.json"
    save_symbol(assemble_chiral(h), path)
    code, rep = run(capsys, ["symmetry", str(path), "--class", "AIII", "--report",
                             "--samples", "3", "--grid", "30,17,30"])
    assert code == 2
    assert (rep["error"], rep["direction"], rep["where"]) == ("NotFredholm", 1, [0.0])


def test_oversized_samples_exit_before_any_slice_opens(capsys, golden_file, golden_H_file,
                                                       monkeypatch):
    monkeypatch.setattr(qtop.wiener_hopf, "_open_stack", _refuse)
    for name in ("numerical_index", "corner_spectrum", "gapped_invariant_report"):
        monkeypatch.setattr(cli, name, _refuse)
    for argv in (["index", golden_file, "--mode", "w3", "--grid", "8,5,8"],
                 ["index", golden_file],
                 ["corner", golden_H_file, "--class", "AIII"],
                 ["symmetry", golden_H_file, "--class", "AIII", "--report"],
                 ["symmetry", golden_file, "--class", "A", "--report"]):
        code, rep = run(capsys, argv + ["--samples", "100000000"])
        assert code == 4 and rep["error"] == "InputError", argv
        assert "slices per circle" in rep["detail"]
    check_samples(2000, 4)  # the cap leaves room for 2000 slices per circle at band 4


def test_corner_unknown_class_exits_before_the_solve(capsys, golden_H_file, monkeypatch):
    monkeypatch.setattr(cli, "corner_spectrum", _refuse)
    code, rep = run(capsys, ["corner", golden_H_file, "--class", "XY", "--size", "8"])
    assert code == 4
    assert rep["error"] == "InputError"


@pytest.mark.parametrize("grid", ["8,131,8", "2,5,2", "abc"])
def test_malformed_grid_exits_before_dense_work(capsys, golden_file, golden_H_file,
                                                monkeypatch, grid):
    for name in ("numerical_index", "corner_spectrum", "gapped_invariant_report"):
        monkeypatch.setattr(cli, name, _refuse)
    for argv in (["index", golden_file],
                 ["corner", golden_H_file, "--class", "AIII"],
                 ["symmetry", golden_H_file, "--class", "AIII", "--report"]):
        code, rep = run(capsys, argv + ["--grid", grid])
        assert code == 4 and rep["error"] == "InputError", argv


@pytest.mark.parametrize("mode", ["w3", "both"])
def test_w3_of_a_one_variable_file_exits_before_dense_work(capsys, tmp_path, monkeypatch,
                                                           mode):
    monkeypatch.setattr(cli, "numerical_index", _refuse)
    path = tmp_path / "s1.json"
    # golden's slice, and 1 + z, whose determinant vanishes at z = -1
    for sym in (golden_symbol().freeze({1: 1.0}),
                LaurentSymbol(1, 1, [((0,), np.eye(1)), ((1,), np.eye(1))])):
        save_symbol(sym, path)
        code, rep = run(capsys, ["index", str(path), "--mode", mode])
        assert code == 4 and rep["error"] == "InputError"


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


def test_flow_csv_writes_each_sample_once(capsys, tmp_path):
    # at window 0.25 a track begun after t_0 closes into the t_0 state that
    # the first track starts from; their joint sample is one row
    path = tmp_path / "family.json"
    save_symbol(sin_mass_family(assemble_chiral(golden_symbol())), path)
    csv_path = tmp_path / "tracks.csv"
    code, _ = run(capsys, [
        "flow", str(path), "--tsamples", "16", "--size", "6", "--window", "0.25",
        "--csv", str(csv_path),
    ])
    assert code == 0
    rows = [line.split(",") for line in csv_path.read_text().splitlines()[1:]]
    samples = [(t, lam, part) for t, _, lam, part in rows]
    assert len(samples) == len(set(samples))


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
    point = cli._parse_chart_point("chart=DT;theta=0;rho=0;phi=0.5")
    want = golden_closed_form().value(point)
    assert np.max(np.abs(got - want)) <= 1e-8
    # the value is written entry by entry as an [re, im] pair
    value = ExtendedSymbol(golden_symbol(), samples_per_circle=8).value(point)
    assert rep["value"] == [[[v.real, v.imag] for v in row] for row in value.tolist()]
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
        "chart=TD;theta=0;rho=0.5;phi=inf",
        "chart=DT;theta=nan;rho=0.5;phi=0",
        "chart=DT;theta=0;rho=0.5;phi=0;t=-inf",
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


def test_threads_resolution(capsys, golden_file, golden_H_file, monkeypatch):
    for argv in (
        ["factorize", golden_file, "--param", "1=1"],
        ["symmetry", golden_H_file, "--class", "AIII"],
        ["index", golden_file, "--mode", "truncation"],
        ["extend", golden_file, "--eval", "chart=TD;theta=0;rho=0;phi=0", "--samples", "4"],
    ):
        monkeypatch.setenv("QTOP_THREADS", "2")
        assert run(capsys, argv)[0] == 0, argv
        for threads in ("0", "-5"):
            code, rep = run(capsys, argv + ["--threads", threads])
            assert (code, rep["error"]) == (4, "InputError"), argv
        monkeypatch.setenv("QTOP_THREADS", "zero")
        code, rep = run(capsys, argv)
        assert (code, rep["error"]) == (4, "InputError"), argv
        assert run(capsys, argv + ["--threads", "1"])[0] == 0, argv
