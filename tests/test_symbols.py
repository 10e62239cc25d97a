import itertools
import json

import numpy as np
import pytest

from conftest import golden_symbol, random_canonical_2d, small_term
from qtop.errors import (
    ChiralViolation,
    DimensionMismatch,
    DuplicateExponent,
    InputError,
    SymmetryViolation,
    ZeroCoordinate,
)
from qtop.invariants import gapped_invariant_report
from qtop.operators import assemble
from qtop.symbols import (
    GRID_CAP,
    LaurentSymbol,
    assemble_chiral,
    az_class,
    check_symmetry,
    chiral_projector,
    _reducing_subspaces,
    load_symbol,
    save_symbol,
    split_chiral,
)


def random_symbol(rng, num_vars=2, n=2, reach=1):
    terms = []
    for e0 in range(-reach, reach + 1):
        for e1 in range(-reach, reach + 1):
            exp = (e0, e1)[:num_vars]
            terms.append((exp, small_term(rng, n, 0.5)))
    return LaurentSymbol(num_vars, n, terms)


def test_construction_validation():
    with pytest.raises(InputError):
        LaurentSymbol(0, 2, [])
    with pytest.raises(InputError):
        LaurentSymbol(1, 0, [])
    with pytest.raises(DuplicateExponent):
        LaurentSymbol(1, 1, [((0,), np.eye(1)), ((0,), np.eye(1))])
    with pytest.raises(DimensionMismatch):
        LaurentSymbol(1, 2, [((0,), np.eye(3))])
    for bad in (np.nan, np.inf):
        with pytest.raises(InputError):
            LaurentSymbol(1, 1, [((0,), np.array([[bad]]))])


def test_oversized_coefficient_norm_is_input_error():
    """A norm whose band_dim-th power overflows is refused: det f would."""
    with pytest.raises(InputError):
        LaurentSymbol(1, 2, [((0,), np.diag([1e308 + 1e308j, 1.0]))])
    with pytest.raises(InputError):
        LaurentSymbol(1, 4, [((0,), 1e80 * np.eye(4))])  # norm 2e80; its 4th power overflows
    assert np.isclose(LaurentSymbol(1, 4, [((0,), 1e60 * np.eye(4))]).coeff_norm(), 2e60)


def test_exponents_beyond_the_grid_cap_are_input_errors():
    """An exponent past GRID_CAP, or a variable whose coefficient stack would
    hold more than GRID_CAP entries, is refused before any array is built."""
    one, half = np.eye(1), 0.5 * np.eye(1)
    for terms in ([((10**30,), one)], [((0,), one), ((10**9,), half)],
                  [((0,), one), ((10**7,), half)], [((0, 1), one), ((-(10**7), 1), half)]):
        with pytest.raises(InputError, match=str(GRID_CAP)):
            LaurentSymbol(len(terms[0][0]), 1, terms)
    with pytest.raises(InputError):  # 2.5e6 + 1 exponents of a band-2 coefficient
        LaurentSymbol(1, 2, [((0,), np.eye(2)), ((2_500_000,), np.eye(2))])
    assert LaurentSymbol(1, 1, [((0,), one), ((1000,), half)]).exponent_range(0) == (0, 1000)
    assert LaurentSymbol(1, 1, [((GRID_CAP,), one)]).exponent_range(0) == (GRID_CAP, GRID_CAP)


def test_eval_matches_eval_grid(rng):
    f = random_symbol(rng)
    zs = np.exp(1j * rng.uniform(0, 2 * np.pi, 4))
    ws = np.exp(1j * rng.uniform(0, 2 * np.pi, 3))
    grid = f.eval_grid([zs, ws])
    assert grid.shape == (4, 3, 2, 2)
    for i, z in enumerate(zs):
        for j, w in enumerate(ws):
            want = sum(a * z**k * w**l for (k, l), a in f.coeffs.items())
            assert np.allclose(grid[i, j], want)
            assert np.allclose(f.eval((z, w)), want)
    with pytest.raises(DimensionMismatch):
        f.eval((zs[0],))
    with pytest.raises(ZeroCoordinate):
        LaurentSymbol(2, 1, [((0, -1), np.eye(1))]).eval((1.0, 0.0))


def test_product_and_sum_are_pointwise(rng):
    f = random_symbol(rng)
    g = random_symbol(rng)
    z, w = np.exp(0.3j), np.exp(-1.1j)
    assert np.allclose((f * g).eval((z, w)), f.eval((z, w)) @ g.eval((z, w)))
    assert np.allclose((f + g).eval((z, w)), f.eval((z, w)) + g.eval((z, w)))
    assert np.allclose((f - g).eval((z, w)), f.eval((z, w)) - g.eval((z, w)))


def test_adjoint_is_pointwise_hermitian_conjugate(rng):
    f = random_symbol(rng)
    z, w = np.exp(0.7j), np.exp(2.3j)
    assert np.allclose(f.adjoint().eval((z, w)), f.eval((z, w)).conj().T)


def test_slice_freezes_other_variable():
    f = golden_symbol()
    w0 = np.exp(0.9j)
    sl = f.slice(0, (w0,))
    z0 = np.exp(-0.2j)
    assert isinstance(sl, LaurentSymbol) and sl.num_vars == 1
    assert np.allclose(sl.eval((z0,)), f.eval((z0, w0)))
    assert f.freeze({1: w0}) == sl
    with pytest.raises(ZeroCoordinate):
        f.slice(0, (0.0,))
    with pytest.raises(InputError):  # (1e200)^2 overflows a complex
        LaurentSymbol(2, 1, [((0, 2), np.eye(1))]).freeze({1: 1e200})
    with pytest.raises(DimensionMismatch):
        f.slice(0, (w0, w0))


def _entrywise_section(symbol, rows, cols):
    """Reference: block (x, y) = a_{x-y}, sites lexicographic, band fastest."""
    n = symbol.band_dim
    row_sites = list(itertools.product(*map(range, rows)))
    col_sites = list(itertools.product(*map(range, cols)))
    out = np.zeros((len(row_sites) * n, len(col_sites) * n), dtype=complex)
    for i, x in enumerate(row_sites):
        for j, y in enumerate(col_sites):
            out[i * n:(i + 1) * n, j * n:(j + 1) * n] = symbol.coeff(
                tuple(a - b for a, b in zip(x, y))
            )
    return out


def test_section_matches_entrywise_reference():
    rng = np.random.default_rng(11)
    boxes = [
        ((5,), (3,)), ((9,), (4,)), ((1,), (1,)),          # tall, one variable
        ((3, 3), (3, 3)), ((5, 4), (3, 3)), ((4, 6), (2, 4)),  # square, reach-extended
        ((0,), (3,)), ((2, 2), (0, 2)), ((0, 0), (0, 0)),  # empty boxes
    ]
    for rows, cols in boxes:
        for n in (1, 2, 3, 4):
            exps = {tuple(int(e) for e in rng.integers(-6, 7, len(rows))) for _ in range(5)}
            f = LaurentSymbol(len(rows), n, [(e, small_term(rng, n, 1.0)) for e in exps])
            mat = f.section(rows, cols)
            assert np.array_equal(mat, _entrywise_section(f, rows, cols)), (rows, cols, n)
            if rows == cols and min(rows) > 0:
                assert np.array_equal(assemble(f, rows[0]), mat)
    with pytest.raises(InputError):
        golden_symbol().section((2, -1), (2, 2))
    with pytest.raises(DimensionMismatch):
        golden_symbol().section((2,), (2, 2))


def test_shift_multiplies_by_monomial(rng):
    f = random_symbol(rng)
    shifted = f.shift((2, -1))
    z, w = np.exp(0.5j), np.exp(1.7j)
    assert np.allclose(shifted.eval((z, w)), z**2 * w**-1 * f.eval((z, w)))


def test_save_load_roundtrip(tmp_path, rng):
    f = random_symbol(rng)
    path = tmp_path / "sym.json"
    save_symbol(f, path)
    g = load_symbol(path)
    assert f.distance(g) == 0.0
    assert g.num_vars == f.num_vars and g.band_dim == f.band_dim


def test_load_rejects_malformed(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(InputError, match="line 1"):
        load_symbol(bad)
    wrong = tmp_path / "wrong.json"
    wrong.write_text(json.dumps({"num_vars": 1, "band_dim": 2, "terms": [
        {"exponents": [0], "matrix": [[[1, 0]]]}
    ]}))
    with pytest.raises(InputError, match="term 0"):
        load_symbol(wrong)


def test_az_class_table():
    spec = az_class("AIII")
    assert spec.degree == 1 and spec.chiral and spec.antiunitary == "none"
    assert az_class("AI").degree == 0 and not az_class("AI").chiral
    assert az_class("CII").degree == 5
    assert az_class("CI").degree == -1
    with pytest.raises(InputError):
        az_class("nonsense")


def test_chiral_assembly_roundtrip(golden):
    H = assemble_chiral(golden)
    assert H.band_dim == 4
    h = split_chiral(H)
    assert h.distance(golden) == 0.0
    z, w = np.exp(0.3j), np.exp(-0.8j)
    val = H.eval((z, w))
    n = golden.band_dim
    assert np.allclose(val[n:, :n], golden.eval((z, w)))
    assert np.allclose(val[:n, n:], golden.eval((z, w)).conj().T)
    assert np.allclose(val[:n, :n], 0.0)
    with pytest.raises(ChiralViolation):
        split_chiral(H + LaurentSymbol.identity(2, 4))
    with pytest.raises(DimensionMismatch):
        chiral_projector(3)


def test_check_symmetry_classes(golden, golden_H):
    assert check_symmetry(golden_H, az_class("AIII")).passed
    # golden f is not hermitian, so class AI must fail on it
    with pytest.raises(SymmetryViolation):
        check_symmetry(golden, az_class("AI")).require()
    # the chiral H has real coefficients: BDI relations hold
    assert check_symmetry(golden_H, az_class("BDI")).passed


def test_check_symmetry_reports_violation_size(golden_H):
    broken = golden_H + LaurentSymbol.constant(2, 0.01 * np.eye(4))
    report = check_symmetry(broken, az_class("AIII"))
    assert not report.passed
    assert report.violations["chiral"] > 1e-4


# Degree relation of each real class on its designated block (H, or h for
# the chiral classes), written independently of the package: the block
# satisfies it when a_{-k} (flip) or a_k equals the image of a_k, where
# ``j`` is the symplectic unit diag([[0, -1], [1, 0]], ...).
_DEGREE_IMAGES = {
    "AI": (False, lambda a, j: a.conj()),
    "BDI": (False, lambda a, j: a.conj()),
    "D": (True, lambda a, j: -a.T),
    "DIII": (True, lambda a, j: j @ a.T @ j.T),
    "AII": (False, lambda a, j: j @ a.conj() @ j.T),
    "CII": (False, lambda a, j: j @ a.conj() @ j.T),
    "C": (True, lambda a, j: -(j @ a.T @ j.T)),
    "CI": (True, lambda a, j: a.T),
}


def _degree_image(label, g):
    flip, image = _DEGREE_IMAGES[label]
    n = g.band_dim
    j = np.kron(np.eye(n // 2), [[0.0, -1.0], [1.0, 0.0]]) if n % 2 == 0 else None
    sign = -1 if flip else 1
    return LaurentSymbol(2, n, [(tuple(sign * e for e in k), image(a, j))
                                for k, a in g.coeffs.items()])


def _class_symbol(label, n, seed):
    """Seeded symbol of class ``label`` with a band-``n`` designated block:
    a dominant constant plus small hops, averaged with its image under the
    degree relation and then with its adjoint (or made chiral)."""
    rng = np.random.default_rng(seed)
    terms = [((0, 0), small_term(rng, n, 1.0))]
    terms += [(k, small_term(rng, n, 0.05))
              for k in ((1, 0), (0, 1), (-1, 0), (0, -1), (1, 1))]
    g = LaurentSymbol(2, n, terms)
    g = (g + _degree_image(label, g)).scale(0.5)
    if az_class(label).chiral:
        return assemble_chiral(g)
    return (g + g.adjoint()).scale(0.5)


@pytest.mark.parametrize("label, n", [
    ("AI", 3), ("BDI", 2), ("D", 2), ("DIII", 2),
    ("AII", 4), ("CII", 2), ("C", 2), ("CI", 3),
])
def test_every_real_class_accepts_its_symmetrized_symbol(label, n):
    spec = az_class(label)
    sym = _class_symbol(label, n, seed=0)
    assert max(check_symmetry(sym, spec).violations.values()) <= 1e-14

    # a 1e-6 constant kick that keeps hermiticity and chirality breaks
    # exactly the degree relation
    kick = 1e-6 * small_term(np.random.default_rng(1), n, 1.0)
    if spec.chiral:
        kicked = assemble_chiral(split_chiral(sym) + LaurentSymbol.constant(2, kick))
    else:
        kicked = sym + LaurentSymbol.constant(2, kick + kick.conj().T)
    report = check_symmetry(kicked, spec)
    assert [r for r, v in report.violations.items() if v > report.tol] == [
        spec.relations[-1]
    ]

    full = gapped_invariant_report(sym, label, grid=(16, 9, 16))
    assert full.extension_checks["equivariance"] <= 1e-8


def test_conjugate_by_unitary(rng, golden):
    q, _ = np.linalg.qr(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
    g = golden.conjugate_by(q)
    z, w = np.exp(1.1j), np.exp(0.2j)
    assert np.allclose(g.eval((z, w)), q @ golden.eval((z, w)) @ q.conj().T)


def test_block_diag_eval(golden):
    two = golden.block_diag(golden.adjoint())
    z, w = np.exp(0.25j), np.exp(-1.4j)
    val = two.eval((z, w))
    assert np.allclose(val[:2, :2], golden.eval((z, w)))
    assert np.allclose(val[2:, 2:], golden.eval((z, w)).conj().T)
    assert np.allclose(val[:2, 2:], 0.0)


def test_irreducible_symbols_are_one_block(rng, golden):
    for sym in (golden, random_canonical_2d(rng), assemble_chiral(golden),
                random_canonical_2d(rng, n=4)):
        assert [[w.shape[1] for w in c] for c in _reducing_subspaces(sym)] == [[sym.band_dim]]


def test_reducing_subspaces_split_a_hidden_sum(rng, golden):
    q, _ = np.linalg.qr(rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6)))
    sym = golden.block_diag(golden.adjoint()).block_diag(golden).conjugate_by(q)
    classes = sorted(_reducing_subspaces(sym), key=len, reverse=True)
    # the two golden blocks are one class, the adjoint (index -1) its own
    assert [[w.shape[1] for w in c] for c in classes] == [[2, 2], [2]]
    pair = np.hstack(classes[0])
    golden_cols = q[:, [0, 1, 4, 5]]
    assert np.allclose(pair @ pair.conj().T, golden_cols @ golden_cols.conj().T, atol=1e-12)
    head = classes[0][0]
    for a in sym.coeffs.values():  # both members compress a_k alike
        member = classes[0][1].conj().T @ a @ classes[0][1]
        assert np.linalg.norm(member - head.conj().T @ a @ head) <= 1e-12 * sym.coeff_norm()
    basis = np.hstack([w for c in classes for w in c])
    assert np.allclose(basis.conj().T @ basis, np.eye(6), atol=1e-12)
    for a in sym.coeffs.values():
        rotated = basis.conj().T @ a @ basis
        for i, j in itertools.product(range(3), repeat=2):
            if i != j:
                assert np.linalg.norm(rotated[2 * i:2 * i + 2, 2 * j:2 * j + 2]) <= 1e-12


def test_reducing_subspaces_form_no_gram_above_the_band_cap(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("Gram formed above the band cap")

    monkeypatch.setattr(np, "kron", refuse)
    monkeypatch.setattr(np.linalg, "eigh", refuse)
    sym = LaurentSymbol(2, 17, [((1, 0), np.eye(17)), ((0, 1), np.diag(np.arange(17.0)))])
    assert [[w.shape[1] for w in c] for c in _reducing_subspaces(sym)] == [[17]]
