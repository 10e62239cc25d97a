import itertools
import math

import numpy as np
import pytest

from conftest import (
    gap_closing_family,
    golden_symbol,
    promote_to_family,
    pump_family,
    random_canonical_2d,
    sin_mass_family,
)
from qtop import operators, wiener_hopf
from qtop.errors import (
    ChiralViolation,
    DimensionMismatch,
    InputError,
    NotFredholm,
    NotHermitian,
    SizeOverflow,
    TrackingAmbiguous,
    Unstable,
)
from qtop.operators import (
    CORNER_EXTENT,
    _corner_mask,
    _crossings,
    _section_eigh,
    assemble,
    certify_fredholm,
    corner_spectrum,
    kernel_dim,
    numerical_index,
    spectral_flow,
)
from qtop.symbols import (DENSE_CAP, LaurentSymbol, _reducing_subspaces, _split_mass,
                          assemble_chiral)


def scalar_1d(terms):
    return LaurentSymbol(1, 1, [((k,), np.array([[c]])) for k, c in terms])


def test_segment_assembly_puts_shift_below_diagonal():
    mat = assemble(scalar_1d([(1, 1.0)]), 5)
    want = np.zeros((5, 5))
    want[np.arange(1, 5), np.arange(4)] = 1.0
    assert np.array_equal(mat, want)


def test_quarter_assembly_layout(golden):
    mat = assemble(golden, 3)
    assert mat.shape == (18, 18)
    # hop z: site (x, y) -> (x+1, y); site order is lexicographic in (x, y)
    sites = list(itertools.product(range(3), range(3)))
    a = mat.reshape(9, 2, 9, 2)
    i, j = sites.index((1, 2)), sites.index((0, 2))
    assert np.allclose(a[i, :, j, :], np.array([[1.0, 0.0], [0.0, 0.0]]))
    # Dirichlet: no wraparound from the last column
    i, j = sites.index((0, 0)), sites.index((2, 0))
    assert np.allclose(a[i, :, j, :], 0.0)


def test_assembly_validation(golden):
    with pytest.raises(DimensionMismatch):
        assemble(promote_to_family(golden), 4)
    with pytest.raises(InputError):
        assemble(golden, -1)
    with pytest.raises(SizeOverflow):
        assemble(golden, 200)


def test_corner_mask_matches_the_site_grid_mask():
    # reference: the corner indicator over sites listed lexicographically,
    # repeated over the band index, as the section lays out its rows
    for side in range(1, 7):
        sites = np.array(list(itertools.product(range(side), range(side))))
        near = np.all(sites < CORNER_EXTENT, axis=1)
        for n in (1, 2, 3):
            assert np.array_equal(_corner_mask(side, n), np.repeat(near, n).astype(float))
    assert np.all(_corner_mask(CORNER_EXTENT - 1, 2) == 1.0)


def test_kernel_dim_of_finite_shift():
    assert kernel_dim(assemble(scalar_1d([(1, 1.0)]), 8)) == 1
    assert kernel_dim(assemble(scalar_1d([(0, 1.0)]), 8)) == 0
    assert kernel_dim(np.ones((1, 3))) == 2
    assert kernel_dim(np.zeros((2, 3))) == 3


def test_numerical_index_golden(golden):
    rep = numerical_index(golden)
    assert rep.value == 1
    assert rep.kernel_counts == (1, 1, 1)
    assert rep.cokernel_counts == (0, 0, 0)
    assert rep.to_dict()["index"] == 1


def test_kernel_dim_of_blocks_cuts_at_the_largest_singular_value(rng):
    a = rng.standard_normal((6, 4))
    b = 1e-9 * rng.standard_normal((5, 3))
    whole = np.zeros((11, 7))
    whole[:6, :4], whole[6:, 4:] = a, b
    assert kernel_dim(a, b) == kernel_dim(whole) == 3
    assert kernel_dim(b) == 0


def _index_cases():
    golden = golden_symbol()
    cases = {"golden": golden, "golden2": golden.block_diag(golden),
             "adjoint": golden.adjoint(), "canonical": random_canonical_2d(np.random.default_rng(3))}
    for seed in range(5):
        g = random_canonical_2d(np.random.default_rng(seed))
        cases[f"golden*g{seed}"], cases[f"g{seed}*golden"] = golden * g, g * golden
    return cases


@pytest.mark.parametrize("case", list(_index_cases()))
def test_kernel_certificate_gives_the_counts_of_its_svd_fallback(case, monkeypatch):
    """The same report with the certificate and with every block refused.
    An escalated product's side-10 section has a singular value between the
    cut and the certificate's shift, where the certificate refuses."""
    sym = _index_cases()[case]
    verdicts, certify = [], operators._certified_count
    monkeypatch.setattr(operators, "_certified_count",
                        lambda *args: verdicts.append(certify(*args)) or verdicts[-1])
    report = numerical_index(sym)
    monkeypatch.setattr(operators, "_certified_count", lambda *args: None)
    assert report.to_dict() == numerical_index(sym).to_dict()
    if len(report.sizes) > 3:
        assert None in verdicts
    elif case in ("golden", "golden2", "adjoint", "canonical"):
        assert None not in verdicts


def test_golden_index_decomposes_no_section(golden, monkeypatch):
    """At the default sizes every kernel_dim block of golden is certified:
    the only SVDs inside kernel_dim are those of T Q, NULL_BLOCK columns."""
    inside, shapes = [], []
    svd, count = np.linalg.svd, operators.kernel_dim

    def spy(a, *args, **kwargs):
        if inside:
            shapes.append(a.shape)
        return svd(a, *args, **kwargs)

    def traced(*blocks):
        inside.append(True)
        try:
            return count(*blocks)
        finally:
            inside.pop()

    monkeypatch.setattr(np.linalg, "svd", spy)
    monkeypatch.setattr(operators, "kernel_dim", traced)
    assert numerical_index(golden).value == 1
    assert shapes and all(cols == operators.NULL_BLOCK for _, cols in shapes)


def test_kernel_dim_falls_back_when_cholesky_raises(golden, monkeypatch):
    sections = [f.section([11, 11], [10, 10]) for f in (golden, golden.adjoint())]
    expected = [wiener_hopf._kernel_count(t)[0] for t in sections]
    assert expected == [1, 0]

    def indefinite(*args, **kwargs):
        raise np.linalg.LinAlgError("Matrix is not positive definite")

    monkeypatch.setattr(np.linalg, "cholesky", indefinite)
    svds, count = [], wiener_hopf._kernel_count
    monkeypatch.setattr(operators, "_kernel_count",
                        lambda *blocks: svds.append(len(blocks)) or count(*blocks))
    assert [kernel_dim(t) for t in sections] == expected
    assert svds == [1, 1]


def test_kernel_certificate_refuses_a_block_that_missed_the_null_vector(golden, monkeypatch):
    """Without inverse iteration the block is Gaussian, every Ritz value
    lies above the cut, and the lifted Cholesky refuses the count 0."""
    t = golden.section([11, 11], [10, 10])
    monkeypatch.setattr(operators, "_cholesky_solve", lambda low, b: b)
    assert operators._certified_count(t, *operators._norm_bracket(t)) is None
    assert kernel_dim(t) == 1


def _direct_sum(parts):
    out = parts[0]
    for part in parts[1:]:
        out = out.block_diag(part)
    return out


@pytest.mark.parametrize("k, l", [(1, 0), (0, 1), (2, 0), (1, 1), (0, 2), (2, 1), (1, 2)])
def test_numerical_index_of_hidden_direct_sums(golden, k, l, monkeypatch):
    """golden^k + adjoint^l, conjugated by a seeded unitary, is counted block
    by block; index and per-size counts are the sums over the summands."""
    rng = np.random.default_rng(7 + 3 * k + l)
    n = 2 * (k + l)
    q, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    summands = [golden] * k + [golden.adjoint()] * l
    sym = _direct_sum(summands).conjugate_by(q)
    classes = _reducing_subspaces(sym)
    assert [w.shape[1] for c in classes for w in c] == [2] * (k + l)
    assert sorted(map(len, classes)) == sorted(m for m in (k, l) if m)
    sizes = (4, 6)
    rows = _recorded_sections(monkeypatch)
    rep = numerical_index(sym, sizes=sizes)
    # one section per class for f and for f* at each side
    assert len(rows) == 2 * len(rep.sizes) * ((k > 0) + (l > 0))
    assert rep.value == k - l
    reps = [numerical_index(f, sizes=sizes) for f in summands]
    assert rep.kernel_counts == tuple(map(sum, zip(*(r.kernel_counts for r in reps))))
    assert rep.cokernel_counts == tuple(map(sum, zip(*(r.cokernel_counts for r in reps))))


def _recorded_sections(monkeypatch):
    """Rows of every section of a two-variable symbol, not of its slices."""
    rows = []
    real = LaurentSymbol.section

    def section(self, *args):
        out = real(self, *args)
        if self.num_vars == 2:
            rows.append(out.shape[0])
        return out

    monkeypatch.setattr(LaurentSymbol, "section", section)
    return rows


def test_split_index_keeps_the_full_row_cap(golden, monkeypatch):
    rows = _recorded_sections(monkeypatch)
    with pytest.raises(SizeOverflow):  # 41^2 * 4 rows; each block would be 41^2 * 2
        numerical_index(golden.block_diag(golden), sizes=(40,))
    assert rows == []


def test_split_index_sections_are_blocks(golden, monkeypatch):
    rows = _recorded_sections(monkeypatch)
    rep = numerical_index(golden.block_diag(golden), sizes=(18,))
    assert rep.value == 2
    assert max(rows) == 722  # 19^2 * 2, half the undivided section


def test_numerical_index_related_symbols(golden):
    assert numerical_index(golden.adjoint()).value == -1
    assert numerical_index(LaurentSymbol.identity(2, 2)).value == 0
    assert numerical_index(golden.block_diag(golden), sizes=(8, 10)).value == 2


def test_segment_index_is_minus_winding():
    assert numerical_index(scalar_1d([(1, 1.0), (0, -0.5)])).value == -1
    assert numerical_index(scalar_1d([(-1, 1.0), (0, -0.5)])).value == 1
    assert numerical_index(scalar_1d([(1, 0.3), (0, 1.0)])).value == 0


def test_segment_index_refuses_counts_that_miss_the_winding():
    """det f winds once for z - 0.95 and diag(z - 0.999, I_7), but the
    cokernel margin 0.95^L (0.999^L) of the tall sections never falls 3x
    per doubling, so both counts settle on 0."""
    edge = np.zeros((8, 8))
    edge[0, 0] = 1.0
    slow = LaurentSymbol(1, 8, [((1,), edge), ((0,), np.diag([-0.999] + [1.0] * 7))])
    for sym in (scalar_1d([(1, 1.0), (0, -0.95)]), slow):
        with pytest.raises(Unstable, match="truncation index 0 is not minus the winding 1"):
            numerical_index(sym)


def test_segment_index_refuses_a_tall_section_past_the_row_cap(monkeypatch):
    """2 I + 0.5 z I at band 6 and size 1000 would need 6006 rows."""
    built = []
    real = LaurentSymbol.section

    def section(self, rows, cols):
        built.append(math.prod(rows) * self.band_dim)
        assert built[-1] <= DENSE_CAP, f"a section of {built[-1]} rows was built"
        return real(self, rows, cols)

    monkeypatch.setattr(LaurentSymbol, "section", section)
    sym = LaurentSymbol(1, 6, [((0,), 2.0 * np.eye(6)), ((1,), 0.5 * np.eye(6))])
    with pytest.raises(SizeOverflow, match="6006 rows"):
        numerical_index(sym, sizes=(1000,))
    assert built == []


def test_segment_index_refuses_a_start_with_room_for_one_section(monkeypatch):
    """Kernel scans of z - 0.95 from 100 and 200 escalate within SECTION_CAP
    (the adjoint's reach 800 on the way), but one from 800 could build only
    one section: it is refused before that section is built."""
    sym = scalar_1d([(1, 1.0), (0, -0.95)])
    own = []
    real = LaurentSymbol.section

    def section(self, rows, cols):
        if self is sym:
            own.append(cols[0])
        return real(self, rows, cols)

    monkeypatch.setattr(LaurentSymbol, "section", section)
    with pytest.raises(Unstable, match="start 800 leaves room for one"):
        numerical_index(sym, sizes=(100, 200, 800))
    assert own and 800 not in own


def test_certify_fredholm_reports_direction():
    sym = LaurentSymbol(2, 2, [
        ((1, 0), np.diag([1.0, 0.0])),
        ((-1, 0), np.diag([0.0, 1.0])),
    ])
    with pytest.raises(NotFredholm) as err:
        certify_fredholm(sym)
    assert err.value.direction == 0
    assert err.value.indices == (1, -1)
    certify_fredholm(golden_symbol())  # does not raise


@pytest.mark.parametrize("sign, angle, indices", [
    # z - (1 + cos theta): canonical at 0 and pi/4, singular at pi/2, then
    # z - c with c < 1 (index 1) from 3 pi/4 on: the singular slice is first
    (1.0, np.pi / 2, None),
    # z - (1 - cos theta): index 1 at angle 0 comes before the singular pi/2
    (-1.0, 0.0, (1,)),
])
def test_stacked_certificate_names_the_first_failing_slice(sign, angle, indices):
    sym = LaurentSymbol(2, 1, [((1, 0), [[1.0]]), ((0, 0), [[-1.0]]),
                               ((0, 1), [[-0.5 * sign]]), ((0, -1), [[-0.5 * sign]])])
    with pytest.raises(NotFredholm) as err:
        certify_fredholm(sym)
    assert (err.value.direction, err.value.where, err.value.indices) == (0, (angle,), indices)


def test_truncation_index_escalates_until_the_last_three_sizes_agree():
    """Products of golden with small canonical products: the corner kernel
    vector outruns the side-10 section for most of them, so the default
    sizes read [0, 1, 1] and the side grows to 22."""
    golden = golden_symbol()
    for seed in range(5):
        g = random_canonical_2d(np.random.default_rng(seed))
        for sym in (golden * g, g * golden):
            report = numerical_index(sym)
            assert report.value == 1
            assert report.sizes[:3] == (10, 14, 18)
            assert len(set(report.kernel_counts[-3:])) == 1
            assert len(report.sizes) == len(report.kernel_counts)
    # counts that agree at the given sizes are not escalated
    assert numerical_index(golden).sizes == (10, 14, 18)


def test_truncation_index_adds_at_most_three_sides(monkeypatch):
    """Counts that never settle exit 3 after three added sides, not at the
    DENSE_CAP row limit (side 52 for golden)."""
    counts = iter(range(100))
    monkeypatch.setattr("qtop.operators.kernel_dim", lambda *blocks: next(counts) ** 2)
    with pytest.raises(Unstable, match=r"sizes \(10, 14, 18, 22, 26, 30\)"):
        numerical_index(golden_symbol())
    with pytest.raises(Unstable, match=r"sizes \(6, 10, 14, 18, 22, 26, 30\)"):
        numerical_index(golden_symbol(), sizes=(6, 10, 14, 18))


def test_corner_spectrum_golden(golden_H):
    res = corner_spectrum(golden_H, side=14)
    assert len(res.corner_modes) == 1
    assert res.signed_count == 1
    assert res.corner_modes[0].chirality >= 0.99
    assert abs(res.corner_modes[0].value) <= 1e-10
    assert res.spectral_gap >= 0.1
    assert res.separation_ok
    # the three artificial corners carry the compensating partners
    assert len(res.zero_modes) == 4
    assert sum(1 if m.chirality >= 0 else -1 for m in res.zero_modes) == 0


def test_corner_spectrum_adjoint(golden):
    res = corner_spectrum(assemble_chiral(golden.adjoint()), side=14)
    assert res.signed_count == -1


def test_corner_spectrum_trivial_symbol():
    res = corner_spectrum(assemble_chiral(LaurentSymbol.identity(2, 2)), side=8)
    assert res.signed_count == 0
    assert len(res.zero_modes) == 0
    assert res.spectral_gap >= 0.9


def test_corner_spectrum_of_zero_symbol():
    res = corner_spectrum(LaurentSymbol(2, 2, []), side=3)
    assert len(res.zero_modes) == len(res.corner_modes) == 18
    assert res.signed_count == 0
    assert res.spectral_gap == 0.0
    assert not res.separation_ok


def test_corner_spectrum_validation(golden, golden_H):
    with pytest.raises(NotHermitian):
        corner_spectrum(golden, side=8)
    shifted = golden_H + LaurentSymbol(2, 4, [((0, 0), 0.01 * np.eye(4))])
    with pytest.raises(ChiralViolation):
        corner_spectrum(shifted, side=8)
    res = corner_spectrum(shifted, side=8, chiral=False)
    assert res.signed_count is None


def test_chiral_spectra_pair_up(golden_H):
    res = corner_spectrum(golden_H, side=10, participation=True)
    vals = res.eigenvalues
    assert np.max(np.abs(vals + vals[::-1])) <= 1e-9


def _random_chiral(rng, band):
    """Chiral H from a seeded random h with nearest-neighbour hops."""
    terms = [((i, j), rng.normal(size=(band, band)) + 1j * rng.normal(size=(band, band)))
             for i in (-1, 0, 1) for j in (-1, 0, 1)]
    return assemble_chiral(LaurentSymbol(2, band, terms))


@pytest.mark.parametrize("case", ["golden", "adjoint", "band2", "band3"])
def test_chiral_corner_spectrum_matches_dense_eigh(golden, case):
    rng = np.random.default_rng(11)
    H = {
        "golden": lambda: assemble_chiral(golden),
        "adjoint": lambda: assemble_chiral(golden.adjoint()),
        "band2": lambda: _random_chiral(rng, 2),
        "band3": lambda: _random_chiral(rng, 3),
    }[case]()
    for side in (1, 5, 10):
        res = corner_spectrum(H, side=side, participation=True)
        ref = np.linalg.eigvalsh(assemble(H, side))
        assert res.eigenvalues.shape == ref.shape
        assert np.max(np.abs(res.eigenvalues - ref)) <= 1e-12 * np.max(np.abs(ref))
        assert len(res.zero_modes) == np.count_nonzero(np.abs(ref) <= res.zero_tol)
        assert all(m.chirality in (1.0, -1.0) for m in res.zero_modes)
        assert all(m.value == 0.0 for m in res.zero_modes)
        chi = res.eigen_chirality
        assert np.array_equal(np.abs(chi) == 1, np.abs(res.eigenvalues) <= res.zero_tol)
        assert np.all((chi == 0) | (np.abs(chi) == 1))
        corner_rows = min(side, 4) ** 2 * H.band_dim
        assert abs(res.eigen_participation.sum() - corner_rows) <= 1e-9
    if case in ("golden", "adjoint"):
        assert len(res.zero_modes) == 4
        assert res.signed_count == (1 if case == "golden" else -1)


def test_chiral_corner_spectrum_keeps_the_full_row_cap(golden_H):
    with pytest.raises(SizeOverflow):
        corner_spectrum(golden_H, side=39)


def test_chiral_corner_spectrum_runs_no_dense_eigh(golden_H, monkeypatch):
    eigh, eigvalsh, svd, cholesky = (np.linalg.eigh, np.linalg.eigvalsh, np.linalg.svd,
                                     np.linalg.cholesky)

    def small_only(decompose):
        def small(a, *args, **kwargs):
            if a.shape[0] > 8:
                raise AssertionError(f"{decompose.__name__} of a {a.shape[0]}-row matrix")
            return decompose(a, *args, **kwargs)
        return small

    def narrow_vectors_only(a, *args, compute_uv=True, **kwargs):
        if compute_uv and a.shape[-1] > 2 + 2:  # k = 2 null vectors of T and of T*
            raise AssertionError(f"SVD with vectors of a {a.shape[-1]}-column matrix")
        if not compute_uv and a.shape[0] > 8:
            raise AssertionError(f"values-only SVD of a {a.shape[0]}-row matrix")
        return svd(a, *args, compute_uv=compute_uv, **kwargs)

    def one_panel_only(a, *args, **kwargs):
        if a.shape[-1] > operators.PANEL:
            raise AssertionError(f"Cholesky of a {a.shape[-1]}-column matrix")
        return cholesky(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", small_only(eigh))
    monkeypatch.setattr(np.linalg, "eigvalsh", small_only(eigvalsh))
    monkeypatch.setattr(np.linalg, "svd", narrow_vectors_only)
    monkeypatch.setattr(np.linalg, "cholesky", one_panel_only)
    res = corner_spectrum(golden_H, side=14)
    assert res.signed_count == 1
    assert len(res.zero_modes) == 4
    assert len(res.corner_modes) == 1
    assert res.corner_modes[0].chirality == 1.0
    assert res.spectral_gap >= 0.1
    assert res.separation_ok
    assert res.eigenvalues is None and res.eigen_chirality is None
    assert res.eigen_participation is None


def _corner_cases(golden):
    rng = np.random.default_rng(5)
    q, _ = np.linalg.qr(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
    return {
        "golden": assemble_chiral(golden),
        "adjoint": assemble_chiral(golden.adjoint()),
        "golden2": assemble_chiral(golden.block_diag(golden)),
        "conjugated": assemble_chiral(golden.conjugate_by(q)),
        "band2": _random_chiral(rng, 2),
        "band3": _random_chiral(rng, 3),
        "zero": LaurentSymbol(2, 2, []),
        "bench1": assemble_chiral(golden.conjugate_by(_bench_unitary(1))),
    }


def _bench_unitary(seed):
    """The unitary that conjugates golden into the benchmark's chiral H
    for ``seed``: the first draw of its seeded generator."""
    rng = np.random.default_rng(seed)
    q, r = np.linalg.qr(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _assert_same_report(res, ref):
    """The default path's report against the full SVD's: every count,
    signed count and chirality sequence equal, participations within 1e-12
    and the gap within 1e-12 sigma_max."""
    assert res.eigen_participation is None
    assert res.eigenvalues is None and res.eigen_chirality is None
    assert len(res.zero_modes) == len(ref.zero_modes)
    assert len(res.corner_modes) == len(ref.corner_modes)
    assert res.signed_count == ref.signed_count
    assert res.separation_ok == ref.separation_ok
    # ties at rounding level (every mode at side 2, where the corner patch
    # covers the square) list in one order on both paths
    for modes in ("zero_modes", "corner_modes"):
        assert [m.chirality for m in getattr(res, modes)] == [
            m.chirality for m in getattr(ref, modes)]
    parts = [m.corner_participation for m in res.zero_modes]
    assert np.allclose(parts, [m.corner_participation for m in ref.zero_modes],
                       rtol=0, atol=1e-12)
    top = 1e-12 * max(np.max(np.abs(ref.eigenvalues)), 1e-300)
    assert abs(res.spectral_gap - ref.spectral_gap) <= top


@pytest.mark.parametrize("case", ["golden", "adjoint", "golden2", "conjugated", "band2",
                                  "band3", "zero", "bench1"])
def test_corner_spectrum_from_null_vectors_matches_the_full_svd(golden, case):
    H = _corner_cases(golden)[case]
    for side in [s for s in range(1, 21) if s * s * H.band_dim // 2 <= 800]:
        _assert_same_report(corner_spectrum(H, side=side),
                            corner_spectrum(H, side=side, participation=True))


def test_null_basis_spans_the_kernels_of_t_and_its_adjoint(golden):
    rng = np.random.default_rng(5)
    q, _ = np.linalg.qr(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
    t = assemble(golden.conjugate_by(q), 8)
    s = np.linalg.svd(t, compute_uv=False)
    sides, noise = operators._null_basis(t.copy(), 1e-6, s[0])
    k = np.count_nonzero(sides[0][1] <= 1e-6)
    right, left = operators._kernels(sides, k)
    assert right.shape == left.shape == (t.shape[0], k) and k == 2
    assert 0 < noise <= 1e-13 * s[0]
    for basis, mat in ((right, t), (left, t.conj().T)):
        assert np.allclose(basis.conj().T @ basis, np.eye(k), rtol=0, atol=1e-12)
        assert np.linalg.norm(mat @ basis) <= 1e-12 * s[0]


def test_cholesky_in_place_matches_numpy_and_refuses_an_indefinite_matrix(rng):
    n = 3 * operators.PANEL + 5
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    gram = a.conj().T @ a + np.eye(n)
    factor = np.tril(gram)  # the upper triangle is not read
    operators._cholesky_in_place(factor)
    ref = np.linalg.cholesky(gram)
    assert np.max(np.abs(np.tril(factor) - ref)) <= 1e-12 * np.max(np.abs(ref))
    gram[n - 1, n - 1] = -1.0
    with pytest.raises(np.linalg.LinAlgError):
        operators._cholesky_in_place(gram)


@pytest.mark.parametrize("lifted", [False, True])
def test_gram_cholesky_of_a_banded_section_matches_numpy(rng, lifted):
    """A tall banded T with a zero column: the panel-built, lifted and
    shifted Gram factor equals numpy's, keeps the band when not lifted,
    and solves like numpy."""
    m, n, band = 5 * operators.PANEL + 7, 4 * operators.PANEL + 3, 9
    t = rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))
    t[np.abs(np.subtract.outer(np.arange(m), np.arange(n) * m / n)) > band] = 0.0
    t[:, 1] = 0.0
    lift = np.linalg.qr(rng.standard_normal((n, 2)))[0] if lifted else None
    factor = operators._gram_cholesky(t, 0.5, lift, 3.0)
    gram = t.conj().T @ t + 0.5 * np.eye(n) + (3.0 * lift @ lift.T if lifted else 0.0)
    ref = np.linalg.cholesky(gram)
    assert np.max(np.abs(np.tril(factor) - ref)) <= 1e-12 * np.max(np.abs(ref))
    if not lifted:
        assert np.all(np.tril(factor)[gram == 0.0] == 0.0)
    b = rng.standard_normal((n, 3))
    assert np.allclose(operators._cholesky_solve(factor, b), np.linalg.solve(gram, b),
                       rtol=0, atol=1e-12 * np.max(np.abs(np.linalg.solve(gram, b))))
    assert operators._gram_cholesky(t, -0.5) is None  # the zero column

@pytest.mark.parametrize("case", ["golden", "bench1"])
def test_inertia_certificate_brackets_the_gap(golden, case):
    H = _corner_cases(golden)[case]
    h = LaurentSymbol(2, 2, [(k, a[2:, :2]) for k, a in H.coeffs.items()])
    t = assemble(h, 12)
    s = np.linalg.svd(t, compute_uv=False)
    blocks, found = operators._inertia_certificate(h, 12, 1e-6)
    (right, left), gap, low, residual = found
    k = right.shape[1]
    assert k == left.shape[1] == np.count_nonzero(s <= 1e-6) == 2
    assert low <= s[-k - 1] <= blocks[0][0][1][k]
    assert abs(gap - s[-k - 1]) <= 1e-12 * s[0]
    assert residual <= 1e-12 * s[0]
    assert max(np.linalg.norm(t @ right, 2), np.linalg.norm(t.conj().T @ left, 2)) <= residual


def _full_svds(monkeypatch):
    """Record the row count of every full SVD of a square matrix."""
    svd, rows = np.linalg.svd, []

    def spy(a, *args, compute_uv=True, **kwargs):
        if compute_uv and a.shape[0] == a.shape[1]:
            rows.append(a.shape[0])
        return svd(a, *args, compute_uv=compute_uv, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", spy)
    return rows


@pytest.mark.parametrize("case", ["golden2", "cholesky raises", "guard", "lanczos under guard",
                                  "zero"])
def test_inertia_certificate_refusals_fall_back_exactly(golden, golden_H, monkeypatch, case):
    H, side, zero_tol = {
        # k = 4 on each side fills the first block, which doubles
        "golden2": (assemble_chiral(golden.block_diag(golden)), 10, 1e-6),
        "cholesky raises": (golden_H, 10, 1e-6),
        # the next singular value 1e-5 after the zero pair: its square lies
        # under the rounding guard, 1e4 n eps ||T||^2
        "guard": (assemble_chiral(golden.block_diag(
            LaurentSymbol(2, 1, [((0, 0), np.array([[1e-5]]))]))), 10, 1e-9),
        # a gap estimate whose square lies under the guard, past the block's check
        "lanczos under guard": (golden_H, 10, 1e-9),
        "zero": (LaurentSymbol(2, 2, []), 3, 1e-6),
    }[case]
    ref = corner_spectrum(H, side=side, zero_tol=zero_tol, participation=True)
    widths, certificate = [], operators._inertia_certificate

    def spy(*args):
        blocks, found = certificate(*args)
        widths.append((blocks and blocks[0][0][0].shape[1], found is not None))
        return blocks, found

    monkeypatch.setattr(operators, "_inertia_certificate", spy)
    if case == "cholesky raises":
        def indefinite(*args, **kwargs):
            raise np.linalg.LinAlgError("Matrix is not positive definite")

        monkeypatch.setattr(np.linalg, "cholesky", indefinite)
    elif case == "guard":
        def unguarded(*args):
            raise AssertionError("Lanczos run for a gap under the rounding guard")

        monkeypatch.setattr(operators, "_lanczos_floor", unguarded)
    elif case == "lanczos under guard":
        monkeypatch.setattr(operators, "_lanczos_floor", lambda *args: 1e-7)
    full = _full_svds(monkeypatch)
    res = corner_spectrum(H, side=side, zero_tol=zero_tol)
    _assert_same_report(res, ref)
    assert widths == [{"golden2": (8, True), "zero": (None, False)}.get(case, (4, False))]
    # the blocks already solved serve the fallback; only the zero symbol,
    # which has none, takes the full SVD
    assert full == ([side * side] if case == "zero" else [])
    if case == "zero":
        assert repr(res.to_dict()) == repr(ref.to_dict())


def test_wedin_bound_at_the_corner_floor_takes_the_full_svd(golden_H, monkeypatch):
    ref = corner_spectrum(golden_H, side=10, participation=True)
    floor = max(m.corner_participation for m in ref.zero_modes
                if m.corner_participation < 0.5)
    assert 0 < floor
    ref = corner_spectrum(golden_H, side=10, corner_floor=floor, participation=True)
    full = _full_svds(monkeypatch)
    res = corner_spectrum(golden_H, side=10, corner_floor=floor)
    assert full == [200]
    assert repr(res.to_dict()) == repr(ref.to_dict())


@pytest.mark.parametrize("failure", ["solve raises", "no basis accepted", "cluster not separated"])
def test_corner_spectrum_falls_back_to_the_full_svd(golden, golden_H, monkeypatch, failure):
    zero_tol = 1e-6
    if failure == "cluster not separated":
        # the zero pair of T and the next singular value g, with g / 5 as the
        # zero tolerance: the pair stays the zero cluster, g lies under
        # GAP_FACTOR * zero_tol, so the certificate refuses and the solved
        # bases are not used
        g = np.linalg.svd(assemble(golden, 10), compute_uv=False)[-3]
        zero_tol = g / 5
    ref = corner_spectrum(golden_H, side=10, zero_tol=zero_tol, participation=True)
    if failure == "solve raises":
        def singular(*args, **kwargs):
            raise np.linalg.LinAlgError("Singular matrix")

        monkeypatch.setattr(np.linalg, "solve", singular)
    elif failure == "no basis accepted":
        monkeypatch.setattr(operators, "NULL_RITZ_TOL", -1.0)
    else:
        assert len(ref.zero_modes) == 4 and not ref.separation_ok
    full = _full_svds(monkeypatch)
    res = corner_spectrum(golden_H, side=10, zero_tol=zero_tol)
    assert full == [200]
    assert res.eigen_participation is None
    assert repr(res.to_dict()) == repr(ref.to_dict())
    assert res.eigenvalues is None and res.eigen_chirality is None


def test_spectral_flow_constant_family(golden_H):
    res = spectral_flow(promote_to_family(golden_H), t_samples=8, side=6)
    assert res.flow == 0
    assert res.crossings == ()
    assert len(res.tracks) == 1


def test_spectral_flow_sin_mass(golden_H):
    # at window 0.25 the crossing at t = 0 joins a track begun at t index 14
    # to the t_0 track it closes into; the two are counted as one sequence
    for window in (0.5, 0.25):
        res = spectral_flow(sin_mass_family(golden_H), t_samples=16, side=6, window=window)
        assert res.flow == 0, window
        assert len(res.crossings) == 2, window
        signs = sorted(s for _, s in res.crossings)
        assert signs == [-1, 1]
        ts = sorted(t for t, _ in res.crossings)
        assert abs(ts[0] - 0.0) <= 1e-9
        assert abs(ts[1] - np.pi) <= 2 * np.pi / 16 + 1e-9


def test_spectral_flow_stable_under_refinement(golden_H):
    a = spectral_flow(sin_mass_family(golden_H), t_samples=16, side=6)
    b = spectral_flow(sin_mass_family(golden_H), t_samples=32, side=6)
    assert a.flow == b.flow == 0
    assert len(a.crossings) == len(b.crossings) == 2


@pytest.mark.parametrize("u, m, shift, signs, where", [
    (1.0, 0.5, 0.0, [-1], [np.pi]),           # Ch(H_x) = +1, W(H_y) = 1
    (1.0, 2.0, 0.0, [], []),                  # W(H_y) = 0
    (-1.0, 0.5, 0.1, [1], [2 * np.pi - 0.1]),  # Ch(H_x) = -1, moved off t = 0
])
def test_spectral_flow_of_a_pump_is_minus_chern_times_winding(u, m, shift, signs, where):
    res = spectral_flow(pump_family(u, m, shift), t_samples=33, side=8)
    assert res.flow == sum(signs)
    assert [s for _, s in res.crossings] == signs
    for (t, _), want in zip(res.crossings, where):
        assert abs(t - want) <= 2 * np.pi / 33


@pytest.mark.parametrize("family, t, mass", [
    ("sin_mass", 0.0, 0.0),
    ("sin_mass", 0.7, 0.3 * np.sin(0.7)),
    ("sin_mass", np.pi / 2, 0.3),
    ("constant", 0.7, 0.0),
])
def test_section_eigh_matches_dense_eigh(golden_H, family, t, mass):
    fam = {"sin_mass": sin_mass_family, "constant": promote_to_family}[family](golden_H)
    frozen = fam.freeze({2: np.exp(1j * t)})
    m, _ = _split_mass(frozen)  # the section takes the SVD path
    assert abs(m - mass) <= 1e-15
    for side in (4, 5, 6, 7):
        a = assemble(frozen, side)
        scale = np.linalg.norm(a, 2)
        vals, vecs = _section_eigh(frozen, side, {})
        assert np.max(np.abs(vals - np.linalg.eigh(a)[0])) <= 1e-12 * scale
        assert np.linalg.norm(a @ vecs - vecs * vals) <= 1e-12 * scale
        assert np.linalg.norm(vecs.conj().T @ vecs - np.eye(a.shape[0])) <= 1e-12


def test_split_mass_refuses_what_is_not_chiral_plus_mass(golden_H):
    with pytest.raises(ChiralViolation):
        _split_mass(LaurentSymbol.identity(2, 3))
    # diag(1, -1, 1, -1) has no part along the grading diag(1, 1, -1, -1)
    with pytest.raises(ChiralViolation):
        _split_mass(golden_H + LaurentSymbol.constant(2, 0.05 * np.diag([1.0, -1, 1, -1])))
    m, h = _split_mass(golden_H + LaurentSymbol.constant(2, 0.2 * np.diag([1.0, 1, -1, -1])))
    assert abs(m - 0.2) <= 1e-15
    assert h.distance(golden_symbol()) <= 1e-15


def test_spectral_flow_falls_back_to_dense_eigh(golden_H, monkeypatch):
    calls = []  # eigh of full 6 x 6 sections, not of cluster blocks
    eigh = np.linalg.eigh

    def counted(a, *args, **kwargs):
        if a.shape[0] == 6 * 6 * 4:
            calls.append(a.shape)
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    spectral_flow(sin_mass_family(golden_H), t_samples=16, side=6)
    assert calls == []
    # a constant site-local term off the grading: no t takes the SVD path
    stag = LaurentSymbol.constant(3, 0.05 * np.diag([1.0, -1, 1, -1]))
    res = spectral_flow(sin_mass_family(golden_H) + stag, t_samples=16, side=6)
    assert len(calls) == 16
    assert res.flow == 0
    assert [s for _, s in res.crossings] == [1, -1]
    for (t, _), want in zip(res.crossings, (np.pi / 16, 15 * np.pi / 16)):
        assert abs(t - want) <= 1e-12


def test_spectral_flow_takes_one_svd_per_distinct_h(golden_H, monkeypatch):
    calls = []  # SVDs of full 6 x 6 sections of h, 72 rows at half band 2
    svd = np.linalg.svd

    def counted(a, *args, **kwargs):
        if a.shape[0] == 6 * 6 * 2:
            calls.append(a.shape)
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    spectral_flow(sin_mass_family(golden_H), t_samples=16, side=6)
    assert len(calls) == 1
    # the chiral hop scaled by 1 + 0.1 cos t: h moves with t, one SVD per t
    hop = sin_mass_family(golden_H) + LaurentSymbol(3, 4, [
        ((e[0], e[1], s), 0.05 * a) for e, a in golden_H.coeffs.items() if e != (0, 0)
        for s in (1, -1)])
    calls.clear()
    res = spectral_flow(hop, t_samples=16, side=6)
    assert len(calls) == 16
    assert res.flow == 0


def test_spectral_flow_validation(golden, golden_H, monkeypatch):
    with pytest.raises(NotHermitian):
        spectral_flow(promote_to_family(golden), t_samples=4, side=4)
    with pytest.raises(NotFredholm):
        spectral_flow(gap_closing_family(), t_samples=16, side=4)
    with pytest.raises(DimensionMismatch):
        spectral_flow(golden_H)
    with pytest.raises(TrackingAmbiguous):
        spectral_flow(sin_mass_family(golden_H), t_samples=16, side=6, window=0.2)
    # the row cap is checked before the first of 512 slice certificates
    monkeypatch.setattr(wiener_hopf, "_open_stack",
                        lambda *a: pytest.fail("a slice certificate ran"))
    with pytest.raises(SizeOverflow):
        spectral_flow(sin_mass_family(golden_H), t_samples=64, side=100)


@pytest.mark.parametrize("values, cyclic, expected", [
    # sign change from the last sample to the first: midpoint across the seam
    ([-1, -1, -1, 1], True, [(5 * np.pi / 4, 1), (7 * np.pi / 4, -1)]),
    ([1, -1, -1, -1], True, [(np.pi / 4, -1), (7 * np.pi / 4, 1)]),
    # a run of three zeros: the crossing sits at the first one
    ([-1, 0, 0, 0, 1, 1, 1, 1], False, [(np.pi / 4, 1)]),
    ([1, 1, 1, 1, -1, 0, 0, 0], True, [(7 * np.pi / 8, -1), (5 * np.pi / 4, 1)]),
    # zeros at both ends of an open sequence are not crossed
    ([0, 0, 1, 1, -1, 0], False, [(7 * np.pi / 6, -1)]),
    ([0, 0, 0, 0], True, []),
    ([0, 0, 0, 0], False, []),
    ([0, 0, 1, 0], True, []),
    ([0, 0, 1, 0], False, []),
])
def test_crossings_of_hand_made_sequences(values, cyclic, expected):
    t_values = [2.0 * np.pi * j / len(values) for j in range(len(values))]
    got = _crossings(values, t_values, cyclic)
    assert len(got) == len(expected)
    for (t, s), (t_want, s_want) in zip(got, expected):
        assert s == s_want
        assert abs(t - t_want) <= 1e-12
