import numpy as np
import pytest

from qtop.symbols import LaurentSymbol, assemble_chiral, chiral_projector


def golden_symbol():
    """The degree-one generator as a lattice symbol: [[z, -1/w], [w, 1/z]]."""
    return LaurentSymbol(2, 2, [
        ((1, 0), np.array([[1.0, 0.0], [0.0, 0.0]])),
        ((0, -1), np.array([[0.0, -1.0], [0.0, 0.0]])),
        ((0, 1), np.array([[0.0, 0.0], [1.0, 0.0]])),
        ((-1, 0), np.array([[0.0, 0.0], [0.0, 1.0]])),
    ])


@pytest.fixture
def golden():
    return golden_symbol()


@pytest.fixture
def golden_H(golden):
    return assemble_chiral(golden)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def small_term(rng, n, norm_cap):
    """Random n x n complex matrix rescaled to operator norm norm_cap."""
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return a * (norm_cap / max(np.linalg.norm(a, 2), 1e-12))


def random_canonical_1d(rng, n, deg, cap=0.4):
    """(I + strictly-negative part) (I + strictly-positive part) with factor
    norms summing below 1, so both factors are proper and the product is
    certified canonical by construction."""
    minus = LaurentSymbol.identity(1, n)
    plus = LaurentSymbol.identity(1, n)
    for k in range(1, deg + 1):
        minus = minus + LaurentSymbol(1, n, [((-k,), small_term(rng, n, cap / 2.0**k))])
        plus = plus + LaurentSymbol(1, n, [((k,), small_term(rng, n, cap / 2.0**k))])
    return minus * plus


def random_nonzero_winding_1d(rng, n, cap=0.35):
    """A torus-invertible symbol with a known nonzero det winding.

    diag of monomials z^{k_i} perturbed by a small canonical product keeps
    det winding = sum k_i while exercising generic coefficients.
    """
    ks = [int(rng.integers(-2, 3)) for _ in range(n)]
    terms = {}
    for i, k in enumerate(ks):
        mat = terms.setdefault((k,), np.zeros((n, n)))
        mat[i, i] = 1.0
    mono = LaurentSymbol(1, n, list(terms.items()))
    return random_canonical_1d(rng, n, 1, cap) * mono, sum(ks)


def random_canonical_2d(rng, n=2, cap=0.18):
    """Two-variable product (I + negative powers)(I + positive powers).

    On every coordinate slice the left factor has only nonpositive powers
    and the right only nonnegative ones, both invertible on their half of
    the Riemann sphere (total perturbation norm < 1), so all half-plane
    compressions are invertible and the quarter-plane index is 0.
    """
    minus = LaurentSymbol.identity(2, n)
    plus = LaurentSymbol.identity(2, n)
    for exp in ((-1, 0), (0, -1)):
        minus = minus + LaurentSymbol(2, n, [(exp, small_term(rng, n, cap))])
    for exp in ((1, 0), (0, 1)):
        plus = plus + LaurentSymbol(2, n, [(exp, small_term(rng, n, cap))])
    return minus * plus


def promote_to_family(symbol):
    """Append a trivial family variable (all exponents 0 in variable 2)."""
    return LaurentSymbol(symbol.num_vars + 1, symbol.band_dim,
                         [(e + (0,), a) for e, a in symbol.coeffs.items()])


def sin_mass_family(H, mu=0.3):
    """H + mu sin(t) Pi as a three-variable symbol (t is variable 2)."""
    pi_big = chiral_projector(H.band_dim)
    up = -0.5j * mu * pi_big
    terms = [(e + (0,), a) for e, a in H.coeffs.items()]
    terms.append(((0, 0, 1), up))
    terms.append(((0, 0, -1), up.conj().T))
    return LaurentSymbol(3, H.band_dim, terms)


def pump_family(u, m, shift=0.0):
    """H = H_x(z, s) (x) tau_z + I_2 (x) H_y(w), with z = e^{ik}, w = e^{iq} and
    s = e^{it} (t is variable 2).

    H_x = sin k sigma_x + sin t sigma_y + (u + cos k + cos t) sigma_z is a
    Qi-Wu-Zhang pump in (k, t) and H_y = (m + cos q) tau_x + sin q tau_y an
    SSH chain.  H^2 = H_x^2 (x) I + I (x) H_y^2, so the bulk and both
    half-planes stay gapped for every t.  ``shift`` moves the family along
    t: each s^k coefficient is multiplied by e^{i k shift}.
    """
    sx = np.array([[0.0, 1.0], [1.0, 0.0]])
    sy = np.array([[0.0, -1j], [1j, 0.0]])
    sz = np.diag([1.0, -1.0])
    eye = np.eye(2)

    def x_part(a):  # a sigma-matrix coefficient of H_x, times tau_z
        return np.kron(a, sz)

    def y_part(a):  # a tau-matrix coefficient of H_y, on the sigma identity
        return np.kron(eye, a)

    up_t = np.exp(1j * shift) * (sy / 2j + sz / 2)
    return LaurentSymbol(3, 4, [
        ((1, 0, 0), x_part(sx / 2j + sz / 2)),
        ((-1, 0, 0), x_part(-sx / 2j + sz / 2)),
        ((0, 0, 1), x_part(up_t)),
        ((0, 0, -1), x_part(up_t.conj().T)),
        ((0, 0, 0), x_part(u * sz) + y_part(m * sx)),
        ((0, 1, 0), y_part(sx / 2 + sy / 2j)),
        ((0, -1, 0), y_part(sx / 2 - sy / 2j)),
    ])


def gap_closing_family():
    """Chiral family from h(z, w, t) = z - (1.5 + cos t).

    The z-winding of h jumps from 0 to 1 when 1.5 + cos t drops below 1,
    i.e. for t in (2 pi / 3, 4 pi / 3); every half-plane compression along
    the first axis stops being invertible there.
    """
    h = LaurentSymbol(3, 1, [
        ((1, 0, 0), np.array([[1.0]])),
        ((0, 0, 0), np.array([[-1.5]])),
        ((0, 0, 1), np.array([[-0.5]])),
        ((0, 0, -1), np.array([[-0.5]])),
    ])
    return assemble_chiral(h)


def golden_closed_form():
    """Exact boundary extension of the golden symbol, one formula for both
    charts: the factor (2 - |.|^2) is 1 on the torus circle, and 1/z is
    conj(z) there."""
    from qtop.extension import ClosedFormExtension

    def fn(z, w):
        z = np.asarray(z, dtype=complex)
        w = np.asarray(w, dtype=complex)
        out = np.empty(z.shape + (2, 2), dtype=complex)
        out[..., 0, 0] = z * (2.0 - np.abs(w) ** 2)
        out[..., 0, 1] = -np.conj(w)
        out[..., 1, 0] = w * (2.0 - np.abs(z) ** 2)
        out[..., 1, 1] = np.conj(z)
        return out

    return ClosedFormExtension(fn, 2)
