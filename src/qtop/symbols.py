"""Finite-hopping lattice symbols: matrix Laurent polynomials on the torus.

Contents
--------
LaurentSymbol   coefficient-level container with eval / product / adjoint
az_class        Altland-Zirnbauer class table (degree, relations, block rule)
check_symmetry  validate the class relations at coefficient level and on grids
assemble_chiral build H = [[0, h*], [h, 0]] from an arbitrary symbol h
split_chiral    recover h from a chiral H and verify the block structure
load_symbol / save_symbol / symbol_to_dict / symbol_from_dict   file format

Coefficients are stored exactly (complex double matrices keyed by integer
exponent vectors); nothing is sampled until an operation asks for values.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import (
    ChiralViolation,
    DimensionMismatch,
    DuplicateExponent,
    InputError,
    SizeOverflow,
    SymmetryViolation,
    ZeroCoordinate,
)

__all__ = [
    "LaurentSymbol",
    "AZClassSpec",
    "SymmetryReport",
    "az_class",
    "check_symmetry",
    "assemble_chiral",
    "split_chiral",
    "load_symbol",
    "save_symbol",
    "symbol_to_dict",
    "symbol_from_dict",
]


GRID_CAP = 10_000_000  # matrix entries of one evaluation grid (torus or chart)
DENSE_CAP = 6000       # rows of one dense section (truncation, corner, kernel scan)


def _check_rows(size):
    """Refuse a dense matrix of more than DENSE_CAP rows before allocating it."""
    if size > DENSE_CAP:
        raise SizeOverflow(f"dense compression would be {size} rows (cap {DENSE_CAP})")


def _as_coeff(matrix, band_dim):
    a = np.asarray(matrix, dtype=complex)
    if a.shape != (band_dim, band_dim):
        raise DimensionMismatch(
            f"coefficient has shape {a.shape}, expected ({band_dim}, {band_dim})"
        )
    a = a.copy()
    a.setflags(write=False)
    return a


class LaurentSymbol:
    """Matrix Laurent polynomial f(z_1, ..., z_d) = sum_j a_j z^j.

    Parameters
    ----------
    num_vars : int
        Number of torus variables d >= 1.
    band_dim : int
        Matrix size N of the coefficients.
    terms : iterable of (exponents, matrix)
        Exponent vectors are length-d integer tuples; duplicate vectors are
        a hard error (no silent summing), and so is a non-finite entry.
        Exact-zero matrices are dropped.  A ``coeff_norm()`` whose
        ``band_dim``-th power overflows (det f would) is an InputError, and
        so is an exponent beyond GRID_CAP or a variable whose coefficient
        stack, (max - min exponent + 1) * band_dim^2 entries, exceeds it.
    """

    def __init__(self, num_vars, band_dim, terms):
        if num_vars < 1:
            raise InputError("num_vars must be >= 1")
        if band_dim < 1:
            raise InputError("band_dim must be >= 1")
        self.num_vars = int(num_vars)
        self.band_dim = int(band_dim)
        coeffs = {}
        for exponents, matrix in terms:
            key = tuple(int(e) for e in exponents)
            if len(key) != self.num_vars:
                raise DimensionMismatch(
                    f"exponent vector {key} has length {len(key)}, expected {self.num_vars}"
                )
            if key in coeffs:
                raise DuplicateExponent(key)
            if max(map(abs, key)) > GRID_CAP:
                raise InputError(f"exponent vector {key} has an entry beyond {GRID_CAP}")
            a = _as_coeff(matrix, self.band_dim)
            if not np.all(np.isfinite(a)):
                raise InputError(f"coefficient at {key} has a non-finite entry")
            if np.any(a != 0):
                coeffs[key] = a
        self._coeffs = coeffs
        for var, es in enumerate(zip(*coeffs)):
            if (max(es) - min(es) + 1) * self.band_dim**2 > GRID_CAP:
                raise InputError(
                    f"exponents {min(es)}..{max(es)} of variable {var} at band "
                    f"{self.band_dim} exceed {GRID_CAP} coefficient entries"
                )
        with np.errstate(over="ignore"):
            norm = self.coeff_norm()
        if not norm <= sys.float_info.max ** (1.0 / self.band_dim):
            raise InputError(
                f"coefficient norm {norm:.3e} is too large: its "
                f"{self.band_dim}-th power overflows"
            )

    # ------------------------------------------------------------ basics

    @classmethod
    def identity(cls, num_vars, band_dim):
        return cls(num_vars, band_dim, [((0,) * num_vars, np.eye(band_dim))])

    @classmethod
    def constant(cls, num_vars, matrix):
        a = np.asarray(matrix, dtype=complex)
        return cls(num_vars, a.shape[0], [((0,) * num_vars, a)])

    @property
    def coeffs(self):
        """Read-only view of the coefficient dictionary."""
        return dict(self._coeffs)

    def coeff(self, exponents):
        """Coefficient at an exponent vector (zero matrix if absent)."""
        key = tuple(int(e) for e in exponents)
        a = self._coeffs.get(key)
        if a is None:
            return np.zeros((self.band_dim, self.band_dim), dtype=complex)
        return a

    def exponent_range(self, var):
        """(min, max) exponent appearing in variable ``var`` (0 if empty)."""
        if not self._coeffs:
            return (0, 0)
        es = [key[var] for key in self._coeffs]
        return (min(es), max(es))

    def coeff_norm(self):
        """Sum of Frobenius norms of all coefficients (scale of the symbol)."""
        if not self._coeffs:
            return 0.0
        return float(sum(np.linalg.norm(a) for a in self._coeffs.values()))

    def __eq__(self, other):
        if not isinstance(other, LaurentSymbol):
            return NotImplemented
        if (self.num_vars, self.band_dim) != (other.num_vars, other.band_dim):
            return False
        if set(self._coeffs) != set(other._coeffs):
            return False
        return all(np.array_equal(self._coeffs[k], other._coeffs[k]) for k in self._coeffs)

    def __repr__(self):
        return (
            f"LaurentSymbol(num_vars={self.num_vars}, band_dim={self.band_dim}, "
            f"terms={len(self._coeffs)})"
        )

    def distance(self, other):
        """Max Frobenius distance between coefficients."""
        if (self.num_vars, self.band_dim) != (other.num_vars, other.band_dim):
            raise DimensionMismatch("symbols not comparable")
        keys = set(self._coeffs) | set(other._coeffs)
        if not keys:
            return 0.0
        return max(float(np.linalg.norm(self.coeff(k) - other.coeff(k))) for k in keys)

    # -------------------------------------------------------- evaluation

    def eval(self, point):
        """Evaluate at a point with nonzero complex coordinates: ``eval_grid``
        on the grid of that one point.

        Negative exponents are honest inverse powers, so a zero coordinate
        under a nonzero exponent raises ZeroCoordinate; a point of the wrong
        length raises DimensionMismatch.
        """
        return self.eval_grid([[p] for p in point])[(0,) * self.num_vars]

    def eval_grid(self, axes):
        """Evaluate on a tensor grid of points.

        ``axes`` is a sequence of d one-dimensional complex arrays; the result
        has shape ``(len(axes[0]), ..., len(axes[d-1]), N, N)``.
        """
        if len(axes) != self.num_vars:
            raise DimensionMismatch("one axis per variable required")
        axes = [np.asarray(ax, dtype=complex) for ax in axes]
        shape = tuple(ax.size for ax in axes)
        out = np.zeros(shape + (self.band_dim, self.band_dim), dtype=complex)
        for key, a in self._coeffs.items():
            factor = np.ones(shape, dtype=complex)
            for axis, (e, ax) in enumerate(zip(key, axes)):
                if e == 0:
                    continue
                if np.any(ax == 0):
                    raise ZeroCoordinate(f"exponent {e} at zero grid coordinate")
                pw = ax**e
                expand = [None] * len(shape)
                expand[axis] = slice(None)
                factor = factor * pw[tuple(expand)]
            out += factor[..., None, None] * a
        return out

    # -------------------------------------------------------- arithmetic

    def _binary_guard(self, other):
        if (self.num_vars, self.band_dim) != (other.num_vars, other.band_dim):
            raise DimensionMismatch("operands differ in num_vars or band_dim")

    def __add__(self, other):
        if not isinstance(other, LaurentSymbol):
            return NotImplemented
        self._binary_guard(other)
        keys = set(self._coeffs) | set(other._coeffs)
        terms = [(k, self.coeff(k) + other.coeff(k)) for k in keys]
        return LaurentSymbol(self.num_vars, self.band_dim, terms)

    def __sub__(self, other):
        if not isinstance(other, LaurentSymbol):
            return NotImplemented
        return self + other.scale(-1.0)

    def scale(self, c):
        terms = [(k, c * a) for k, a in self._coeffs.items()]
        return LaurentSymbol(self.num_vars, self.band_dim, terms)

    def __mul__(self, other):
        """Pointwise matrix product, carried out as exponent convolution."""
        if not isinstance(other, LaurentSymbol):
            return NotImplemented
        self._binary_guard(other)
        acc = {}
        for ka, a in self._coeffs.items():
            for kb, b in other._coeffs.items():
                key = tuple(ea + eb for ea, eb in zip(ka, kb))
                prod = a @ b
                if key in acc:
                    acc[key] = acc[key] + prod
                else:
                    acc[key] = prod
        return LaurentSymbol(self.num_vars, self.band_dim, acc.items())

    def shift(self, exponents):
        """Multiply by the scalar monomial z^exponents."""
        off = tuple(int(e) for e in exponents)
        if len(off) != self.num_vars:
            raise DimensionMismatch("shift vector length mismatch")
        terms = [
            (tuple(e + o for e, o in zip(k, off)), a) for k, a in self._coeffs.items()
        ]
        return LaurentSymbol(self.num_vars, self.band_dim, terms)

    def adjoint(self):
        """Pointwise conjugate transpose on the torus: a_j -> a_{-j}^H."""
        terms = [
            (tuple(-e for e in k), a.conj().T) for k, a in self._coeffs.items()
        ]
        return LaurentSymbol(self.num_vars, self.band_dim, terms)

    def block_diag(self, other):
        """Direct sum with another symbol over the same variables."""
        if self.num_vars != other.num_vars:
            raise DimensionMismatch("operands differ in num_vars")
        n, m = self.band_dim, other.band_dim
        keys = set(self._coeffs) | set(other._coeffs)
        terms = []
        for k in keys:
            a = np.zeros((n + m, n + m), dtype=complex)
            a[:n, :n] = self.coeff(k)
            a[n:, n:] = other.coeff(k) if k in other._coeffs else 0.0
            terms.append((k, a))
        return LaurentSymbol(self.num_vars, n + m, terms)

    def conjugate_by(self, u):
        """U f U^{-1} for a constant invertible matrix U."""
        u = np.asarray(u, dtype=complex)
        uinv = np.linalg.inv(u)
        terms = [(k, u @ a @ uinv) for k, a in self._coeffs.items()]
        return LaurentSymbol(self.num_vars, self.band_dim, terms)

    # ------------------------------------------------------------ slices

    def freeze(self, values):
        """Collapse the variables of ``values`` ({var: complex value}).

        Returns the symbol in the remaining variables, kept in their order;
        evaluating it equals evaluating f with the frozen values inserted.
        """
        frozen = dict(sorted((int(v), complex(p)) for v, p in values.items()))
        if any(not 0 <= v < self.num_vars for v in frozen):
            raise InputError(f"frozen variables {list(frozen)} out of range")
        keep = [v for v in range(self.num_vars) if v not in frozen]
        acc = {}
        for key, a in self._coeffs.items():
            factor = 1.0 + 0.0j
            for v, p in frozen.items():
                e = key[v]
                if e != 0 and p == 0:
                    raise ZeroCoordinate(f"frozen variable {v} at zero with exponent {e}")
                if e != 0:
                    try:
                        factor *= p**e
                    except OverflowError:
                        raise InputError(
                            f"frozen variable {v} = {p} overflows at exponent {e}"
                        ) from None
            k = tuple(key[v] for v in keep)
            acc[k] = acc[k] + factor * a if k in acc else factor * a
        return LaurentSymbol(len(keep), self.band_dim, acc.items())

    def slice(self, active_var, fixed_point):
        """Freeze all variables except ``active_var`` at torus values.

        ``fixed_point`` lists the values of the d-1 frozen variables in
        variable order.  Returns the collapsed one-variable symbol, the
        ``freeze`` of those values: evaluating it at z equals evaluating f
        with z inserted at ``active_var``.
        """
        if not 0 <= active_var < self.num_vars:
            raise InputError(f"active_var {active_var} out of range")
        fixed = tuple(complex(p) for p in fixed_point)
        if len(fixed) != self.num_vars - 1:
            raise DimensionMismatch(
                f"need {self.num_vars - 1} frozen values, got {len(fixed)}"
            )
        frozen_vars = [v for v in range(self.num_vars) if v != active_var]
        return self.freeze(dict(zip(frozen_vars, fixed)))

    # ---------------------------------------------------------- sections

    def section(self, rows, cols, width=None):
        """Dense compression of the Toeplitz operator of f to a finite box,
        or with ``width`` the same compression as its ``Panels`` of that
        many columns.

        ``rows`` and ``cols`` give per-variable box sizes; both boxes start
        at the origin.  Sites run in lexicographic order with the band index
        fastest, and the block between row site x and column site y is
        a_{x-y} (README "Conventions"); sites outside the boxes are absent.
        With ``rows`` the column box extended by the positive hopping reach,
        every row a column vector can excite is present, so a kernel vector
        of the section extends by zero to one of the infinite operator.
        Each panel holds the row sites its columns reach; the dense section
        is the one panel of every column, over every row.
        """
        rows = tuple(int(r) for r in rows)
        cols = tuple(int(c) for c in cols)
        if len(rows) != self.num_vars or len(cols) != self.num_vars:
            raise DimensionMismatch(f"box sizes need {self.num_vars} entries each")
        if min(rows + cols) < 0:
            raise InputError(f"negative box size in rows {rows} / cols {cols}")
        n, total = self.band_dim, math.prod(cols) * self.band_dim
        pairs = []  # each coefficient's row and column sites, flat and ascending
        for key, a in self._coeffs.items():
            ys = [np.arange(max(0, -k), min(c, r - k)) for k, r, c in zip(key, rows, cols)]
            if min(y.size for y in ys):
                ys = np.ix_(*ys)
                pairs.append((np.ravel_multi_index(tuple(y + k for y, k in zip(ys, key)),
                                                   rows).ravel(),
                              np.ravel_multi_index(ys, cols).ravel(), a))
        starts, blocks = [], []
        for j in range(0, total, width) if width else [0]:
            w = min(width or total, total - j)
            s0, s1 = j // n, -(-(j + w) // n)  # the column sites of the panel
            cut = [(x[i0:i1], y[i0:i1] - s0, a) for x, y, a in pairs
                   for i0, i1 in [np.searchsorted(y, (s0, s1))]]
            lo, hi = 0, math.prod(rows)
            if width:  # the row sites the panel reaches
                lo = min((x[0] for x, _, _ in cut if x.size), default=0)
                hi = max((x[-1] + 1 for x, _, _ in cut if x.size), default=lo)
            block = np.zeros((hi - lo, n, s1 - s0, n), dtype=complex)
            for x, y, a in cut:
                # += onto zeros stores a -0.0 entry as +0.0; LAPACK reflectors
                # branch on the sign of zero, so spectra then do not depend on it
                block[x - lo, :, y, :] += a
            starts.append(lo * n)
            block = block.reshape((hi - lo) * n, (s1 - s0) * n)
            blocks.append(block[:, j - s0 * n:j - s0 * n + w])
        if not width:
            return blocks[0]
        return Panels((math.prod(rows) * n, total), width, starts, blocks)


class Panels:
    """A section held as its column panels: panel p has the columns p *
    ``width`` on and, of their rows, only ``starts[p]`` to ``starts[p] +
    len(blocks[p])``; every other entry is zero.  It reads like the dense
    array: ``shape``, ``dtype``, ``T`` (a view), ``t[r0:r1, c0:c1]`` (a
    dense copy) and ``t @ q``, panel by panel."""

    dtype = np.dtype(complex)

    def __init__(self, shape, width, starts, blocks, transposed=False):
        self.shape, self.width, self.starts, self.blocks = tuple(shape), width, starts, blocks
        self.transposed = transposed

    @classmethod
    def from_dense(cls, t, width):
        """The panels of the dense ``t``, views cut to the rows they reach."""
        starts, blocks = [], []
        for j in range(0, t.shape[1], width):
            rows = np.flatnonzero(t[:, j:j + width].any(axis=1))
            r0, r1 = (rows[0], rows[-1] + 1) if rows.size else (0, 0)
            starts.append(r0)
            blocks.append(t[r0:r1, j:j + width])
        return cls(t.shape, width, starts, blocks)

    @property
    def T(self):
        return Panels(self.shape[::-1], self.width, self.starts, self.blocks, not self.transposed)

    def __getitem__(self, key):
        """The rows and columns of two slices, as a dense array."""
        if self.transposed:
            return self.T[key[::-1]].T
        (r0, r1, _), (c0, c1, _) = (k.indices(m) for k, m in zip(key, self.shape))
        out = np.zeros((r1 - r0, c1 - c0), dtype=complex)
        for p in range(c0 // self.width, -(-c1 // self.width)):
            s, a, j = self.starts[p], self.blocks[p], p * self.width
            lo, hi = max(r0, s), min(r1, s + len(a))
            left, right = max(c0, j), min(c1, j + a.shape[1])
            if lo < hi:
                out[lo - r0:hi - r0, left - c0:right - c0] = a[lo - s:hi - s, left - j:right - j]
        return out

    def __matmul__(self, q):
        out = np.zeros(self.shape[:1] + q.shape[1:], dtype=np.result_type(q, complex))
        for p, (s, a) in enumerate(zip(self.starts, self.blocks)):
            j = p * self.width
            if self.transposed:
                out[j:j + a.shape[1]] += a.T @ q[s:s + len(a)]
            else:
                out[s:s + len(a)] += a @ q[j:j + a.shape[1]]
        return out


def _generic_block(rows, cols):
    """sin(i j), 1 <= i <= rows, 1 <= j <= cols: full rank, and every generic vector's start."""
    return np.sin(np.outer(np.arange(1.0, rows + 1.0), np.arange(1.0, cols + 1.0)))


COMMUTANT_MAX_BAND = 16  # largest band whose default index sections fit DENSE_CAP


def _reducing_subspaces(symbol):
    """Orthonormal bases W_i of subspaces that reduce every coefficient a_k,
    grouped in classes of unitarily equivalent blocks.

    W_i* a_k W_j = 0 for i != j, so f is unitarily the direct sum of the
    W_i* f W_i, and so is each of its sections.  The X with X b = b X for
    every b in {a_k, a_k*} are the null space of the Gram matrix of the
    maps X -> X b - b X; the eigenspaces of one fixed generic hermitian
    X there are the blocks (Murota, Kanno, Kojima & Kojima, Japan J.
    Indust. Appl. Math. 27, 2010).  One block, and no Gram, above
    COMMUTANT_MAX_BAND; one block too unless every ||W_i* a_k W_j|| is at
    most 1e-12 * coeff_norm().

    By Schur's lemma two such blocks are unitarily equivalent exactly when
    some X of the null space has W_i* X W_j != 0, and its polar factor U
    links them.  Block j joins the class of the first earlier block i of
    its size with such an X, as W_j U*, if every ||U W_j* a_k W_j U* -
    W_i* a_k W_i|| is at most 1e-12 * coeff_norm(); otherwise it starts a
    class of its own.  So every basis of a class compresses f (and f*) to
    its first one's symbol, up to that bound.  Returns a list of classes,
    each a list of bases, the class of the largest block first.
    """
    n = symbol.band_dim
    whole = [[np.eye(n)]]
    if n == 1 or n > COMMUTANT_MAX_BAND or not symbol.coeffs:
        return whole
    scale = symbol.coeff_norm()
    coeffs = [a / scale for a in symbol.coeffs.values()]
    # row-major vec(X a - a X) = (I (x) a^T - a (x) I) vec X; summing ad^H ad
    # over a_k and a_k* gives I (x) conj(S) + S (x) I - 2 (C + C^H)
    s = sum(a.conj().T @ a + a @ a.conj().T for a in coeffs)
    c = sum(np.kron(a, a.conj()) for a in coeffs)
    eye = np.eye(n)
    gram = np.kron(eye, s.conj()) + np.kron(s, eye) - 2.0 * (c + c.conj().T)
    lam, vecs = np.linalg.eigh(gram)
    null = vecs[:, lam <= 1e-10 * lam[-1]]
    if null.shape[1] <= 1:
        return whole
    d = null.shape[1]
    x = (null @ (_generic_block(d, 2) @ [1.0, 1j])).reshape(n, n)
    vals, basis = np.linalg.eigh(x + x.conj().T)
    cuts = np.flatnonzero(np.diff(vals) > 1e-8 * (vals[-1] - vals[0])) + 1
    blocks = np.split(basis, cuts, axis=1)
    label = np.repeat(np.arange(len(blocks)), [w.shape[1] for w in blocks])
    off = label[:, None] != label[None, :]
    if any(np.linalg.norm((basis.conj().T @ a @ basis)[off]) > 1e-12 for a in coeffs):
        return whole
    # the null space has orthonormal columns, so some column links two
    # equivalent blocks with norm at least 1/sqrt(d) >= 1/16; the links of
    # inequivalent ones are round-off
    commutant = null.T.reshape(d, n, n)
    classes = []
    for w in sorted(blocks, key=lambda w: w.shape[1], reverse=True):
        for members in (c for c in classes if c[0].shape == w.shape):
            links = members[0].conj().T @ commutant @ w
            norms = np.linalg.norm(links, axis=(1, 2))
            if norms.max() > 1e-3:
                break
        else:
            classes.append([w])
            continue
        p, _, qh = np.linalg.svd(links[np.argmax(norms)])
        v = w @ (p @ qh).conj().T  # W_j U*, U the polar factor of the link
        head = members[0]
        if all(np.linalg.norm(v.conj().T @ a @ v - head.conj().T @ a @ head) <= 1e-12
               for a in coeffs):
            members.append(v)
        else:
            classes.append([w])
    return classes


# ------------------------------------------------- symmetry class table

# Degree i and block rule per class.  ``antiunitary``: how coefficients
# transform under the real structure ('none' for the complex classes).
# Chiral classes carry their relation on the off-diagonal block h.
_CLASS_TABLE = {
    "A": dict(degree=0, chiral=False, antiunitary="none"),
    "AIII": dict(degree=1, chiral=True, antiunitary="none"),
    "AI": dict(degree=0, chiral=False, antiunitary="real"),
    "BDI": dict(degree=1, chiral=True, antiunitary="real"),
    "D": dict(degree=2, chiral=False, antiunitary="real"),
    "DIII": dict(degree=3, chiral=True, antiunitary="quaternionic"),
    "AII": dict(degree=4, chiral=False, antiunitary="quaternionic"),
    "CII": dict(degree=5, chiral=True, antiunitary="quaternionic"),
    "C": dict(degree=6, chiral=False, antiunitary="quaternionic"),
    "CI": dict(degree=-1, chiral=True, antiunitary="real"),
}


@dataclass(frozen=True)
class AZClassSpec:
    """One Altland-Zirnbauer symmetry class.

    ``degree`` is the K-theoretic degree i in {-1, ..., 6}; ``chiral`` says
    whether the invariant lives on the off-diagonal block h of
    H = [[0, h*], [h, 0]]; ``relations`` names the coefficient-level
    relations validated by check_symmetry.
    """

    label: str
    degree: int
    chiral: bool
    antiunitary: str
    relations: tuple


def az_class(label):
    """Look up an AZClassSpec by its standard label (case-insensitive)."""
    key = str(label).strip()
    found = {k.lower(): k for k in _CLASS_TABLE}.get(key.lower())
    if found is None:
        raise InputError(f"unknown symmetry class {label!r}")
    info = _CLASS_TABLE[found]
    relations = ("hermitian", "chiral") if info["chiral"] else ("hermitian",)
    if info["antiunitary"] != "none":
        block = "h" if info["chiral"] else "H"
        relations += (f"{_DEGREE_RELATION[info['degree']]}:{block}",)
    return AZClassSpec(
        label=found,
        degree=info["degree"],
        chiral=info["chiral"],
        antiunitary=info["antiunitary"],
        relations=relations,
    )


def _quaternion_unit(n):
    """Block-diagonal symplectic unit diag([[0,-1],[1,0]], ...) of size n."""
    if n % 2 != 0:
        raise DimensionMismatch("quaternionic relation requires even matrix size")
    u = np.zeros((n, n))
    for b in range(n // 2):
        u[2 * b, 2 * b + 1] = -1.0
        u[2 * b + 1, 2 * b] = 1.0
    return u


def chiral_projector(band_dim):
    """Pi = diag(1_{N/2}, -1_{N/2}) used throughout for chiral structure."""
    if band_dim % 2 != 0:
        raise DimensionMismatch("chiral structure requires even band_dim")
    half = band_dim // 2
    return np.diag(np.concatenate([np.ones(half), -np.ones(half)]))


def assemble_chiral(h):
    """Chiral Hamiltonian H = [[0, h*], [h, 0]] from an arbitrary symbol h.

    The basis ordering puts the Pi = +1 components first, so with
    Pi = chiral_projector(2N): Pi H = -H Pi, and the lower-left block is h.
    """
    n = h.band_dim
    hstar = h.adjoint()
    keys = set(h.coeffs) | set(hstar.coeffs)
    terms = []
    for k in keys:
        a = np.zeros((2 * n, 2 * n), dtype=complex)
        a[:n, n:] = hstar.coeff(k)
        a[n:, :n] = h.coeff(k)
        terms.append((k, a))
    return LaurentSymbol(h.num_vars, 2 * n, terms)


def split_chiral(symbol):
    """Extract h from H = [[0, h*], [h, 0]]; errors when the structure fails."""
    n = symbol.band_dim
    if n % 2 != 0:
        raise ChiralViolation("band_dim must be even for a chiral block structure")
    half = n // 2
    scale = max(symbol.coeff_norm(), 1.0)
    terms = []
    for k, a in symbol.coeffs.items():
        offdiag = max(
            np.linalg.norm(a[:half, :half]), np.linalg.norm(a[half:, half:])
        )
        if offdiag > 1e-12 * scale:
            raise ChiralViolation(
                f"diagonal block of coefficient {k} has norm {offdiag:.3e}"
            )
        terms.append((k, a[half:, :half]))
    return LaurentSymbol(symbol.num_vars, half, terms)


def _split_mass(symbol):
    """(m, h) with symbol = assemble_chiral(h) + m Pi for a scalar m, read
    from the constant coefficient as Re tr(Pi a_0) / band_dim;
    split_chiral decides the rest and raises ChiralViolation when it fails."""
    if symbol.band_dim % 2 != 0:
        raise ChiralViolation("band_dim must be even for a chiral block structure")
    pi = chiral_projector(symbol.band_dim)
    zero = (0,) * symbol.num_vars
    m = float(np.real(np.trace(pi @ symbol.coeff(zero)))) / symbol.band_dim
    return m, split_chiral(symbol - LaurentSymbol.constant(symbol.num_vars, m * pi))


# ------------------------------------------------------ relation checks

# Every relation reads f(sigma z) = theta(f(z)) on the torus, with
# theta(X) = sign * W op(X) W^T for a real orthogonal W (none, the chiral
# grading Pi or the symplectic unit J) and op a transpose and/or an entrywise
# conjugation.  Columns: the KR degrees whose real classes carry the
# relation, sigma conjugates every variable, op conjugates, op transposes,
# sign, W.
_RELATIONS = {
    "hermitian": ((), False, True, True, 1, None),
    "chiral": ((), False, False, False, -1, chiral_projector),
    "real_coefficients": ((0, 1), True, True, False, 1, None),
    "transpose_symmetric": ((-1,), True, False, True, 1, None),
    "transpose_antisymmetric": ((2,), True, False, True, -1, None),
    "quaternion_transpose_symmetric": ((3,), True, False, True, 1, _quaternion_unit),
    "quaternion_real": ((4, 5), True, True, False, 1, _quaternion_unit),
    "quaternion_transpose_antisymmetric": ((6,), True, False, True, -1, _quaternion_unit),
}
_DEGREE_RELATION = {i: name for name, row in _RELATIONS.items() for i in row[0]}


def _relation(relation, band_dim):
    """(conj_point, theta, flip) of a named relation (an optional ':block'
    suffix is ignored): whether sigma conjugates every variable, theta on
    stacks of matrices, and whether coefficient a_k is compared with
    theta(a_{-k}) rather than theta(a_k), which is so exactly when one of
    sigma and theta conjugates."""
    _, conj_point, conj, transpose, sign, unit = _RELATIONS[relation.split(":", 1)[0]]
    w = None if unit is None else unit(band_dim)

    def theta(x):
        x = np.swapaxes(x, -1, -2) if transpose else x
        x = np.conj(x) if conj else x
        x = x if w is None else w @ x @ w.T
        return -x if sign < 0 else x

    return conj_point, theta, conj_point != conj


def _relation_violation(symbol, relation):
    """Max coefficient-level violation of one named relation on ``symbol``,
    relative to its scale: the distance from the symbol with coefficients
    theta(a_k), at -k when the relation flips exponents."""
    if not symbol.coeffs:
        return 0.0  # and no band_dim-sized W is built
    _, theta, flip = _relation(relation, symbol.band_dim)
    sign = -1 if flip else 1
    image = LaurentSymbol(symbol.num_vars, symbol.band_dim, [
        (tuple(sign * e for e in k), theta(a)) for k, a in symbol.coeffs.items()
    ])
    return symbol.distance(image) / max(symbol.coeff_norm(), 1e-300)


def _grid_violation(symbol, relation, grid):
    """f(sigma z) - theta(f(z)) on a torus grid (rounding-level check),
    refused above GRID_CAP entries before any is allocated."""
    if grid ** symbol.num_vars * symbol.band_dim ** 2 > GRID_CAP:
        raise InputError(
            f"torus grid of {grid} points in each of {symbol.num_vars} variables "
            f"at band {symbol.band_dim} exceeds {GRID_CAP} entries"
        )
    conj_point, theta, _ = _relation(relation, symbol.band_dim)
    axes = [
        np.exp(2j * np.pi * np.arange(grid) / grid) for _ in range(symbol.num_vars)
    ]
    vals = symbol.eval_grid(axes)
    scale = max(float(np.abs(vals).max()), 1e-300)
    moved = symbol.eval_grid([ax.conj() for ax in axes]) if conj_point else vals
    diff = moved - theta(vals)
    return float(np.linalg.norm(diff, axis=(-2, -1)).max()) / scale


@dataclass(frozen=True)
class SymmetryReport:
    """Outcome of check_symmetry: per-relation violations, overall verdict."""

    label: str
    violations: dict
    tol: float

    @property
    def passed(self):
        return all(v <= self.tol for v in self.violations.values())

    def require(self):
        if not self.passed:
            bad = {k: v for k, v in self.violations.items() if v > self.tol}
            raise SymmetryViolation(
                f"class {self.label} relations violated: "
                + ", ".join(f"{k}={v:.3e}" for k, v in bad.items())
            )
        return self


def check_symmetry(symbol, spec, tol=1e-12):
    """Validate the relations of an AZ class on a symbol.

    The relations are checked exactly at coefficient level and once more on
    an 8-per-variable torus grid; the reported violation of each
    relation is the max of the two, relative to the symbol scale.  Chiral
    classes check the block structure on H and the degree relation on h.
    """
    if isinstance(spec, str):
        spec = az_class(spec)
    violations = {}
    target_h = None
    for rel in spec.relations:
        where = rel.partition(":")[2]
        if where == "h":
            if target_h is None:
                target_h = split_chiral(symbol)
            target = target_h
        else:
            target = symbol
        v = _relation_violation(target, rel)
        v = max(v, _grid_violation(target, rel, 8))
        violations[rel] = v
    return SymmetryReport(label=spec.label, violations=violations, tol=tol)


# ------------------------------------------------------------ file I/O


def symbol_to_dict(symbol):
    terms = []
    for key in sorted(symbol.coeffs):
        a = symbol.coeff(key)
        matrix = [
            [[float(a[r, c].real), float(a[r, c].imag)] for c in range(symbol.band_dim)]
            for r in range(symbol.band_dim)
        ]
        terms.append({"exponents": list(key), "matrix": matrix})
    return {
        "num_vars": symbol.num_vars,
        "band_dim": symbol.band_dim,
        "terms": terms,
    }


def symbol_from_dict(data):
    if not isinstance(data, dict):
        raise InputError("symbol document must be a JSON object")
    for field_name in ("num_vars", "band_dim", "terms"):
        if field_name not in data:
            raise InputError(f"symbol document missing field {field_name!r}")
    try:
        num_vars = int(data["num_vars"])
        band_dim = int(data["band_dim"])
        whole = all(float(data[k]).is_integer() for k in ("num_vars", "band_dim"))
    except (TypeError, ValueError, OverflowError) as exc:
        raise InputError(f"num_vars / band_dim must be integers: {exc}") from None
    if not whole:
        raise InputError(
            f"num_vars / band_dim must be integers, got {data['num_vars']} / {data['band_dim']}"
        )
    if not isinstance(data["terms"], list):
        raise InputError("symbol document field 'terms' must be a list")
    terms = []
    for pos, term in enumerate(data["terms"]):
        if not isinstance(term, dict) or "exponents" not in term or "matrix" not in term:
            raise InputError(f"term {pos} must have 'exponents' and 'matrix'")
        exps = term["exponents"]
        try:
            ok = len(exps) == num_vars and all(float(e).is_integer() for e in exps)
        except (TypeError, ValueError, OverflowError):
            ok = False
        if not ok:
            raise InputError(
                f"term {pos}: exponents {exps} are not {num_vars} integers"
            )
        matrix = term["matrix"]
        try:
            arr = np.asarray(matrix, dtype=float)
        except (TypeError, ValueError):
            raise InputError(f"term {pos}: matrix entries must be [re, im] pairs") from None
        if arr.shape != (band_dim, band_dim, 2):
            raise InputError(
                f"term {pos}: matrix has shape {arr.shape}, "
                f"expected ({band_dim}, {band_dim}, 2)"
            )
        with np.errstate(invalid="ignore"):  # 1j * inf; LaurentSymbol refuses the result
            terms.append(([int(e) for e in exps], arr[..., 0] + 1j * arr[..., 1]))
    return LaurentSymbol(num_vars, band_dim, terms)


def save_symbol(symbol, path):
    import json

    with open(path, "w") as fh:
        json.dump(symbol_to_dict(symbol), fh, indent=1)
        fh.write("\n")


def load_symbol(path):
    import json

    try:
        with open(path) as fh:
            data = json.load(fh)
    except json.JSONDecodeError as exc:
        raise InputError(f"cannot parse symbol file {path}: {exc}") from None
    except OSError as exc:
        raise InputError(f"cannot read symbol file {path}: {exc}") from None
    return symbol_from_dict(data)
