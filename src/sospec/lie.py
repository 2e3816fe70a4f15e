"""Skew-symmetric generator algebra.

A one-parameter rotation subgroup is the curve exp(t*B) for a skew-symmetric
generator B. Every such B factors through an orthogonal alignment Q and
per-plane rotation rates: B = Q (rate_1*J (+) ... (+) rate_r*J) Q^T with
J = [[0,-1],[1,0]] and r = n/2. This module builds generators from that
canonical form, exponentiates them, keeps matrices on SO(n), and compares
generators. The exponential takes skew input only and is computed from the
eigendecomposition of the Hermitian matrix i*B, whose eigenvalues are real.
Ambient dimension must be even; odd n is rejected everywhere.
"""

import functools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import fields

# Planar rotation generator.
J2 = np.array([[0.0, -1.0], [1.0, 0.0]])

SKEW_TOL = 1e-12
ORTHO_TOL = 1e-10


def _as_matrix(x):
    if isinstance(x, Generator):
        return x.entries
    return np.asarray(x, dtype=np.float64)


@dataclass(frozen=True, eq=False)
class Generator:
    """Dense skew-symmetric matrix in the rotation Lie algebra."""

    entries: np.ndarray

    def __post_init__(self):
        entries = np.asarray(self.entries, dtype=np.float64)
        object.__setattr__(self, "entries", entries)
        if entries.ndim != 2 or entries.shape[0] != entries.shape[1]:
            raise ValueError(f"generator must be square, got shape {entries.shape}")
        if entries.shape[0] % 2 != 0:
            raise ValueError(f"ambient dimension must be even, got {entries.shape[0]}")
        if not np.all(np.isfinite(entries)):
            raise ValueError("generator entries must be finite")
        if np.linalg.norm(entries + entries.T) > SKEW_TOL:
            raise ValueError("matrix is not skew-symmetric")

    @property
    def n(self):
        return self.entries.shape[0]

    def to_json_dict(self):
        return {"n": self.n, "entries": self.entries.tolist()}

    @classmethod
    def from_json_dict(cls, d, where):
        n = fields.read(d, "n", int, where)
        entries = fields.read(d, "entries", fields.Array(2), where)
        try:
            if entries.shape != (n, n):
                raise ValueError(f"entries have shape {entries.shape}, not ({n}, {n})")
            return cls(entries)
        except ValueError as exc:
            raise ValueError(f"{where}: {exc}") from None


@dataclass(frozen=True, eq=False)
class CanonicalForm:
    """Orthogonal alignment plus per-plane rotation rates. Rates are
    identifiable only up to scale, so most of the pipeline normalizes them.
    """

    q: np.ndarray
    rates: np.ndarray

    def __post_init__(self):
        q = np.asarray(self.q, dtype=np.float64)
        rates = np.asarray(self.rates, dtype=np.float64)
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "rates", rates)
        n = q.shape[0]
        if q.ndim != 2 or q.shape != (n, n):
            raise ValueError(f"alignment must be square, got shape {q.shape}")
        if n % 2 != 0:
            raise ValueError(f"ambient dimension must be even, got {n}")
        if rates.shape != (n // 2,):
            raise ValueError(
                f"expected {n // 2} rotation rates for n={n}, got shape {rates.shape}"
            )
        if not np.all(np.isfinite(rates)):
            raise ValueError("rotation rates must be finite")
        if np.linalg.norm(q.T @ q - np.eye(n)) > ORTHO_TOL:
            raise ValueError("alignment is not orthogonal")
        if abs(np.linalg.det(q) - 1.0) > ORTHO_TOL:
            raise ValueError("alignment must have determinant +1")

    @property
    def n(self):
        return self.q.shape[0]

    @property
    def r(self):
        return self.rates.shape[0]


def block_diag_rates(rates):
    """Direct sum of rate_k * J blocks."""
    rates = np.asarray(rates, dtype=np.float64)
    r = rates.shape[0]
    core = np.zeros((2 * r, 2 * r))
    for k, rate in enumerate(rates):
        core[2 * k : 2 * k + 2, 2 * k : 2 * k + 2] = rate * J2
    return core


def assemble_generator(cf):
    """Build the generator Q (rate_1*J (+) ...) Q^T from its canonical form.

    The product is antisymmetrized afterwards so the result is exactly skew
    even when Q is only orthogonal to roundoff.
    """
    core = block_diag_rates(cf.rates)
    raw = cf.q @ core @ cf.q.T
    return Generator(0.5 * (raw - raw.T))


def matrix_exp(b, t=1.0):
    """exp(t*B) for skew-symmetric B, from the eigendecomposition of i*t*B.

    Skew input only: `exp_skew` reads one triangle of the matrix, so a
    matrix that is not skew raises ValueError here, as does a non-finite
    one. The result is in SO(n) to ~1e-14.
    """
    b = _as_matrix(b)
    mat = b * float(t)
    if not np.all(np.isfinite(mat)):
        raise ValueError("matrix exponential of non-finite matrix")
    if np.linalg.norm(b + b.T) > SKEW_TOL:
        raise ValueError("matrix exponential of a matrix that is not skew-symmetric")
    return exp_skew(mat)[0]


def exp_skew(mat):
    """(exp(mat), w, v) for skew `mat`, where i*mat = v diag(w) v^H is the
    Hermitian eigendecomposition, so exp(mat) = v diag(e^{-iw}) v^H. The
    model's alignment stage reuses w and v for its gradient."""
    w, v = np.linalg.eigh(1j * mat)
    return ((v * np.exp(-1j * w)) @ v.conj().T).real, w, v


def retract_orthogonal(raw):
    """Nearest rotation: special-orthogonal polar factor of `raw`.

    Computed from the SVD with the last left-singular column sign-flipped
    when the plain polar factor has determinant -1. Idempotent on inputs
    already in SO(n); rank-deficient input raises LinAlgError.
    """
    raw = np.asarray(raw, dtype=np.float64)
    u, s, vt = np.linalg.svd(raw)
    if s[-1] <= 1e-12 * s[0]:
        raise np.linalg.LinAlgError("cannot retract a rank-deficient matrix")
    rot = u @ vt
    if np.linalg.det(rot) < 0.0:
        u = u.copy()
        u[:, -1] = -u[:, -1]
        rot = u @ vt
    return rot


def generator_cosine_similarity(x, y):
    """Cosine of the angle between two generators as flattened vectors.

    A zero generator yields 0 by convention (with a warning) so a study's
    summary survives degenerate runs.
    """
    xm = _as_matrix(x)
    ym = _as_matrix(y)
    if xm.shape != ym.shape:
        raise ValueError(f"generator shapes differ: {xm.shape} vs {ym.shape}")
    nx = np.linalg.norm(xm)
    ny = np.linalg.norm(ym)
    if nx == 0.0 or ny == 0.0:
        warnings.warn("cosine similarity of a zero generator; returning 0")
    return float(np.sum(xm * ym) / (nx * ny + 1e-12))


def plane_rotation(angle):
    c, s = math.cos(angle), math.sin(angle)
    return np.array([[c, -s], [s, c]])


def gauge_equivalent(cf, block_angles, perm):
    """An equivalent canonical form: rotate within planes, permute planes.

    Replaces Q by Q*S*P where S rotates each plane by block_angles[k] and P
    permutes the planes by `perm`, carrying the rates along. The assembled
    generator is unchanged.
    """
    r = cf.r
    block_angles = np.asarray(block_angles, dtype=np.float64)
    if block_angles.shape != (r,):
        raise ValueError(f"expected {r} block angles, got shape {block_angles.shape}")
    perm = list(perm)
    if sorted(perm) != list(range(r)):
        raise ValueError(f"perm must be a permutation of 0..{r - 1}, got {perm}")

    qs = cf.q.copy()
    for k, angle in enumerate(block_angles):
        qs[:, 2 * k : 2 * k + 2] = qs[:, 2 * k : 2 * k + 2] @ plane_rotation(angle)
    q_new = np.empty_like(qs)
    rates_new = np.empty_like(cf.rates)
    for k, src in enumerate(perm):
        q_new[:, 2 * k : 2 * k + 2] = qs[:, 2 * src : 2 * src + 2]
        rates_new[k] = cf.rates[src]
    return CanonicalForm(q_new, rates_new)


@functools.cache
def skew_indices(n):
    """(rows, cols) of the strict upper triangle, the order of the n(n-1)/2
    free skew parameters. Cached, so the arrays are read-only."""
    rows, cols = np.triu_indices(n, k=1)
    rows.flags.writeable = False
    cols.flags.writeable = False
    return rows, cols


def skew_from_params(params, n):
    """Dense skew matrix from n(n-1)/2 free entries.

    A positive parameter points along J in its plane (positive entry below
    the diagonal), so exp of a positive single-plane parameter rotates
    counterclockwise.
    """
    params = np.asarray(params, dtype=np.float64)
    rows, cols = skew_indices(n)
    if params.shape != (rows.size,):
        raise ValueError(f"expected {rows.size} skew parameters, got {params.shape}")
    mat = np.zeros((n, n))
    mat[cols, rows] = params
    mat[rows, cols] = -params
    return mat
