"""Torus-side machinery: frequency lattice, characters, and rate recovery.

Angles of the r aligned 2-d blocks live on an r-torus. Characters are
indexed by integer frequency vectors, held one per row of a float64
matrix; a function invariant along a subgroup with rates `lam` can only
carry spectral mass where <freq, lam> = 0 (the resonance condition). One
frequency per lattice ray suffices, so vectors are reduced to coprime
entries with the first nonzero entry positive; the discarded sign indexes
the conjugate character, which the real (cos, sin) features already
cover.
"""

import functools
import itertools
import math

import numpy as np

# Most integer vectors, (2*bandwidth+1)**r, that primitive_set enumerates:
# about 0.1 s and at most about 38 000 frequencies, a 40 MB first layer.
MAX_BOX = 100_000


def _is_canonical(entries):
    g = 0
    first = 0
    for e in entries:
        if e != 0 and first == 0:
            first = e
        g = math.gcd(g, abs(e))
    return g == 1 and first > 0


@functools.cache
def primitive_set(bandwidth, r):
    """All canonical primitive frequencies with entries in [-bandwidth,
    bandwidth], one per row of a read-only float64 matrix.

    Rows are lexicographically ordered; no two lie on the same ray. A box
    of more than MAX_BOX vectors raises ValueError before it is enumerated.
    """
    if bandwidth < 1 or r < 1:
        raise ValueError("bandwidth and r must be at least 1")
    if (2 * bandwidth + 1) ** r > MAX_BOX:
        raise ValueError(
            f"bandwidth {bandwidth} is too large for {r} blocks: its box holds "
            f"more than {MAX_BOX} frequency vectors"
        )
    box = itertools.product(range(-bandwidth, bandwidth + 1), repeat=r)
    freq = np.array([m for m in box if _is_canonical(m)], dtype=np.float64)
    freq.flags.writeable = False
    return freq


@functools.cache
def reflect_last_block(bandwidth, r):
    """What negating the last entry does to the rows of
    primitive_set(bandwidth, r): a read-only pair (rows, signs) with
    (m_1, ..., m_{r-1}, -m_r) = signs[j] * freq[rows[j]] for row j = m.

    The sign is -1 only for the row whose reflection is not canonical
    (only m_r nonzero); that row maps to itself, and its character to the
    conjugate. The signed permutation is an involution.
    """
    freq = primitive_set(bandwidth, r).astype(int).tolist()
    index = {tuple(m): j for j, m in enumerate(freq)}
    rows, signs = [], []
    for m in freq:
        flipped = (*m[:-1], -m[-1])
        sign = 1 if _is_canonical(flipped) else -1
        rows.append(index[tuple(sign * e for e in flipped)])
        signs.append(float(sign))
    rows, signs = np.array(rows, dtype=np.intp), np.array(signs)
    rows.flags.writeable = signs.flags.writeable = False
    return rows, signs


def resonant_subset(rates, candidates, tol):
    """Rows m of `candidates` with |<m, rates>| <= tol * |m| * |rates|,
    sorted lexicographically.

    The test is relative, so it is scale-free in both arguments. It is made
    one row at a time, so tol=0 keeps exactly the frequencies whose inner
    product is zero in floating point.
    """
    if tol < 0.0:
        raise ValueError("tolerance must be nonnegative")
    rates = np.asarray(rates, dtype=np.float64)
    candidates = np.asarray(candidates, dtype=np.float64)
    rn = np.linalg.norm(rates)
    keep = [abs(float(np.dot(m, rates))) <= tol * rn * np.linalg.norm(m) for m in candidates]
    members = candidates[np.array(keep, dtype=bool)]
    return members[np.lexsort(members.T[::-1])]


def estimate_lambda(surviving, r):
    """Rate vector implied by surviving frequencies, plus the nullspace size.

    `surviving` holds one frequency per row, a (k, r) matrix M. Returns the
    unit right-singular vector for the smallest singular value (the
    minimizer of |M x| on the sphere), sign-canonicalized. `nullity` counts
    singular values at most 1e-8 times the largest, padded to r for short
    matrices; callers should trust the vector only when nullity == 1.
    """
    if r < 1:
        raise ValueError("r must be at least 1")
    mat = np.asarray(surviving, dtype=np.float64)
    if mat.ndim != 2 or mat.shape[1] != r:
        raise ValueError(f"surviving frequencies must be a (k, {r}) matrix, got {mat.shape}")
    _, svals, vt = np.linalg.svd(mat)
    if svals.size == 0 or svals[0] == 0.0:
        rank = 0
    else:
        rank = int(np.sum(svals > 1e-8 * svals[0]))
    lam = vt[-1].copy()
    for value in lam:
        if abs(value) > 1e-9:
            if value < 0.0:
                lam = -lam
            break
    return lam, r - rank


def surviving_frequencies(freq, coeffs, rel_threshold):
    """Rows of `freq` whose coefficient, the matching entry of the
    nonnegative `coeffs`, reaches rel_threshold of the maximum; in the
    order of `freq`."""
    if not 0.0 < rel_threshold < 1.0:
        raise ValueError("relative threshold must lie in (0, 1)")
    coeffs = np.asarray(coeffs, dtype=np.float64)
    if coeffs.shape != freq.shape[:1]:
        raise ValueError(f"{coeffs.size} coefficients for {freq.shape[0]} frequencies")
    return freq[coeffs >= rel_threshold * coeffs.max(initial=0.0)]
