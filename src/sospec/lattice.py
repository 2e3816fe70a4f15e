"""Torus-side machinery: frequency lattice, characters, and rate recovery.

Angles of the r aligned 2-d blocks live on an r-torus. Characters are
indexed by integer frequency vectors; a function invariant along a subgroup
with rates `lam` can only carry spectral mass where <freq, lam> = 0 (the
resonance condition). One frequency per lattice ray suffices, so vectors
are reduced to coprime entries with the first nonzero entry positive; the
discarded sign indexes the conjugate character, which the real (cos, sin)
features already cover.
"""

import itertools
import math
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

TWO_PI = 2.0 * math.pi


def _is_canonical(entries):
    g = 0
    first = 0
    for e in entries:
        if e != 0 and first == 0:
            first = e
        g = math.gcd(g, abs(e))
    return g == 1 and first > 0


@dataclass(frozen=True)
class FrequencyVector:
    """Integer lattice point indexing a torus character.

    `primitive` is derived: true only for coprime entries with the first
    nonzero entry positive (the canonical representative of a lattice ray).
    """

    entries: tuple
    primitive: bool = field(init=False)

    def __post_init__(self):
        entries = tuple(int(e) for e in self.entries)
        object.__setattr__(self, "entries", entries)
        if len(entries) == 0:
            raise ValueError("frequency vector must have at least one entry")
        object.__setattr__(self, "primitive", _is_canonical(entries))

    @property
    def r(self):
        return len(self.entries)

    def as_array(self):
        return np.asarray(self.entries, dtype=np.float64)

    def to_json(self):
        return list(self.entries)


@dataclass(frozen=True)
class TorusPoint:
    """Polar form of the r aligned blocks: radii and angles in [0, 2*pi)."""

    radii: np.ndarray
    angles: np.ndarray

    def __post_init__(self):
        radii = np.asarray(self.radii, dtype=np.float64)
        angles = np.asarray(self.angles, dtype=np.float64)
        object.__setattr__(self, "radii", radii)
        object.__setattr__(self, "angles", angles)
        if radii.shape != angles.shape or radii.ndim != 1:
            raise ValueError("radii and angles must be matching 1-d arrays")
        if not (np.all(np.isfinite(radii)) and np.all(np.isfinite(angles))):
            raise ValueError("torus point must be finite")
        if np.any(radii < 0.0):
            raise ValueError("radii must be nonnegative")
        if np.any((angles < 0.0) | (angles >= TWO_PI)):
            raise ValueError("angles must lie in [0, 2*pi)")
        if np.any((radii == 0.0) & (angles != 0.0)):
            raise ValueError("zero-radius blocks must carry angle 0")

    @property
    def r(self):
        return self.radii.shape[0]


def primitive(entries):
    """Canonical representative of the lattice ray through `entries`."""
    vec = [int(e) for e in entries]
    if all(e == 0 for e in vec):
        raise ValueError("the zero vector has no primitive representative")
    g = 0
    for e in vec:
        g = math.gcd(g, abs(e))
    vec = [e // g for e in vec]
    first = next(e for e in vec if e != 0)
    if first < 0:
        vec = [-e for e in vec]
    return FrequencyVector(tuple(vec))


def primitive_set(bandwidth, r):
    """All canonical primitive frequencies with entries in [-bandwidth, bandwidth].

    Lexicographically ordered; no two members lie on the same ray.
    """
    if bandwidth < 1 or r < 1:
        raise ValueError("bandwidth and r must be at least 1")
    out = []
    for entries in itertools.product(range(-bandwidth, bandwidth + 1), repeat=r):
        if _is_canonical(entries):
            out.append(FrequencyVector(entries))
    return out


def character(freq, point):
    """Unit-modulus character value exp(i * <freq, angles>)."""
    entries = freq.entries if isinstance(freq, FrequencyVector) else tuple(freq)
    angles = point.angles if isinstance(point, TorusPoint) else np.asarray(point)
    if len(entries) != angles.shape[0]:
        raise ValueError("frequency and torus point have different block counts")
    phase = float(np.dot(np.asarray(entries, dtype=np.float64), angles))
    return complex(math.cos(phase), math.sin(phase))


def resonant_subset(rates, candidates, tol):
    """Members of `candidates` with |<freq, rates>| <= tol * |freq| * |rates|,
    sorted by entries.

    The test is relative, so it is scale-free in both arguments; tol=0 keeps
    exactly the frequencies whose inner product is zero in floating point.
    """
    if tol < 0.0:
        raise ValueError("tolerance must be nonnegative")
    rates = np.asarray(rates, dtype=np.float64)
    rn = np.linalg.norm(rates)
    members = []
    for freq in candidates:
        fa = freq.as_array()
        if abs(float(np.dot(fa, rates))) <= tol * rn * np.linalg.norm(fa):
            members.append(freq)
    members.sort(key=lambda f: f.entries)
    return members


def estimate_lambda(surviving, r):
    """Rate vector implied by surviving frequencies, plus the nullspace size.

    Stacks the frequencies as rows of a matrix M and returns the unit
    right-singular vector for the smallest singular value (the minimizer of
    |M x| on the sphere), sign-canonicalized. `nullity` counts singular
    values at most 1e-8 times the largest, padded to r for short matrices;
    callers should trust the vector only when nullity == 1.
    """
    if r < 1:
        raise ValueError("r must be at least 1")
    surviving = list(surviving)
    if len(surviving) == 0:
        mat = np.zeros((0, r))
    else:
        mat = np.stack([f.as_array() for f in surviving])
        if mat.shape[1] != r:
            raise ValueError("surviving frequencies do not match r")
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


def surviving_frequencies(coeffs: Mapping, rel_threshold):
    """Frequencies whose coefficient reaches rel_threshold of the maximum."""
    if not 0.0 < rel_threshold < 1.0:
        raise ValueError("relative threshold must lie in (0, 1)")
    if not coeffs:
        return []
    top = max(coeffs.values())
    kept = [f for f, c in coeffs.items() if c >= rel_threshold * top]
    kept.sort(key=lambda f: f.entries)
    return kept
