import math

import numpy as np
import pytest

from oracles import enumerate_primitives_bruteforce, rational_nullspace, rational_rank
from sospec import kernels, lattice
from sospec.lattice import (
    estimate_lambda,
    primitive_set,
    resonant_subset,
    surviving_frequencies,
)


def as_tuples(freq):
    """Rows of a frequency matrix as tuples of ints."""
    return [tuple(m) for m in np.asarray(freq).astype(int).tolist()]


def character(freq, theta):
    """exp(i <freq, theta>) as kernels.torus_fwd computes it, from the unit
    block coordinates exp(i theta)."""
    out = np.empty((1, 2))
    freq = np.array([freq], dtype=np.float64)
    cos_f, sin_f = kernels.torus_fwd(np.exp(1j * np.asarray(theta))[None], freq, out)
    return complex(cos_f[0, 0], sin_f[0, 0])


class TestPrimitiveSet:
    def test_bandwidth1_r1(self):
        assert as_tuples(primitive_set(1, 1)) == [(1,)]

    def test_bandwidth1_r2(self):
        assert as_tuples(primitive_set(1, 2)) == [
            (0, 1),
            (1, -1),
            (1, 0),
            (1, 1),
        ]

    def test_bandwidth2_r2_extends_bandwidth1(self):
        small = set(as_tuples(primitive_set(1, 2)))
        large = set(as_tuples(primitive_set(2, 2)))
        assert large - small == {(1, -2), (1, 2), (2, -1), (2, 1)}

    def test_matches_bruteforce_oracle(self):
        for bandwidth in (1, 2, 3):
            for r in (1, 2, 3):
                got = as_tuples(primitive_set(bandwidth, r))
                assert got == enumerate_primitives_bruteforce(bandwidth, r)

    def test_no_two_members_on_a_ray(self):
        members = as_tuples(primitive_set(3, 2))
        for i, a in enumerate(members):
            for b in members[i + 1 :]:
                # cross product zero would mean collinear
                assert a[0] * b[1] - a[1] * b[0] != 0

    def test_box_above_max_rejected_before_enumerating(self, monkeypatch):
        for bandwidth, r in ((157, 2), (2, 7), (1, 10)):  # the largest boxes admitted
            assert len(primitive_set(bandwidth, r)) > 0
        monkeypatch.setattr(lattice.itertools, "product", None)  # enumerating would raise
        for bandwidth, r in ((158, 2), (2, 8), (10**6, 2), (2**62, 3)):
            with pytest.raises(ValueError, match=f"^bandwidth {bandwidth} is too large for "
                                                 f"{r} blocks"):
                primitive_set(bandwidth, r)

    def test_cached_read_only_float_matrix(self):
        freq = primitive_set(2, 3)
        assert primitive_set(2, 3) is freq
        assert freq.dtype == np.float64 and freq.shape == (49, 3)
        assert not freq.flags.writeable
        with pytest.raises(ValueError):
            freq[0, 0] = 5.0


class TestCharacter:
    def test_zero_angles(self):
        for freq in primitive_set(2, 2):
            assert character(freq, [0.0, 0.0]) == pytest.approx(1.0 + 0.0j)

    def test_single_frequency(self):
        assert character((1, 0), [np.pi / 2, 0.3]) == pytest.approx(1j, abs=1e-12)

    def test_angle_sum(self):
        value = character((1, 1), [np.pi / 3, 2 * np.pi / 3])
        assert value == pytest.approx(-1.0 + 0.0j, abs=1e-12)

    def test_unit_modulus(self):
        rng = np.random.default_rng(6)
        theta = rng.uniform(0, 2 * np.pi, size=3)
        for freq in primitive_set(2, 3)[:20]:
            assert abs(abs(character(freq, theta)) - 1.0) <= 1e-12


class TestResonantSubset:
    def test_diagonal_rates(self):
        members = resonant_subset(np.array([1.0, 1.0]), primitive_set(1, 2), 1e-9)
        assert as_tuples(members) == [(1, -1)]

    def test_single_plane_rates(self):
        members = resonant_subset(np.array([1.0, 0.0]), primitive_set(1, 2), 1e-9)
        assert as_tuples(members) == [(0, 1)]

    def test_incommensurate_rates_empty(self):
        lam = np.array([1.0, np.sqrt(2.0)])
        candidates = primitive_set(1, 2)
        # smallest |<m, lam>| over the candidates is sqrt(2) - 1
        smallest = min(abs(float(np.dot(m, lam))) for m in candidates)
        assert smallest == pytest.approx(np.sqrt(2.0) - 1.0)
        assert resonant_subset(lam, candidates, 1e-9).shape == (0, 2)

    def test_members_sorted_by_entries(self):
        candidates = primitive_set(1, 3)[::-1]
        members = resonant_subset(np.array([1.0, -1.0, 0.0]), candidates, 1e-9)
        assert as_tuples(members) == [(0, 0, 1), (1, 1, -1), (1, 1, 0), (1, 1, 1)]

    def test_membership_invariant_enforced(self):
        lam = np.array([1.0, -1.0])
        members = resonant_subset(lam, primitive_set(2, 2), 0.0)
        assert as_tuples(members) == [(1, 1)]
        for m in members:
            assert float(np.dot(m, lam)) == 0.0


class TestResonanceInvariance:
    """Executable form of the torus resonance condition."""

    def _rational_rates(self, ints):
        v = np.asarray(ints, dtype=np.float64)
        return v / np.linalg.norm(v)

    def test_resonant_characters_invariant_along_flow(self):
        rng = np.random.default_rng(8)
        for ints in [(1, -1), (1, 1, -2), (2, -1), (1, 1, 1, -1)]:
            lam = self._rational_rates(ints)
            r = lam.shape[0]
            members = resonant_subset(lam, primitive_set(2, r), 0.0)
            assert len(members), f"expected exact resonances for {ints}"
            for _ in range(20):
                theta = rng.uniform(0, 2 * np.pi, size=r)
                t = rng.uniform(-np.pi, np.pi)
                shifted = np.mod(theta + lam * t, 2 * np.pi)
                for m in members:
                    assert abs(character(m, shifted) - character(m, theta)) <= 1e-12

    def test_nonresonant_characters_have_witness(self):
        lam = self._rational_rates((1, -1))
        theta = np.array([0.7, 2.1])
        for m in primitive_set(2, 2):
            dot = float(np.dot(m, lam))
            if dot == 0.0:
                continue
            t = np.pi / dot  # advances the character phase by pi
            shifted = np.mod(theta + lam * t, 2 * np.pi)
            assert abs(character(m, shifted) - character(m, theta)) > 1.0

    @pytest.mark.parametrize("r", [1, 2])
    def test_quadrature_fourier_coefficients(self, r):
        # Trapezoid-rule coefficients of a resonant character on a 64^r grid
        # reproduce the Kronecker delta, so coeff * <m, lam> vanishes.
        grid = 64
        if r == 1:
            lam = np.array([0.0])  # degenerate direction: every m resonant
            m0 = (1,)
        else:
            lam = np.array([1.0, -1.0]) / np.sqrt(2.0)
            m0 = (1, 1)
        axes = [2 * np.pi * np.arange(grid) / grid] * r
        mesh = np.meshgrid(*axes, indexing="ij")
        phase0 = sum(mk * ax for mk, ax in zip(m0, mesh))
        values = np.exp(1j * phase0)
        for m in as_tuples(primitive_set(2, r)) + [tuple([0] * r)]:
            phase = sum(mk * ax for mk, ax in zip(m, mesh))
            coeff = np.mean(values * np.exp(-1j * phase))
            expected = 1.0 if m == m0 else 0.0
            assert abs(coeff - expected) <= 1e-10
            assert abs(coeff * float(np.dot(np.asarray(m), lam))) <= 1e-10


class TestEstimateLambda:
    def test_single_row(self):
        lam, nullity = estimate_lambda([(1, 1)], 2)
        assert nullity == 1
        assert np.allclose(lam, np.array([1.0, -1.0]) / np.sqrt(2.0), atol=1e-12)

    def test_collinear_rows(self):
        lam, nullity = estimate_lambda([(1, 1), (2, 2)], 2)
        assert nullity == 1
        assert np.allclose(lam, np.array([1.0, -1.0]) / np.sqrt(2.0), atol=1e-12)

    def test_full_rank_unreliable(self):
        lam, nullity = estimate_lambda(np.eye(2), 2)
        assert nullity == 0
        assert np.isclose(np.linalg.norm(lam), 1.0)

    def test_empty_surviving(self):
        lam, nullity = estimate_lambda(np.zeros((0, 3)), 3)
        assert nullity == 3
        assert np.isclose(np.linalg.norm(lam), 1.0)

    def test_residual_small_when_nullspace_exists(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            r = int(rng.integers(2, 5))
            base = rng.integers(-3, 4, size=(r - 1, r))
            if rational_rank(base.tolist()) != r - 1:
                continue
            lam, nullity = estimate_lambda(base, r)
            assert nullity >= 1
            mat = base.astype(float)
            assert np.linalg.norm(mat @ lam) <= 1e-8 * np.linalg.norm(mat)

    def test_matches_rational_nullspace_oracle(self):
        # Random integer matrices of rank r-1: SVD estimate equals the exact
        # rational kernel up to sign.
        rng = np.random.default_rng(10)
        done = 0
        while done < 60:
            r = int(rng.integers(2, 5))
            base = rng.integers(-4, 5, size=(r - 1, r))
            if rational_rank(base.tolist()) != r - 1:
                continue
            extra = rng.integers(-2, 3, size=(rng.integers(0, 3), r - 1)) @ base
            rows = np.vstack([base, extra])
            rows = rows[rng.permutation(rows.shape[0])]
            basis = rational_nullspace(rows.tolist())
            assert len(basis) == 1
            exact = np.array([float(x) for x in basis[0]])
            exact = exact / np.linalg.norm(exact)
            lam, nullity = estimate_lambda(rows, r)
            assert nullity == 1
            delta = min(np.linalg.norm(lam - exact), np.linalg.norm(lam + exact))
            assert delta <= 1e-8
            done += 1


class TestSurvivingFrequencies:
    def test_threshold_filters(self):
        freq = np.array([(1.0, 0.0), (1.0, 1.0)])
        assert as_tuples(surviving_frequencies(freq, [0.01, 1.0], 0.1)) == [(1, 1)]

    def test_all_equal_all_survive(self):
        got = surviving_frequencies(primitive_set(1, 2), np.full(4, 0.5), 0.1)
        assert as_tuples(got) == [(0, 1), (1, -1), (1, 0), (1, 1)]

    def test_empty_input(self):
        assert surviving_frequencies(np.zeros((0, 2)), [], 0.1).shape == (0, 2)

    def test_threshold_bounds(self):
        with pytest.raises(ValueError):
            surviving_frequencies(np.ones((1, 1)), [1.0], 0.0)
        with pytest.raises(ValueError):
            surviving_frequencies(np.ones((1, 1)), [1.0], 1.0)

    def test_one_coefficient_per_row(self):
        with pytest.raises(ValueError, match="3 coefficients for 4 frequencies"):
            surviving_frequencies(primitive_set(1, 2), [1.0, 1.0, 1.0], 0.1)
