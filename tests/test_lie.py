import json

import numpy as np
import pytest

from sospec.lie import (
    J2,
    CanonicalForm,
    Generator,
    assemble_generator,
    gauge_equivalent,
    generator_cosine_similarity,
    matrix_exp,
    retract_orthogonal,
    skew_from_params,
)


def random_special_orthogonal(n, rng):
    return matrix_exp(skew_from_params(rng.normal(size=n * (n - 1) // 2), n))


def block_diag(*mats):
    n = sum(m.shape[0] for m in mats)
    out = np.zeros((n, n))
    i = 0
    for m in mats:
        out[i : i + m.shape[0], i : i + m.shape[0]] = m
        i += m.shape[0]
    return out


class TestAssemble:
    def test_identity_single_block(self):
        cf = CanonicalForm(np.eye(2), np.array([1.0]))
        assert np.array_equal(assemble_generator(cf).entries, J2)

    def test_identity_two_blocks(self):
        cf = CanonicalForm(np.eye(4), np.array([1.0, 2.0]))
        expected = block_diag(J2, 2.0 * J2)
        assert np.array_equal(assemble_generator(cf).entries, expected)

    def test_zero_rates(self):
        cf = CanonicalForm(np.eye(4), np.zeros(2))
        assert np.array_equal(assemble_generator(cf).entries, np.zeros((4, 4)))

    def test_skew_after_generic_q(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            q = random_special_orthogonal(6, rng)
            cf = CanonicalForm(q, rng.normal(size=3))
            b = assemble_generator(cf).entries
            assert np.linalg.norm(b + b.T) <= 1e-12

    def test_odd_dimension_rejected(self):
        with pytest.raises(ValueError):
            CanonicalForm(np.eye(3), np.array([1.0]))
        with pytest.raises(ValueError):
            Generator(np.zeros((3, 3)))


class TestMatrixExp:
    def test_t_zero_is_identity(self):
        b = Generator(block_diag(J2, 2.0 * J2))
        assert np.array_equal(matrix_exp(b, 0.0), np.eye(4))

    def test_quarter_turn(self):
        assert np.allclose(matrix_exp(J2, np.pi / 2), np.array([[0.0, -1.0], [1.0, 0.0]]), atol=1e-12)

    def test_half_turn(self):
        assert np.allclose(matrix_exp(J2, np.pi), -np.eye(2), atol=1e-12)

    def test_group_law_orthogonality_determinant(self):
        # 100 random (B, t1, t2): exp law, R^T R = I, det = +1.
        rng = np.random.default_rng(7)
        for _ in range(100):
            n = rng.choice([2, 4, 6, 8])
            b = skew_from_params(rng.normal(size=n * (n - 1) // 2), n)
            t1, t2 = rng.uniform(-3.0, 3.0, size=2)
            r1 = matrix_exp(b, t1)
            r2 = matrix_exp(b, t2)
            r12 = matrix_exp(b, t1 + t2)
            assert np.linalg.norm(r1 @ r2 - r12) <= 1e-9
            assert np.linalg.norm(r1.T @ r1 - np.eye(n)) <= 1e-10
            assert abs(np.linalg.det(r1) - 1.0) <= 1e-10

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            matrix_exp(np.array([[0.0, np.inf], [-np.inf, 0.0]]), 1.0)

    @pytest.mark.parametrize("b", [np.eye(2), np.array([[0.0, 1.0], [0.0, 0.0]])])
    def test_non_skew_rejected(self, b):
        # the eigendecomposition reads one triangle of i*B and the real part
        # of its diagonal, so it would take either matrix for zero
        with pytest.raises(ValueError, match="not skew-symmetric"):
            matrix_exp(b, 0.5)


class TestRetract:
    def test_identity_fixed(self):
        assert np.allclose(retract_orthogonal(np.eye(4)), np.eye(4), atol=1e-12)

    def test_positive_scaling_removed(self):
        assert np.allclose(retract_orthogonal(2.0 * np.eye(4)), np.eye(4), atol=1e-12)

    def test_reflection_fixed_up(self):
        raw = np.diag([1.0, 1.0, 1.0, -1.0])
        rot = retract_orthogonal(raw)
        assert np.linalg.norm(rot.T @ rot - np.eye(4)) <= 1e-10
        assert abs(np.linalg.det(rot) - 1.0) <= 1e-10

    def test_idempotent_on_rotations(self):
        rng = np.random.default_rng(11)
        for n in (2, 4, 6):
            q = random_special_orthogonal(n, rng)
            assert np.allclose(retract_orthogonal(q), q, atol=1e-12)

    def test_rank_deficient_raises(self):
        raw = np.ones((4, 4))
        with pytest.raises(np.linalg.LinAlgError):
            retract_orthogonal(raw)


class TestCosineSimilarity:
    def test_self_is_one(self):
        b = Generator(block_diag(J2, 2.0 * J2))
        assert abs(generator_cosine_similarity(b, b) - 1.0) <= 1e-12

    def test_negation_is_minus_one(self):
        b = block_diag(J2, 2.0 * J2)
        assert abs(generator_cosine_similarity(b, -b) + 1.0) <= 1e-12

    def test_partial_overlap(self):
        x = block_diag(J2, 0.0 * J2)
        y = block_diag(J2, J2)
        # Direct Frobenius inner-product evaluation.
        expected = np.sum(x * y) / (np.linalg.norm(x) * np.linalg.norm(y))
        got = generator_cosine_similarity(x, y)
        assert abs(got - expected) <= 1e-12
        assert abs(got - 1.0 / np.sqrt(2.0)) <= 1e-12

    def test_scale_covariance_and_symmetry(self):
        rng = np.random.default_rng(5)
        x = skew_from_params(rng.normal(size=6), 4)
        y = skew_from_params(rng.normal(size=6), 4)
        base = generator_cosine_similarity(x, y)
        assert abs(generator_cosine_similarity(y, x) - base) <= 1e-12
        for a, b in [(2.0, 3.0), (-1.5, 0.25), (-2.0, -4.0)]:
            got = generator_cosine_similarity(a * x, b * y)
            assert abs(got - np.sign(a * b) * base) <= 1e-10
        assert -1.0 <= base <= 1.0

    def test_zero_generator_flagged(self):
        with pytest.warns(UserWarning):
            value = generator_cosine_similarity(np.zeros((2, 2)), J2)
        assert value == 0.0

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            generator_cosine_similarity(np.zeros((2, 2)), np.zeros((4, 4)))


class TestGauge:
    def test_trivial_transform(self):
        cf = CanonicalForm(np.eye(4), np.array([1.0, 2.0]))
        out = gauge_equivalent(cf, np.zeros(2), [0, 1])
        assert np.allclose(out.q, cf.q)
        assert np.array_equal(out.rates, cf.rates)

    def test_block_rotations_preserve_generator(self):
        rng = np.random.default_rng(13)
        cf = CanonicalForm(random_special_orthogonal(4, rng), np.array([1.0, -0.5]))
        out = gauge_equivalent(cf, rng.uniform(0, 2 * np.pi, size=2), [0, 1])
        delta = assemble_generator(out).entries - assemble_generator(cf).entries
        assert np.linalg.norm(delta) <= 1e-10

    def test_swap_permutes_rates(self):
        cf = CanonicalForm(np.eye(4), np.array([1.0, 2.0]))
        out = gauge_equivalent(cf, np.zeros(2), [1, 0])
        assert np.array_equal(out.rates, np.array([2.0, 1.0]))
        delta = assemble_generator(out).entries - assemble_generator(cf).entries
        assert np.linalg.norm(delta) <= 1e-10

    def test_random_gauges_fix_generator(self):
        # 100 random (cf, angles, perm) leave the assembled generator unchanged.
        rng = np.random.default_rng(17)
        for _ in range(100):
            n = int(rng.choice([4, 6, 8]))
            r = n // 2
            cf = CanonicalForm(random_special_orthogonal(n, rng), rng.normal(size=r))
            angles = rng.uniform(0, 2 * np.pi, size=r)
            perm = rng.permutation(r).tolist()
            out = gauge_equivalent(cf, angles, perm)
            delta = assemble_generator(out).entries - assemble_generator(cf).entries
            assert np.linalg.norm(delta) <= 1e-10

    def test_bad_perm_rejected(self):
        cf = CanonicalForm(np.eye(4), np.array([1.0, 2.0]))
        with pytest.raises(ValueError):
            gauge_equivalent(cf, np.zeros(2), [0, 0])


class TestSerialization:
    def test_generator_roundtrip(self):
        b = Generator(block_diag(J2, 2.0 * J2))
        blob = json.dumps(b.to_json_dict())
        back = Generator.from_json_dict(json.loads(blob), "generator")
        assert np.array_equal(back.entries, b.entries)
        assert back.n == 4
