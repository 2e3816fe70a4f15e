import json

import numpy as np
import pytest

import sospec.data as data
from oracles import rational_nullspace
from sospec.lattice import FrequencyVector, estimate_lambda, primitive_set, resonant_subset
from sospec.lie import CanonicalForm, J2, matrix_exp, retract_orthogonal


class TestMakeRandomGenerator:
    def test_two_dimensional_case(self):
        cf = data.make_random_generator(2, seed=0)
        assert cf.rates.shape == (1,)
        assert abs(abs(cf.rates[0]) - 1.0) <= 1e-12

    def test_diagonal_preset(self):
        cf = data.make_random_generator(4, seed=1, kind="diagonal")
        assert np.array_equal(cf.q, np.eye(4))
        assert np.allclose(cf.rates, np.array([1.0, -1.0]) / np.sqrt(2.0))

    def test_assembled_generator_is_skew(self):
        from sospec.lie import assemble_generator

        for seed in range(5):
            cf = data.make_random_generator(6, seed=seed)
            b = assemble_generator(cf).entries
            assert np.linalg.norm(b + b.T) <= 1e-12

    def test_rational_kind_has_resonances(self):
        for n in (4, 6):
            for seed in range(5):
                cf = data.make_random_generator(n, seed=seed, kind="rational")
                rs = resonant_subset(cf.rates, primitive_set(2, n // 2), 1e-9)
                assert rs.members, f"no resonance for n={n} seed={seed}"

    def test_odd_dimension_rejected(self):
        with pytest.raises(ValueError):
            data.make_random_generator(3, seed=0)

    def test_unit_rates(self):
        for kind in ("rational", "generic", "mixed"):
            cf = data.make_random_generator(4, seed=2, kind=kind)
            assert abs(np.linalg.norm(cf.rates) - 1.0) <= 1e-12


class TestSynthRegression:
    def test_target_invariant_at_specific_shift(self):
        # |f(exp(tB) x) - f(x)| <= 1e-9 at t = 1.7, checked on fresh points
        rng = np.random.default_rng(3)
        q = retract_orthogonal(rng.standard_normal((4, 4)))
        cf = CanonicalForm(q, np.array([1.0, -1.0]) / np.sqrt(2.0))
        target, info = data._resonant_character_target(cf, 2, np.random.default_rng(5))
        assert info["n_characters"] > 0
        from sospec.lie import assemble_generator

        gen = assemble_generator(cf)
        rot = matrix_exp(gen, 1.7)
        xs = rng.standard_normal((50, 4))
        delta = target(xs @ rot.T) - target(xs)
        assert np.max(np.abs(delta)) <= 1e-9

    def test_dataset_shapes_and_meta(self):
        cf = data.make_random_generator(4, seed=7, kind="rational")
        ds = data.synth_invariant_regression(cf, 500, 0.2, seed=8)
        assert ds.x.shape == (500, 4) and ds.y.shape == (500, 1)
        assert ds.meta.task == "synth"
        assert ds.meta.noise_sigma == 0.2
        assert ds.meta.true_generator is not None
        assert np.allclose(ds.meta.true_rates, cf.rates)

    def test_unit_scale_before_noise(self):
        cf = data.make_random_generator(4, seed=9, kind="rational")
        ds = data.synth_invariant_regression(cf, 4000, 0.0, seed=10)
        assert abs(float(np.std(ds.y)) - 1.0) <= 1e-9

    def test_radial_fallback_when_no_resonance(self):
        # generic rates have empty resonant sets; generation must still work
        cf = data.make_random_generator(4, seed=11, kind="generic")
        rs = resonant_subset(cf.rates, primitive_set(2, 2), 1e-9)
        assert not rs.members
        ds = data.synth_invariant_regression(cf, 300, 0.0, seed=12)
        assert ds.x.shape == (300, 4)

    def test_generation_deterministic(self):
        cf = data.make_random_generator(4, seed=13, kind="rational")
        d1 = data.synth_invariant_regression(cf, 200, 0.1, seed=14)
        d2 = data.synth_invariant_regression(cf, 200, 0.1, seed=14)
        assert np.array_equal(d1.x, d2.x) and np.array_equal(d1.y, d2.y)


class TestPendulum:
    def test_true_generator_is_diagonal(self):
        ds = data.double_pendulum_task(300, 0.0, seed=15)
        expected = np.zeros((6, 6))
        for k in range(3):
            expected[2 * k : 2 * k + 2, 2 * k : 2 * k + 2] = J2 / np.sqrt(3.0)
        assert np.allclose(ds.meta.true_generator.entries, expected, atol=1e-15)
        assert np.allclose(ds.meta.true_rates, np.ones(3) / np.sqrt(3.0))

    def test_difference_rays_are_resonant(self):
        rates = np.ones(3)
        for entries in [(1, -1, 0), (0, 1, -1), (1, 0, -1)]:
            m = FrequencyVector(entries)
            assert float(np.dot(m.as_array(), rates)) == 0.0

    def test_rate_recovery_from_difference_rays(self):
        rows = [FrequencyVector((1, -1, 0)), FrequencyVector((0, 1, -1)), FrequencyVector((1, 0, -1))]
        lam, nullity = estimate_lambda(rows, 3)
        assert nullity == 1
        # exact rational oracle on the same rows
        basis = rational_nullspace([list(r.entries) for r in rows])
        assert len(basis) == 1
        exact = np.array([float(v) for v in basis[0]])
        exact /= np.linalg.norm(exact)
        assert min(np.linalg.norm(lam - exact), np.linalg.norm(lam + exact)) <= 1e-12
        assert np.allclose(np.abs(lam), np.ones(3) / np.sqrt(3.0), atol=1e-12)

    def test_noise_only_touches_targets(self):
        clean = data.double_pendulum_task(400, 0.0, seed=16)
        noisy = data.double_pendulum_task(400, 0.3, seed=16)
        assert np.array_equal(clean.x, noisy.x)
        assert not np.array_equal(clean.y, noisy.y)


class TestSerialization:
    def test_roundtrip_bit_exact(self, tmp_path):
        cf = data.make_random_generator(4, seed=21, kind="rational")
        ds = data.synth_invariant_regression(cf, 120, 0.1, seed=22)
        path = tmp_path / "ds.jsonl"
        data.save_dataset(ds, path)
        back = data.load_dataset(path)
        assert np.array_equal(back.x, ds.x)
        assert np.array_equal(back.y, ds.y)
        assert back.meta.task == ds.meta.task
        assert back.meta.seed == ds.meta.seed
        assert back.meta.noise_sigma == ds.meta.noise_sigma
        assert np.array_equal(back.meta.true_generator.entries, ds.meta.true_generator.entries)
        assert np.array_equal(back.meta.true_rates, ds.meta.true_rates)

    def test_meta_header_first_line(self, tmp_path):
        ds = data.double_pendulum_task(10, 0.0, seed=23)
        path = tmp_path / "ds.jsonl"
        data.save_dataset(ds, path)
        lines = path.read_text().strip().split("\n")
        assert len(lines) == 11
        header = json.loads(lines[0])
        assert "meta" in header and header["meta"]["task"] == "pendulum6d"

    def test_malformed_line_reports_lineno(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"meta": {"task": "t", "n": 2, "outDim": 1, "nSamples": 1, '
                        '"noiseSigma": 0, "seed": 0}}\n{not json}\n')
        with pytest.raises(ValueError, match="line 2"):
            data.load_dataset(path)

    @pytest.mark.parametrize("bad", ["NaN", "Infinity", "-Infinity"])
    @pytest.mark.parametrize("field", ["x", "y"])
    def test_nonfinite_value_reports_lineno(self, tmp_path, bad, field):
        ds = data.double_pendulum_task(5, 0.1, seed=24)
        path = tmp_path / "ds.jsonl"
        data.save_dataset(ds, path)
        lines = path.read_text().split("\n")
        sample = {"x": ds.x[3].tolist(), "y": ds.y[3].tolist()}
        lines[4] = json.dumps(sample).replace(repr(sample[field][0]), bad, 1)
        path.write_text("\n".join(lines))
        with pytest.raises(ValueError, match="line 5: non-finite"):
            data.load_dataset(path)

    def test_header_dimension_mismatch_names_file(self, tmp_path):
        cf = data.make_random_generator(4, seed=25)
        ds = data.synth_invariant_regression(cf, 8, 0.1, seed=26)
        path = tmp_path / "ds.jsonl"
        data.save_dataset(ds, path)
        lines = path.read_text().split("\n")
        header = json.loads(lines[0])
        header["meta"]["n"] = 6
        lines[0] = json.dumps(header)
        path.write_text("\n".join(lines))
        with pytest.raises(ValueError, match=r"ds\.jsonl: samples have 4 inputs .* n=6"):
            data.load_dataset(path)

    def test_missing_header_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"x": [1, 2], "y": [0.5]}\n')
        with pytest.raises(ValueError, match="meta"):
            data.load_dataset(path)


class TestClassification:
    def test_labels_binary_and_balanced(self):
        cf = data.make_random_generator(4, seed=24, kind="rational")
        ds = data.synth_invariant_classification(cf, 2000, 0.1, seed=25)
        assert set(np.unique(ds.y)) <= {0.0, 1.0}
        assert ds.meta.output_kind == "binary"
        assert ds.meta.task == "synth-cls"
        frac = float(np.mean(ds.y))
        assert 0.45 <= frac <= 0.55
