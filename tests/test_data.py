import dataclasses
import errno
import itertools
import json
import os
import stat

import numpy as np
import pytest

import sospec.data as data
import sospec.fields as fields
import sospec.model as model
import sospec.pool as pool_mod
from oracles import rational_nullspace, traced_peak
from sospec.lattice import estimate_lambda, primitive_set, resonant_subset
from sospec.lie import (
    CanonicalForm, Generator, J2, assemble_generator, matrix_exp, retract_orthogonal,
)


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
                members = resonant_subset(cf.rates, primitive_set(2, n // 2), 1e-9)
                assert len(members), f"no resonance for n={n} seed={seed}"

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
        assert len(resonant_subset(cf.rates, primitive_set(2, 2), data.AUDIT_TOL))
        target = data._resonant_character_target(cf, 2, np.random.default_rng(5))
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
        assert ds.task == "synth"
        assert ds.noise_sigma == 0.2
        assert ds.true_generator is not None
        assert np.allclose(ds.true_rates, cf.rates)

    def test_unit_scale_before_noise(self):
        cf = data.make_random_generator(4, seed=9, kind="rational")
        ds = data.synth_invariant_regression(cf, 4000, 0.0, seed=10)
        assert abs(float(np.std(ds.y)) - 1.0) <= 1e-9

    def test_radial_fallback_when_no_resonance(self):
        # generic rates have empty resonant sets; generation must still work
        cf = data.make_random_generator(4, seed=11, kind="generic")
        assert len(resonant_subset(cf.rates, primitive_set(2, 2), 1e-9)) == 0
        ds = data.synth_invariant_regression(cf, 300, 0.0, seed=12)
        assert ds.x.shape == (300, 4)

    def test_generation_deterministic(self):
        cf = data.make_random_generator(4, seed=13, kind="rational")
        d1 = data.synth_invariant_regression(cf, 200, 0.1, seed=14)
        d2 = data.synth_invariant_regression(cf, 200, 0.1, seed=14)
        assert np.array_equal(d1.x, d2.x) and np.array_equal(d1.y, d2.y)


@pytest.mark.parametrize("sigma", [float("nan"), float("inf"), -0.1])
def test_noise_sigma_must_be_finite_and_nonnegative(sigma):
    cf = data.make_random_generator(4, seed=17, kind="rational")
    found = f"noise sigma must be finite and nonnegative, got {sigma!r}"
    with pytest.raises(ValueError, match=found):
        data.synth_invariant_regression(cf, 50, sigma, seed=18)
    with pytest.raises(ValueError, match=found):
        data.double_pendulum_task(50, sigma, seed=18)


@pytest.mark.parametrize("rows", [1, 0])
@pytest.mark.parametrize(
    "maker", [data.synth_invariant_regression, data.synth_invariant_classification]
)
def test_synth_needs_two_samples_before_any_draw(maker, rows, monkeypatch):
    # one row has a zero standard deviation, which scaled the target to -inf
    cf = data.make_random_generator(4, seed=17, kind="rational")
    draws = []
    monkeypatch.setattr(data, "_resonant_character_target", lambda *args: draws.append(args))
    with pytest.raises(ValueError, match=f"^n_samples must be at least 2, got {rows}$"):
        maker(cf, rows, 0.1, seed=18)
    assert draws == []


class TestPendulum:
    def test_true_generator_is_diagonal(self):
        ds = data.double_pendulum_task(300, 0.0, seed=15)
        expected = np.zeros((6, 6))
        for k in range(3):
            expected[2 * k : 2 * k + 2, 2 * k : 2 * k + 2] = J2 / np.sqrt(3.0)
        assert np.allclose(ds.true_generator.entries, expected, atol=1e-15)
        assert np.allclose(ds.true_rates, np.ones(3) / np.sqrt(3.0))

    def test_difference_rays_are_resonant(self):
        rates = np.ones(3)
        for m in [(1, -1, 0), (0, 1, -1), (1, 0, -1)]:
            assert float(np.dot(m, rates)) == 0.0

    def test_rate_recovery_from_difference_rays(self):
        rows = np.array([(1, -1, 0), (0, 1, -1), (1, 0, -1)])
        lam, nullity = estimate_lambda(rows, 3)
        assert nullity == 1
        # exact rational oracle on the same rows
        basis = rational_nullspace(rows.tolist())
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


def _polar(z):
    return np.hypot(z[:, 0::2], z[:, 1::2]), np.arctan2(z[:, 1::2], z[:, 0::2])


def _synth_polar(cf, bandwidth, seed, x):
    """The synth target in polar form, drawing its coefficients in the
    target's order: a, b, e, j per resonant member, then the radial weights."""
    rng = np.random.default_rng(seed)
    members = resonant_subset(cf.rates, primitive_set(bandwidth, cf.r), data.AUDIT_TOL)
    coeffs = []
    for m in members:
        a = rng.uniform(0.5, 1.0) * rng.choice([-1.0, 1.0])
        b = rng.uniform(0.5, 1.0) * rng.choice([-1.0, 1.0])
        e = rng.uniform(0.2, 0.4)
        j = int(rng.integers(cf.r))
        coeffs.append((m, a, b, e, j))
    radial_w = rng.uniform(0.25, 0.5, size=cf.r)
    radii, angles = _polar(x @ cf.q)
    values = radii**2 @ radial_w
    for m, a, b, e, j in coeffs:
        phase = angles @ m
        envelope = np.prod(radii ** np.abs(m), axis=1) * (1.0 + e * radii[:, j] ** 2)
        values = values + envelope * (a * np.cos(phase) + b * np.sin(phase))
    return values


def _pendulum_polar(x):
    radii, angles = _polar(x)
    values = np.sum(radii**2, axis=1)
    for (k, l), scale in {(0, 1): 1.2, (0, 2): 0.8, (1, 2): 1.0}.items():
        coupling = data.PENDULUM_COUPLING * scale * radii[:, k] * radii[:, l]
        values = values + coupling * np.cos(angles[:, k] - angles[:, l])
    triple = radii[:, 0] * radii[:, 1] ** 2 * radii[:, 2]
    phase = angles[:, 0] - 2.0 * angles[:, 1] + angles[:, 2]
    return values + data.PENDULUM_TRIPLE * triple * np.cos(phase)


class TestTargetsAgainstPolarForm:
    """The targets, built from block coordinates with kernels.torus_fwd,
    equal their polar formulas: hypot and arctan2, then cos and sin."""

    @staticmethod
    def _rows(seed):
        # random rows, then each block zeroed in turn, then the zero row
        x = np.random.default_rng(seed).normal(size=(40, 6))
        zeroed = np.repeat(x[:3], 3, axis=0)
        for i in range(len(zeroed)):
            zeroed[i, 2 * (i % 3) : 2 * (i % 3) + 2] = 0.0
        return np.vstack([x, zeroed, np.zeros((1, 6))])

    @staticmethod
    def _assert_close(got, want):
        assert np.all(np.abs(got - want) <= 1e-12 * np.maximum(1.0, np.abs(want)))

    @pytest.mark.parametrize("frame", ["signed-permutation", "random"])
    @pytest.mark.parametrize("ints", [(1, 1, -2), (1, -1, 0), (2, -1, 1)])
    def test_synth(self, frame, ints):
        rng = np.random.default_rng(31)
        if frame == "random":
            q = retract_orthogonal(rng.standard_normal((6, 6)))
        else:  # both products below are exact, so the zero blocks stay zero
            q = np.eye(6)[rng.permutation(6)] * rng.choice([-1.0, 1.0], size=6)
        rates = np.asarray(ints, dtype=np.float64)
        cf = CanonicalForm(q, rates / np.linalg.norm(rates))
        x = self._rows(32) @ q.T  # the target's frame coordinates are x @ q
        if frame == "signed-permutation":
            assert np.array_equal(x @ q, self._rows(32))
        target = data._resonant_character_target(cf, 2, np.random.default_rng(33))
        self._assert_close(target(x), _synth_polar(cf, 2, 33, x))

    def test_pendulum(self, monkeypatch):
        targets = []
        monkeypatch.setattr(data, "_audit_invariance", lambda target, *args: targets.append(target))
        data.double_pendulum_task(10, 0.0, seed=34)
        x = self._rows(35)
        self._assert_close(targets[0](x), _pendulum_polar(x))


class TestAudit:
    CF = data.make_random_generator(4, seed=36, kind="rational")

    def test_passes_an_invariant_target_and_raises_on_another(self):
        gen = assemble_generator(self.CF)
        radius = lambda x: np.sum((x @ self.CF.q)[:, :2] ** 2, axis=1)  # noqa: E731
        assert data._audit_invariance(radius, gen, 4, np.random.default_rng(37)) <= data.AUDIT_TOL
        with pytest.raises(RuntimeError, match="generated target is not invariant"):
            data._audit_invariance(lambda x: x[:, 0], gen, 4, np.random.default_rng(37))

    def test_moves_each_row_by_its_own_flow_time(self):
        gen = assemble_generator(self.CF)
        seen = []
        data._audit_invariance(lambda x: seen.append(x) or np.zeros(len(x)), gen, 4,
                               np.random.default_rng(38))
        rng = np.random.default_rng(38)
        xs = rng.standard_normal((data.AUDIT_PAIRS, 4))
        ts = rng.uniform(-np.pi, np.pi, size=data.AUDIT_PAIRS)
        moved = [matrix_exp(gen, t) @ x for x, t in zip(xs, ts)]
        np.testing.assert_allclose(seen[0], moved, rtol=0, atol=1e-13)
        assert np.array_equal(seen[1], xs)


class TestSerialization:
    def test_roundtrip_bit_exact(self, tmp_path):
        cf = data.make_random_generator(4, seed=21, kind="rational")
        ds = data.synth_invariant_regression(cf, 120, 0.1, seed=22)
        path = tmp_path / "ds.jsonl"
        data.save_dataset(ds, path)
        back = data.load_dataset(path)
        _assert_same_dataset(back, ds)

    def test_cut_dataset_saves_and_loads_its_own_row_count(self, tmp_path):
        ds = data.double_pendulum_task(100, 0.1, seed=23)
        cut = dataclasses.replace(ds, x=ds.x[:10], y=ds.y[:10])
        path = tmp_path / "cut.jsonl"
        data.save_dataset(cut, path)
        back = data.load_dataset(path)
        assert len(back) == 10
        _assert_same_dataset(back, cut)

    def test_file_format_is_the_documented_lines(self, tmp_path):
        ds = data.Dataset(
            np.array([[0.5, -1.25], [2.0, 1e-07]]), np.array([[3.0], [-0.75]]), "pinned", 0.25, 7,
            true_generator=Generator(np.array([[0.0, -0.5], [0.5, 0.0]])), true_rates=np.ones(1),
        )
        path = tmp_path / "pinned.jsonl"
        data.save_dataset(ds, path)
        assert path.read_text().split("\n") == [
            '{"meta": {"task": "pinned", "n": 2, "outDim": 1, "nSamples": 2, "noiseSigma": 0.25, '
            '"seed": 7, "trueGenerator": {"n": 2, "entries": [[0.0, -0.5], [0.5, 0.0]]}, '
            '"trueLambda": [1.0], "outputKind": "regression"}}',
            '{"x": [0.5, -1.25], "y": [3.0]}',
            '{"x": [2.0, 1e-07], "y": [-0.75]}',
            "",
        ]

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

    @pytest.mark.parametrize("line, value", [
        ('{"x": ["1.5", true], "y": [" 2 "]}', "'1.5'"),
        ('{"x": [1.5, true], "y": [2]}', "True"),
        ('{"x": [1.5, 1], "y": [" 2 "]}', "' 2 '"),
    ])
    def test_value_that_is_not_a_json_number_reports_lineno(self, tmp_path, line, value):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"meta": {"task": "t", "n": 2, "outDim": 1, "nSamples": 2, '
                        f'"noiseSigma": 0, "seed": 0}}}}\n{{"x": [0.5, 1], "y": [2]}}\n{line}\n')
        with pytest.raises(ValueError) as err:
            data.load_dataset(path)
        assert str(err.value) == f"{path}: line 3: sample value {value} is not a number"

    def test_header_dimension_mismatch_names_file(self, tmp_path):
        cf = data.make_random_generator(4, seed=25)
        ds = data.synth_invariant_regression(cf, 8, 0.1, seed=26)
        path = tmp_path / "ds.jsonl"
        data.save_dataset(ds, path)
        lines = path.read_text().split("\n")
        header = json.loads(lines[0])
        # without the generator, whose n=4 the header check would refuse first
        header["meta"].update(n=6, trueGenerator=None)
        lines[0] = json.dumps(header)
        path.write_text("\n".join(lines))
        with pytest.raises(ValueError, match=r"ds\.jsonl: samples have 4 inputs .* n=6"):
            data.load_dataset(path)

    @pytest.mark.parametrize("rows", [4, 6])
    def test_row_count_must_match_header(self, tmp_path, rows):
        ds = data.double_pendulum_task(5, 0.1, seed=27)
        path = tmp_path / "ds.jsonl"
        data.save_dataset(ds, path)
        lines = path.read_text().strip().split("\n")
        lines = lines[:rows + 1] if rows < 5 else lines + lines[-1:] + [""]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=rf"ds\.jsonl: {rows} samples, .*nSamples=5"):
            data.load_dataset(path)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("field", ["x", "y"])
    def test_save_rejects_nonfinite_before_writing(self, tmp_path, bad, field):
        ds = data.double_pendulum_task(5, 0.1, seed=28)
        getattr(ds, field)[2, 0] = bad
        path = tmp_path / "ds.jsonl"
        with pytest.raises(ValueError, match=r"ds\.jsonl: non-finite"):
            data.save_dataset(ds, path)
        assert not path.exists()

    def test_load_holds_no_rows_beyond_the_arrays(self, tmp_path):
        ds = data.double_pendulum_task(20000, 0.1, seed=29)
        path = tmp_path / "ds.jsonl"
        data.save_dataset(ds, path)
        back, peak = traced_peak(data.load_dataset, path)
        assert np.array_equal(back.x, ds.x) and np.array_equal(back.y, ds.y)
        assert peak < 2 * (back.x.nbytes + back.y.nbytes)

    @pytest.mark.parametrize("key, value, found", [
        ("trueGenerator", {"n": 4, "entries": [[0.0] * 4] * 4},
         "trueGenerator has n=4, the header has n=6"),
        ("noiseSigma", -0.5, "noiseSigma: noise sigma must be finite and nonnegative, got -0.5"),
    ], ids=["generator-size", "negative-sigma"])
    def test_header_rule_is_checked_before_any_row(self, tmp_path, monkeypatch, key, value, found):
        path = tmp_path / "ds.jsonl"
        data.save_dataset(data.double_pendulum_task(200, 0.1, seed=31), path)
        header, rows = path.read_text().split("\n", 1)
        doc = json.loads(header)
        doc["meta"][key] = value
        path.write_text(json.dumps(doc) + "\n" + rows)
        runs, run_in_order = [], pool_mod.run_in_order

        def spy(*args):
            runs.append(args)
            return run_in_order(*args)

        monkeypatch.setattr(pool_mod, "run_in_order", spy)
        with pytest.raises(ValueError) as err:
            data.load_dataset(path)
        assert str(err.value) == f"{path}: line 1: meta header {found}"
        assert runs == []

    def test_missing_header_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"x": [1, 2], "y": [0.5]}\n')
        with pytest.raises(ValueError, match="meta"):
            data.load_dataset(path)


def _assert_same_dataset(a, b):
    """`a` and `b` hold the same arrays and header fields, bit for bit."""
    for field in dataclasses.fields(data.Dataset):
        va, vb = getattr(a, field.name), getattr(b, field.name)
        if isinstance(va, Generator):
            va, vb = va.entries, vb.entries
        if isinstance(va, np.ndarray):
            assert va.dtype == vb.dtype and np.array_equal(va, vb), field.name
        else:
            assert type(va) is type(vb) and va == vb, field.name


def _row(first):
    """A pendulum sample line whose first input is the text `first`."""
    return '{"x": [%s, 0.5, -1.25, 2.0, 0.0, 3.5], "y": [0.75]}' % first


# Problems a sample line can have, and the line that has each, for
# test_the_first_problem_in_file_order_is_reported; a row beyond nSamples
# is made by lowering the header's count.
_PROBLEMS = {
    "malformed JSON": "{not json}",
    "row width": '{"x": [1.0, 2.0], "y": [0.5]}',
    "non-finite value": _row("NaN"),
    "int too large": _row("1" * 400),
    "row beyond nSamples": None,
}


def _bits(a):
    """`a`'s values as integers, so -0.0 and 0.0 differ."""
    return a.view(np.uint64)


def _oracle_bytes(ds):
    """The file save_dataset writes, one json.dumps per row."""
    gen, rates = ds.true_generator, ds.true_rates
    meta = {"task": ds.task, "n": ds.x.shape[1], "outDim": ds.y.shape[1], "nSamples": len(ds),
            "noiseSigma": ds.noise_sigma, "seed": ds.seed,
            "trueGenerator": None if gen is None else {"n": gen.n, "entries": gen.entries.tolist()},
            "trueLambda": None if rates is None else rates.tolist(), "outputKind": ds.output_kind}
    lines = [json.dumps({"meta": meta})]
    lines += [json.dumps({"x": ds.x[i].tolist(), "y": ds.y[i].tolist()}) for i in range(len(ds))]
    return ("\n".join(lines) + "\n").encode()


@pytest.fixture
def pools(monkeypatch):
    """The worker counts of the pools created while the test runs."""
    made = []

    class Recording(pool_mod.ProcessPoolExecutor):
        def __init__(self, workers, *args, **kwargs):
            made.append(workers)
            super().__init__(workers, *args, **kwargs)

    monkeypatch.setattr(pool_mod, "ProcessPoolExecutor", Recording)
    return made


_worker_count = pool_mod.worker_count


def _assert_pools(pools, count):
    """`count` pools of more than one worker were made, if this machine
    pools at all."""
    assert len(pools) == (count if _worker_count(2) > 1 else 0)
    assert all(workers > 1 for workers in pools)


def _pool_if(monkeypatch, pooled):
    """Size every job's pool by `pool.worker_count` if `pooled`, else keep
    every job in-process."""
    monkeypatch.setattr(pool_mod, "worker_count", _worker_count if pooled else lambda tasks: 1)


@pytest.fixture(scope="module")
def big_file(tmp_path_factory):
    """A pendulum file of several save and load chunks, as lines."""
    ds = data.double_pendulum_task(3000, 0.1, seed=30)
    path = tmp_path_factory.mktemp("big") / "big.jsonl"
    data.save_dataset(ds, path)
    return path.read_text().split("\n")


def _load_message(monkeypatch, path, pools, pooled):
    """load_dataset's error for `path`, through the pool or in-process."""
    _pool_if(monkeypatch, pooled)
    pools.clear()
    with pytest.raises(ValueError) as err:
        data.load_dataset(path)
    _assert_pools(pools, 1 if pooled else 0)
    return str(err.value)


_real_format_rows = data._format_rows


def _fail_on_second_chunk(ds, start, stop):
    if start > 0:
        raise RuntimeError("chunk failed")
    return _real_format_rows(ds, start, stop)


def _save_and_load(path):
    ds = data.double_pendulum_task(3000, 0.1, seed=35)
    data.save_dataset(ds, path)
    back = data.load_dataset(path)
    return np.array_equal(back.x, ds.x) and np.array_equal(back.y, ds.y)


class TestChunkedIO:
    @pytest.mark.parametrize("task", ["pendulum6d", "synth-cls"])
    def test_pooled_save_writes_the_per_row_bytes(self, tmp_path, pools, task):
        rows = 3123
        if task == "pendulum6d":
            ds = data.double_pendulum_task(rows, 0.1, seed=31)
        else:
            cf = data.make_random_generator(8, seed=32, kind="rational")
            ds = data.synth_invariant_classification(cf, rows, 0.1, seed=33)
        path = tmp_path / "ds.jsonl"
        data.save_dataset(ds, path)
        _assert_pools(pools, 1)
        assert path.read_bytes() == _oracle_bytes(ds)
        back = data.load_dataset(path)
        assert np.array_equal(back.x, ds.x) and np.array_equal(back.y, ds.y)
        _assert_pools(pools, 2)

    def test_small_files_stay_in_process(self, tmp_path, pools):
        rows = data.SAVE_CHUNK_VALUES // 7  # the pendulum rows of one save chunk
        path = tmp_path / "ds.jsonl"
        for count, made in ((rows, 0), (rows + 1, 1)):  # one more row is a second save chunk
            ds = data.double_pendulum_task(count, 0.1, seed=34)
            data.save_dataset(ds, path)
            assert path.read_bytes() == _oracle_bytes(ds)
            assert path.stat().st_size < data.LOAD_CHUNK_BYTES  # one load chunk
            assert np.array_equal(data.load_dataset(path).x, ds.x)
            _assert_pools(pools, made)

    def test_pool_worker_saves_and_loads_in_process(self, tmp_path, monkeypatch):
        def no_pool(*args, **kwargs):
            raise AssertionError("a pool was created")

        with pool_mod.worker_pool(1) as pool:
            monkeypatch.setattr(pool_mod, "ProcessPoolExecutor", no_pool)  # forked into the worker
            assert pool.submit(_save_and_load, tmp_path / "ds.jsonl").result()

    @pytest.mark.parametrize(
        "bad, found",
        [
            ("{not json}", "invalid JSON (Expecting property name"),
            ('{"x": [1.0, 2.0], "y": [0.5]}', "samples have 2 inputs and 1 outputs"),
            ("nan", "non-finite value in x or y"),
            (_row("1" * 400), "int too large to convert to float"),
            (_row("1e400"), "non-finite value in x or y"),
            # numbers the sample lines' skeleton lets through and json rejects
            *[(_row(token), "invalid JSON (")
              for token in ("01", "1.", ".5", "+1", "-", "1e", "1.2.3", "")],
        ],
    )
    def test_last_chunk_errors_match_in_process(self, tmp_path, monkeypatch, pools, big_file,
                                                bad, found):
        lines = list(big_file)
        last = len(lines) - 1  # lines[-1] is the empty string after the final newline
        if bad == "nan":
            sample = json.loads(lines[last - 1])
            sample["x"][3] = float("nan")
            bad = json.dumps(sample)
        lines[last - 1] = bad
        path = tmp_path / "bad.jsonl"
        path.write_text("\n".join(lines))
        pooled = _load_message(monkeypatch, path, pools, pooled=True)
        assert pooled == _load_message(monkeypatch, path, pools, pooled=False)
        assert found in pooled and f"line {last}" in pooled and pooled.startswith(f"{path}: ")
        if found == "invalid JSON (":  # the message per-line json.loads gives
            with pytest.raises(json.JSONDecodeError) as oracle:
                json.loads(bad)
            assert pooled == f"{path}: line {last}: invalid JSON ({oracle.value})"

    @pytest.mark.parametrize("pooled", [False, True])
    def test_extreme_values_round_trip_bit_for_bit(self, tmp_path, monkeypatch, pools, pooled):
        ds = data.double_pendulum_task(3000, 0.1, seed=40)
        rng = np.random.default_rng(41)
        extremes = [-0.0, 5e-324, 1e-05, 9.999e-05, 0.0001, 1e16, 1.7976931348623157e308]
        extremes += [-v for v in extremes]
        for field in (ds.x, ds.y):
            where = rng.random(field.shape) < 0.3
            field[where] = rng.choice(extremes, size=where.sum())
        _pool_if(monkeypatch, pooled)
        path = tmp_path / "ds.jsonl"
        data.save_dataset(ds, path)
        assert path.read_bytes() == _oracle_bytes(ds)
        back = data.load_dataset(path)
        assert np.array_equal(_bits(back.x), _bits(ds.x))
        assert np.array_equal(_bits(back.y), _bits(ds.y))
        _assert_pools(pools, 2 if pooled else 0)

    def test_numbers_inside_the_structure_get_the_per_line_message(self, tmp_path):
        # one chunk whose structure holds the right characters in the right
        # order, but whose first and last lines would parse as one object
        ds = data.double_pendulum_task(3, 0.1, seed=42)
        path = tmp_path / "ds.jsonl"
        data.save_dataset(ds, path)
        lines = path.read_text().split("\n")
        lines[1], lines[3] = "1234567" + lines[1], lines[3] + "12"
        path.write_text("\n".join(lines))
        with pytest.raises(json.JSONDecodeError) as oracle:
            json.loads(lines[1])
        with pytest.raises(ValueError) as err:
            data.load_dataset(path)
        assert str(err.value) == f"{path}: line 2: invalid JSON ({oracle.value})"

    @pytest.mark.parametrize("pooled", [False, True])
    def test_other_valid_lines_load_as_per_line_json(self, tmp_path, monkeypatch, pools,
                                                     big_file, pooled):
        lines = list(big_file)
        middle, last = len(lines) // 2, len(lines) - 2
        lines[2] = _row("1E5").replace("2.0", "3")  # an integer
        lines[middle] = lines[middle] + "\r"
        lines[middle + 1] = lines[middle + 1].replace(", ", " ,  ").replace(": ", ":")
        sample = json.loads(lines[middle + 2])
        lines[middle + 2] = json.dumps({"y": sample["y"], "x": sample["x"]})
        lines[last] = "\r\n".join([lines[last], "", "  "])  # blank lines after a row
        path = tmp_path / "other.jsonl"
        path.write_text("\n".join(lines))
        samples = [json.loads(line) for line in "\n".join(lines[1:]).split("\n") if line.strip()]
        _pool_if(monkeypatch, pooled)
        back = data.load_dataset(path)
        assert np.array_equal(_bits(back.x), _bits(np.array([s["x"] for s in samples])))
        assert np.array_equal(_bits(back.y), _bits(np.array([s["y"] for s in samples])))
        _assert_pools(pools, 1 if pooled else 0)

    @pytest.mark.parametrize("extra", ["row", "bad row", "bad line after"])
    def test_more_rows_than_header_match_in_process(self, tmp_path, monkeypatch, pools,
                                                    big_file, extra):
        lines = list(big_file)
        declared = len(lines) - 3
        header = json.loads(lines[0])
        header["meta"]["nSamples"] = declared
        lines[0] = json.dumps(header)
        if extra == "bad row":  # the row beyond the declared count is itself malformed
            lines[-2] = "{not json}"
        elif extra == "bad line after":
            lines[-1:-1] = ["  ", "{not json}"]
        path = tmp_path / "over.jsonl"
        path.write_text("\n".join(lines))
        pooled = _load_message(monkeypatch, path, pools, pooled=True)
        assert pooled == _load_message(monkeypatch, path, pools, pooled=False)
        rows = declared + (2 if extra == "bad line after" else 1)
        assert pooled == f"{path}: {rows} samples, meta header declares nSamples={declared}"

    def test_fewer_rows_than_header_match_in_process(self, tmp_path, monkeypatch, pools,
                                                     big_file):
        lines = list(big_file)
        rows = len(lines) - 2
        header = json.loads(lines[0])
        header["meta"]["nSamples"] = rows + 1
        lines[0] = json.dumps(header)
        path = tmp_path / "under.jsonl"
        path.write_text("\n".join(lines))
        pooled = _load_message(monkeypatch, path, pools, pooled=True)
        assert pooled == _load_message(monkeypatch, path, pools, pooled=False)
        assert pooled == f"{path}: {rows} samples, meta header declares nSamples={rows + 1}"

    @pytest.mark.parametrize("pooled", [False, True])
    @pytest.mark.parametrize("at", [(3, 7), (5, 36)])
    @pytest.mark.parametrize("first, second", itertools.permutations(_PROBLEMS, 2))
    def test_the_first_problem_in_file_order_is_reported(self, tmp_path, monkeypatch, pools,
                                                         first, second, at, pooled):
        monkeypatch.setattr(data, "LOAD_CHUNK_BYTES", 1024)  # about seven pendulum rows a range
        path = tmp_path / "ds.jsonl"
        data.save_dataset(data.double_pendulum_task(40, 0.1, seed=44), path)
        lines = path.read_text().split("\n")
        for problem, lineno in zip((first, second), at):
            if problem == "row beyond nSamples":
                header = json.loads(lines[0])
                header["meta"]["nSamples"] = lineno - 2
                lines[0] = json.dumps(header)
            else:
                lines[lineno - 1] = _PROBLEMS[problem]
        path.write_text("\n".join(lines))
        expected = {
            "malformed JSON": f"{path}: line {at[0]}: invalid JSON (",
            "row width": f"{path}: samples have 2 inputs and 1 outputs, "
                         f"meta declares n=6 and out_dim=1 (line {at[0]})",
            "non-finite value": f"{path}: line {at[0]}: non-finite value in x or y",
            "int too large": f"{path}: line {at[0]}: int too large to convert to float",
            "row beyond nSamples": f"{path}: 40 samples, meta header declares nSamples={at[0] - 2}",
        }[first]
        message = _load_message(monkeypatch, path, pools, pooled)
        assert message.startswith(expected)
        assert first == "malformed JSON" or message == expected

    @pytest.mark.parametrize("pooled", [False, True])
    def test_failed_save_leaves_the_old_file(self, tmp_path, monkeypatch, pools, pooled):
        path = tmp_path / "ds.jsonl"
        path.write_text("the old file\n")
        monkeypatch.setattr(data, "SAVE_CHUNK_VALUES", 7 * 10)  # ten pendulum rows a chunk
        monkeypatch.setattr(data, "_format_rows", _fail_on_second_chunk)
        _pool_if(monkeypatch, pooled)
        with pytest.raises(RuntimeError, match="chunk failed"):
            data.save_dataset(data.double_pendulum_task(50, 0.1, seed=36), path)
        assert path.read_text() == "the old file\n"
        assert os.listdir(tmp_path) == ["ds.jsonl"]
        _assert_pools(pools, 1 if pooled else 0)


def _save_dataset(path):
    """Save a small dataset to `path`; the bytes it should write."""
    ds = data.double_pendulum_task(20, 0.1, seed=37)
    data.save_dataset(ds, path)
    return _oracle_bytes(ds)


def _save_checkpoint(path):
    """Save a small checkpoint to `path`; the bytes it should write, one
    json.dumps of the layout README "Checkpoints" gives."""
    params, config = model.init_params(4, 1, hidden=8, seed=38), {"seed": 38}
    model.save_checkpoint(params, path, config=config)
    layers = [{"weight": w.tolist(), "bias": b.tolist()} for w, b in params.layers]
    doc = {"n": 4, "bandwidth": 1, "frequencies": primitive_set(1, 2).astype(int).tolist(),
           "skewParams": params.skew.tolist(), "lambda": params.rates.tolist(), "layers": layers,
           "lossKind": "squared-error", "reflected": False, "config": config}
    return (json.dumps(doc) + "\n").encode()


@pytest.mark.parametrize("save", [_save_dataset, _save_checkpoint], ids=lambda f: f.__name__[1:])
class TestOutputFiles:
    """Every writer goes through fields.write: a temporary file renamed over
    the target, or the target itself when it is a pipe or device."""

    def test_save_through_a_link_replaces_its_target(self, tmp_path, save):
        (tmp_path / "real.json").write_text("the old file\n")
        (tmp_path / "link.json").symlink_to("real.json")
        expected = save(tmp_path / "link.json")
        assert (tmp_path / "link.json").is_symlink()
        assert (tmp_path / "real.json").read_bytes() == expected
        assert sorted(os.listdir(tmp_path)) == ["link.json", "real.json"]

    def test_save_to_a_pipe_writes_in_place(self, tmp_path, save):
        fifo = tmp_path / "fifo"
        os.mkfifo(fifo)
        reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)  # the file fits the pipe's buffer
        try:
            expected = save(fifo)
            assert os.read(reader, 1 << 16) == expected
        finally:
            os.close(reader)
        assert stat.S_ISFIFO(os.stat(fifo).st_mode)

    def test_save_into_a_missing_directory_names_the_path(self, tmp_path, save):
        path = tmp_path / "missing" / "out.json"
        with pytest.raises(FileNotFoundError) as err:
            save(path)
        assert err.value.filename == str(path)
        assert os.listdir(tmp_path) == []

    def test_save_to_a_directory_names_the_path(self, tmp_path, save):
        path = tmp_path / "folder"
        path.mkdir()
        with pytest.raises(IsADirectoryError) as err:
            save(path)
        assert err.value.filename == str(path)
        assert os.listdir(tmp_path) == ["folder"] and os.listdir(path) == []

    def test_failed_write_leaves_the_old_bytes(self, tmp_path, monkeypatch, save):
        write = fields.write

        def full_disk(path, pieces):
            def first_then_fail():
                yield next(iter(pieces))
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

            write(path, first_then_fail())

        monkeypatch.setattr(fields, "write", full_disk)
        path = tmp_path / "out.json"
        path.write_text("the old file\n")
        with pytest.raises(OSError, match="No space left"):
            save(path)
        assert path.read_text() == "the old file\n"
        assert os.listdir(tmp_path) == ["out.json"]


class TestClassification:
    def test_labels_binary_and_balanced(self):
        cf = data.make_random_generator(4, seed=24, kind="rational")
        ds = data.synth_invariant_classification(cf, 2000, 0.1, seed=25)
        assert set(np.unique(ds.y)) <= {0.0, 1.0}
        assert ds.output_kind == "binary"
        assert ds.task == "synth-cls"
        frac = float(np.mean(ds.y))
        assert 0.45 <= frac <= 0.55


@pytest.mark.parametrize("make", [
    lambda: data.double_pendulum_task(20, 0.1, 3),
    lambda: model.init_params(4, 1, seed=1),
    lambda: data.double_pendulum_task(20, 0.1, 3).true_generator,
    lambda: CanonicalForm(np.eye(4), np.array([1.0, -1.0]) / np.sqrt(2.0)),
], ids=["Dataset", "GeneratorParams", "Generator", "CanonicalForm"])
def test_value_types_holding_arrays_compare_by_identity(make):
    a, b = make(), make()
    assert a == a and a != b
    assert len({a, b}) == 2
