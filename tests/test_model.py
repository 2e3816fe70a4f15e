import json
import re

import numpy as np
import pytest

import sospec.model as model
from oracles import (
    fd_gradient,
    max_rel_error,
    reflected_predict,
    staged_objective,
    traced_peak,
)
from sospec import kernels, lattice, lie
from sospec.autodiff import Tape
from sospec.lattice import primitive_set
from sospec.lie import matrix_exp, skew_from_params


def hand_params(n, bandwidth, w1, hidden_layers, rates=None, skew=None):
    """GeneratorParams with explicit weights (hidden_layers: list of (w, b))."""
    return model.GeneratorParams(
        n=n,
        bandwidth=bandwidth,
        skew=np.zeros(n * (n - 1) // 2) if skew is None else skew,
        rates=np.ones(n // 2) / np.sqrt(n // 2) if rates is None else rates,
        layers=[(w1, np.zeros(w1.shape[1]))] + hidden_layers,
    )


def align_rows(params, x):
    """align_stage's value: the rows of x in the params' learned frame."""
    z, _ = model.align_stage(params.skew, x)
    return z


def features_of(params, x):
    """The cos, sin and radii slices of features_stage's value for one
    input vector."""
    feats, _ = model.features_stage(align_rows(params, x[None]), params.freq)
    f = params.num_freqs
    return feats[0, :f], feats[0, f : 2 * f], feats[0, 2 * f :]


class TestAlign:
    def test_zero_skew_is_identity(self):
        params = model.init_params(4, 1, seed=0)
        params.skew[:] = 0.0
        x = np.array([0.3, -1.2, 0.5, 2.0])
        assert np.array_equal(align_rows(params, x[None])[0], x)

    def test_isometry(self):
        rng = np.random.default_rng(1)
        params = model.init_params(6, 1, seed=2)
        for _ in range(20):
            x = rng.normal(size=6)
            z = align_rows(params, x[None])[0]
            assert abs(np.linalg.norm(z) - np.linalg.norm(x)) <= 1e-9

    def test_planar_quarter_turn_convention(self):
        # A = (pi/2) * unit skew; alignment applies Q^T, so (1,0) -> (0,-1).
        params = model.init_params(2, 1, seed=0)
        params.skew = np.array([np.pi / 2])
        out = align_rows(params, np.array([[1.0, 0.0]]))[0]
        assert np.allclose(out, [0.0, -1.0], atol=1e-12)

    def test_batch_matches_single(self):
        rng = np.random.default_rng(3)
        params = model.init_params(4, 1, seed=4)
        xs = rng.normal(size=(5, 4))
        batch = align_rows(params, xs)
        for i in range(5):
            assert np.allclose(batch[i], align_rows(params, xs[i][None])[0], atol=1e-15)


class TestExpSkewOnTape:
    def test_primal_matches_plain_matrix_exp(self):
        rng = np.random.default_rng(5)
        for n in (2, 4, 6):
            skew = rng.normal(size=n * (n - 1) // 2)
            x = rng.normal(size=(7, n))
            z, _ = model.align_stage(skew, x)
            assert np.array_equal(z, x @ matrix_exp(skew_from_params(skew, n), 1.0))

    @staticmethod
    def _vjp_error(skew, n, rng):
        """align_stage's VJP against central differences, for a random
        weighted sum of its rows."""
        x = rng.normal(size=(5, n))
        weights = rng.normal(size=(5, n))

        def value(arrays):
            z, _ = model.align_stage(arrays[0], x)
            return float(np.sum(weights * z))

        _, vjp = model.align_stage(skew, x)
        return max_rel_error(list(vjp(weights)), fd_gradient(value, [skew.copy()]))

    def test_gradient_checks(self):
        # large skews
        rng = np.random.default_rng(6)
        for n in (4, 6):
            skew = rng.normal(size=n * (n - 1) // 2)
            assert np.linalg.norm(skew_from_params(skew, n)) > 1.0
            assert self._vjp_error(skew, n, rng) <= 1e-6

    @pytest.mark.parametrize("rates", [[0.0, 0.0, 0.0], [1.0, 1.0, 1.0]])
    def test_gradient_checks_at_equal_eigenvalues(self, rates):
        # A = 0, and pendulum's equal rates: the eigenvalues of iA repeat
        a = lie.block_diag_rates(rates)
        rows, cols = lie.skew_indices(6)
        skew = a[cols, rows]
        assert np.array_equal(skew_from_params(skew, 6), a)
        assert self._vjp_error(skew, 6, np.random.default_rng(7)) <= 1e-6

    def test_unknown_loss_rejected(self):
        with pytest.raises(ValueError):
            model.loss_stage(np.zeros((2, 1)), np.zeros((2, 1)), "hinge")


class TestFeaturize:
    def test_unit_circle(self):
        rng = np.random.default_rng(7)
        params = model.init_params(6, 2, seed=8)
        for _ in range(10):
            cos, sin, _ = features_of(params, rng.normal(size=6))
            assert np.all(np.abs(cos**2 + sin**2 - 1.0) <= 1e-12)

    def test_positive_real_blocks(self):
        params = model.init_params(4, 1, seed=9)
        params.skew[:] = 0.0
        cos, sin, radii = features_of(params, np.array([2.0, 0.0, 0.5, 0.0]))
        assert np.allclose(cos, 1.0, atol=1e-15)
        assert np.allclose(sin, 0.0, atol=1e-15)
        assert np.allclose(radii, [2.0, 0.5], atol=1e-15)

    def test_resonant_features_invariant_under_true_flow(self):
        params = model.init_params(4, 1, seed=10)
        params.skew[:] = 0.0
        rates = np.array([1.0, -1.0]) / np.sqrt(2.0)
        gen = lie.assemble_generator(lie.CanonicalForm(np.eye(4), rates))
        rng = np.random.default_rng(11)
        idx = params.freq.tolist().index([1, 1])  # resonant ray
        for _ in range(20):
            x = rng.normal(size=4)
            t = rng.uniform(-np.pi, np.pi)
            cos0, sin0, radii0 = features_of(params, x)
            cos1, sin1, radii1 = features_of(params, matrix_exp(gen, t) @ x)
            assert abs(cos0[idx] - cos1[idx]) <= 1e-9
            assert abs(sin0[idx] - sin1[idx]) <= 1e-9
            assert np.all(np.abs(radii0 - radii1) <= 1e-9)

    def test_value_is_the_kernels_blocks_side_by_side(self):
        z = np.random.default_rng(16).normal(size=(33, 6))
        freq = model.init_params(6, 2, seed=17).freq
        feats, _ = model.features_stage(z, freq)
        # torus_fwd's columns into a buffer of their own, then the radii.
        radii, unit = kernels.block_polar_fwd(z)
        chars = np.empty((len(z), 2 * len(freq)))
        kernels.torus_fwd(unit, freq, chars)
        expected = np.concatenate([chars, radii], axis=1)
        assert feats.tobytes() == expected.tobytes()


class TestPredict:
    def test_zero_weights_gives_output_bias(self):
        params = model.init_params(4, 1, out_dim=2, seed=12)
        for w, b in params.layers:
            w[:] = 0.0
            b[:] = 0.0
        params.layers[-1][1][:] = np.array([0.7, -0.2])
        rng = np.random.default_rng(13)
        out = model.predict(params, rng.normal(size=(6, 4)))
        assert np.allclose(out, np.array([0.7, -0.2]), atol=1e-15)

    def test_hand_built_single_path(self):
        # n=2, one frequency: features are [cos, sin, r]; x=(1,0) gives [1,0,1].
        w1 = np.array([[2.0], [0.0], [1.0]])
        hidden = [
            (np.array([[-1.0]]), np.array([1.0])),
            (np.array([[1.5]]), np.array([0.25])),
            (np.array([[2.0]]), np.array([-0.1])),
        ]
        params = hand_params(2, 1, w1, hidden, rates=np.array([1.0]))
        params.layers[0] = (w1, np.array([0.5]))
        # relu(2*1 + 1*1 + 0.5)=3.5; relu(-3.5+1)=0; relu(0+0.25)=0.25; 2*0.25-0.1
        assert model.predict(params, np.array([1.0, 0.0])) == pytest.approx([0.4], abs=1e-12)

    def test_frequency_relabeling_invariance(self):
        # Permuting the frequency rows together with the first layer's cos
        # and sin rows leaves the first dense stage's output unchanged.
        params = model.init_params(4, 1, seed=14)
        z = align_rows(params, np.random.default_rng(15).normal(size=(8, 4)))
        freq = params.freq
        f = freq.shape[0]
        perm = np.roll(np.arange(f), 1)
        w, b = params.layers[0]
        w_perm = w[np.concatenate([perm, f + perm, np.arange(2 * f, w.shape[0])])]
        base = model.dense_stage(model.features_stage(z, freq)[0], w, b, True)[0]
        moved = model.dense_stage(model.features_stage(z, freq[perm])[0], w_perm, b, True)[0]
        assert np.allclose(moved, base, atol=1e-12)

    def test_holds_one_stage_at_a_time(self):
        # Each stage's input is freed once its output exists, so the peak
        # stays below two copies of the widest array, the features.
        params = model.init_params(6, 2, seed=18)
        x = np.random.default_rng(19).normal(size=(6400, 6))
        out, peak = traced_peak(model.predict, params, x)
        assert out.shape == (6400, 1)
        assert peak < 2 * x.shape[0] * params.feature_dim * 8


class TestCoefficientNorms:
    def test_zero_first_layer(self):
        params = model.init_params(4, 1, seed=16)
        params.layers[0][0][:] = 0.0
        assert np.all(model.coefficient_norms(params) == 0.0)

    def test_single_weight(self):
        params = model.init_params(4, 1, seed=17)
        params.layers[0][0][:] = 0.0
        idx = params.freq.tolist().index([1, 1])
        params.layers[0][0][idx, 2] = 3.0  # cos channel
        norms = model.coefficient_norms(params)
        assert norms.shape == (params.num_freqs,)
        assert norms[idx] == pytest.approx(3.0, abs=1e-15)
        assert np.count_nonzero(norms) == 1

    def test_pythagorean_pair(self):
        w1 = np.zeros((3, 1))
        w1[0, 0] = 3.0  # cos channel of the only frequency
        w1[1, 0] = 4.0  # sin channel
        hidden = [(np.zeros((1, 1)), np.zeros(1))] * 3
        params = hand_params(2, 1, w1, [(w.copy(), b.copy()) for w, b in hidden])
        norms = model.coefficient_norms(params)
        assert norms[params.freq.tolist().index([1])] == pytest.approx(5.0, abs=1e-12)


class TestResonancePenalty:
    def test_resonant_mass_is_free(self):
        params = model.init_params(4, 1, seed=18)
        params.rates = np.array([1.0, -1.0]) / np.sqrt(2.0)
        params.layers[0][0][:] = 0.0
        idx = params.freq.tolist().index([1, 1])
        params.layers[0][0][idx, :] = 1.3
        assert model.resonance_penalty(params) == 0.0

    def test_single_term_value(self):
        params = model.init_params(4, 1, seed=19)
        params.rates = np.array([1.0, 0.0])
        params.layers[0][0][:] = 0.0
        idx = params.freq.tolist().index([1, 0])
        params.layers[0][0][idx, 0] = 2.0
        # (C * <m, rates>)^2 = (2 * 1)^2
        assert model.resonance_penalty(params) == pytest.approx(4.0, abs=1e-15)

    def test_zero_coefficients(self):
        params = model.init_params(6, 1, seed=20)
        params.layers[0][0][:] = 0.0
        assert model.resonance_penalty(params) == 0.0

    def test_tape_penalty_equals_numpy_penalty(self):
        params = model.init_params(4, 2, seed=21)
        tape = Tape()
        _, _, penalty, _ = model.build_objective(
            tape, params, np.random.default_rng(0).normal(size=(4, 4)), np.zeros((4, 1)), mu=1.0
        )
        assert float(penalty.value) == model.resonance_penalty(params)


class TestInvarianceCertificate:
    def test_resonant_only_model_is_invariant(self):
        # True frame, first-layer mass only on the resonant ray and radii:
        # the architecture is then invariant under the true subgroup flow.
        rng = np.random.default_rng(22)
        params = model.init_params(4, 1, seed=23)
        params.skew[:] = 0.0
        rates = np.array([1.0, -1.0]) / np.sqrt(2.0)
        params.rates = rates.copy()
        gen = lie.assemble_generator(lie.CanonicalForm(np.eye(4), rates))
        f = params.num_freqs
        w1 = params.layers[0][0]
        w1[:] = 0.0
        idx = params.freq.tolist().index([1, 1])
        w1[idx, :] = rng.normal(size=w1.shape[1])
        w1[f + idx, :] = rng.normal(size=w1.shape[1])
        w1[2 * f :, :] = rng.normal(size=(params.r, w1.shape[1]))
        assert model.resonance_penalty(params) <= 1e-24
        for _ in range(100):
            x = rng.normal(size=4)
            t = rng.uniform(-np.pi, np.pi)
            moved = matrix_exp(gen, t) @ x
            delta = model.predict(params, moved) - model.predict(params, x)
            assert np.all(np.abs(delta) <= 1e-9)


class TestObjectiveGradients:
    def _gradcheck_objective(self, n, bandwidth, seed, samples=5, tol=1e-4):
        from oracles import generic_objective_case

        rng = np.random.default_rng(seed)
        base, x, y, _ = generic_objective_case(n, bandwidth, rng, hidden=8, samples=samples)
        names = ["skew", "rates"] + [
            f"{kind}{i}" for i in range(len(base.layers)) for kind in ("w", "b")
        ]

        def rebuild(arrays):
            p = base.copy()
            p.skew = arrays[0]
            p.rates = arrays[1]
            p.layers = [
                (arrays[2 + 2 * i], arrays[3 + 2 * i]) for i in range(len(base.layers))
            ]
            return p

        def value(arrays):
            tape = Tape()
            obj, _, _, _ = model.build_objective(tape, rebuild(arrays), x, y, mu=0.1)
            return float(obj.value)

        arrays = [base.skew.copy(), base.rates.copy()]
        for w, b in base.layers:
            arrays.extend([w.copy(), b.copy()])
        tape = Tape()
        obj, _, _, leaves = model.build_objective(tape, rebuild(arrays), x, y, mu=0.1)
        tape.backward(obj)
        ad = [leaves[name].grad for name in names]
        fd = fd_gradient(value, arrays)
        return max_rel_error(ad, fd)

    def test_full_objective_micro_model(self):
        assert self._gradcheck_objective(4, 1, seed=24, samples=5) <= 1e-4

    def test_full_objective_logistic(self):
        from oracles import generic_objective_case

        rng = np.random.default_rng(25)
        params, x, _, _ = generic_objective_case(4, 1, rng, hidden=8, samples=6)
        params.loss_kind = "logistic"
        y = rng.integers(0, 2, size=(6, 1)).astype(np.float64)

        def value(arrays):
            p = params.copy()
            p.skew = arrays[0]
            tape = Tape()
            obj, _, _, _ = model.build_objective(tape, p, x, y, mu=0.05)
            return float(obj.value)

        tape = Tape()
        obj, _, _, leaves = model.build_objective(tape, params, x, y, mu=0.05)
        tape.backward(obj)
        fd = fd_gradient(value, [params.skew.copy()])
        assert max_rel_error([leaves["skew"].grad], fd) <= 1e-4


def _fused_case(case, rng):
    """An objective case for the fused-versus-staged comparison. Cases cycle
    through both orientation starts, both losses, mu = 0, batch 1 and large
    skews."""
    n, bandwidth = [(4, 1), (4, 2), (6, 1), (6, 2)][case % 4]
    params = model.init_params(
        n, bandwidth, hidden=8, seed=rng, first_layer_scale=1.0, reflected=bool(case % 2)
    )
    params.skew *= [1.0, 10.0, 40.0][case % 3]
    for _, b in params.layers:
        b += rng.normal(scale=0.1, size=b.shape)
    batch = [1, 7, 64][(case // 2) % 3]
    x = rng.normal(size=(batch, n))
    logistic = case % 5 == 4
    if logistic:
        params.loss_kind = "logistic"
        y = rng.integers(0, 2, size=(batch, 1)).astype(np.float64)
    else:
        y = rng.normal(size=(batch, 1))
    mu = 0.0 if case % 7 == 3 else float(rng.uniform(0.05, 2.0))
    return params, x, y, mu


class TestFusedObjective:
    def test_records_one_entry(self):
        class CountingTape(Tape):
            entries = 0

            def record(self, *args):
                self.entries += 1
                return super().record(*args)

        params, x, y, mu = _fused_case(0, np.random.default_rng(50))
        tape = CountingTape()
        objective, _, _, _ = model.build_objective(tape, params, x, y, mu)
        assert tape.entries == 1
        tape.backward(objective)

    def test_matches_the_staged_tape_byte_for_byte(self):
        rng = np.random.default_rng(51)
        skew_norms = []
        for case in range(60):
            params, x, y, mu = _fused_case(case, rng)
            skew_norms.append(np.linalg.norm(skew_from_params(params.skew, params.n)))
            results = []
            for build in (model.build_objective, staged_objective):
                tape = Tape()
                objective, pred_loss, penalty, leaves = build(tape, params, x, y, mu)
                tape.backward(objective)
                results.append(
                    [v.value.tobytes() for v in (objective, pred_loss, penalty)]
                    + [leaf.grad.tobytes() for leaf in leaves.values()]
                )
            assert results[0] == results[1], case
        assert max(skew_norms) > 1.0

    def test_gradients_share_one_flat_array_in_pack_order(self):
        params, x, y, mu = _fused_case(2, np.random.default_rng(52))
        tape = Tape()
        objective, _, _, leaves = model.build_objective(tape, params, x, y, mu)
        tape.backward(objective)
        flat = leaves["skew"].grad.base
        offset = 0
        for leaf in leaves.values():
            assert leaf.grad.base is flat
            assert np.array_equal(flat[offset : offset + leaf.value.size], leaf.grad.ravel())
            offset += leaf.value.size
        assert offset == flat.size == model.pack(params).size


class TestCheckpoint:
    def test_roundtrip_and_schema(self, tmp_path):
        params = model.init_params(4, 2, out_dim=2, seed=26)
        path = tmp_path / "ckpt.json"
        model.save_checkpoint(params, path, config={"seed": 5})
        doc = json.loads(path.read_text())
        for key in ("n", "bandwidth", "frequencies", "skewParams", "lambda", "layers"):
            assert key in doc
        loaded, cfg = model.load_checkpoint(path)
        assert cfg == {"seed": 5}
        assert loaded.n == params.n
        assert doc["frequencies"] == params.freq.astype(int).tolist()
        assert loaded.freq is params.freq
        assert np.array_equal(loaded.skew, params.skew)
        assert np.array_equal(loaded.rates, params.rates)
        for (w1, b1), (w2, b2) in zip(loaded.layers, params.layers):
            assert np.array_equal(w1, w2)
            assert np.array_equal(b1, b2)
        rng = np.random.default_rng(27)
        x = rng.normal(size=(4, 4))
        assert np.array_equal(model.predict(loaded, x), model.predict(params, x))

    @pytest.mark.parametrize("edit, found", [
        (lambda doc: {**doc, "frequencies": [m + [0] for m in doc["frequencies"]]},
         "frequencies are not the primitive set of bandwidth 2 on 2 blocks"),
        (lambda doc: {**doc, "frequencies": doc["frequencies"][::-1]},
         "frequencies are not the primitive set of bandwidth 2 on 2 blocks"),
        (lambda doc: {**doc, "bandwidth": [2]}, "checkpoint bandwidth is not a nonnegative integer"),
    ], ids=["wider", "reordered", "bandwidth-list"])
    def test_lattice_must_be_the_primitive_set(self, tmp_path, edit, found):
        path = tmp_path / "ckpt.json"
        model.save_checkpoint(model.init_params(4, 2, seed=28), path)
        path.write_text(json.dumps(edit(json.loads(path.read_text()))))
        with pytest.raises(ValueError, match=re.escape(f"{path}: {found}")):
            model.load_checkpoint(path)


def _relative(got, expected):
    """Largest absolute difference over the largest reference magnitude."""
    return float(np.max(np.abs(got - expected)) / np.max(np.abs(expected)))


def _reflected_case(n, bandwidth, seed):
    """(params of the reflected frame, the same draws through
    init_params(reflected=True), inputs, targets): skews at scale 0.7, so
    that the alignment is far from the identity."""
    reference, mapped = (
        model.init_params(n, bandwidth, seed=seed, first_layer_scale=1.0, reflected=reflected)
        for reflected in (False, True)
    )
    rng = np.random.default_rng(seed)
    reference.skew[:] = mapped.skew[:] = 0.7 * rng.standard_normal(reference.skew.shape)
    return reference, mapped, rng.normal(size=(32, n)), rng.normal(size=(32, 1))


class TestReflectedFrame:
    """A start in the reflected frame exp(A)*D, D negating the last
    coordinate, is one point of the proper frame: the oracle that runs the
    stages in the reflected frame is the reference."""

    def test_reflect_last_block_is_a_signed_involution(self):
        for bandwidth, r in ((1, 1), (3, 1), (1, 2), (3, 2), (2, 3), (2, 4)):
            freq = primitive_set(bandwidth, r)
            rows, signs = lattice.reflect_last_block(bandwidth, r)
            assert sorted(rows.tolist()) == list(range(len(freq)))
            assert np.array_equal(signs[:, None] * freq[rows], freq * ([1.0] * (r - 1) + [-1.0]))
            assert np.array_equal(freq[signs == -1.0], [[0.0] * (r - 1) + [1.0]])
            assert np.array_equal(rows[rows], np.arange(len(freq)))
            assert np.array_equal(signs[rows], signs)
            assert not rows.flags.writeable and not signs.flags.writeable
            params = model.init_params(2 * r, bandwidth, hidden=4, seed=r)
            twice = model.from_reflected_frame(model.from_reflected_frame(params))
            for name, a in model.leaf_arrays(twice).items():
                assert np.array_equal(a, model.leaf_arrays(params)[name]), name

    @pytest.mark.parametrize("n", [4, 6, 8])
    @pytest.mark.parametrize("bandwidth", [1, 2])
    @pytest.mark.parametrize("seed", range(5))
    def test_reflected_init_matches_the_reflected_frame(self, n, bandwidth, seed):
        reference, mapped, x, y = _reflected_case(n, bandwidth, seed)
        assert _relative(model.predict(mapped, x), reflected_predict(reference, x)) <= 1e-12
        frame = reference.canonical_form().q * ([1.0] * (n - 1) + [-1.0])
        reflected_generator = frame @ lie.block_diag_rates(reference.rates) @ frame.T
        generator = lie.assemble_generator(mapped.canonical_form()).entries
        assert _relative(generator, reflected_generator) <= 1e-12
        tape, ref_tape = Tape(), Tape()
        objective, _, _, leaves = model.build_objective(tape, mapped, x, y, 0.3)
        ref_objective, _, _, ref_leaves = staged_objective(
            ref_tape, reference, x, y, 0.3, reflected=True
        )
        tape.backward(objective)
        ref_tape.backward(ref_objective)
        assert _relative(objective.value, ref_objective.value) <= 1e-12
        # the map is a signed permutation of the leaves, so it maps gradients too
        ref_grads = reference.copy()
        for name, a in model.leaf_arrays(ref_grads).items():
            a[...] = ref_leaves[name].grad
        expected = model.leaf_arrays(model.from_reflected_frame(ref_grads))
        got = {name: leaf.grad for name, leaf in leaves.items()}
        # relative to the whole gradient: the output bias's is a mean of residuals
        # that cancel to a few 1e-5 of them
        scale = max(np.max(np.abs(g)) for g in expected.values())
        for name, g in expected.items():
            assert np.max(np.abs(got[name] - g)) <= 1e-12 * scale, name

    def test_reflected_checkpoint_loads_into_the_proper_frame(self, tmp_path):
        reference, mapped, x, _ = _reflected_case(6, 2, 3)
        old = tmp_path / "old.json"
        model.save_checkpoint(reference, old)
        old.write_text(json.dumps({**json.loads(old.read_text()), "reflected": True}))
        loaded, _ = model.load_checkpoint(old)
        for name, a in model.leaf_arrays(loaded).items():
            assert np.array_equal(a, model.leaf_arrays(mapped)[name]), name
        assert _relative(model.predict(loaded, x), reflected_predict(reference, x)) <= 1e-12
        new = tmp_path / "new.json"
        model.save_checkpoint(loaded, new)
        assert json.loads(new.read_text())["reflected"] is False
        again, _ = model.load_checkpoint(new)
        assert np.array_equal(model.predict(again, x), model.predict(loaded, x))
