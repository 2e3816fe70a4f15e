"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. The two training criteria and the noise and sample-size checks
train real models and take a few minutes combined.
"""

import json

import numpy as np
import pytest

import sospec.model as model
from oracles import (
    enumerate_primitives_bruteforce,
    fd_gradient,
    generic_objective_case,
    max_rel_error,
    rational_nullspace,
    rational_rank,
)
from sospec.autodiff import Tape
from sospec.cli import main as cli_main
from sospec.data import double_pendulum_task
from sospec.kernels import torus_fwd
from sospec.lattice import estimate_lambda, primitive_set
from sospec.lie import (
    CanonicalForm,
    assemble_generator,
    gauge_equivalent,
    generator_cosine_similarity,
    matrix_exp,
    skew_from_params,
)
from sospec.study import rotated_4d_config, rotated_4d_task, run_study
from sospec.train import TrainConfig, train


def report_line(num, label, detail):
    print(f"\nACCEPTANCE {num}: PASS — {label} ({detail})")


def test_criterion_1_pendulum_generator_recovery():
    """Diagonal 6-d analog, N=32000, default protocol, 3 seeds:
    mean |cossim| >= 0.99 and each run well under the runtime budget."""
    ds = double_pendulum_task(32000, 0.1, seed=42)
    values = []
    for seed in (1, 2, 3):
        _, rep = train(ds, TrainConfig(seed=seed, bandwidth=1))
        assert rep.failure_reason is None
        assert rep.wall_clock <= 900.0
        values.append(abs(rep.cosine_similarity))
    mean_cos = float(np.mean(values))
    assert mean_cos >= 0.99, values
    report_line(1, "pendulum 6d generator recovery", f"mean |cos|={mean_cos:.5f}")


def test_criterion_2_rotated_4d_recovery():
    """Random alignment, rates (1,-1)/sqrt(2), N=8000, sigma=0.1, 3 seeds."""
    values, inv_errors = [], []
    for seed in (1, 2, 3):
        _, rep = train(rotated_4d_task(seed), rotated_4d_config(seed))
        assert rep.failure_reason is None
        assert rep.wall_clock <= 300.0
        values.append(abs(rep.cosine_similarity))
        inv_errors.append(rep.invariance_error)
    mean_cos = float(np.mean(values))
    assert mean_cos >= 0.99, values
    assert all(e <= 1e-2 for e in inv_errors), inv_errors
    report_line(
        2,
        "rotated 4d recovery",
        f"mean |cos|={mean_cos:.5f}, max inv err={max(inv_errors):.2e}",
    )


def test_criterion_3_resonance_theorem_suite():
    """Quadrature Fourier coefficients of resonant characters match the
    Kronecker delta to 1e-10; every non-resonant tested frequency has an
    anti-invariance witness."""
    grid = 64
    cases = [
        (1, np.array([1.0]), (0,)),
        (2, np.array([1.0, -1.0]) / np.sqrt(2.0), (1, 1)),
        (2, np.array([1.0, -1.0]) / np.sqrt(2.0), (2, 2)),
    ]
    checked = witnessed = 0
    rng = np.random.default_rng(0)
    for r, lam, m0 in cases:
        axes = [2 * np.pi * np.arange(grid) / grid] * r
        mesh = np.meshgrid(*axes, indexing="ij")
        values = np.exp(1j * sum(mk * ax for mk, ax in zip(m0, mesh)))
        assert abs(float(np.dot(np.asarray(m0, dtype=float), lam))) <= 1e-12
        box = [tuple(m) for m in primitive_set(2, r).astype(int).tolist()] + [tuple([0] * r)]
        for m in box:
            phase = sum(mk * ax for mk, ax in zip(m, mesh))
            coeff = np.mean(values * np.exp(-1j * phase))
            expected = 1.0 if m == m0 else 0.0
            assert abs(coeff - expected) <= 1e-10, (m0, m)
            checked += 1
        theta = rng.uniform(0, 2 * np.pi, size=r)
        for m in primitive_set(2, r):
            dot = float(np.dot(m, lam))
            if dot == 0.0:
                continue
            shifted = np.mod(theta + lam * (np.pi / dot), 2 * np.pi)
            # the characters at theta and at shifted, as the model computes them
            coords = np.exp(1j * np.stack([theta, shifted]))
            cos_f, sin_f = torus_fwd(coords, m[None], np.empty((2, 2)))
            characters = cos_f[:, 0] + 1j * sin_f[:, 0]
            delta = abs(characters[1] - characters[0])
            assert delta > 1.0, m
            witnessed += 1
    report_line(3, "resonance theorem suite", f"{checked} coefficients, {witnessed} witnesses")


def test_criterion_4_lambda_estimation_oracle():
    """SVD rate estimate equals the exact rational nullspace (up to sign)
    on 200 random integer matrices of rank r-1, r in {2, 3, 4}."""
    rng = np.random.default_rng(7)
    done = 0
    worst = 0.0
    while done < 200:
        r = int(rng.integers(2, 5))
        base = rng.integers(-4, 5, size=(r - 1, r))
        if rational_rank(base.tolist()) != r - 1:
            continue
        extra = rng.integers(-2, 3, size=(rng.integers(0, 4), r - 1)) @ base
        rows = np.vstack([base, extra])
        rows = rows[rng.permutation(rows.shape[0])]
        basis = rational_nullspace(rows.tolist())
        assert len(basis) == 1
        exact = np.array([float(v) for v in basis[0]])
        exact /= np.linalg.norm(exact)
        lam, nullity = estimate_lambda(rows, r)
        assert nullity == 1
        delta = min(np.linalg.norm(lam - exact), np.linalg.norm(lam + exact))
        assert delta <= 1e-8
        worst = max(worst, delta)
        done += 1
    report_line(4, "rate estimation matches rational oracle", f"200 cases, worst delta={worst:.2e}")


def test_criterion_5_gradient_correctness():
    """Reverse-mode vs central finite differences on 50 random full-objective
    configurations (n in {4,6}, bandwidth in {1,2}): relative error <= 1e-4
    for every parameter (absolute floor 1e-3 for near-zero gradients)."""
    rng = np.random.default_rng(11)
    combos = [(4, 1), (4, 2), (6, 1), (6, 2)]
    worst = 0.0
    for case in range(50):
        n, bandwidth = combos[case % len(combos)]
        params, x, y, mu = generic_objective_case(n, bandwidth, rng)
        names = ["skew", "rates"] + [
            f"{kind}{i}" for i in range(len(params.layers)) for kind in ("w", "b")
        ]

        def rebuild(arrays):
            p = params.copy()
            p.skew, p.rates = arrays[0], arrays[1]
            p.layers = [(arrays[2 + 2 * i], arrays[3 + 2 * i]) for i in range(len(p.layers))]
            return p

        def value(arrays):
            tape = Tape()
            obj, _, _, _ = model.build_objective(tape, rebuild(arrays), x, y, mu)
            return float(obj.value)

        arrays = [params.skew.copy(), params.rates.copy()]
        for w, b in params.layers:
            arrays.extend([w.copy(), b.copy()])
        tape = Tape()
        obj, _, _, leaves = model.build_objective(tape, rebuild(arrays), x, y, mu)
        tape.backward(obj)
        err = max_rel_error([leaves[nm].grad for nm in names], fd_gradient(value, arrays))
        assert err <= 1e-4, (case, n, bandwidth, err)
        worst = max(worst, err)
    report_line(5, "gradient correctness on 50 objectives", f"worst rel err={worst:.2e}")


def test_criterion_6_group_law_orthogonality():
    """100 random (B, t1, t2): exponential law to 1e-9, orthogonality and
    unit determinant to 1e-10."""
    rng = np.random.default_rng(13)
    worst_law = worst_orth = worst_det = 0.0
    for _ in range(100):
        n = int(rng.choice([2, 4, 6, 8]))
        b = skew_from_params(rng.normal(size=n * (n - 1) // 2), n)
        t1, t2 = rng.uniform(-3.0, 3.0, size=2)
        r1, r2, r12 = matrix_exp(b, t1), matrix_exp(b, t2), matrix_exp(b, t1 + t2)
        worst_law = max(worst_law, float(np.linalg.norm(r1 @ r2 - r12)))
        worst_orth = max(worst_orth, float(np.linalg.norm(r1.T @ r1 - np.eye(n))))
        worst_det = max(worst_det, abs(float(np.linalg.det(r1)) - 1.0))
    assert worst_law <= 1e-9
    assert worst_orth <= 1e-10
    assert worst_det <= 1e-10
    report_line(
        6,
        "group law and orthogonality",
        f"law {worst_law:.2e}, orth {worst_orth:.2e}, det {worst_det:.2e}",
    )


def test_criterion_7_gauge_invariance():
    """100 random gauge transforms leave the assembled generator unchanged
    to 1e-10 Frobenius."""
    rng = np.random.default_rng(17)
    worst = 0.0
    for _ in range(100):
        n = int(rng.choice([4, 6, 8]))
        r = n // 2
        q = matrix_exp(skew_from_params(rng.normal(size=n * (n - 1) // 2), n), 1.0)
        cf = CanonicalForm(q, rng.normal(size=r))
        out = gauge_equivalent(cf, rng.uniform(0, 2 * np.pi, size=r), rng.permutation(r).tolist())
        delta = float(
            np.linalg.norm(assemble_generator(out).entries - assemble_generator(cf).entries)
        )
        assert delta <= 1e-10
        worst = max(worst, delta)
    report_line(7, "gauge invariance", f"worst Frobenius delta={worst:.2e}")


def test_criterion_8_primitive_lattice_oracle():
    """primitive_set equals brute-force enumeration for bandwidth <= 3, r <= 3."""
    total = 0
    for bandwidth in (1, 2, 3):
        for r in (1, 2, 3):
            got = [tuple(m) for m in primitive_set(bandwidth, r).astype(int).tolist()]
            expected = enumerate_primitives_bruteforce(bandwidth, r)
            assert got == expected, (bandwidth, r)
            total += len(got)
    report_line(8, "primitive lattice oracle", f"9 grids, {total} members")


def _mean_cos(doc, name):
    """Mean |cos| over the runs of family `name` at each value of the study
    `doc`'s axis, checking that each value has 3 runs that report one."""
    means = []
    for point in doc["points"]:
        cosines = [row["cos"] for row in point["families"][name]["rows"] if row["cos"] is not None]
        assert len(cosines) == 3, (point["value"], point["families"][name]["rows"])
        means.append(float(np.mean(cosines)))
    return means


def test_criterion_9_sweep_sanity():
    """Noise sweep on the rotated 4-d task: mean |cos| at sigma=0.1 exceeds
    the sigma=1.0 mean minus 0.05. Sample sweep on the pendulum: mean |cos|
    at N=32000 within 0.02 of the N=8000 mean or better. 3 seeds per point."""
    noise = run_study(["rotated4d"], seeds=(1, 2, 3), axis="noise", values=[0.1, 1.0])
    low_noise, high_noise = _mean_cos(noise, "rotated4d")
    assert low_noise > high_noise - 0.05

    samples = run_study(["pendulum6d"], seeds=(1, 2, 3), axis="samples", values=[8000, 32000])
    few, many = _mean_cos(samples, "pendulum6d")
    assert many >= few - 0.02
    report_line(
        9,
        "sweep sanity",
        f"noise {low_noise:.4f} vs {high_noise:.4f}; samples {few:.4f} -> {many:.4f}",
    )


def test_criterion_10_determinism(tmp_path):
    """Repeating any command with identical inputs and seed yields
    byte-identical metric fields (and identical dataset files)."""
    ds1 = tmp_path / "a.jsonl"
    ds2 = tmp_path / "b.jsonl"
    for out in (ds1, ds2):
        rc = cli_main([
            "gen-data", "--task", "synth", "--n", "4", "--n-samples", "500",
            "--sigma", "0.1", "--seed", "21", "--rates", "1,-1", "--out", str(out),
        ])
        assert rc == 0
    assert ds1.read_bytes() == ds2.read_bytes()

    for out in ("r1", "r2"):
        rc = cli_main([
            "train", "--data", str(ds1), "--epochs", "4", "--warmup-epochs", "2",
            "--bandwidth", "1", "--seed", "5", "--out", str(tmp_path / out),
        ])
        assert rc == 0
    d1 = json.loads((tmp_path / "r1" / "report.json").read_text())
    d2 = json.loads((tmp_path / "r2" / "report.json").read_text())
    diff = [k for k in d1 if k != "wallClock" and d1[k] != d2[k]]
    assert not diff, diff
    c1 = (tmp_path / "r1" / "checkpoint.json").read_bytes()
    c2 = (tmp_path / "r2" / "checkpoint.json").read_bytes()
    assert c1 == c2
    report_line(10, "determinism", "dataset bytes, metric fields, checkpoint bytes all equal")
