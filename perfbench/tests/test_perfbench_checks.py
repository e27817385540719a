"""Each benchmark check passes the program's real output and rejects a perturbed one.

    python3 -m pytest perfbench/tests -q
"""

import math
from dataclasses import replace

import numpy as np
import pytest

import checks
import dsltopo
import workload


def nudge(value, rel=1e-6):
    return value * (1.0 + rel)


# --- wave_train --------------------------------------------------------------

@pytest.fixture(scope="module")
def trained():
    spec, cfg = dsltopo.demo_preset("wave")
    cfg = replace(cfg, batch_size=64, total_batches=8, seed=3)
    data = dsltopo.generate_wave_dataset(256, seed=3)
    train, held = dsltopo.held_out_split(data)
    model, log = dsltopo.train_autoencoder(train, spec, cfg)
    _, log_again = dsltopo.train_autoencoder(train, spec, cfg)
    return cfg, held, model, log, log_again


def test_training_log_passes(trained):
    cfg, _, _, log, log_again = trained
    assert checks.check_training_log(log, cfg.mse_weight, cfg.dsl_weight) == []
    assert checks.check_logs_equal(log, log_again) == []


@pytest.mark.parametrize("perturb", ["total", "nan", "dsl_range", "rising"])
def test_training_log_rejects(trained, perturb):
    cfg, _, _, log, _ = trained
    rows = [list(row) for row in log]
    if perturb == "total":
        rows[3][3] = nudge(rows[3][3], 1e-9)
    elif perturb == "nan":
        rows[2][1] = math.nan
    elif perturb == "dsl_range":
        rows[1][2] = 2.5
        rows[1][3] = cfg.mse_weight * rows[1][1] + cfg.dsl_weight * 2.5
    else:
        rows = [[i + 1] + r[1:] for i, r in enumerate(reversed(rows))]
    assert checks.check_training_log(rows, cfg.mse_weight, cfg.dsl_weight)


def test_logs_equal_rejects_one_bit(trained):
    _, _, _, log, _ = trained
    other = [list(row) for row in log]
    other[-1][2] = float(np.nextafter(other[-1][2], np.inf))
    assert checks.check_logs_equal(log, other)


def test_held_out_forward(trained):
    cfg, held, model, _, _ = trained
    recon = model.reconstruct(held)
    got = dsltopo.dsl_forward(held, recon, cfg.dsl_config)
    want = checks.plain_dsl(held, recon, cfg.dsl_config.sharpness, skip_batch_axis=True)
    assert checks.check_forward("held-out", got, want) == []
    assert checks.check_forward("held-out", nudge(got), want)


# --- wave_eval ---------------------------------------------------------------

@pytest.fixture(scope="module")
def scored():
    wl = workload.WaveEval(seed=5)
    wl._score_next()
    i, score = wl.scored[0]
    x, y = wl.held[i], wl.recon[i]
    d1 = dsltopo.sublevel_persistence_0d(x).as_array()
    d2 = dsltopo.sublevel_persistence_0d(y).as_array()
    return wl, score, x, y, d1, d2


def test_wave_eval_passes(scored):
    wl, *_ = scored
    assert wl.check() == []


def test_agreement_rejects(scored):
    _, score, x, y, _, _ = scored
    assert checks.check_agreement(score.directional_agreement + 1 / (x.size - 1), x, y)


def test_diagram_rejects_dropped_point(scored):
    _, _, x, y, d1, d2 = scored
    assert checks.check_diagram(d1, x) == [] and checks.check_diagram(d2, y) == []
    finite = np.flatnonzero(np.isfinite(d2[:, 1]))
    assert checks.check_diagram(np.delete(d2, finite[0], axis=0), y)


def test_diagram_rejects_moved_infinite_birth(scored):
    _, _, x, _, d1, _ = scored
    moved = d1.copy()
    moved[np.isinf(moved[:, 1]), 0] += 1e-3
    assert checks.check_diagram(moved, x)


def test_wasserstein_rejects_scaled(scored):
    _, score, _, _, d1, d2 = scored
    assert checks.check_wasserstein(score.persistence_wasserstein, d1, d2) == []
    assert checks.check_wasserstein(nudge(score.persistence_wasserstein), d1, d2)


def test_wasserstein_bound():
    d1 = np.array([[0.0, 1.0]])
    d2 = np.array([[5.0, 6.0]])
    bound = math.sqrt(2 * 0.5)  # each point slides sqrt(1/2) to the diagonal
    assert checks.rectangular_wasserstein(d1, d2) == pytest.approx(bound, rel=1e-15)
    problems = checks.check_wasserstein(nudge(bound, 1e-3), d1, d2)
    assert any("all-to-diagonal bound" in p for p in problems)


def test_rectangular_wasserstein_matches_program():
    rng = np.random.default_rng(7)
    for n1, n2 in ((0, 3), (1, 1), (2, 9), (5, 4)):
        births1, births2 = rng.uniform(0, 1, n1), rng.uniform(0, 1, n2)
        p1 = np.column_stack([births1, births1 + rng.uniform(0, 1, n1)])
        p2 = np.column_stack([births2, births2 + rng.uniform(0, 1, n2)])
        want = dsltopo.wasserstein_distance(
            dsltopo.PersistenceDiagram(tuple(map(tuple, p1))),
            dsltopo.PersistenceDiagram(tuple(map(tuple, p2))),
        )
        assert checks.rectangular_wasserstein(p1, p2) == pytest.approx(want, rel=1e-12, abs=1e-15)


def test_corrdist_rejects(scored):
    _, score, x, y, _, _ = scored
    assert checks.check_corrdist(score.correlation_distance, x, y) == []
    assert checks.check_corrdist(2.5)
    assert checks.check_corrdist(score.correlation_distance + 1e-6, x, y)


# --- dsl_large ---------------------------------------------------------------

CFG = dsltopo.DslConfig()


@pytest.fixture(params=[(4096,), (64, 64), (16, 16, 16)], ids=["r1", "r2", "r3"])
def pair(request):
    rng = np.random.default_rng(11)
    return rng.standard_normal(request.param), rng.standard_normal(request.param)


def test_exact_count(pair):
    x, y = pair
    got = dsltopo.exact_sign_mismatch_count(x, y)
    assert checks.check_exact_count(got, x, y) == []
    assert checks.check_exact_count(got + 0.5, x, y)


def test_exact_count_half_units():
    x = np.array([0.0, 0.0, 1.0, 0.0])
    y = np.array([0.0, 1.0, 1.0, -1.0])
    got = dsltopo.exact_sign_mismatch_count(x, y)
    assert got == 1.0 and checks.mismatch_count(x, y) == 1.0


def test_forward(pair):
    x, y = pair
    got = dsltopo.dsl_forward(x, y, CFG)
    want = checks.plain_dsl(x, y, CFG.sharpness, skip_batch_axis=False)
    assert checks.check_forward("case", got, want) == []
    assert checks.check_forward("case", nudge(got), want)
    swapped = dsltopo.dsl_forward(y, x, CFG)
    assert checks.check_symmetric(got, swapped) == []
    assert checks.check_symmetric(got, nudge(swapped, 1e-9))


def test_gradient(pair):
    x, y = pair
    grad_y, grad_x, grad_s = dsltopo.dsl_gradient(x, y, CFG)
    assert checks.check_gradient(grad_y, grad_x, grad_s, x, y, CFG.sharpness) == []
    flipped = grad_x.copy()
    k = np.unravel_index(np.argmax(np.abs(flipped)), flipped.shape)
    flipped[k] = -flipped[k]
    assert checks.check_gradient(grad_y, flipped, grad_s, x, y, CFG.sharpness)
    assert checks.check_gradient(grad_y, grad_x, nudge(grad_s), x, y, CFG.sharpness)


def test_repeats():
    assert checks.check_repeats("forward", [0.25, 0.25, 0.25]) == []
    assert checks.check_repeats("forward", [0.25, 0.25, float(np.nextafter(0.25, 1.0))])


# --- calibrate ---------------------------------------------------------------

@pytest.fixture(scope="module")
def calibrated():
    wl = workload.Calibrate(seed=2)
    wl._calibrate_next()
    return wl


def test_calibration_passes(calibrated):
    assert calibrated.check() == []


@pytest.mark.parametrize("perturb", ["sharpness", "held_out"])
def test_calibration_rejects(calibrated, perturb):
    wl = calibrated
    s, _ = wl.found[0]
    want = dsltopo.dsl_forward(wl.held_a, wl.held_b, wl.ref_cfg)
    got = dsltopo.dsl_forward(wl.held_a, wl.held_b, replace(wl.ref_cfg, sharpness=s))
    if perturb == "sharpness":
        s = nudge(s, 1e-2)
    else:
        got += 2e-4
    assert checks.check_calibration(s, workload.REFERENCE_SHARPNESS, got, want)


def test_calibration_rejects_early_stop(calibrated):
    wl = workload.Calibrate(seed=2)
    wl.found = [(calibrated.found[0][0], workload.CALIBRATION_STEPS - 1)]
    assert wl.check()
