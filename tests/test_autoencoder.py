import csv
import dataclasses
import tracemalloc

import numpy as np
import pytest

from dsltopo import autoencoder, topology
from dsltopo import (
    WALK_MODEL,
    WAVE_MODEL,
    AutoencoderModel,
    ConfigError,
    DegenerateAxisError,
    DslConfig,
    FormatError,
    ModelSpec,
    NumericError,
    Reduction,
    ShapeError,
    SignKind,
    TrainConfig,
    TrainingDivergedError,
    cumulative_signs,
    demo_preset,
    directional_agreement,
    evaluate_reconstructions,
    exact_sign_mismatch_count,
    generate_walk_dataset,
    generate_wave_dataset,
    held_out_split,
    initialize_model,
    load_checkpoint,
    save_checkpoint,
    train_autoencoder,
    write_evaluation_csv,
    write_training_log,
)

SMALL_SPEC = ModelSpec((64, 16, 4), (4, 16, 64))


def small_data(seed=0, n=128):
    return np.random.default_rng(seed).normal(size=(n, 64))


class TestWaveDataset:
    def test_shape_and_bounds(self):
        data = generate_wave_dataset(50, seed=1)
        assert data.shape == (50, 2048)
        # unit sine under an envelope between 1/e and e
        assert np.abs(data).max() <= np.e

    def test_deterministic(self):
        assert np.array_equal(generate_wave_dataset(8, seed=3), generate_wave_dataset(8, seed=3))
        assert not np.array_equal(generate_wave_dataset(8, seed=3), generate_wave_dataset(8, seed=4))

    def test_envelope_direction_split(self):
        data = generate_wave_dataset(10000, seed=5)
        first = (data[:, :1024] ** 2).sum(axis=1)
        second = (data[:, 1024:] ** 2).sum(axis=1)
        rising = np.mean(second > first)
        assert 0.47 <= rising <= 0.53

    def test_count_validation(self):
        with pytest.raises(ConfigError):
            generate_wave_dataset(0, seed=0)


class TestWalkDataset:
    def test_starts_at_zero_unit_spread(self):
        data = generate_walk_dataset(200, seed=2)
        assert data.shape == (200, 64)
        assert np.all(data[:, 0] == 0.0)
        assert abs(data.std() - 1.0) < 1e-12

    def test_deterministic(self):
        assert np.array_equal(generate_walk_dataset(8, seed=1), generate_walk_dataset(8, seed=1))

    def test_custom_length(self):
        assert generate_walk_dataset(5, length=32, seed=0).shape == (5, 32)


class TestCumulativeSigns:
    def test_examples(self):
        assert np.array_equal(cumulative_signs([0.0, 1.0, 0.0]), [0.0, 1.0, 0.0])
        n = 6
        assert np.array_equal(cumulative_signs(np.arange(n, dtype=float)), np.arange(n, dtype=float))
        assert np.array_equal(cumulative_signs(np.full(4, 2.0)), np.zeros(4))

    def test_errors(self):
        with pytest.raises(ShapeError):
            cumulative_signs(np.zeros((2, 2)))
        with pytest.raises(DegenerateAxisError):
            cumulative_signs([1.0])


class TestDirectionalAgreement:
    def test_examples(self):
        x = np.arange(8.0)
        assert directional_agreement(x, x) == 1.0
        assert directional_agreement([0.0, 1.0, 0.0], [0.0, 1.0, 2.0]) == 0.5
        assert directional_agreement(x, -x) == 0.0

    def test_matches_mismatch_count(self):
        rng = np.random.default_rng(7)
        x = rng.normal(size=(5, 9))
        y = rng.normal(size=(5, 9))
        # no zero differences occur for continuous draws
        n = 4 * 9 + 5 * 8
        expected = 1.0 - exact_sign_mismatch_count(x, y) / n
        assert directional_agreement(x, y) == pytest.approx(expected, abs=1e-12)


class TestModelPieces:
    def test_spec_validation(self):
        with pytest.raises(ConfigError):
            ModelSpec((64, 16), (8, 64))  # latent mismatch
        with pytest.raises(ConfigError):
            ModelSpec((64,), (64,))
        with pytest.raises(ConfigError):
            ModelSpec((64, 0), (0, 64))

    def test_latent_dim(self):
        assert SMALL_SPEC.latent_dim == 4
        assert WAVE_MODEL.latent_dim == 2
        assert WALK_MODEL.latent_dim == 16

    def test_init_deterministic_shapes(self):
        a = initialize_model(SMALL_SPEC, seed=5)
        b = initialize_model(SMALL_SPEC, seed=5)
        for (wa, ba), (wb, bb) in zip(a.encoder_layers + a.decoder_layers,
                                      b.encoder_layers + b.decoder_layers):
            assert np.array_equal(wa, wb)
            assert np.array_equal(ba, bb)
            assert not ba.any()
        assert a.encoder_layers[0][0].shape == (64, 16)
        assert a.decoder_layers[-1][0].shape == (16, 64)
        c = initialize_model(SMALL_SPEC, seed=6)
        assert not np.array_equal(a.encoder_layers[0][0], c.encoder_layers[0][0])

    def test_fan_in_scaling(self):
        spec = ModelSpec((4096, 16, 2), (2, 16, 4096))
        w = initialize_model(spec, seed=0).encoder_layers[0][0]
        assert w.std() == pytest.approx(np.sqrt(2.0 / 4096), rel=0.05)

    def test_reconstruct_shape(self):
        model = initialize_model(SMALL_SPEC, seed=0)
        out = model.reconstruct(small_data(n=10))
        assert out.shape == (10, 64)
        lat = model.encode(small_data(n=10))
        assert lat.shape == (10, 4)

    def test_forward_pass_by_hand(self):
        # rectifier after every layer but the last of each stack
        model = initialize_model(SMALL_SPEC, seed=2)
        rng = np.random.default_rng(3)
        for w, b in model.encoder_layers + model.decoder_layers:
            b[:] = rng.normal(size=b.shape)
        x = small_data(n=10)
        h = x
        for w, b in model.encoder_layers[:-1]:
            h = np.maximum(h @ w + b, 0.0)
        w, b = model.encoder_layers[-1]
        z = h @ w + b
        assert (z < 0).any()  # the latent layer is linear
        assert np.array_equal(model.encode(x), z)
        h = z
        for w, b in model.decoder_layers[:-1]:
            h = np.maximum(h @ w + b, 0.0)
        w, b = model.decoder_layers[-1]
        out = h @ w + b
        assert (out < 0).any()
        assert np.array_equal(model.decode(z), out)
        assert np.array_equal(model.reconstruct(x), out)

    def test_train_config_validation(self):
        with pytest.raises(ConfigError):
            TrainConfig(mse_weight=0.0, dsl_weight=0.0)
        with pytest.raises(ConfigError):
            TrainConfig(mse_weight=-1.0)
        with pytest.raises(ConfigError):
            TrainConfig(batch_size=0)
        with pytest.raises(ConfigError):
            TrainConfig(total_batches=0)
        with pytest.raises(ConfigError):
            TrainConfig(dsl_weight=1.0,
                        dsl_config=DslConfig(sign_kind=SignKind.EXACT_SIGN))


class TestTraining:
    def test_mse_descends(self):
        cfg = TrainConfig(mse_weight=1.0, dsl_weight=0.0, learning_rate=1e-3,
                          batch_size=32, total_batches=200, seed=1)
        _, log = train_autoencoder(small_data(), SMALL_SPEC, cfg)
        head = np.mean([r[1] for r in log[:20]])
        tail = np.mean([r[1] for r in log[-20:]])
        assert tail < head

    def test_log_schema(self):
        cfg = TrainConfig(batch_size=16, total_batches=5, seed=0)
        _, log = train_autoencoder(small_data(), SMALL_SPEC, cfg)
        assert [r[0] for r in log] == [1, 2, 3, 4, 5]
        for _, mse_term, dsl_term, total in log:
            assert dsl_term == 0.0  # weight zero: term not computed, logged as 0
            assert total == pytest.approx(mse_term, rel=1e-15)

    def test_bitwise_deterministic(self):
        cfg = TrainConfig(mse_weight=1.0, dsl_weight=2.0, batch_size=16,
                          total_batches=8, seed=4)
        m1, log1 = train_autoencoder(small_data(), SMALL_SPEC, cfg)
        m2, log2 = train_autoencoder(small_data(), SMALL_SPEC, cfg)
        assert log1 == log2
        for (w1, b1), (w2, b2) in zip(m1.encoder_layers + m1.decoder_layers,
                                      m2.encoder_layers + m2.decoder_layers):
            assert np.array_equal(w1, w2) and np.array_equal(b1, b2)

    def test_divergence_raises_with_batch(self):
        cfg = TrainConfig(mse_weight=1.0, dsl_weight=0.0, learning_rate=1e200,
                          batch_size=32, total_batches=50, seed=1)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(TrainingDivergedError) as exc_info:
                train_autoencoder(small_data(), SMALL_SPEC, cfg)
        assert exc_info.value.batch_index >= 1

    def test_nan_reconstruction_diverges(self, monkeypatch):
        # training skips the DSL's finiteness scan; a NaN in the last block of
        # the reconstruction must still surface through the divergence check
        real = autoencoder._evaluate

        def poisoned(X, Y, *args, **kwargs):
            Y[-1, -1] = np.nan
            return real(X, Y, *args, **kwargs)

        monkeypatch.setattr(autoencoder, "_evaluate", poisoned)
        cfg = TrainConfig(mse_weight=0.0, dsl_weight=1.0, batch_size=1024,
                          total_batches=3, seed=2)
        with pytest.raises(TrainingDivergedError) as exc_info:
            train_autoencoder(small_data(n=1024), SMALL_SPEC, cfg)
        assert exc_info.value.batch_index == 1

    def test_wave_batches_hold_no_split_sized_transform(self):
        # the engine transforms both sides of each batch block by block, so
        # training holds no transform of the split and no gathered copy of it
        spec, preset = demo_preset("wave")
        train, _ = held_out_split(generate_wave_dataset(2048, seed=1))
        cfg = dataclasses.replace(preset, total_batches=2, seed=1)
        tracemalloc.start()
        try:
            train_autoencoder(train, spec, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 120 * 2**20

    def test_batch_larger_than_dataset(self):
        cfg = TrainConfig(batch_size=256, total_batches=1)
        with pytest.raises(ConfigError):
            train_autoencoder(small_data(n=100), SMALL_SPEC, cfg)

    def test_feature_mismatch(self):
        cfg = TrainConfig(batch_size=8, total_batches=1)
        with pytest.raises(ShapeError):
            train_autoencoder(np.zeros((16, 32)), SMALL_SPEC, cfg)

    def test_non_finite_data(self):
        bad = small_data()
        bad[3, 3] = np.nan
        with pytest.raises(NumericError):
            train_autoencoder(bad, SMALL_SPEC, TrainConfig(batch_size=8, total_batches=1))

    def test_pure_dsl_tracks_direction_on_waves(self):
        # reconstructions trained on signs alone follow the original's trend:
        # their cumulative-sign paths correlate positively for most examples
        data = generate_wave_dataset(1024, seed=0)
        train, held = held_out_split(data, 0.1)
        cfg = TrainConfig(mse_weight=0.0, dsl_weight=1.0, learning_rate=1e-3,
                          batch_size=256, total_batches=500, seed=0)
        model, _ = train_autoencoder(train, WAVE_MODEL, cfg)
        recon = model.reconstruct(held)
        hits = 0
        for i in range(held.shape[0]):
            c = np.corrcoef(cumulative_signs(held[i]), cumulative_signs(recon[i]))[0, 1]
            hits += bool(np.isfinite(c) and c > 0)
        assert hits / held.shape[0] >= 0.6


class TestSplitAndEval:
    def test_held_out_split(self):
        data = np.arange(40.0).reshape(20, 2)
        train, held = held_out_split(data, 0.1)
        assert train.shape == (18, 2) and held.shape == (2, 2)
        assert np.array_equal(held, data[18:])

    def test_split_validation(self):
        with pytest.raises(ConfigError):
            held_out_split(np.zeros((10, 2)), 0.0)
        with pytest.raises(ConfigError):
            held_out_split(np.zeros((10, 2)), 1.0)

    def test_evaluate_reconstructions(self):
        rng = np.random.default_rng(11)
        orig = rng.normal(size=(4, 32))
        scores = evaluate_reconstructions(orig, orig + 0.01 * rng.normal(size=(4, 32)))
        assert len(scores) == 4
        for s in scores:
            assert 0.0 <= s.directional_agreement <= 1.0
            assert s.persistence_wasserstein >= 0.0

    def test_evaluate_self_is_perfect(self):
        rng = np.random.default_rng(12)
        orig = rng.normal(size=(3, 16))
        for s in evaluate_reconstructions(orig, orig.copy()):
            assert s.directional_agreement == 1.0
            assert s.persistence_wasserstein == 0.0
            assert s.correlation_distance == pytest.approx(0.0, abs=1e-12)

    def test_evaluation_calls_the_oracles_through_module_names(self, monkeypatch):
        # the benchmark's tracer times these layers by rebinding these names
        calls = []
        for name in ("sublevel_persistence_0d", "wasserstein_distance",
                     "pairwise_correlation_distance"):
            original = getattr(autoencoder, name)
            assert original is getattr(topology, name)

            def recorded(*args, _name=name, _original=original, **kwargs):
                calls.append(_name)
                return _original(*args, **kwargs)

            monkeypatch.setattr(autoencoder, name, recorded)
        rng = np.random.default_rng(13)
        orig = rng.normal(size=(2, 16))
        evaluate_reconstructions(orig, orig + rng.normal(size=(2, 16)))
        per_example = ["sublevel_persistence_0d", "sublevel_persistence_0d",
                       "wasserstein_distance", "pairwise_correlation_distance"]
        assert calls == per_example * 2

    def test_undefined_correlation_is_nan(self):
        orig = np.tile(np.linspace(0.0, 1.0, 8), (2, 1))
        recon = np.zeros((2, 8))
        scores = evaluate_reconstructions(orig, recon)
        assert all(np.isnan(s.correlation_distance) for s in scores)


class TestPersistenceFiles:
    def test_checkpoint_round_trip(self, tmp_path):
        model, _ = train_autoencoder(
            small_data(), SMALL_SPEC,
            TrainConfig(batch_size=16, total_batches=3, seed=2))
        save_checkpoint(model, tmp_path / "ckpt")
        back = load_checkpoint(tmp_path / "ckpt")
        assert back.latent_dim == model.latent_dim
        for (w1, b1), (w2, b2) in zip(model.encoder_layers + model.decoder_layers,
                                      back.encoder_layers + back.decoder_layers):
            assert np.array_equal(w1, w2) and np.array_equal(b1, b2)

    def test_manifest_tamper_detected(self, tmp_path):
        model = initialize_model(SMALL_SPEC, seed=0)
        save_checkpoint(model, tmp_path / "ckpt")
        manifest = tmp_path / "ckpt" / "manifest.txt"
        lines = manifest.read_text().splitlines()
        lines[1] = lines[1].replace("64", "63", 1)
        manifest.write_text("\n".join(lines) + "\n")
        with pytest.raises(FormatError):
            load_checkpoint(tmp_path / "ckpt")

    def test_missing_manifest(self, tmp_path):
        with pytest.raises(FormatError):
            load_checkpoint(tmp_path)

    def test_training_log_csv(self, tmp_path):
        _, log = train_autoencoder(
            small_data(), SMALL_SPEC, TrainConfig(batch_size=16, total_batches=4))
        path = tmp_path / "log.csv"
        write_training_log(log, path)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["batch", "mse_term", "dsl_term", "total"]
        assert len(rows) == 5
        assert int(rows[1][0]) == 1
        assert float(rows[1][3]) == pytest.approx(log[0][3])

    def test_evaluation_csv(self, tmp_path):
        rng = np.random.default_rng(13)
        orig = rng.normal(size=(3, 16))
        scores = evaluate_reconstructions(orig, orig + 0.1)
        path = tmp_path / "eval.csv"
        write_evaluation_csv(scores, path)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["example", "directional_agreement",
                           "persistence_wasserstein", "correlation_distance"]
        assert len(rows) == 4


class TestPresets:
    # the fully spelled-out configs the presets stand for
    def test_wave_preset(self):
        dsl = DslConfig(sharpness=32.0, skip_batch_axis=True,
                        reduction=Reduction.MEAN, scale_by_comparisons=True)
        assert demo_preset("wave") == (WAVE_MODEL, TrainConfig(
            mse_weight=1.0, dsl_weight=128.0, dsl_config=dsl,
            learning_rate=1e-3, batch_size=1024, total_batches=2000))
        assert TrainConfig().dsl_config == dsl

    def test_walk_preset(self):
        dsl = DslConfig(sharpness=16.0, skip_batch_axis=True,
                        reduction=Reduction.MEAN, scale_by_comparisons=True)
        assert demo_preset("walk") == (WALK_MODEL, TrainConfig(
            mse_weight=1.0, dsl_weight=128.0, dsl_config=dsl,
            learning_rate=1e-4, batch_size=64, total_batches=2000))

    def test_unknown_preset(self):
        with pytest.raises(ConfigError):
            demo_preset("prices")
