"""From-scratch MLP autoencoder demo harness.

Synthetic wave and random-walk datasets, a plain numpy multilayer perceptron
with rectifier activations, an adaptive-moment training loop minimizing a
weighted mixture of MSE and the directional sign loss, and the evaluation
signals (directional agreement, cumulative signs, per-example topological
scores) used to compare trained models. Everything is float64 and bitwise
deterministic for a fixed seed.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np

from .exceptions import (
    ConfigError,
    DegenerateAxisError,
    FormatError,
    NumericError,
    ShapeError,
    TrainingDivergedError,
    UndefinedCorrelationError,
)
from .loss import DslConfig, Reduction, SignKind, _evaluate, _pair_axes, sign_like
from .tensor import as_tensor, read_tensor, require_finite, write_tensor
from .topology import (
    InfiniteDeathPolicy,
    sublevel_persistence_0d,
    pairwise_correlation_distance,
    wasserstein_distance,
)

WAVE_LENGTH = 2048
WALK_LENGTH = 64


@dataclass(frozen=True)
class ModelSpec:
    """Layer widths of the encoder and decoder stacks, endpoints included."""

    encoder_sizes: tuple[int, ...]
    decoder_sizes: tuple[int, ...]

    def __post_init__(self):
        enc = tuple(int(n) for n in self.encoder_sizes)
        dec = tuple(int(n) for n in self.decoder_sizes)
        object.__setattr__(self, "encoder_sizes", enc)
        object.__setattr__(self, "decoder_sizes", dec)
        if len(enc) < 2 or len(dec) < 2:
            raise ConfigError("encoder and decoder need at least one layer each")
        if any(n < 1 for n in enc + dec):
            raise ConfigError(f"layer sizes must be positive, got {enc} and {dec}")
        if enc[-1] != dec[0]:
            raise ConfigError(f"latent width mismatch: encoder ends {enc[-1]}, decoder starts {dec[0]}")
        if dec[-1] != enc[0]:
            raise ConfigError(f"decoder must restore the input width {enc[0]}, got {dec[-1]}")

    @property
    def latent_dim(self) -> int:
        return self.encoder_sizes[-1]


WAVE_MODEL = ModelSpec((WAVE_LENGTH, 32, 2), (2, 32, WAVE_LENGTH))
WALK_MODEL = ModelSpec((WALK_LENGTH, 2048, 256, 32, 16), (16, 32, 256, 2048, WALK_LENGTH))


@dataclass
class AutoencoderModel:
    """Fully connected autoencoder; rectifier between layers, linear ends.

    Both the latent projection (last encoder layer) and the reconstruction
    output (last decoder layer) are linear so latent codes and outputs are
    unbounded in sign.
    """

    encoder_layers: list[tuple[np.ndarray, np.ndarray]]
    decoder_layers: list[tuple[np.ndarray, np.ndarray]]
    latent_dim: int

    def __post_init__(self):
        dims = []
        for w, b in self.encoder_layers + self.decoder_layers:
            if w.ndim != 2 or b.ndim != 1 or b.shape[0] != w.shape[1]:
                raise ConfigError(f"malformed layer: weight {w.shape}, bias {b.shape}")
            dims.append(w.shape)
        for (_, prev_out), (next_in, _) in zip(dims, dims[1:]):
            if prev_out != next_in:
                raise ConfigError(f"layer dimensions do not chain: {dims}")
        if self.encoder_layers[-1][0].shape[1] != self.latent_dim:
            raise ConfigError("latent_dim does not match the encoder output width")
        if self.decoder_layers[-1][0].shape[1] != self.encoder_layers[0][0].shape[0]:
            raise ConfigError("decoder output width must equal encoder input width")

    def encode(self, x) -> np.ndarray:
        return _forward(self.encoder_layers, np.asarray(x, dtype=np.float64))

    def decode(self, z) -> np.ndarray:
        return _forward(self.decoder_layers, np.asarray(z, dtype=np.float64))

    def reconstruct(self, x) -> np.ndarray:
        return self.decode(self.encode(x))


def _forward(layers, h: np.ndarray, trace: list | None = None) -> np.ndarray:
    """Dense layers h @ w + b with a rectifier after every layer but the last.

    With `trace`, each layer's (input, pre-activation) is appended to it for
    the backward pass.
    """
    last = len(layers) - 1
    for i, (w, b) in enumerate(layers):
        z = h @ w + b
        if trace is not None:
            trace.append((h, z))
        h = np.maximum(z, 0.0) if i < last else z
    return h


def initialize_model(spec: ModelSpec, seed: int) -> AutoencoderModel:
    """Variance-scaled (fan-in) normal weights, zero biases.

    Layer seeds are spawned from the master seed, so adding or removing a
    layer does not shift the draws of the others.
    """
    sizes = list(zip(spec.encoder_sizes[:-1], spec.encoder_sizes[1:])) + list(
        zip(spec.decoder_sizes[:-1], spec.decoder_sizes[1:])
    )
    seqs = np.random.SeedSequence(seed).spawn(len(sizes))
    layers = []
    for (fan_in, fan_out), seq in zip(sizes, seqs):
        rng = np.random.default_rng(seq)
        w = rng.normal(0.0, np.sqrt(2.0 / fan_in), size=(fan_in, fan_out))
        layers.append((w, np.zeros(fan_out)))
    n_enc = len(spec.encoder_sizes) - 1
    return AutoencoderModel(
        encoder_layers=layers[:n_enc],
        decoder_layers=layers[n_enc:],
        latent_dim=spec.latent_dim,
    )


@dataclass(frozen=True)
class TrainConfig:
    mse_weight: float = 1.0
    dsl_weight: float = 0.0
    dsl_config: DslConfig = field(default_factory=lambda: DslConfig(skip_batch_axis=True))
    learning_rate: float = 1e-3
    batch_size: int = 1024
    total_batches: int = 2000
    seed: int = 0

    def __post_init__(self):
        for name in ("mse_weight", "dsl_weight"):
            v = getattr(self, name)
            if not (np.isfinite(v) and v >= 0):
                raise ConfigError(f"{name} must be finite and nonnegative, got {v}")
        if self.mse_weight + self.dsl_weight <= 0:
            raise ConfigError("at least one of mse_weight, dsl_weight must be positive")
        if not (np.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ConfigError(f"learning_rate must be positive, got {self.learning_rate}")
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be at least 1, got {self.batch_size}")
        if self.total_batches < 1:
            raise ConfigError(f"total_batches must be at least 1, got {self.total_batches}")
        if self.dsl_weight > 0:
            c = self.dsl_config
            if not (
                c.skip_batch_axis
                and c.reduction is Reduction.MEAN
                and c.scale_by_comparisons
            ):
                raise ConfigError(
                    "training DSL must skip the batch axis, reduce by mean, "
                    "and scale by comparisons"
                )
            if c.sign_kind is SignKind.EXACT_SIGN:
                raise ConfigError("training DSL needs a differentiable sign kind")


def generate_wave_dataset(count: int, seed: int) -> np.ndarray:
    """Rows of sin(linspace(0, 2pi) + phase) under an exponential envelope.

    The envelope runs from e^-1 to e^1 or the reverse, each direction with
    probability one half; every value is bounded by e in magnitude.
    """
    if count < 1:
        raise ConfigError(f"count must be at least 1, got {count}")
    rng = np.random.default_rng(seed)
    phases = rng.uniform(0.0, 2.0 * np.pi, size=count)
    direction = np.where(rng.random(count) < 0.5, 1.0, -1.0)
    t = np.linspace(0.0, 2.0 * np.pi, WAVE_LENGTH)
    ramp = np.linspace(-1.0, 1.0, WAVE_LENGTH)
    return np.sin(t[None, :] + phases[:, None]) * np.exp(ramp[None, :] * direction[:, None])


def generate_walk_dataset(count: int, length: int = WALK_LENGTH, seed: int = 0) -> np.ndarray:
    """Random walks shifted to start at exactly 0, unit dataset-wide spread."""
    if count < 1:
        raise ConfigError(f"count must be at least 1, got {count}")
    if length < 2:
        raise ConfigError(f"length must be at least 2, got {length}")
    rng = np.random.default_rng(seed)
    walks = np.cumsum(rng.standard_normal((count, length)), axis=1)
    walks -= walks[:, :1]  # x0 - x0 is exactly 0.0
    spread = walks.std()
    if spread == 0.0:
        raise NumericError("degenerate walk dataset with zero spread")
    return walks / spread


def held_out_split(data, fraction: float = 0.1) -> tuple[np.ndarray, np.ndarray]:
    """Split off the trailing fraction of examples for evaluation."""
    data = as_tensor(data)
    if data.ndim < 2:
        raise ShapeError("expected an examples-by-features tensor")
    if not 0.0 < fraction < 1.0:
        raise ConfigError(f"fraction must lie in (0, 1), got {fraction}")
    held = int(data.shape[0] * fraction)
    if held < 1 or held >= data.shape[0]:
        raise ShapeError(f"cannot hold out {held} of {data.shape[0]} examples")
    return data[:-held], data[-held:]


def train_autoencoder(data, model_spec: ModelSpec, cfg: TrainConfig):
    """Minimize mse_weight*MSE + dsl_weight*DSL over mini-batches.

    The MSE term is the squared error summed per example and averaged over
    the batch. Summing (rather than averaging) over features keeps the term
    roughly feature-count times larger than the per-comparison directional
    term, which is the magnitude relationship the default 1:128 mixture
    weights are tuned for; averaging both terms would let the directional
    term drown out reconstruction entirely.

    Returns (model, log) where log rows are (batch, mse_term, dsl_term,
    total) with raw (unweighted) term values; a term whose weight is zero is
    not computed and logs as 0. Raises a diverged error naming the batch as
    soon as any term turns non-finite.
    """
    data = as_tensor(data)
    require_finite(data, "training data")
    if data.ndim != 2:
        raise ShapeError(f"training data must be examples x features, got rank {data.ndim}")
    n, features = data.shape
    if features != model_spec.encoder_sizes[0]:
        raise ShapeError(
            f"data has {features} features but the model expects {model_spec.encoder_sizes[0]}"
        )
    if cfg.batch_size > n:
        raise ConfigError(f"batch_size {cfg.batch_size} exceeds dataset size {n}")

    model = initialize_model(model_spec, cfg.seed)
    layers = model.encoder_layers + model.decoder_layers
    linear = {len(model.encoder_layers) - 1, len(layers) - 1}  # the latent and output layers
    batch_rng = np.random.default_rng(np.random.SeedSequence(cfg.seed).spawn(len(layers) + 1)[-1])

    beta1, beta2, eps = 0.9, 0.999, 1e-8
    m_state = [(np.zeros_like(w), np.zeros_like(b)) for w, b in layers]
    v_state = [(np.zeros_like(w), np.zeros_like(b)) for w, b in layers]

    x = np.empty((cfg.batch_size, features))

    log: list[tuple[int, float, float, float]] = []
    for batch_index in range(1, cfg.total_batches + 1):
        idx = batch_rng.choice(n, size=cfg.batch_size, replace=False)
        idx.sort()  # a batch is a set; ordered rows gather faster
        np.take(data, idx, axis=0, out=x)

        trace: list[tuple[np.ndarray, np.ndarray]] = []
        recon = _forward(model.decoder_layers, _forward(model.encoder_layers, x, trace), trace)

        mse_term = 0.0
        grad_recon = None
        if cfg.mse_weight > 0:
            resid = recon - x
            flat = resid.ravel()
            mse_term = float(flat @ flat) / resid.shape[0]
            resid *= cfg.mse_weight * (2.0 / resid.shape[0])
            grad_recon = resid
        dsl_term = 0.0
        if cfg.dsl_weight > 0:
            # data was validated up front and a non-finite reconstruction
            # surfaces through the divergence check just below
            dsl_term, grad_dsl, _, _ = _evaluate(x, recon, cfg.dsl_config, want_dy=True, validate=False)
            grad_dsl *= cfg.dsl_weight
            if grad_recon is None:
                grad_recon = grad_dsl
            else:
                grad_recon += grad_dsl
        total = cfg.mse_weight * mse_term + cfg.dsl_weight * dsl_term
        if not np.isfinite(total):
            raise TrainingDivergedError(batch_index)
        log.append((batch_index, mse_term, dsl_term, total))

        # backward
        delta = grad_recon
        grads = [None] * len(layers)
        for li in range(len(layers) - 1, -1, -1):
            w, _ = layers[li]
            h, z = trace[li]
            gz = delta if li in linear else delta * (z > 0)
            grads[li] = (h.T @ gz, gz.sum(axis=0))
            if li:  # the input needs no gradient
                delta = gz @ w.T

        # adaptive-moment update
        t = batch_index
        corr1 = 1.0 - beta1**t
        corr2 = 1.0 - beta2**t
        for li, ((w, b), (gw, gb)) in enumerate(zip(layers, grads)):
            mw, mb = m_state[li]
            vw, vb = v_state[li]
            mw += (1 - beta1) * (gw - mw)
            mb += (1 - beta1) * (gb - mb)
            vw += (1 - beta2) * (gw * gw - vw)
            vb += (1 - beta2) * (gb * gb - vb)
            w -= cfg.learning_rate * (mw / corr1) / (np.sqrt(vw / corr2) + eps)
            b -= cfg.learning_rate * (mb / corr1) / (np.sqrt(vb / corr2) + eps)

    return model, log


def cumulative_signs(x) -> np.ndarray:
    """Running sum of the signs of consecutive differences; starts at 0."""
    x = as_tensor(x)
    if x.ndim != 1:
        raise ShapeError(f"expected a rank-1 tensor, got rank {x.ndim}")
    if x.shape[0] < 2:
        raise DegenerateAxisError("need at least 2 elements to take differences")
    require_finite(x, "x")
    out = np.empty(x.shape[0])
    out[0] = 0.0
    np.cumsum(sign_like(np.diff(x), SignKind.EXACT_SIGN, 1.0), out=out[1:])
    return out


def directional_agreement(X, Y) -> float:
    """Fraction of finite-difference positions with exactly equal signs."""
    X, Y, axes, _ = _pair_axes(X, Y, skip_batch_axis=False, weights=None)
    matched = 0
    total = 0
    for ax in axes:
        sx = sign_like(np.diff(X, axis=ax), SignKind.EXACT_SIGN, 1.0)
        sy = sign_like(np.diff(Y, axis=ax), SignKind.EXACT_SIGN, 1.0)
        matched += int((sx == sy).sum())
        total += sx.size
    return matched / total


@dataclass(frozen=True)
class ReconstructionScores:
    directional_agreement: float
    persistence_wasserstein: float
    correlation_distance: float  # nan when the correlation is undefined


def evaluate_reconstructions(originals, reconstructions) -> list[ReconstructionScores]:
    """Per-example scores of a reconstruction batch against its originals."""
    originals = as_tensor(originals)
    reconstructions = as_tensor(reconstructions)
    if originals.shape != reconstructions.shape:
        raise ShapeError(f"shape mismatch: {originals.shape} vs {reconstructions.shape}")
    if originals.ndim != 2:
        raise ShapeError("expected examples x features tensors")
    scores = []
    for orig, recon in zip(originals, reconstructions):
        agreement = directional_agreement(orig, recon)
        w2 = wasserstein_distance(
            sublevel_persistence_0d(orig),
            sublevel_persistence_0d(recon),
            p=2.0,
            infinite_death_policy=InfiniteDeathPolicy.CAP_AT_GLOBAL_MAX,
        )
        try:
            corr = pairwise_correlation_distance(orig, recon)
        except UndefinedCorrelationError:
            corr = float("nan")
        scores.append(ReconstructionScores(agreement, w2, corr))
    return scores


def write_training_log(log, path) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write("batch,mse_term,dsl_term,total\n")
        for batch, mse_term, dsl_term, total in log:
            fh.write(f"{batch},{mse_term:.17g},{dsl_term:.17g},{total:.17g}\n")


def write_evaluation_csv(scores, path) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write("example,directional_agreement,persistence_wasserstein,correlation_distance\n")
        for i, s in enumerate(scores):
            fh.write(
                f"{i},{s.directional_agreement:.17g},"
                f"{s.persistence_wasserstein:.17g},{s.correlation_distance:.17g}\n"
            )


def save_checkpoint(model: AutoencoderModel, directory) -> None:
    """Write layer tensors plus a manifest of the layer shapes."""
    os.makedirs(directory, exist_ok=True)
    lines = [f"latent_dim {model.latent_dim}"]
    for stack_name, stack in (
        ("encoder", model.encoder_layers),
        ("decoder", model.decoder_layers),
    ):
        for i, (w, b) in enumerate(stack):
            write_tensor(w, os.path.join(directory, f"{stack_name}_{i}_weight.dst"))
            write_tensor(b, os.path.join(directory, f"{stack_name}_{i}_bias.dst"))
            lines.append(f"{stack_name} {i} {w.shape[0]} {w.shape[1]}")
    with open(os.path.join(directory, "manifest.txt"), "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")


def load_checkpoint(directory) -> AutoencoderModel:
    manifest = os.path.join(directory, "manifest.txt")
    try:
        with open(manifest, "r", encoding="ascii") as fh:
            lines = [ln.strip() for ln in fh if ln.strip()]
    except OSError as exc:
        raise FormatError(f"cannot read checkpoint manifest: {exc}") from exc
    if not lines or not lines[0].startswith("latent_dim "):
        raise FormatError(f"{manifest}: first line must declare latent_dim")
    try:
        latent_dim = int(lines[0].split()[1])
    except (IndexError, ValueError):
        raise FormatError(f"{manifest}: malformed latent_dim line") from None
    stacks: dict[str, list[tuple[np.ndarray, np.ndarray]]] = {"encoder": [], "decoder": []}
    for line in lines[1:]:
        parts = line.split()
        if len(parts) != 4 or parts[0] not in stacks:
            raise FormatError(f"{manifest}: malformed layer line {line!r}")
        stack_name, i, fan_in, fan_out = parts[0], parts[1], parts[2], parts[3]
        try:
            i, fan_in, fan_out = int(i), int(fan_in), int(fan_out)
        except ValueError:
            raise FormatError(f"{manifest}: malformed layer line {line!r}") from None
        if i != len(stacks[stack_name]):
            raise FormatError(f"{manifest}: layer {stack_name} {i} out of order")
        w = read_tensor(os.path.join(directory, f"{stack_name}_{i}_weight.dst"))
        b = read_tensor(os.path.join(directory, f"{stack_name}_{i}_bias.dst"))
        if w.shape != (fan_in, fan_out) or b.shape != (fan_out,):
            raise FormatError(
                f"{manifest}: layer {stack_name} {i} tensors do not match the manifest"
            )
        stacks[stack_name].append((w, b))
    if not stacks["encoder"] or not stacks["decoder"]:
        raise FormatError(f"{manifest}: checkpoint must contain both stacks")
    return AutoencoderModel(
        encoder_layers=stacks["encoder"],
        decoder_layers=stacks["decoder"],
        latent_dim=latent_dim,
    )


def demo_preset(dataset: str) -> tuple[ModelSpec, TrainConfig]:
    """Hyperparameter presets for the two demo datasets (mixture 1 + 128)."""
    if dataset == "wave":
        return WAVE_MODEL, TrainConfig(mse_weight=1.0, dsl_weight=128.0)
    if dataset == "walk":
        return WALK_MODEL, TrainConfig(
            mse_weight=1.0,
            dsl_weight=128.0,
            dsl_config=DslConfig(sharpness=16.0, skip_batch_axis=True),
            learning_rate=1e-4,
            batch_size=64,
        )
    raise ConfigError(f"unknown demo dataset {dataset!r}")
