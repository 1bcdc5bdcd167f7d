"""Latent-sort autoencoder: an MLP encoder mapping tokens to a scalar and a
decoder mapping back, trained with reconstruction loss plus a latent gradient
penalty (LGP) that makes neighboring latent gaps track original-space
distances. Forward and backward passes are written out explicitly so the
gradients can be validated against finite differences.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .core import (SortedCorpus, SortedSequence, TokenSet, _dots, _json_numbers, atomic_write,
                   by_set_size, set_ids)

MODEL_FORMAT_VERSION = 1

# The LGP's target ratio of token distance to latent gap, and its tie gap (see
# lgp_terms). With alpha = 1 a latent gap is measured in token units, and 0.1
# is the distance below which the planar generator
# (PlanarGenConfig.collapse_distance) merges two unit-square points into one
# node. A beta that only guards the division (say 1e-6) lets one tied pair
# score ~2 * (d / beta)^2, and such spikes swamp Adam's second moment so that
# reconstruction hardly learns.
LGP_ALPHA = 1.0
LGP_BETA = 0.1

# the widths of the encoder's and the decoder's hidden layers, unless given
HIDDEN_SIZES = (64, 64)


# ---------------------------------------------------------------------------
# MLP with tanh hidden layers and a linear output layer.
# ---------------------------------------------------------------------------


def _matrix(flat: np.ndarray | None, rows: int, cols: int) -> np.ndarray:
    """A (rows, cols) array: fresh without a buffer, else a C-contiguous view
    of the buffer's first rows * cols values."""
    if flat is None:
        return np.empty((rows, cols))
    return flat[: rows * cols].reshape(rows, cols)


def _matmul(a: np.ndarray, b: np.ndarray, out: np.ndarray) -> np.ndarray:
    """a @ b into out, a stacked over any leading dimensions. An inner
    dimension of 1 makes it an outer product, which broadcasting computes
    without gemm. The values are gemm's, except that a product of exactly
    zero keeps its sign where gemm, adding it to +0, gives +0; every use adds
    a bias to it or sums it from +0 (matmul and np.sum both do), so what
    training computes is unchanged."""
    if a.shape[-1] == 1:
        return np.multiply(a, b, out=out)
    return np.matmul(a, b, out=out)


@dataclass
class MlpBuffers:
    """Memory an Mlp's forward and backward passes reuse from step to step.

    Each buffer is flat and holds up to a row capacity fixed at creation; a
    pass views its first rows * width values as a C-contiguous matrix, so
    batches of any row count up to the capacity share it. `outs` holds one
    buffer per layer for its activations. `scratch` holds two buffers that
    backward alternates between for the deltas and the tanh derivative, and
    may be shared by Mlps that never run backward at the same time. Backward
    writes the gradients into `grad_weights` and `grad_biases`.
    """

    outs: list[np.ndarray]
    scratch: list[np.ndarray]
    grad_weights: list[np.ndarray]
    grad_biases: list[np.ndarray]


@dataclass
class Mlp:
    weights: list[np.ndarray]  # weights[l]: (in, out)
    biases: list[np.ndarray]  # biases[l]: (out,)

    @classmethod
    def init(cls, layer_sizes: list[int], rng: np.random.Generator) -> "Mlp":
        """Uniform init scaled by 1/sqrt(fan_in) per layer (small variance)."""
        weights, biases = [], []
        for n_in, n_out in zip(layer_sizes[:-1], layer_sizes[1:]):
            bound = 1.0 / math.sqrt(n_in)
            weights.append(rng.uniform(-bound, bound, size=(n_in, n_out)))
            biases.append(rng.uniform(-bound, bound, size=n_out))
        return cls(weights, biases)

    @property
    def layer_sizes(self) -> list[int]:
        """Widths from input to output, read off the weight shapes."""
        return [w.shape[0] for w in self.weights] + [self.weights[-1].shape[1]]

    def forward(self, x: np.ndarray, buffers: MlpBuffers | None = None):
        """Batched forward pass. x: (B, in). Returns output (B, out) and the
        per-layer activations needed for backprop. With buffers the
        activations are views of buffers.outs, valid until the next pass.

        Without buffers x may be stacked, (..., B, in), for an output
        (..., B, out). matmul runs BLAS on each (B, in) item with that item's
        shape, so each item's output is bit for bit its own pass's."""
        acts = [x]
        last = len(self.weights) - 1
        for l, (w, b) in enumerate(zip(self.weights, self.biases)):
            if buffers is None:
                z = np.empty(x.shape[:-1] + (w.shape[1],))
            else:
                z = _matrix(buffers.outs[l], len(x), w.shape[1])
            _matmul(acts[-1], w, z)
            z += b
            if l != last:
                np.tanh(z, out=z)
            acts.append(z)
        return acts[-1], acts

    def backward(self, acts, grad_out: np.ndarray, buffers: MlpBuffers | None = None,
                 input_grad: bool = True):
        """Backprop grad_out (B, out) through the cached forward pass.
        Returns (grad_x, grad_weights, grad_biases); grad_x is None when
        input_grad is false, which skips its product. With buffers the
        gradients are buffers.grad_weights and grad_biases, overwritten."""
        n = len(self.weights)
        rows = len(grad_out)
        if buffers is None:
            gw = [np.empty(w.shape) for w in self.weights]
            gb = [np.empty(b.shape) for b in self.biases]
            scratch = [None, None]
        else:
            gw, gb, scratch = buffers.grad_weights, buffers.grad_biases, buffers.scratch
        # below the output layer, layer l's delta is in scratch[(l + 1) % 2];
        # its tanh derivative, then the next delta, go in scratch[l % 2]
        delta = grad_out
        for l in range(n - 1, -1, -1):
            if l != n - 1:
                tanh_grad = _matrix(scratch[l % 2], rows, delta.shape[1])
                np.multiply(acts[l + 1], acts[l + 1], out=tanh_grad)
                np.subtract(1.0, tanh_grad, out=tanh_grad)
                delta *= tanh_grad
            np.matmul(acts[l].T, delta, out=gw[l])
            np.sum(delta, axis=0, out=gb[l])
            if l == 0 and not input_grad:
                return None, gw, gb
            delta = _matmul(delta, self.weights[l].T, _matrix(scratch[l % 2], rows, self.weights[l].shape[0]))
        return delta, gw, gb

    def params(self) -> list[np.ndarray]:
        return self.weights + self.biases


@dataclass
class LatentSortModel:
    encoder: Mlp  # N -> 1
    decoder: Mlp  # 1 -> N
    meta: dict = field(default_factory=dict)

    @property
    def token_dim(self) -> int:
        return self.encoder.weights[0].shape[0]

    def params(self) -> list[np.ndarray]:
        return self.encoder.params() + self.decoder.params()


def init_model(n: int, hidden_sizes=HIDDEN_SIZES, seed: int = 0) -> LatentSortModel:
    """Deterministic model initialization for token dimension n."""
    if n < 1 or any(h < 1 for h in hidden_sizes):
        raise ValueError("token dimension and hidden sizes must be positive")
    rng = np.random.default_rng(seed)
    hidden = list(hidden_sizes)
    encoder = Mlp.init([n] + hidden + [1], rng)
    decoder = Mlp.init([1] + hidden + [n], rng)
    return LatentSortModel(encoder, decoder, meta={"seed": seed, "epochs": 0})


def encode_batch(m: LatentSortModel, x: np.ndarray) -> np.ndarray:
    """Latents of tokens x (B, N), or of stacked sets (..., B, N), each set
    encoded as in a pass of its own (see Mlp.forward)."""
    if x.shape[-1] != m.token_dim:
        raise ValueError(f"token dimension {x.shape[-1]} != model dimension {m.token_dim}")
    h, _ = m.encoder.forward(x)
    return h[..., 0]


def decode_batch(m: LatentSortModel, h: np.ndarray) -> np.ndarray:
    out, _ = m.decoder.forward(np.asarray(h, dtype=np.float64).reshape(-1, 1))
    return out


def latent_sort_corpus(m: LatentSortModel, values: np.ndarray, sizes) -> SortedCorpus:
    """latent_sort of every set of a corpus.

    How many rows a pass holds can change the last bits of a latent, so each
    set is encoded as a pass of its own: the sets of each size are stacked
    into one pass, (B, M, N), whose items are BLAS calls of one set's shape.
    A set's keys are the same here as in latent_sort of that set alone.
    """
    sizes = np.asarray(sizes, dtype=np.intp)
    raw = by_set_size(lambda sets: encode_batch(m, sets), values, sizes)
    rows_order = np.lexsort((raw, set_ids(sizes)))
    raw = raw[rows_order]
    starts = np.cumsum(sizes) - sizes
    low = np.repeat(raw[starts], sizes)
    span = np.repeat(raw[starts + sizes - 1], sizes) - low
    norm = np.divide(raw - low, span, out=np.zeros_like(raw), where=span > 0)
    return SortedCorpus.from_order(values, sizes, rows_order, keys=norm, raw_keys=raw)


def latent_sort(m: LatentSortModel, x: TokenSet) -> SortedSequence:
    """Sort tokens ascending by encoder latents (stable).

    Reported keys are min-max normalized to [0, 1] over the set; raw encoder
    outputs are kept in `raw_keys`. Normalization is monotone, so it cannot
    change the order. A singleton set gets normalized key 0.
    """
    return latent_sort_corpus(m, x.values, [x.size]).sequence(0)


# ---------------------------------------------------------------------------
# Losses.
# ---------------------------------------------------------------------------


def reconstruction_loss(x: np.ndarray, x_hat: np.ndarray):
    """Mean squared reconstruction error and its gradient w.r.t. x_hat."""
    diff = x_hat - x
    scale = 1.0 / diff.size
    return float(np.sum(diff * diff) * scale), 2.0 * diff * scale


def _lgp_sorted(xs: np.ndarray, hs: np.ndarray, sizes):
    """LGP of consecutive token sets of the given sizes, each sorted by latent:
    xs (T, N) tokens and hs (T,) latents, set after set, at LGP_ALPHA and
    LGP_BETA.

    Every consecutive pair of rows is a term, and a pair that spans two sets
    is exactly +0.0 in loss and gradient. Returns per-set losses (len(sizes),)
    and the gradient w.r.t. hs (T,), bit for bit lgp_terms' formula evaluated
    pair by pair on each set alone: distances are the BLAS dot products a 1-D
    np.linalg.norm takes, and each set's terms are added in pair order.
    """
    ids = set_ids(sizes)
    diff = xs[:-1] - xs[1:]
    d = np.sqrt(_dots(diff, diff))
    h_left, h_right = hs[:-1], hs[1:]
    denom = np.abs(h_left - h_right) + LGP_BETA
    g = d / denom - LGP_ALPHA
    # d(2 g^2)/ds, chained through s = |h_i - h_{i+1}|
    dl_ds = -4.0 * g * d / (denom * denom)
    dl_dh = np.where(h_left >= h_right, dl_ds, -dl_ds)
    across = ids[1:] != ids[:-1]
    g[across] = dl_dh[across] = 0.0
    losses = np.bincount(ids[:-1], weights=2.0 * g * g, minlength=len(sizes))  # adds in pair order
    # +0.0 across two sets leaves each set's end gradients as in the set alone
    grad_h = np.zeros(len(hs))
    grad_h[:-1] += dl_dh
    grad_h[1:] -= dl_dh
    return losses, grad_h


def _lgp_batch(x: np.ndarray, h: np.ndarray, sizes: list[int]):
    """LGP of consecutive token sets of the given sizes in x (T, N) with
    latents h (T,). One stable sort of the rows by set, then latent, ranks
    each set by its latents, and only consecutive pairs of that order are
    penalized. Returns the sum of the set losses, added in set order, and the
    gradient w.r.t. h (T,).
    """
    order = np.lexsort((h, set_ids(sizes)))
    losses, grad = _lgp_sorted(x[order], h[order], sizes)
    grad_h = np.empty_like(grad)
    grad_h[order] = grad
    return float(np.cumsum(losses)[-1]), grad_h  # cumsum adds in order; sum() would not


def lgp_terms(x_sorted: np.ndarray, h_sorted: np.ndarray):
    """Loss and gradient w.r.t. the sorted latents.

    For each consecutive pair, with alpha = LGP_ALPHA and beta = LGP_BETA,
    g = ||x_i - x_{i+1}|| / (|h_i - h_{i+1}| + beta) - alpha.
    Each unordered pair appears twice in the symmetric double sum, so the
    returned loss is sum(2 * g^2).

    beta is the latent gap below which two distinct tokens count as tied:
    gaps well below it all cost about the same, so a pair at distance d on a
    tied latent scores at most 2 * (d / beta - alpha)^2. The penalty is zero
    at gap d / alpha - beta, and pairs closer than alpha * beta are drawn
    together rather than apart. This is the one-set case of _lgp_sorted, which
    training runs on a whole batch (see _lgp_batch).
    """
    losses, grad_h = _lgp_sorted(x_sorted, h_sorted, [len(h_sorted)])
    return float(losses[0]), grad_h


# ---------------------------------------------------------------------------
# Training.
# ---------------------------------------------------------------------------


# token sets per training step; the last step of an epoch takes the rest
BATCH_SIZE = 64


@dataclass
class TrainConfig:
    """Training hyperparameters. The LGP terms (see lgp_terms) are weighted
    by lgp_coefficient."""

    epochs: int = 200
    lgp_coefficient: float = 0.05
    seed: int = 0
    hidden_sizes: tuple = HIDDEN_SIZES

    def validate(self) -> None:
        if not 0 <= self.lgp_coefficient < math.inf:  # also rejects NaN
            raise ValueError(f"require a finite lgp_coefficient >= 0, got {self.lgp_coefficient}")
        if self.epochs < 0:
            raise ValueError("epochs must be >= 0")


PEAK_LR = 1e-3
WARMUP_FRAC = 0.10
WARMUP_INIT_LR = 1e-5
FINAL_LR = 1e-8


def learning_rate(step: int, total_steps: int) -> float:
    """Exponential warmup from WARMUP_INIT_LR to PEAK_LR over the first
    WARMUP_FRAC of the steps, then cosine decay to FINAL_LR."""
    warmup_steps = int(WARMUP_FRAC * total_steps)
    if step < warmup_steps:
        t = (step + 1) / warmup_steps
        return WARMUP_INIT_LR * (PEAK_LR / WARMUP_INIT_LR) ** t
    remaining = max(total_steps - warmup_steps, 1)
    t = (step - warmup_steps) / remaining
    return FINAL_LR + 0.5 * (PEAK_LR - FINAL_LR) * (1.0 + math.cos(math.pi * t))


def batch_losses_and_grads(m: LatentSortModel, sets: list[np.ndarray], cfg: TrainConfig,
                           buffers: tuple[MlpBuffers, MlpBuffers] | None = None):
    """Reconstruction + LGP losses and analytic gradients for one batch.

    The LGP is applied per token set: each set's tokens are ranked by the
    current encoder latents and only consecutive pairs of that order are
    penalized. Returns (recon, lgp, grads aligned with model.params()).
    With buffers (the encoder's and the decoder's, see _train_buffers) the
    passes run in them and the gradients are views of their flat gradient
    vector, overwritten by the next call.
    """
    enc_buf, dec_buf = buffers or (None, None)
    x = np.concatenate(sets, axis=0)
    h_col, enc_acts = m.encoder.forward(x, enc_buf)
    x_hat, dec_acts = m.decoder.forward(h_col, dec_buf)

    recon, grad_xhat = reconstruction_loss(x, x_hat)
    grad_h_dec, dec_gw, dec_gb = m.decoder.backward(dec_acts, grad_xhat, dec_buf)

    lgp_total, grad_h_lgp = _lgp_batch(x, h_col[:, 0], [s.shape[0] for s in sets])
    lgp_mean = lgp_total / len(sets)

    grad_h = grad_h_dec + (cfg.lgp_coefficient / len(sets)) * grad_h_lgp[:, None]
    _, enc_gw, enc_gb = m.encoder.backward(enc_acts, grad_h, enc_buf, input_grad=False)

    grads = enc_gw + enc_gb + dec_gw + dec_gb
    return recon, lgp_mean, grads


def total_loss(m: LatentSortModel, sets: list[np.ndarray], cfg: TrainConfig) -> float:
    """The scalar objective that batch_losses_and_grads differentiates."""
    recon, lgp, _ = batch_losses_and_grads(m, sets, cfg)
    return recon + cfg.lgp_coefficient * lgp


ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


class AdamState:
    """Adam moments of one parameter vector. Every operation is elementwise,
    so one update of a flat vector equals updates of its pieces."""

    def __init__(self, params: np.ndarray):
        self.m = np.zeros_like(params)
        self.v = np.zeros_like(params)
        self.t = 0

    def update(self, params: np.ndarray, grads: np.ndarray, lr: float) -> None:
        self.t += 1
        b1, b2 = ADAM_BETA1, ADAM_BETA2
        bc1 = 1.0 - b1 ** self.t
        bc2 = 1.0 - b2 ** self.t
        self.m *= b1
        self.m += (1 - b1) * grads
        self.v *= b2
        self.v += (1 - b2) * grads * grads
        params -= lr * (self.m / bc1) / (np.sqrt(self.v / bc2) + ADAM_EPS)


def _split(flat: np.ndarray, like: list[np.ndarray]) -> list[np.ndarray]:
    """Consecutive views of flat shaped like the arrays of `like`."""
    views, start = [], 0
    for a in like:
        views.append(flat[start : start + a.size].reshape(a.shape))
        start += a.size
    return views


def _train_buffers(model: LatentSortModel, rows: int):
    """Memory for training model on batches of up to `rows` tokens.

    Copies the parameters into one flat vector and rebinds the model's weights
    and biases as views of it, in params() order, and makes a flat gradient
    vector split the same way. Returns (params, grads, (encoder buffers,
    decoder buffers)); the two Mlps share their backward scratch.
    """
    params = model.params()
    flat = np.concatenate([p.ravel() for p in params])
    grads = np.empty_like(flat)
    param_views, grad_views = iter(_split(flat, params)), iter(_split(grads, params))
    width = max(model.encoder.layer_sizes + model.decoder.layer_sizes)
    scratch = [np.empty(rows * width) for _ in range(2)]
    buffers = []
    for mlp in (model.encoder, model.decoder):
        mlp.weights = [next(param_views) for _ in mlp.weights]
        mlp.biases = [next(param_views) for _ in mlp.biases]
        buffers.append(MlpBuffers(
            outs=[np.empty(rows * w) for w in mlp.layer_sizes[1:]],
            scratch=scratch,
            grad_weights=[next(grad_views) for _ in mlp.weights],
            grad_biases=[next(grad_views) for _ in mlp.biases],
        ))
    return flat, grads, tuple(buffers)


def train(data: list[TokenSet], cfg: TrainConfig | None = None):
    """Train a latent-sort model on a corpus of token sets.

    Returns (model, history) where history has one entry per epoch:
    {"epoch", "recon", "lgp", "lr"}. Fully deterministic given cfg.seed and
    the BLAS thread count. Aborts with a diagnostic if the loss turns
    non-finite.
    """
    cfg = cfg or TrainConfig()
    cfg.validate()
    if not data:
        raise ValueError("no token sets to train on")
    dims = {ts.dim for ts in data}
    if len(dims) != 1:
        raise ValueError(f"all token sets must share one dimension, got {sorted(dims)}")
    n = dims.pop()
    model = init_model(n, cfg.hidden_sizes, seed=cfg.seed)
    arrays = [ts.values for ts in data]
    # the largest row count a batch can have: its sets are the largest ones
    max_rows = sum(sorted((len(a) for a in arrays), reverse=True)[:BATCH_SIZE])
    params, grads, buffers = _train_buffers(model, max_rows)

    rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 1]))
    steps_per_epoch = math.ceil(len(arrays) / BATCH_SIZE)
    total_steps = cfg.epochs * steps_per_epoch
    adam = AdamState(params)
    history: list[dict] = []
    step = 0
    lr = 0.0
    for epoch in range(cfg.epochs):
        perm = rng.permutation(len(arrays))
        recon_sum = lgp_sum = 0.0
        for b in range(steps_per_epoch):
            batch = [arrays[i] for i in perm[b * BATCH_SIZE : (b + 1) * BATCH_SIZE]]
            recon, lgp, _ = batch_losses_and_grads(model, batch, cfg, buffers)
            if not (math.isfinite(recon) and math.isfinite(lgp)):
                raise RuntimeError(
                    f"non-finite loss at epoch {epoch}, last lr {lr:.3e} "
                    f"(recon={recon}, lgp={lgp})"
                )
            lr = learning_rate(step, total_steps)
            adam.update(params, grads, lr)
            recon_sum += recon
            lgp_sum += lgp
            step += 1
        history.append(
            {
                "epoch": epoch,
                "recon": recon_sum / steps_per_epoch,
                "lgp": lgp_sum / steps_per_epoch,
                "lr": lr,
            }
        )
    model.meta.update(
        {
            "seed": cfg.seed,
            "epochs": cfg.epochs,
            "final_recon": history[-1]["recon"] if history else None,
            "final_lgp": history[-1]["lgp"] if history else None,
        }
    )
    return model, history


# ---------------------------------------------------------------------------
# Serialization: JSON with exact float round-trip.
# ---------------------------------------------------------------------------


def _mlp_to_obj(mlp: Mlp) -> dict:
    return {
        "layer_sizes": list(mlp.layer_sizes),
        "weights": [w.ravel().tolist() for w in mlp.weights],
        "biases": [b.tolist() for b in mlp.biases],
    }


def _is_positive_int(value) -> bool:
    return type(value) is int and value > 0  # a JSON integer; not a float, string or bool


def _mlp_from_obj(obj: dict, n_in: int, n_out: int) -> Mlp:
    """The stored MLP from n_in to n_out: the one check of a stored MLP. A
    weight array is flat (rows * cols,) or nested (rows, cols), a bias array
    is (cols,), and every value is a finite JSON number, not a bool."""
    sizes = obj["layer_sizes"]
    if not (isinstance(sizes, list) and len(sizes) >= 2 and all(map(_is_positive_int, sizes))
            and sizes[0] == n_in and sizes[-1] == n_out):
        raise ValueError(f"layer_sizes must be positive integers from {n_in} to {n_out}, got {sizes!r}")
    if not len(obj["weights"]) == len(obj["biases"]) == len(sizes) - 1:
        raise ValueError(f"{len(sizes) - 1} layers need one weight and one bias array each")
    weights, biases = [], []
    for l, (rows, cols) in enumerate(zip(sizes[:-1], sizes[1:])):
        w_obj, b_obj = obj["weights"][l], obj["biases"][l]
        w = np.asarray(w_obj, dtype=np.float64)
        b = np.asarray(b_obj, dtype=np.float64)
        if w.shape not in ((rows * cols,), (rows, cols)) or b.shape != (cols,):
            raise ValueError(f"layer {l}: shapes {w.shape}/{b.shape} disagree with layer_sizes {(rows, cols)}")
        _json_numbers([w_obj] if w.ndim == 1 else w_obj, "weights")
        _json_numbers([b_obj], "biases")
        if not (np.isfinite(w).all() and np.isfinite(b).all()):
            raise ValueError(f"layer {l}: non-finite parameters")
        weights.append(w.reshape(rows, cols))
        biases.append(b)
    return Mlp(weights, biases)


def save_model(m: LatentSortModel, path) -> None:
    obj = {
        "version": MODEL_FORMAT_VERSION,
        "token_dim": m.token_dim,
        "encoder": _mlp_to_obj(m.encoder),
        "decoder": _mlp_to_obj(m.decoder),
        "meta": m.meta,
    }
    text = json.dumps(obj) + "\n"  # json.dump skips the C encoder; the text is the same
    with atomic_write(path) as fh:
        fh.write(text)


def load_model(path) -> LatentSortModel:
    with open(path) as fh:
        text = fh.read()
    try:
        obj = json.loads(text)
        if not isinstance(obj, dict):
            raise ValueError(f"expected a JSON object, got {type(obj).__name__}")
        version = obj.get("version")
        if type(version) is not int or version != MODEL_FORMAT_VERSION:  # true == 1, so check the type
            raise ValueError(f"unsupported model format version {version!r}")
        n = obj["token_dim"]
        if not _is_positive_int(n):
            raise ValueError(f"token_dim must be a positive integer, got {n!r}")
        meta = obj.get("meta", {})
        if not isinstance(meta, dict):
            raise ValueError(f"meta must be a JSON object, got {type(meta).__name__}")
        model = LatentSortModel(_mlp_from_obj(obj["encoder"], n, 1), _mlp_from_obj(obj["decoder"], 1, n), meta)
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        raise ValueError(f"{path}: not a valid model file: {type(exc).__name__}: {exc}") from exc
    return model
