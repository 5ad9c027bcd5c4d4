"""Residual-quantized autoencoding of item embeddings into hierarchical codes.

A plain-numpy MLP encoder/decoder (affine layers with rectifier activations,
no dropout or batch normalization) is trained jointly with per-level codebooks.
Quantization recurses on residuals:

    r_0 = z,   c_l = argmin_w ||r_{l-1} - e_w^(l)||^2,   r_l = r_{l-1} - e_{c_l}^(l)

and the quantized latent is z* = sum_l e_{c_l}^(l). The reconstruction loss is
||x - x*||^2 (batch mean); the quantization loss per level is
||sg[r_{l-1}] - e||^2 + beta * ||r_{l-1} - sg[e]||^2 where sg stops gradients.
The encoder is trained with the decoder's input gradient passed straight through
the quantizer plus the commitment (beta) branch; codebooks receive only the
sg-protected codebook term. All arithmetic is 64-bit.
"""
from __future__ import annotations

import logging
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .collab import scatter_add_rows
from .dataio import EmbeddingMatrix, decoded, refusal, replace_on_close

log = logging.getLogger(__name__)


@dataclass
class RqVaeConfig:
    latent_dim: int = 32
    code_len: int = 3          # L: quantization levels before the disambiguator
    codebook_size: int = 256   # W
    hidden_dim: int = 128
    n_layers: int = 5          # affine layers in the encoder and in the decoder
    beta: float = 0.25
    epochs: int = 300
    batch_size: int = 256
    learning_rate: float = 1e-3
    weight_decay: float = 0.0
    kmeans_iters: int = 100
    seed: int = 0

    def validate(self) -> None:
        for name, low in (("latent_dim", 1), ("code_len", 1), ("codebook_size", 2),
                          ("hidden_dim", 1), ("n_layers", 1), ("epochs", 0), ("batch_size", 1),
                          ("weight_decay", 0), ("kmeans_iters", 0)):
            if not getattr(self, name) >= low:  # nan fails too
                raise ValueError(f"{name} must be >= {low}, got {getattr(self, name)}")
        for name in ("beta", "learning_rate"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be > 0, got {getattr(self, name)}")
        if self.batch_size < self.codebook_size:  # k-means init draws its words from one batch
            raise ValueError(f"batch_size must be >= codebook_size ({self.codebook_size}), "
                             f"got {self.batch_size}")


@dataclass
class RqVaeModel:
    encoder_weights: list[np.ndarray]
    encoder_biases: list[np.ndarray]
    decoder_weights: list[np.ndarray]
    decoder_biases: list[np.ndarray]
    codebooks: list[np.ndarray]  # per level, (W, latent_dim)
    config: RqVaeConfig
    input_dim: int
    # (l_rec, l_rq), epochs + 1 entries. Entry 0 and the last entry are full-data
    # evaluations before and after training; entry e in between is epoch e's
    # training loss, the per-item mean over its batches at the parameters each saw
    loss_history: list[tuple[float, float]] = field(default_factory=list)
    reseeds: list[int] = field(default_factory=list)  # dead codewords reseeded per level


@dataclass
class ItemCodeTable:
    """Per-item hierarchical code tuple: L codebook levels plus one disambiguator."""

    index_type: str            # "ceid" | "seid"
    code_len: int              # L
    codes: dict[str, tuple[int, ...]]

    @property
    def code_len_total(self) -> int:
        return self.code_len + 1


# ---------------------------------------------------------------------------
# k-means and quantization

def kmeans_init(latents: np.ndarray, n_centroids: int, iters: int,
                rng: np.random.Generator) -> np.ndarray:
    """Lloyd's algorithm seeded by uniform sampling of distinct rows.

    Empty clusters, in order, take the points farthest from their centroids.
    """
    n = latents.shape[0]
    if n < n_centroids:
        raise ValueError(f"need at least {n_centroids} rows, got {n}")
    pick = rng.choice(n, size=n_centroids, replace=False)
    centroids = latents[pick].copy()
    for _ in range(iters):
        d2 = _sq_dists(latents, centroids)
        assign = np.argmin(d2, axis=1)
        count = np.bincount(assign, minlength=n_centroids)
        new = scatter_add_rows(n_centroids, assign, latents) / np.maximum(count, 1)[:, None]
        empty = count == 0
        new[empty] = latents[np.argsort(-d2[np.arange(n), assign], kind="stable")[:empty.sum()]]
        if np.array_equal(new, centroids):
            break
        centroids = new
    return centroids


def _sq_dists(points: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    # ||p - c||^2 without forming the (n, W, d) cube for large inputs
    p2 = np.sum(points * points, axis=1)[:, None]
    c2 = np.sum(centroids * centroids, axis=1)[None, :]
    d2 = p2 + c2 - 2.0 * points @ centroids.T
    return np.maximum(d2, 0.0)


def quantize_batch(latents: np.ndarray, codebooks: list[np.ndarray]
                   ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized residual quantization.

    Returns (codes (B, L), residuals (B, L+1, d) with residuals[:, 0] = z,
    z_star (B, d)). Argmin ties go to the smallest codeword index.
    """
    if not np.all(np.isfinite(latents)):
        raise ValueError("non-finite latent input to quantizer")
    n, d = latents.shape
    n_levels = len(codebooks)
    codes = np.zeros((n, n_levels), dtype=np.int64)
    residuals = np.zeros((n, n_levels + 1, d))
    residuals[:, 0] = latents
    z_star = np.zeros((n, d))
    r = latents
    for l, cb in enumerate(codebooks):
        c = np.argmin(_sq_dists(r, cb), axis=1)
        codes[:, l] = c
        picked = cb[c]
        z_star += picked
        r = r - picked
        residuals[:, l + 1] = r
    return codes, residuals, z_star


# ---------------------------------------------------------------------------
# MLP forward/backward

def _mlp_forward(weights: list[np.ndarray], biases: list[np.ndarray],
                 x: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
    """Affine layers with ReLU between them (none after the last).

    Returns the output and each layer's input. The bias and the ReLU are
    applied in place, so no pre-activation is kept: the backward pass reads
    the next layer's input, and max(pre, 0) > 0 holds exactly where pre > 0
    does, NaN and -0.0 included.
    """
    inputs = []
    h = x
    last = len(weights) - 1
    for k, (w, b) in enumerate(zip(weights, biases)):
        inputs.append(h)
        h = h @ w
        h += b
        if k < last:
            np.maximum(h, 0.0, out=h)
    return h, inputs


def _mlp_backward(weights: list[np.ndarray], inputs: list[np.ndarray], grad_out: np.ndarray,
                  grads: dict[str, np.ndarray], part: str,
                  input_grad: bool = True) -> np.ndarray | None:
    """Backpropagate grad_out through the layers whose inputs _mlp_forward returned.

    Layer k's weight and bias gradients are written into grads[f"{part}{k}_w"]
    and grads[f"{part}{k}_b"]. Returns the input gradient, or None (and skips
    the first layer's product) when input_grad is false.
    """
    g = grad_out
    last = len(weights) - 1
    for k in range(last, -1, -1):
        if k < last:
            g = g * (inputs[k + 1] > 0.0)
        np.matmul(inputs[k].T, g, out=grads[f"{part}{k}_w"])
        np.sum(g, axis=0, out=grads[f"{part}{k}_b"])
        if k or input_grad:
            g = g @ weights[k].T
    return g if input_grad else None


def encode(model: RqVaeModel, x: np.ndarray) -> np.ndarray:
    out, _ = _mlp_forward(model.encoder_weights, model.encoder_biases, x)
    return out


def decode(model: RqVaeModel, z: np.ndarray) -> np.ndarray:
    out, _ = _mlp_forward(model.decoder_weights, model.decoder_biases, z)
    return out


def _named_arrays(enc_w: list[np.ndarray], enc_b: list[np.ndarray],
                  dec_w: list[np.ndarray], dec_b: list[np.ndarray],
                  codebooks: list[np.ndarray]) -> dict[str, np.ndarray]:
    out: dict[str, np.ndarray] = {}
    for k, (w, b) in enumerate(zip(enc_w, enc_b)):
        out[f"enc{k}_w"], out[f"enc{k}_b"] = w, b
    for k, (w, b) in enumerate(zip(dec_w, dec_b)):
        out[f"dec{k}_w"], out[f"dec{k}_b"] = w, b
    for l, vectors in enumerate(codebooks):
        out[f"cb{l}"] = vectors
    return out


def parameter_arrays(model: RqVaeModel) -> dict[str, np.ndarray]:
    """Live views of every trained array (encoder, decoder, codebooks) by stable name.

    The optimizer and the gradient check both use this one dict, in this order.
    """
    return _named_arrays(model.encoder_weights, model.encoder_biases,
                         model.decoder_weights, model.decoder_biases, model.codebooks)


# ---------------------------------------------------------------------------
# Losses and gradients

@dataclass
class _ForwardPass:
    x_star: np.ndarray
    delta: np.ndarray          # x_star - batch
    codes: np.ndarray          # (B, L)
    residuals: np.ndarray      # (B, L+1, d), residuals[:, 0] = z
    l_rec: float
    l_rq: float
    enc_inputs: list[np.ndarray]   # each layer's input, as _mlp_forward returns them
    dec_inputs: list[np.ndarray]

    @property
    def losses(self) -> tuple[float, float]:
        return self.l_rec, self.l_rq


def _forward(model: RqVaeModel, batch: np.ndarray) -> _ForwardPass:
    """Encode, quantize and decode one batch; losses are batch means."""
    if batch.ndim != 2 or batch.shape[0] == 0:
        raise ValueError("batch must be non-empty and 2-D")
    z, enc_inputs = _mlp_forward(model.encoder_weights, model.encoder_biases, batch)
    codes, residuals, z_star = quantize_batch(z, model.codebooks)
    x_star, dec_inputs = _mlp_forward(model.decoder_weights, model.decoder_biases, z_star)
    delta = x_star - batch   # squares to (batch - x_star) ** 2, bit for bit
    l_rec = float(np.mean(np.sum(delta ** 2, axis=1)))
    # numerically both sg branches share the same value: (1 + beta) * ||r_l||^2
    level_err = np.sum(residuals[:, 1:] ** 2, axis=2)       # (B, L): ||r_{l-1} - e||^2
    l_rq = float((1.0 + model.config.beta) * np.mean(np.sum(level_err, axis=1)))
    return _ForwardPass(x_star, delta, codes, residuals, l_rec, l_rq, enc_inputs, dec_inputs)


def _gradients(model: RqVaeModel, batch: np.ndarray, fp: _ForwardPass,
               out: dict[str, np.ndarray] | None = None) -> dict[str, np.ndarray]:
    """The analytic gradient of every parameter array at the forward pass `fp`.

    Names and order follow parameter_arrays. It is written into `out`, arrays
    shaped as parameter_arrays' (the optimizer passes views of its gradient
    vector), or into new arrays when `out` is not given, and returned. The
    optimizer steps on this gradient, and gradient_check verifies it.
    """
    if out is None:
        out = {name: np.empty_like(a) for name, a in parameter_arrays(model).items()}
    n = batch.shape[0]
    beta = model.config.beta
    residuals = fp.residuals

    # decoder gradients from the reconstruction loss
    d_xstar = 2.0 * fp.delta / n
    d_zstar = _mlp_backward(model.decoder_weights, fp.dec_inputs, d_xstar, out, "dec")

    # encoder: straight-through reconstruction gradient + commitment branch;
    # the batch's own gradient is not needed
    d_z = d_zstar + (2.0 * beta / n) * residuals[:, 1:].sum(axis=1)
    _mlp_backward(model.encoder_weights, fp.enc_inputs, d_z, out, "enc", input_grad=False)

    # codebooks: sg-protected term, grad e_w = (2/B) * sum_{c_l=w} (e_w - r_{l-1})
    for l, cb in enumerate(model.codebooks):
        out[f"cb{l}"][...] = scatter_add_rows(len(cb), fp.codes[:, l],
                                              (-2.0 / n) * residuals[:, l + 1])
    return out


# ---------------------------------------------------------------------------
# Training

class _AdamW:
    """Decoupled-weight-decay Adam over every parameter of a model, held as one vector.

    The constructor copies the model's arrays into one float64 vector, in
    parameter_arrays order, and rebinds them as views of it. parameter_arrays
    stays a dict of live views, and one in-place update steps every array.
    `grads` holds views of the gradient vector in the same layout, for
    _gradients to write into.
    """

    def __init__(self, model: RqVaeModel, weight_decay: float):
        arrays = parameter_arrays(model)
        self.params = np.concatenate([a.reshape(-1) for a in arrays.values()])
        _bind_views(model, self.params)
        self.weight_decay = weight_decay
        self.m, self.v, self.grad, self._scratch = (np.zeros_like(self.params)
                                                     for _ in range(4))
        self.grads = dict(zip(arrays, _views(self.grad, list(arrays.values()))))
        self.t = 0
        self.b1, self.b2, self.eps = 0.9, 0.999, 1e-8

    def step(self, grads: dict[str, np.ndarray], lr: float) -> None:
        """m = b1*m + (1-b1)*g;  v = b2*v + (1-b2)*g*g;
        p -= lr * ((m/bc1) / (sqrt(v/bc2) + eps) + weight_decay*p)

        One operation at a time, in that order, so every result is bitwise that
        of the formula applied to each array on its own. `grads` is copied into
        the gradient vector unless it is `self.grads`, whose views are in it.
        """
        self.t += 1
        bc1 = 1.0 - self.b1 ** self.t
        bc2 = 1.0 - self.b2 ** self.t
        p, m, v, g, s = self.params, self.m, self.v, self.grad, self._scratch
        if grads is not self.grads:
            np.concatenate([a.reshape(-1) for a in grads.values()], out=g)
        np.multiply(m, self.b1, out=m)
        np.multiply(g, 1.0 - self.b1, out=s)
        np.add(m, s, out=m)
        np.multiply(v, self.b2, out=v)
        np.multiply(g, 1.0 - self.b2, out=s)
        np.multiply(s, g, out=s)
        np.add(v, s, out=v)
        u = g  # the gradient is used up: its vector holds the update
        np.divide(v, bc2, out=s)
        np.sqrt(s, out=s)
        np.add(s, self.eps, out=s)
        np.divide(m, bc1, out=u)
        np.divide(u, s, out=u)
        # With no decay, p*0 is a zero of p's sign, and adding it to u can
        # only turn a -0.0 update into +0.0, where p >= +0.0. p - (+-0.0) is
        # then the same p, so for finite p the two passes change nothing.
        if self.weight_decay:
            np.multiply(p, self.weight_decay, out=s)
            np.add(u, s, out=u)
        np.multiply(u, lr, out=u)
        np.subtract(p, u, out=p)


def _views(flat: np.ndarray, arrays: list[np.ndarray]) -> list[np.ndarray]:
    """Views of `flat` shaped as `arrays`, laid out one after another."""
    ends = np.cumsum([a.size for a in arrays]).tolist()
    return [flat[end - a.size:end].reshape(a.shape) for a, end in zip(arrays, ends)]


def _bind_views(model: RqVaeModel, flat: np.ndarray) -> None:
    """Replace the model's arrays by views of `flat`, laid out in parameter_arrays order."""
    views = iter(_views(flat, list(parameter_arrays(model).values())))
    for weights, biases in ((model.encoder_weights, model.encoder_biases),
                            (model.decoder_weights, model.decoder_biases)):
        for k in range(len(weights)):
            weights[k], biases[k] = next(views), next(views)
    model.codebooks[:] = [next(views) for _ in model.codebooks]


def _layer_dims(d_in: int, d_out: int, cfg: RqVaeConfig) -> list[int]:
    if cfg.n_layers == 1:
        return [d_in, d_out]
    return [d_in] + [cfg.hidden_dim] * (cfg.n_layers - 1) + [d_out]


def _init_affine(dims: list[int], rng: np.random.Generator
                 ) -> tuple[list[np.ndarray], list[np.ndarray]]:
    # small positive bias keeps rectifier pre-activations off the exact kink,
    # where one-sided derivatives would make finite-difference checks ill-posed
    weights, biases = [], []
    for a, b in zip(dims[:-1], dims[1:]):
        weights.append(rng.normal(0.0, np.sqrt(2.0 / a), size=(a, b)))
        biases.append(np.full(b, 0.01))
    return weights, biases


def initialize_model(embeddings: EmbeddingMatrix, cfg: RqVaeConfig) -> RqVaeModel:
    """Seeded weight init plus per-level k-means codebook init on the first batch."""
    cfg.validate()
    x = embeddings.vectors
    n = x.shape[0]
    if not n:
        raise ValueError("embedding matrix is empty")
    if n < cfg.codebook_size:  # validate() keeps batch_size >= codebook_size
        raise ValueError(f"{n} items, fewer than codebook_size {cfg.codebook_size}")
    first = min(cfg.batch_size, n)
    rng = np.random.default_rng(cfg.seed)
    enc_w, enc_b = _init_affine(_layer_dims(embeddings.dim, cfg.latent_dim, cfg), rng)
    dec_w, dec_b = _init_affine(_layer_dims(cfg.latent_dim, embeddings.dim, cfg), rng)
    model = RqVaeModel(encoder_weights=enc_w, encoder_biases=enc_b,
                       decoder_weights=dec_w, decoder_biases=dec_b,
                       codebooks=[], config=cfg, input_dim=embeddings.dim)
    batch = x[rng.permutation(n)[:first]]
    r = encode(model, batch)
    for _ in range(cfg.code_len):
        vectors = kmeans_init(r, cfg.codebook_size, cfg.kmeans_iters, rng)
        model.codebooks.append(vectors)
        c = np.argmin(_sq_dists(r, vectors), axis=1)
        r = r - vectors[c]
    return model


def train_rqvae(embeddings: EmbeddingMatrix, cfg: RqVaeConfig) -> RqVaeModel:
    """Train encoder, decoder, and codebooks; deterministic for a fixed seed.

    Uses decoupled-weight-decay adaptive gradient steps with a linearly decaying
    step size. Codewords never selected during an epoch are reseeded to the
    encoder output of a randomly drawn item; model.reseeds counts them per level.

    model.loss_history gets epochs + 1 (l_rec, l_rq) entries. The first and the
    last evaluate the whole data before and after training. Entry e in between
    is epoch e's training loss: the per-item mean over its batches, each at the
    parameters that batch saw, which needs no second forward pass. A quantizer
    failure or a non-finite loss raises RuntimeError naming the epoch.
    """
    model = initialize_model(embeddings, cfg)
    x = embeddings.vectors
    n = x.shape[0]
    rng = np.random.default_rng([cfg.seed, 1])  # stream separate from init's

    opt = _AdamW(model, cfg.weight_decay)
    model.reseeds = [0] * len(model.codebooks)

    model.loss_history.append(_checked_forward(model, x, 0).losses)
    for epoch in range(cfg.epochs):
        lr = cfg.learning_rate * (1.0 - epoch / max(1, cfg.epochs))
        perm = rng.permutation(n)
        used = np.zeros((len(model.codebooks), cfg.codebook_size), dtype=bool)
        l_rec = l_rq = 0.0
        for start in range(0, n, cfg.batch_size):
            batch = x[perm[start:start + cfg.batch_size]]
            fp = _checked_forward(model, batch, epoch)
            opt.step(_gradients(model, batch, fp, opt.grads), lr)
            used[np.arange(len(model.codebooks)), fp.codes] = True
            share = batch.shape[0] / n  # 1.0 for one batch, which keeps its loss bitwise
            l_rec += share * fp.l_rec
            l_rq += share * fp.l_rq
        for l, cb in enumerate(model.codebooks):
            dead = np.flatnonzero(~used[l])
            if dead.size:
                picks = rng.integers(0, n, size=dead.size)
                cb[dead] = encode(model, x[picks])
                model.reseeds[l] += int(dead.size)
        if epoch:  # epoch 0's parameters are entry 0's
            model.loss_history.append((l_rec, l_rq))
    if cfg.epochs:
        model.loss_history.append(_checked_forward(model, x, cfg.epochs - 1).losses)
    log.info("rqvae: trained %d epochs, l_rec %.6f -> %.6f", cfg.epochs,
             model.loss_history[0][0], model.loss_history[-1][0])
    return model


def _checked_forward(model: RqVaeModel, batch: np.ndarray, epoch: int) -> _ForwardPass:
    try:
        fp = _forward(model, batch)
    except ValueError as exc:  # non-finite activations inside the quantizer
        raise RuntimeError(f"non-finite loss at epoch {epoch}") from exc
    if not np.isfinite(fp.l_rec + fp.l_rq):
        raise RuntimeError(f"non-finite loss at epoch {epoch}")
    return fp


# ---------------------------------------------------------------------------
# Gradient checking

def finite_difference_gradients(model: RqVaeModel, batch: np.ndarray,
                                epsilon: float) -> dict[str, np.ndarray]:
    """Central differences of the straight-through surrogate of the training loss.

    Codes and every stop-gradient operand are frozen at the base point, so the
    surrogate is differentiable and its gradient is the one training uses:

        mean ||x - dec(z + sg(z* - z))||^2 + beta * mean sum_l ||z - sg(C_l)||^2
            + mean sum_l ||sg(r_{l-1}) - e_{c_l}||^2,   with C_l = z - r_l.
    """
    z0 = encode(model, batch)
    codes, residuals, z_star0 = quantize_batch(z0, model.codebooks)
    offset = z_star0 - z0
    anchors = z0[:, None, :] - residuals[:, 1:]     # C_l, (B, L, d)
    targets = residuals[:, :-1]                      # r_{l-1}, (B, L, d)
    beta = model.config.beta

    def surrogate() -> float:
        z = encode(model, batch)
        x_star = decode(model, z + offset)
        rec = np.mean(np.sum((batch - x_star) ** 2, axis=1))
        commit = np.mean(np.sum((z[:, None, :] - anchors) ** 2, axis=(1, 2)))
        picked = np.stack([cb[codes[:, l]] for l, cb in enumerate(model.codebooks)], axis=1)
        codebook = np.mean(np.sum((targets - picked) ** 2, axis=(1, 2)))
        return float(rec + beta * commit + codebook)

    out: dict[str, np.ndarray] = {}
    for name, arr in parameter_arrays(model).items():
        g = np.zeros_like(arr)
        flat = arr.reshape(-1)
        gflat = g.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + epsilon
            plus = surrogate()
            flat[i] = orig - epsilon
            minus = surrogate()
            flat[i] = orig
            gflat[i] = (plus - minus) / (2.0 * epsilon)
        out[name] = g
    return out


def max_relative_error(analytic: dict[str, np.ndarray],
                       numeric: dict[str, np.ndarray]) -> float:
    scale = max(1.0, max(float(np.max(np.abs(g))) for g in analytic.values()))
    worst = 0.0
    for name, ga in analytic.items():
        gf = numeric[name]
        denom = np.maximum(np.abs(ga) + np.abs(gf), 1e-6 * scale)
        worst = max(worst, float(np.max(np.abs(ga - gf) / denom)))
    return worst


def gradient_check(model: RqVaeModel, batch: np.ndarray, epsilon: float = 1e-5) -> float:
    """Max relative error between the training gradient and central finite differences."""
    if batch.shape[0] > 8:
        raise ValueError("gradient_check expects a small batch (<= 8 rows)")
    if not 1e-6 <= epsilon <= 1e-3:
        raise ValueError(f"epsilon must be in [1e-6, 1e-3], got {epsilon}")
    analytic = _gradients(model, batch, _forward(model, batch))
    numeric = finite_difference_gradients(model, batch, epsilon)
    return max_relative_error(analytic, numeric)


# ---------------------------------------------------------------------------
# Code assignment

def assign_codes(model: RqVaeModel, embeddings: EmbeddingMatrix) -> dict[str, tuple[int, ...]]:
    """Encode and quantize every item into its raw L-level code tuple."""
    if embeddings.dim != model.input_dim:
        raise ValueError(f"embedding dim {embeddings.dim} != model input dim {model.input_dim}")
    codes, _, _ = quantize_batch(encode(model, embeddings.vectors), model.codebooks)
    return dict(zip(embeddings.items, map(tuple, codes.tolist())))


def index_counters(model: RqVaeModel, raw_codes: dict[str, tuple[int, ...]]) -> dict:
    """Deterministic health counters of one trained index and its raw L-level codes."""
    codes = np.array(list(raw_codes.values()), dtype=np.int64)
    _, group_sizes = np.unique(codes, axis=0, return_counts=True)
    return {"used_per_level": [len(np.unique(column)) for column in codes.T],
            "prefixes": len(group_sizes),
            "max_group": int(group_sizes.max()),
            "reseeds_per_level": list(model.reseeds),
            "loss_first": list(model.loss_history[0]),
            "loss_last": list(model.loss_history[-1])}


def resolve_collisions(raw_codes: dict[str, tuple[int, ...]], index_type: str) -> ItemCodeTable:
    """Append a disambiguator: 0 for unique prefixes, else 1..m in item-id order."""
    groups: dict[tuple[int, ...], list[str]] = {}
    for item in sorted(raw_codes):
        groups.setdefault(tuple(raw_codes[item]), []).append(item)
    code_len = len(next(iter(raw_codes.values()))) if raw_codes else 0
    codes: dict[str, tuple[int, ...]] = {}
    for prefix, members in groups.items():
        if len(members) == 1:
            codes[members[0]] = prefix + (0,)
        else:
            for rank, item in enumerate(members, start=1):
                codes[item] = prefix + (rank,)
    table = ItemCodeTable(index_type=index_type, code_len=code_len, codes=codes)
    if len(set(table.codes.values())) != len(table.codes):
        raise AssertionError("collision resolution produced duplicate tuples")
    return table


def write_code_table(table: ItemCodeTable, path: str | Path) -> None:
    with replace_on_close(path) as fh:
        for item in sorted(table.codes):
            fh.write(item + "\t" + "\t".join(str(c) for c in table.codes[item]) + "\n")


def load_code_table(path: str | Path, index_type: str) -> ItemCodeTable:
    codes: dict[str, tuple[int, ...]] = {}
    code_len = None
    text = decoded(path, Path(path).read_bytes())
    for lineno, line in enumerate(text.splitlines(), 1):
        parts = line.split("\t")
        try:
            if len(parts) < 3:
                raise ValueError("expected item and code columns")
            tup = tuple(int(c) for c in parts[1:])
            if min(tup) < 0:
                raise ValueError(f"negative code word {min(tup)}")
            if code_len is None:
                code_len = len(tup) - 1
            elif len(tup) - 1 != code_len:
                raise ValueError("inconsistent code length")
            if parts[0] in codes:
                raise ValueError(f"duplicate item {parts[0]!r}")
        except ValueError as exc:
            raise ValueError(refusal(path, str(exc), lineno)) from None
        codes[parts[0]] = tup
    if not codes:
        raise ValueError(refusal(path, "empty code table"))
    return ItemCodeTable(index_type=index_type, code_len=code_len, codes=codes)
