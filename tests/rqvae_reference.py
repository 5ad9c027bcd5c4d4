"""The RQ-VAE training path as it was before its epoch was trimmed, kept as a reference.

`_mlp_forward` keeps every pre-activation, `_mlp_backward` returns new
gradient arrays (the encoder's input gradient included), `_gradients` returns
them by name, and `ReferenceAdamW.step` concatenates them and always runs the
weight-decay passes. `reference_train_rqvae` is `train_rqvae` over these
functions, with `initialize_model` inlined so that it encodes through them
too. Everything else (k-means, quantization, layer sizes, initialization and
the model layout) comes from `rqrec.rqvae`.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from rqrec.dataio import EmbeddingMatrix
from rqrec.rqvae import (RqVaeConfig, RqVaeModel, _bind_views, _init_affine, _layer_dims,
                         _named_arrays, _sq_dists, kmeans_init, parameter_arrays,
                         quantize_batch, scatter_add_rows)


def _mlp_forward(weights, biases, x):
    caches = []
    h = x
    last = len(weights) - 1
    for k, (w, b) in enumerate(zip(weights, biases)):
        pre = h @ w + b
        caches.append((h, pre))
        h = np.maximum(pre, 0.0) if k < last else pre
    return h, caches


def _mlp_backward(weights, caches, grad_out):
    grad_w = [np.zeros(0)] * len(weights)
    grad_b = [np.zeros(0)] * len(weights)
    g = grad_out
    last = len(weights) - 1
    for k in range(last, -1, -1):
        inp, pre = caches[k]
        if k < last:
            g = g * (pre > 0.0)
        grad_w[k] = inp.T @ g
        grad_b[k] = g.sum(axis=0)
        g = g @ weights[k].T
    return grad_w, grad_b, g


def encode(model, x):
    return _mlp_forward(model.encoder_weights, model.encoder_biases, x)[0]


@dataclass
class _ForwardPass:
    x_star: np.ndarray
    codes: np.ndarray
    residuals: np.ndarray
    l_rec: float
    l_rq: float
    enc_caches: list
    dec_caches: list

    @property
    def losses(self):
        return self.l_rec, self.l_rq


def _forward(model, batch):
    z, enc_caches = _mlp_forward(model.encoder_weights, model.encoder_biases, batch)
    codes, residuals, z_star = quantize_batch(z, model.codebooks)
    x_star, dec_caches = _mlp_forward(model.decoder_weights, model.decoder_biases, z_star)
    l_rec = float(np.mean(np.sum((batch - x_star) ** 2, axis=1)))
    level_err = np.sum(residuals[:, 1:] ** 2, axis=2)
    l_rq = float((1.0 + model.config.beta) * np.mean(np.sum(level_err, axis=1)))
    return _ForwardPass(x_star, codes, residuals, l_rec, l_rq, enc_caches, dec_caches)


def _gradients(model, batch, fp):
    n = batch.shape[0]
    beta = model.config.beta
    residuals = fp.residuals
    d_xstar = 2.0 * (fp.x_star - batch) / n
    dec_gw, dec_gb, d_zstar = _mlp_backward(model.decoder_weights, fp.dec_caches, d_xstar)
    d_z = d_zstar + (2.0 * beta / n) * residuals[:, 1:].sum(axis=1)
    enc_gw, enc_gb, _ = _mlp_backward(model.encoder_weights, fp.enc_caches, d_z)
    cb_grads = []
    for l, cb in enumerate(model.codebooks):
        cb_grads.append(scatter_add_rows(len(cb), fp.codes[:, l],
                                         (-2.0 / n) * residuals[:, l + 1]))
    return _named_arrays(enc_gw, enc_gb, dec_gw, dec_gb, cb_grads)


class ReferenceAdamW:
    def __init__(self, model, weight_decay):
        self.params = np.concatenate([a.reshape(-1) for a in parameter_arrays(model).values()])
        _bind_views(model, self.params)
        self.weight_decay = weight_decay
        self.m, self.v, self.grad, self._scratch = (np.zeros_like(self.params)
                                                     for _ in range(4))
        self.t = 0
        self.b1, self.b2, self.eps = 0.9, 0.999, 1e-8

    def step(self, grads, lr):
        self.t += 1
        bc1 = 1.0 - self.b1 ** self.t
        bc2 = 1.0 - self.b2 ** self.t
        p, m, v, g, s = self.params, self.m, self.v, self.grad, self._scratch
        np.concatenate([a.reshape(-1) for a in grads.values()], out=g)
        np.multiply(m, self.b1, out=m)
        np.multiply(g, 1.0 - self.b1, out=s)
        np.add(m, s, out=m)
        np.multiply(v, self.b2, out=v)
        np.multiply(g, 1.0 - self.b2, out=s)
        np.multiply(s, g, out=s)
        np.add(v, s, out=v)
        u = g
        np.divide(v, bc2, out=s)
        np.sqrt(s, out=s)
        np.add(s, self.eps, out=s)
        np.divide(m, bc1, out=u)
        np.divide(u, s, out=u)
        np.multiply(p, self.weight_decay, out=s)
        np.add(u, s, out=u)
        np.multiply(u, lr, out=u)
        np.subtract(p, u, out=p)


def _initialize_model(embeddings: EmbeddingMatrix, cfg: RqVaeConfig) -> RqVaeModel:
    cfg.validate()
    x = embeddings.vectors
    n = x.shape[0]
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


def reference_train_rqvae(embeddings: EmbeddingMatrix, cfg: RqVaeConfig) -> RqVaeModel:
    model = _initialize_model(embeddings, cfg)
    x = embeddings.vectors
    n = x.shape[0]
    rng = np.random.default_rng([cfg.seed, 1])
    opt = ReferenceAdamW(model, cfg.weight_decay)
    model.reseeds = [0] * len(model.codebooks)
    model.loss_history.append(_forward(model, x).losses)
    for epoch in range(cfg.epochs):
        lr = cfg.learning_rate * (1.0 - epoch / max(1, cfg.epochs))
        perm = rng.permutation(n)
        used = np.zeros((len(model.codebooks), cfg.codebook_size), dtype=bool)
        l_rec = l_rq = 0.0
        for start in range(0, n, cfg.batch_size):
            batch = x[perm[start:start + cfg.batch_size]]
            fp = _forward(model, batch)
            opt.step(_gradients(model, batch, fp), lr)
            used[np.arange(len(model.codebooks)), fp.codes] = True
            share = batch.shape[0] / n
            l_rec += share * fp.l_rec
            l_rq += share * fp.l_rq
        for l, cb in enumerate(model.codebooks):
            dead = np.flatnonzero(~used[l])
            if dead.size:
                picks = rng.integers(0, n, size=dead.size)
                cb[dead] = encode(model, x[picks])
                model.reseeds[l] += int(dead.size)
        if epoch:
            model.loss_history.append((l_rec, l_rq))
    if cfg.epochs:
        model.loss_history.append(_forward(model, x).losses)
    return model


def reference_codes(model: RqVaeModel, embeddings: EmbeddingMatrix) -> np.ndarray:
    return quantize_batch(encode(model, embeddings.vectors), model.codebooks)[0]
