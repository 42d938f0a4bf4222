"""Minimal dense neural stack in numpy: MLP blocks with batch normalization,
cross-entropy, Adam, a reduce-on-plateau schedule, and finite-difference
gradient checking.  Everything is double precision and deterministic, which
is what makes the tight gradient checks feasible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


class BatchTooSmallError(ValueError):
    """Train-mode batch normalization needs at least two rows."""


def kaiming_uniform(rng, fan_in, fan_out):
    bound = math.sqrt(6.0 / fan_in)
    return rng.uniform(-bound, bound, size=(fan_in, fan_out))


class BatchNorm:
    """Per-feature normalization over the batch; eval mode applies the
    running statistics through :meth:`DenseBlock.folded`.  Running variance
    uses the unbiased batch estimate; normalization the biased one."""

    def __init__(self, dim, eps=1e-5, momentum=0.1):
        self.eps = eps
        self.momentum = momentum
        self.gamma = np.ones(dim)
        self.beta = np.zeros(dim)
        self.running_mean = np.zeros(dim)
        self.running_var = np.ones(dim)
        self.ggamma = np.zeros_like(self.gamma)
        self.gbeta = np.zeros_like(self.beta)
        self._cache = None

    def forward(self, x, update_stats=True):
        n = x.shape[0]
        if n < 2:
            raise BatchTooSmallError(f"batchnorm needs a batch of >= 2 in train mode, got {n}")
        mean = x.mean(axis=0)
        xc = x - mean
        var = (xc * xc).mean(axis=0)  # bitwise equal to x.var(axis=0)
        inv_std = 1.0 / np.sqrt(var + self.eps)
        xhat = xc * inv_std
        if update_stats:
            m = self.momentum
            self.running_mean = (1 - m) * self.running_mean + m * mean
            self.running_var = (1 - m) * self.running_var + m * var * n / (n - 1)
        self._cache = (xhat, inv_std, n)
        return self.gamma * xhat + self.beta

    def backward(self, dy):
        if self._cache is None:
            raise ValueError("backward requires a preceding train-mode forward")
        xhat, inv_std, n = self._cache
        self.ggamma += (dy * xhat).sum(axis=0)
        self.gbeta += dy.sum(axis=0)
        dxhat = dy * self.gamma
        # Standard batch-statistics terms folded into one expression.
        dx = (
            dxhat - dxhat.mean(axis=0) - xhat * (dxhat * xhat).mean(axis=0)
        ) * inv_std
        return dx


class DenseBlock:
    """Affine -> optional batchnorm -> optional ReLU.

    ``post_forward``/``post_backward`` are the steps after the affine, for
    callers that compute the affine output themselves.
    """

    def __init__(self, rng, fan_in, fan_out, batchnorm=True, relu=True):
        self.w = kaiming_uniform(rng, fan_in, fan_out)
        self.b = np.zeros(fan_out)
        self.gw = np.zeros_like(self.w)
        self.gb = np.zeros_like(self.b)
        self.bn = BatchNorm(fan_out) if batchnorm else None
        self.relu = relu
        self._x = self._pre = None

    def forward(self, x, train, update_stats=True):
        if train:
            self._x = x
        w, b = (self.w, self.b) if train else self.folded()
        y = x @ w
        y += b
        return self.post_forward(y, train, update_stats)

    def backward(self, dy):
        dy = self.post_backward(dy)
        self.gw += self._x.T @ dy
        self.gb += dy.sum(axis=0)
        return dy @ self.w.T

    def folded(self):
        """The eval-mode block before its ReLU as one affine ``(w, b)``, built
        on every call so it cannot go stale.  Drops the activations kept for
        backward, so an evaluated model holds (and clones) no train batch."""
        self._x = self._pre = None
        bn = self.bn
        if bn is None:
            return self.w, self.b
        bn._cache = None
        s = bn.gamma / np.sqrt(bn.running_var + bn.eps)
        return self.w * s, (self.b - bn.running_mean) * s + bn.beta

    def post_forward(self, y, train, update_stats=True):
        """Steps after the affine output ``y``; of :meth:`folded` in eval mode."""
        if not train:
            return np.maximum(y, 0.0, out=y) if self.relu else y
        if self.bn is not None:
            y = self.bn.forward(y, update_stats)
        if self.relu:
            self._pre = y
            y = np.maximum(y, 0.0)
        return y

    def post_backward(self, dy):
        """Gradient wrt the affine output."""
        if self.relu:
            dy = dy * (self._pre > 0)
        if self.bn is not None:
            dy = self.bn.backward(dy)
        return dy


class ParameterRegistry:
    """Named views of a module's arrays, all read from one walk.

    ``_walk(prefix)`` yields ``(name, array, grad)`` for every array the
    module owns, in checkpoint order, with ``grad=None`` for batchnorm
    running statistics (saved state that is not trained).  The walk runs on
    every call because ``BatchNorm.forward`` rebinds the running statistics.
    """

    def named_parameters(self, prefix=""):
        return [(name, p) for name, p, g in self._walk(prefix) if g is not None]

    def named_grads(self, prefix=""):
        return [(name, g) for name, _, g in self._walk(prefix) if g is not None]

    def named_state(self, prefix=""):
        """Parameters plus batchnorm running statistics."""
        return [(name, p) for name, p, _ in self._walk(prefix)]

    def parameters(self):
        return [p for _, p in self.named_parameters()]

    def grads(self):
        return [g for _, g in self.named_grads()]

    def zero_grads(self):
        for g in self.grads():
            g[...] = 0.0


class Mlp(ParameterRegistry):
    """Chain of dense blocks; ReLU on hidden blocks, identity on the output.

    ``batchnorm_output`` controls whether the final affine also gets a
    batchnorm (message/guide nets: yes; classifier heads: no).
    """

    def __init__(self, rng, dims, batchnorm_output=True):
        if len(dims) < 2:
            raise ValueError("an MLP needs at least input and output dims")
        self.dims = tuple(int(d) for d in dims)
        self.blocks = []
        last = len(dims) - 2
        for idx, (fan_in, fan_out) in enumerate(zip(dims[:-1], dims[1:])):
            bn = batchnorm_output if idx == last else True
            self.blocks.append(DenseBlock(rng, fan_in, fan_out, batchnorm=bn, relu=idx != last))

    @property
    def in_dim(self):
        return self.dims[0]

    def forward(self, x, train, update_stats=True):
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 2 or x.shape[1] != self.in_dim:
            raise ValueError(f"expected (n, {self.in_dim}) input, got {x.shape}")
        for block in self.blocks:
            x = block.forward(x, train, update_stats)
        return x

    def forward_from_affine(self, y, train, update_stats=True):
        """The forward pass after the first block's (eval: folded) affine ``y``."""
        y = self.blocks[0].post_forward(y, train, update_stats)
        for block in self.blocks[1:]:
            y = block.forward(y, train, update_stats)
        return y

    def backward(self, dy):
        for block in reversed(self.blocks):
            dy = block.backward(dy)
        return dy

    def backward_to_affine(self, dy):
        """Gradient wrt the first block's affine output; the first affine's
        own parameter gradients are left to the caller."""
        for block in reversed(self.blocks[1:]):
            dy = block.backward(dy)
        return self.blocks[0].post_backward(dy)

    def _walk(self, prefix=""):
        stats = []
        for idx, block in enumerate(self.blocks):
            name = f"{prefix}{idx}."
            yield name + "w", block.w, block.gw
            yield name + "b", block.b, block.gb
            if block.bn is not None:
                yield name + "bn.gamma", block.bn.gamma, block.bn.ggamma
                yield name + "bn.beta", block.bn.beta, block.bn.gbeta
                stats.append((name + "bn.running_mean", block.bn.running_mean, None))
                stats.append((name + "bn.running_var", block.bn.running_var, None))
        yield from stats


def cross_entropy(logits, labels):
    """Mean negative log softmax at the labels, and the gradient wrt logits.

    Stabilized by a per-row max shift; gradient rows are (softmax - onehot)
    divided by the batch size, so they sum to zero.
    """
    logits = np.asarray(logits, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    n, c = logits.shape
    if labels.shape != (n,):
        raise ValueError(f"expected {n} labels, got shape {labels.shape}")
    if labels.min(initial=0) < 0 or labels.max(initial=-1) >= c:
        raise ValueError(f"labels must lie in [0, {c})")
    z = logits - logits.max(axis=1, keepdims=True)
    logsumexp = np.log(np.exp(z).sum(axis=1, keepdims=True))
    logp = z - logsumexp
    loss = -float(logp[np.arange(n), labels].mean())
    grad = np.exp(logp)
    grad[np.arange(n), labels] -= 1.0
    grad /= n
    return loss, grad


@dataclass
class AdamState:
    """First/second moments aligned with a fixed parameter list."""

    m: list
    v: list
    t: int = 0
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8

    @classmethod
    def for_params(cls, params):
        return cls(
            m=[np.zeros_like(p) for p in params],
            v=[np.zeros_like(p) for p in params],
        )


def adam_step(params, grads, state: AdamState, lr: float) -> None:
    """Bias-corrected Adam update, in place: ``m = b1 m + (1 - b1) g``,
    ``v = b2 v + (1 - b2) g g`` and ``p -= lr (m / c1) / (sqrt(v / c2) +
    eps)``, each operation in the order written but into two views of one
    scratch buffer, so the result is bitwise that of the expressions."""
    if len(params) != len(grads) or len(params) != len(state.m):
        raise ValueError("params, grads, and state must align")
    state.t += 1
    b1, b2 = state.beta1, state.beta2
    c1 = 1.0 - b1**state.t
    c2 = 1.0 - b2**state.t
    scratch = np.empty(2 * max((p.size for p in params), default=0))
    for p, g, m, v in zip(params, grads, state.m, state.v):
        if p.shape != g.shape:
            raise ValueError(f"shape mismatch {p.shape} vs {g.shape}")
        t = scratch[: p.size].reshape(p.shape)
        step = scratch[p.size : 2 * p.size].reshape(p.shape)
        np.multiply(g, 1 - b1, out=t)
        m *= b1
        m += t
        np.multiply(g, 1 - b2, out=t)
        t *= g
        v *= b2
        v += t
        np.divide(v, c2, out=t)
        np.sqrt(t, out=t)
        t += state.eps
        np.divide(m, c1, out=step)
        step *= lr
        step /= t
        p -= step


@dataclass
class PlateauState:
    """Reduce-on-plateau bookkeeping, min mode."""

    lr: float
    factor: float = 0.5
    patience: int = 10
    min_lr: float = 1e-6
    best: float = math.inf
    bad_epochs: int = 0


def plateau_step(state: PlateauState, metric: float) -> float:
    """Halve (by ``factor``) after ``patience`` epochs without improvement."""
    if metric < state.best:
        state.best = metric
        state.bad_epochs = 0
    else:
        state.bad_epochs += 1
        if state.bad_epochs >= state.patience:
            state.lr = max(state.lr * state.factor, state.min_lr)
            state.bad_epochs = 0
    return state.lr


def grad_check(loss_fn, params, grads, step=1e-5, max_entries=10000, seed=0, atol=1e-10):
    """Max relative error of analytic grads vs central finite differences.

    ``loss_fn`` re-evaluates the loss from the current parameter values (it
    must be deterministic); ``grads`` are the analytic gradients already
    computed for those values.  Above ``max_entries`` total parameters, a
    seeded subsample is probed.  Relative error is |a - n| / max(|a|, |n|,
    1e-8); differences below ``atol`` count as agreement, since central
    differences in double precision cannot resolve gradients beneath
    eps * |loss| / step (~1e-11 here), which would otherwise read as noise.
    """
    entries = [(a, idx) for a, p in enumerate(params) for idx in range(p.size)]
    if len(entries) > max_entries:
        rng = np.random.default_rng(seed)
        chosen = rng.choice(len(entries), size=max_entries, replace=False)
        entries = [entries[c] for c in sorted(chosen)]
    worst = 0.0
    for a, idx in entries:
        flat = params[a].reshape(-1)
        orig = flat[idx]
        flat[idx] = orig + step
        up = loss_fn()
        flat[idx] = orig - step
        down = loss_fn()
        flat[idx] = orig
        numeric = (up - down) / (2 * step)
        analytic = grads[a].reshape(-1)[idx]
        diff = abs(analytic - numeric)
        if diff <= atol:
            continue
        worst = max(worst, diff / max(abs(analytic), abs(numeric), 1e-8))
    return worst
