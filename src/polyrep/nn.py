"""Minimal dense neural stack in numpy: MLP blocks with batch normalization,
cross-entropy, Adam, a reduce-on-plateau schedule, and finite-difference
gradient checking.  Everything is double precision and deterministic, which
is what makes the tight gradient checks feasible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

BN_EPS = 1e-5
BN_MOMENTUM = 0.1
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
FLAT_VECTORS = ("theta", "grad", "running_mean", "running_var")  # see ParameterRegistry


class BatchTooSmallError(ValueError):
    """Train-mode batch normalization needs at least two rows."""


def kaiming_uniform(rng, fan_in, fan_out):
    bound = math.sqrt(6.0 / fan_in)
    return rng.uniform(-bound, bound, size=(fan_in, fan_out))


class DenseBlock:
    """Affine -> optional batchnorm (each feature over the batch, then
    ``gamma`` and ``beta``; eval mode folds in the running statistics, whose
    variance is the unbiased batch estimate) -> optional ReLU.  Only a block
    without batchnorm has a bias ``b``: the batch mean would cancel it.
    ``post_forward``/``post_backward`` are the steps after the affine, for
    callers that compute the affine output themselves."""

    def __init__(self, rng, fan_in, fan_out, batchnorm=True, relu=True):
        self.w = kaiming_uniform(rng, fan_in, fan_out)
        self.gw = np.zeros_like(self.w)
        self.batchnorm = batchnorm
        if batchnorm:
            self.gamma, self.beta = np.ones(fan_out), np.zeros(fan_out)
            self.ggamma, self.gbeta = np.zeros(fan_out), np.zeros(fan_out)
            self.running_mean, self.running_var = np.zeros(fan_out), np.ones(fan_out)
        else:
            self.b, self.gb = np.zeros(fan_out), np.zeros(fan_out)
        self.relu = relu
        self._x = self._out = self._bn = None

    def forward(self, x, train, update_stats=True):
        if train:
            self._x = x
            w, b = self.w, None if self.batchnorm else self.b
        else:
            w, b = self.folded()
        y = x @ w
        if b is not None:
            y += b
        return self.post_forward(y, train, update_stats)

    def backward(self, dy):
        dy = self.post_backward(dy)
        self.gw += self._x.T @ dy
        if not self.batchnorm:
            self.gb += dy.sum(axis=0)
        return dy @ self.w.T

    def folded(self):
        """The eval-mode block before its ReLU as one affine ``(w, b)``, built
        on every call so it cannot go stale.  Drops the activations kept for
        backward, so an evaluated model holds (and clones) no train batch."""
        self._x = self._out = self._bn = None
        if not self.batchnorm:
            return self.w, self.b
        s = self.gamma / np.sqrt(self.running_var + BN_EPS)
        return self.w * s, self.beta - self.running_mean * s

    def post_forward(self, y, train, update_stats=True):
        """Steps after the affine output ``y``; of :meth:`folded` in eval mode.
        Train mode never writes into ``y``."""
        if not train:
            return np.maximum(y, 0.0, out=y) if self.relu else y
        if self.batchnorm:
            y = self._normalize(y, update_stats)
        if self.relu:
            y = np.maximum(y, 0.0, out=y if self.batchnorm else None)
            self._out = y  # out > 0 exactly where the ReLU input was > 0
        return y

    def _normalize(self, y, update_stats):
        """Train-mode batchnorm of ``y`` into a new buffer, through one other
        buffer; keeps ``(xhat, inv_std)`` for backward."""
        n = y.shape[0]
        if n < 2:
            raise BatchTooSmallError(f"batchnorm needs a batch of >= 2 in train mode, got {n}")
        mean = y.mean(axis=0)
        xhat = y - mean
        out = np.multiply(xhat, xhat)
        var = out.mean(axis=0)  # bitwise equal to y.var(axis=0)
        inv_std = 1.0 / np.sqrt(var + BN_EPS)
        xhat *= inv_std
        if update_stats:
            m = BN_MOMENTUM
            self.running_mean *= 1 - m
            self.running_mean += m * mean
            self.running_var *= 1 - m
            self.running_var += m * var * n / (n - 1)
        self._bn = (xhat, inv_std)
        np.multiply(self.gamma, xhat, out=out)
        out += self.beta
        return out

    def post_backward(self, dy):
        """Gradient wrt the affine output; never writes into ``dy``."""
        if self.relu:
            dy = np.multiply(dy, self._out > 0)
        if self.batchnorm:
            if self._bn is None:
                raise ValueError("backward requires a preceding train-mode forward")
            xhat, inv_std = self._bn
            n = dy.shape[0]
            scratch = np.multiply(dy, xhat)
            sdy, sdx = dy.sum(axis=0), scratch.sum(axis=0)
            self.ggamma += sdx
            self.gbeta += sdy
            # (gamma inv_std) (dy - mean(dy) - xhat mean(dy xhat)), the
            # batch-statistics terms written with the two sums above.
            dy = np.subtract(dy, sdy / n, out=dy if self.relu else None)
            dy -= np.multiply(xhat, sdx / n, out=scratch)
            dy *= self.gamma * inv_std
        return dy


class ParameterRegistry:
    """Named views of a module's arrays, all read from one walk.

    ``_walk(prefix)`` yields ``(name, owner, attr, trained)`` for every array,
    in checkpoint order: the array is ``owner.<attr>``, a trained one's
    gradient ``owner.g<attr>``; batchnorm running statistics are not trained.
    After :meth:`flatten` every array is a view of a flat vector in walk
    order, updated in place: ``theta``, ``grad``, ``running_mean`` or
    ``running_var``.
    """

    def named_parameters(self):
        return [(name, getattr(o, a)) for name, o, a in self._slots("theta")]

    def named_grads(self):
        return [(name, getattr(o, a)) for name, o, a in self._slots("grad")]

    def named_state(self):
        """Parameters plus batchnorm running statistics."""
        return [(name, getattr(o, a)) for name, o, a, _ in self._walk()]

    def parameters(self):
        return [p for _, p in self.named_parameters()]

    def grads(self):
        return [g for _, g in self.named_grads()]

    def _slots(self, flat):
        """``(name, owner, attr)`` of the arrays that the flat vector ``flat``
        holds, in walk order; those of ``grad`` are the gradients of ``theta``'s."""
        if flat == "grad":
            return [(n, o, "g" + a) for n, o, a in self._slots("theta")]
        walk = self._walk()
        return [(n, o, a) for n, o, a, trained in walk if flat == ("theta" if trained else a)]

    def flatten(self):
        """Move every array into its flat vector, as a view."""
        for flat in FLAT_VECTORS:
            slots = self._slots(flat)
            vector = np.concatenate([np.empty(0)] + [getattr(o, a).ravel() for _, o, a in slots])
            setattr(self, flat, vector)
            end = 0
            for _, owner, attr in slots:
                arr = getattr(owner, attr)
                setattr(owner, attr, vector[end : end + arr.size].reshape(arr.shape))
                end += arr.size

    def name_at(self, index, flat="theta"):
        """Walk name of the array that holds ``index`` of the flat vector
        ``flat`` (``theta``, ``running_mean`` or ``running_var``); an index
        of ``grad`` names the same array as that index of ``theta``."""
        slots = self._slots(flat)
        ends = np.cumsum([getattr(owner, attr).size for _, owner, attr in slots])
        return slots[np.searchsorted(ends, index, side="right")][0]

    def zero_grads(self):
        self.grad[...] = 0.0


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

    def forward(self, x, train, update_stats=True):
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 2 or x.shape[1] != self.dims[0]:
            raise ValueError(f"expected (n, {self.dims[0]}) input, got {x.shape}")
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
            yield name + "w", block, "w", True
            if block.batchnorm:
                yield name + "bn.gamma", block, "gamma", True
                yield name + "bn.beta", block, "beta", True
                stats.append((name + "bn.running_mean", block, "running_mean", False))
                stats.append((name + "bn.running_var", block, "running_var", False))
            else:
                yield name + "b", block, "b", True
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
    """First/second moments of a flat parameter vector, and two scratch
    vectors of its length that every update writes through."""

    m: np.ndarray
    v: np.ndarray
    scratch: tuple
    t: int = 0

    @classmethod
    def for_params(cls, theta):
        scratch = (np.empty_like(theta), np.empty_like(theta))
        return cls(m=np.zeros_like(theta), v=np.zeros_like(theta), scratch=scratch)


def adam_step(theta, grad, state: AdamState, lr: float) -> None:
    """Bias-corrected Adam update of the flat vector ``theta``, in place: ``m =
    b1 m + (1 - b1) g``, ``v = b2 v + (1 - b2) g g`` and ``theta -= lr (m / c1)
    / (sqrt(v / c2) + eps)``, each operation in the order written but into
    the two scratch vectors of ``state``, so the result is bitwise that of
    the expressions and no vector is allocated."""
    if not theta.shape == grad.shape == state.m.shape:
        raise ValueError(f"shape mismatch {theta.shape}, {grad.shape}, {state.m.shape}")
    state.t += 1
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    c1 = 1.0 - b1**state.t
    c2 = 1.0 - b2**state.t
    t, step = state.scratch
    np.multiply(grad, 1 - b1, out=t)
    state.m *= b1
    state.m += t
    np.multiply(grad, 1 - b2, out=t)
    t *= grad
    state.v *= b2
    state.v += t
    np.divide(state.v, c2, out=t)
    np.sqrt(t, out=t)
    t += ADAM_EPS
    np.divide(state.m, c1, out=step)
    step *= lr
    step /= t
    theta -= step


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


def grad_check(loss_fn, theta, grad):
    """Max relative error of analytic grads vs central finite differences.

    ``loss_fn`` re-evaluates the loss from the current values of the flat
    parameter vector ``theta`` (it must be deterministic); ``grad`` is the
    flat analytic gradient already computed for those values.  Every entry
    is probed with a step of 1e-5.  Relative error is |a - n| / max(|a|,
    |n|, 1e-8); differences below 1e-10 count as agreement, since central
    differences in double precision cannot resolve gradients beneath
    eps * |loss| / step (~1e-11 here), which would otherwise read as noise.
    """
    step, atol = 1e-5, 1e-10
    worst = 0.0
    for idx in range(theta.size):
        orig = theta[idx]
        theta[idx] = orig + step
        up = loss_fn()
        theta[idx] = orig - step
        down = loss_fn()
        theta[idx] = orig
        numeric = (up - down) / (2 * step)
        analytic = grad[idx]
        diff = abs(analytic - numeric)
        if diff <= atol:
            continue
        worst = max(worst, diff / max(abs(analytic), abs(numeric), 1e-8))
    return worst
