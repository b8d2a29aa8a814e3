"""Minimal dense reverse-mode automatic differentiation on float64 arrays.

Two ways to differentiate share one set of kernels.

The tape is define-by-run: every op builds a fresh graph node holding its
parents and a closure that accumulates parent gradients.  A closure never
refers to its own node (it keeps the output array in a local), so a graph
holds no reference cycle and is freed as soon as its last tensor is
dropped, not at the next cyclic garbage collection.  Tensors wrap numpy
arrays of up to 3 axes; parameters persist across steps while the graph
is rebuilt each forward pass.  A graph is single-owner and
single-threaded; independent graphs may run in parallel.  The tape serves
losses whose graph is not fixed, the no-gradient forwards of `Mlp`, and
the reference that the hand-written passes are tested against (criterion
7 checks its ops and `fair_encoder._loss_graph` by finite differences).

`MlpPass` is the buffered pass for the fixed MLP losses that train: the
fair encoder's Monte Carlo objective, the downstream classifiers and
MINE.  Its forward writes each layer's output into a buffer made once per
batch size, its backward applies each activation backward in place and
writes the weight and bias gradients into caller-given views, usually of
one flat gradient buffer (`flat_grad`) that `adam_step` takes whole.  It
runs the float operations of the `dense` nodes chained, in the tape's
order, so its values and gradients equal the tape's bit for bit.

An affine layer is one tape node: `dense(x, w, b, act)` computes
act(x @ w + b) with the same float operations, in the same order, as the
`matmul`, `add` and activation ops chained, and runs one backward for all
three.  Every activation has one forward and one backward kernel in
`ACTIVATIONS`, and log-softmax has one pair; the tape ops, `dense` and
`MlpPass` all use them.

Gradient ownership: `_accum` stores the array a backward closure passes it
without copying, so a stored `.grad` may be, or share memory with, another
tensor's gradient.  A second contribution is added out of place, and no
code may write into a stored `.grad` in place.

After its first `adam_step`, a parameter's `.data` is a view into the
optimizer's one flat buffer, and Adam updates every parameter in one
vectorized pass.  Replacing a parameter, or assigning its `.data`, makes
the next step copy the current values into a new buffer.
"""

from __future__ import annotations

import json
import zipfile
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import DatasetError, DimensionMismatchError, PreconditionError

CHECKPOINT_VERSION = 1


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward_fn")

    def __init__(self, data, requires_grad=False, parents=(), backward_fn=None):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None
        self.requires_grad = requires_grad or any(p.requires_grad for p in parents)
        self._parents = parents if self.requires_grad else ()
        self._backward_fn = backward_fn if self.requires_grad else None

    @property
    def shape(self):
        return self.data.shape

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, grad={'set' if self.grad is not None else 'none'})"


def parameter(data) -> Tensor:
    return Tensor(np.array(data, dtype=np.float64), requires_grad=True)


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum a gradient down to the shape it was broadcast from."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, size in enumerate(shape):
        if size == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad.reshape(shape)


def _accum(t: Tensor, g: np.ndarray) -> None:
    """Take g as t's gradient, or add it to the stored one out of place."""
    if t.grad is None:
        t.grad = g
    else:
        t.grad = t.grad + g


# -- activation kernels ------------------------------------------------------

# name -> (forward(z, out=None), backward(g, y, out=None)).  The backward
# maps the upstream gradient g to the gradient w.r.t. the pre-activation z
# from the output y alone (relu's mask z > 0 is y > 0, relu6's 0 < z < 6 is
# 0 < y < 6), so a forward may overwrite z.  A backward writes into g only
# when g is passed as out.


def _softmax_fwd(z, out=None):
    out = np.subtract(z, z.max(axis=-1, keepdims=True), out=out)
    np.exp(out, out=out)
    out /= out.sum(axis=-1, keepdims=True)
    return out


def log_softmax_kernel(a):
    """Log-softmax over the last axis."""
    shifted = a - a.max(axis=-1, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    return shifted - lse


def log_softmax_grad(g, y):
    """Gradient on the logits for upstream g on the log-softmax output y."""
    p = np.exp(y)
    return g - p * g.sum(axis=-1, keepdims=True)


ACTIVATIONS = {
    "relu": (
        lambda z, out=None: np.maximum(z, 0.0, out=out),
        lambda g, y, out=None: np.multiply(g, y > 0, out=out),
    ),
    "relu6": (
        lambda z, out=None: np.clip(z, 0.0, 6.0, out=out),
        lambda g, y, out=None: np.multiply(g, (y > 0) & (y < 6), out=out),
    ),
    "tanh": (
        lambda z, out=None: np.tanh(z, out=out),
        lambda g, y, out=None: np.multiply(g, 1.0 - y * y, out=out),
    ),
    "sigmoid": (
        lambda z, out=None: np.divide(1.0, 1.0 + np.exp(-z), out=out),
        lambda g, y, out=None: np.multiply(g * y, 1.0 - y, out=out),
    ),
    "softmax": (
        _softmax_fwd,
        lambda g, y, out=None: np.multiply(y, g - (g * y).sum(axis=-1, keepdims=True), out=out),
    ),
    "identity": (lambda z, out=None: z, lambda g, y, out=None: g),
}


# -- forward ops -------------------------------------------------------------


def add(a: Tensor, b: Tensor) -> Tensor:
    out = Tensor(a.data + b.data, parents=(a, b))

    def bw(g):
        if a.requires_grad:
            _accum(a, _unbroadcast(g, a.data.shape))
        if b.requires_grad:
            _accum(b, _unbroadcast(g, b.data.shape))

    out._backward_fn = bw if out.requires_grad else None
    return out


def sub(a: Tensor, b: Tensor) -> Tensor:
    out = Tensor(a.data - b.data, parents=(a, b))

    def bw(g):
        if a.requires_grad:
            _accum(a, _unbroadcast(g, a.data.shape))
        if b.requires_grad:
            _accum(b, _unbroadcast(-g, b.data.shape))

    out._backward_fn = bw if out.requires_grad else None
    return out


def mul(a: Tensor, b: Tensor) -> Tensor:
    out = Tensor(a.data * b.data, parents=(a, b))

    def bw(g):
        if a.requires_grad:
            _accum(a, _unbroadcast(g * b.data, a.data.shape))
        if b.requires_grad:
            _accum(b, _unbroadcast(g * a.data, b.data.shape))

    out._backward_fn = bw if out.requires_grad else None
    return out


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.shape[-1] != b.data.shape[0]:
        raise DimensionMismatchError(
            f"matmul: {a.data.shape} @ {b.data.shape}"
        )
    out = Tensor(a.data @ b.data, parents=(a, b))

    def bw(g):
        if a.requires_grad:
            _accum(a, g @ b.data.T)
        if b.requires_grad:
            _accum(b, a.data.T @ g)

    out._backward_fn = bw if out.requires_grad else None
    return out


def log(a: Tensor) -> Tensor:
    if np.any(a.data <= 0):
        raise PreconditionError(f"log of non-positive value (min {a.data.min():g})")
    out = Tensor(np.log(a.data), parents=(a,))

    def bw(g):
        _accum(a, g / a.data)

    out._backward_fn = bw if out.requires_grad else None
    return out


def exp(a: Tensor) -> Tensor:
    y = np.exp(a.data)
    out = Tensor(y, parents=(a,))

    def bw(g):
        _accum(a, g * y)

    out._backward_fn = bw if out.requires_grad else None
    return out


def _activation(a: Tensor, name: str) -> Tensor:
    forward, backward_fn = ACTIVATIONS[name]
    y = forward(a.data)
    out = Tensor(y, parents=(a,))

    def bw(g):
        _accum(a, backward_fn(g, y))

    out._backward_fn = bw if out.requires_grad else None
    return out


def relu(a: Tensor) -> Tensor:
    return _activation(a, "relu")


def relu6(a: Tensor) -> Tensor:
    return _activation(a, "relu6")


def tanh(a: Tensor) -> Tensor:
    return _activation(a, "tanh")


def sigmoid(a: Tensor) -> Tensor:
    return _activation(a, "sigmoid")


def softmax(a: Tensor) -> Tensor:
    """Softmax over the last axis."""
    return _activation(a, "softmax")


def dense(x: Tensor, w: Tensor, b: Tensor, act: str = "identity") -> Tensor:
    """act(x @ w + b) as one node; b broadcasts to the shape of x @ w."""
    if x.data.shape[-1] != w.data.shape[0]:
        raise DimensionMismatchError(f"dense: {x.data.shape} @ {w.data.shape}")
    forward, backward_fn = ACTIVATIONS[act]
    z = x.data @ w.data
    z += b.data
    y = forward(z, out=z)
    out = Tensor(y, parents=(x, w, b))

    def bw(g):
        gz = backward_fn(g, y)
        if b.requires_grad:
            _accum(b, _unbroadcast(gz, b.data.shape))
        if x.requires_grad:
            _accum(x, gz @ w.data.T)
        if w.requires_grad:
            _accum(w, x.data.T @ gz)

    out._backward_fn = bw if out.requires_grad else None
    return out


def log_softmax(a: Tensor) -> Tensor:
    """Log-softmax over the last axis."""
    y = log_softmax_kernel(a.data)
    out = Tensor(y, parents=(a,))

    def bw(g):
        _accum(a, log_softmax_grad(g, y))

    out._backward_fn = bw if out.requires_grad else None
    return out


def mean(a: Tensor) -> Tensor:
    out = Tensor(a.data.mean(), parents=(a,))

    def bw(g):
        _accum(a, np.full_like(a.data, float(g) / a.data.size))

    out._backward_fn = bw if out.requires_grad else None
    return out


def tsum(a: Tensor, axis=None, keepdims=False) -> Tensor:
    out = Tensor(a.data.sum(axis=axis, keepdims=keepdims), parents=(a,))

    def bw(g):
        g = np.asarray(g)
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        _accum(a, np.broadcast_to(g, a.data.shape).copy())

    out._backward_fn = bw if out.requires_grad else None
    return out


def concat(parts: list[Tensor], axis: int = -1) -> Tensor:
    out = Tensor(np.concatenate([p.data for p in parts], axis=axis), parents=tuple(parts))
    sizes = [p.data.shape[axis] for p in parts]
    offsets = np.cumsum([0] + sizes)

    def bw(g):
        for p, lo, hi in zip(parts, offsets[:-1], offsets[1:]):
            if p.requires_grad:
                sl = [slice(None)] * g.ndim
                sl[axis] = slice(lo, hi)
                _accum(p, g[tuple(sl)])

    out._backward_fn = bw if out.requires_grad else None
    return out


def square(a: Tensor) -> Tensor:
    out = Tensor(a.data * a.data, parents=(a,))

    def bw(g):
        _accum(a, 2.0 * g * a.data)

    out._backward_fn = bw if out.requires_grad else None
    return out


def reshape(a: Tensor, shape) -> Tensor:
    out = Tensor(a.data.reshape(shape), parents=(a,))

    def bw(g):
        _accum(a, g.reshape(a.data.shape))

    out._backward_fn = bw if out.requires_grad else None
    return out


def gather_rows(a: Tensor, indices: np.ndarray) -> Tensor:
    """Select rows of a matrix; the embedding-lookup primitive."""
    idx = np.asarray(indices, dtype=np.intp)
    out = Tensor(a.data[idx], parents=(a,))

    def bw(g):
        acc = np.zeros_like(a.data)
        np.add.at(acc, idx, g)
        _accum(a, acc)

    out._backward_fn = bw if out.requires_grad else None
    return out


def take_cols(a: Tensor, cols) -> Tensor:
    """Columns a[:, cols] of a matrix, for a slice or distinct column indices."""
    out = Tensor(a.data[:, cols], parents=(a,))

    def bw(g):
        acc = np.zeros_like(a.data)
        acc[:, cols] = g
        _accum(a, acc)

    out._backward_fn = bw if out.requires_grad else None
    return out


def pick(a: Tensor, indices: np.ndarray) -> Tensor:
    """Per-row element selection a[i, indices[i]]; the NLL primitive."""
    idx = np.asarray(indices, dtype=np.intp)
    rows = np.arange(a.data.shape[0])
    out = Tensor(a.data[rows, idx], parents=(a,))

    def bw(g):
        acc = np.zeros_like(a.data)
        acc[rows, idx] = g
        _accum(a, acc)

    out._backward_fn = bw if out.requires_grad else None
    return out


# -- reverse pass ------------------------------------------------------------


def backward(loss: Tensor) -> None:
    """Populate .grad on every reachable tensor with requires_grad."""
    if loss.data.ndim != 0:
        raise PreconditionError(f"backward expects a scalar loss, got shape {loss.data.shape}")
    topo: list[Tensor] = []
    visited: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(loss, False)]
    while stack:
        node, processed = stack.pop()
        if processed:
            topo.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            # a leaf has no backward to order; its gradient comes from its consumers
            if p._backward_fn is not None and id(p) not in visited:
                stack.append((p, False))
    loss.grad = np.ones_like(loss.data)
    for node in reversed(topo):
        if node._backward_fn is not None and node.grad is not None:
            node._backward_fn(node.grad)


def zero_grad(params) -> None:
    for p in params:
        p.grad = None


# -- MLP building blocks -----------------------------------------------------

@dataclass(frozen=True)
class MlpSpec:
    """Layer widths (input first) and one activation per affine layer."""

    widths: tuple[int, ...]
    activations: tuple[str, ...]

    def __post_init__(self):
        if len(self.widths) < 2:
            raise PreconditionError("MlpSpec needs at least input and output widths")
        if len(self.activations) != len(self.widths) - 1:
            raise PreconditionError(
                f"{len(self.widths) - 1} layers need {len(self.widths) - 1} activations, "
                f"got {len(self.activations)}"
            )
        if any(w <= 0 for w in self.widths):
            raise PreconditionError("layer widths must be positive")
        for a in self.activations:
            if a not in ACTIVATIONS:
                raise PreconditionError(f"unknown activation {a!r}")


class Mlp:
    """Fully-connected network with Glorot-uniform init and zero biases."""

    def __init__(self, spec: MlpSpec, rng: np.random.Generator):
        self.spec = spec
        self.weights: list[Tensor] = []
        self.biases: list[Tensor] = []
        for fan_in, fan_out in zip(spec.widths[:-1], spec.widths[1:]):
            bound = np.sqrt(6.0 / (fan_in + fan_out))
            self.weights.append(parameter(rng.uniform(-bound, bound, size=(fan_in, fan_out))))
            self.biases.append(parameter(np.zeros(fan_out)))

    def __call__(self, x: Tensor) -> Tensor:
        h = x
        for w, b, act in zip(self.weights, self.biases, self.spec.activations):
            h = dense(h, w, b, act)
        return h

    def parameters(self) -> list[Tensor]:
        out = []
        for w, b in zip(self.weights, self.biases):
            out.extend([w, b])
        return out


# -- buffered MLP pass -------------------------------------------------------


def flat_views(params: list[Tensor], flat: np.ndarray) -> list[np.ndarray]:
    """Views of `flat` shaped like each parameter, raveled and concatenated
    in list order: the layout of `adam_step`'s flat buffers."""
    if flat.shape != (sum(p.data.size for p in params),):
        raise DimensionMismatchError(f"flat buffer of shape {flat.shape} for {len(params)} parameters")
    views, lo = [], 0
    for p in params:
        views.append(flat[lo : lo + p.data.size].reshape(p.data.shape))
        lo += p.data.size
    return views


def flat_grad(params: list[Tensor]) -> tuple[np.ndarray, list[np.ndarray]]:
    """A new flat gradient buffer over the parameters, in `adam_step`'s
    layout, and a view of it shaped like each parameter."""
    flat = np.empty(sum(p.data.size for p in params))
    return flat, flat_views(params, flat)


class MlpPass:
    """Buffered forward and hand-written backward of one `Mlp`.

    `forward` writes each layer's output into a buffer, `backward` writes
    each layer's input gradient into another; a set of buffers is made
    once per batch size and reused by every later call at that size.  The
    float operations are those of the `dense` nodes chained, in the tape's
    order, so outputs and gradients equal the tape's bit for bit.  What
    `forward` returns and `backward` takes stays valid only until the next
    call at the same batch size.  The weights are read at every call, so
    `adam_step` may rebind them between calls.  Reusing the buffers pays:
    on two cores, writing a matrix product into fresh memory costs about
    as much as computing it.
    """

    def __init__(self, net: Mlp, input_grad: bool = False):
        self.net = net
        self.input_grad = input_grad  # backward also returns the gradient on the input
        self._buffers: dict[int, tuple[list, list]] = {}
        self._hs: list[np.ndarray] = []
        self._grad_in: list = []

    def forward(self, x: np.ndarray) -> np.ndarray:
        """The network's output on x, in a work buffer; keeps the layer
        outputs for the next `backward`."""
        n = x.shape[0]
        if n not in self._buffers:
            widths = self.net.spec.widths
            self._buffers[n] = (
                [np.empty((n, w)) for w in widths[1:]],
                [np.empty((n, w)) if i or self.input_grad else None for i, w in enumerate(widths[:-1])],
            )
        outs, self._grad_in = self._buffers[n]
        hs = [x]
        for w, b, act, o in zip(self.net.weights, self.net.biases, self.net.spec.activations, outs):
            np.matmul(hs[-1], w.data, out=o)
            o += b.data
            hs.append(ACTIVATIONS[act][0](o, out=o))
        self._hs = hs
        return hs[-1]

    def backward(self, g: np.ndarray, grads: list[np.ndarray]) -> np.ndarray | None:
        """Backward of the last `forward` for upstream gradient g on its
        output; g is overwritten.  Writes each weight and bias gradient into
        `grads`, in `net.parameters()` order, and returns the gradient on
        the input (a work buffer) if `input_grad`, else None."""
        hs, net = self._hs, self.net
        for i in reversed(range(len(net.weights))):
            g = ACTIVATIONS[net.spec.activations[i]][1](g, hs[i + 1], out=g)
            np.matmul(hs[i].T, g, out=grads[2 * i])
            np.add.reduce(g, axis=0, out=grads[2 * i + 1])
            if i == 0 and not self.input_grad:
                return None
            g = np.matmul(g, net.weights[i].data.T, out=self._grad_in[i])
        return g


def nll_and_grad(logits: np.ndarray, labels: np.ndarray, g: float = 1.0) -> tuple[float, np.ndarray]:
    """The mean negative log-likelihood of the labels under a softmax of
    the logits, and the gradient on the logits of g times that mean: the
    float operations of the taped `mean(mul(-1, pick(log_softmax(logits),
    labels)))` run backward from an upstream gradient g."""
    logp = log_softmax_kernel(logits)
    rows = np.arange(logp.shape[0])
    nll = float((-1.0 * logp[rows, labels]).mean())
    picked = np.zeros_like(logp)
    picked[rows, labels] = (float(g) / logp.shape[0]) * -1.0
    return nll, log_softmax_grad(picked, logp)


# -- Adam --------------------------------------------------------------------


@dataclass
class AdamState:
    """Adam's settings and state.  The moments m and v are flat arrays over
    the bound parameters, raveled and concatenated in list order; a caller
    that replaces parameters between steps resizes them to match."""

    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    step: int = 0
    m: np.ndarray | None = None
    v: np.ndarray | None = None
    flat: np.ndarray | None = field(default=None, repr=False)  # bound parameter values
    views: list = field(default_factory=list, repr=False)  # each bound param's .data


def _bind(params: list[Tensor], state: AdamState) -> None:
    """Move the parameters' current values into one new flat buffer and make
    each parameter's .data a view into it."""
    size = sum(p.data.size for p in params)
    if state.m is None:
        state.m, state.v = np.zeros(size), np.zeros(size)
    elif state.m.shape != (size,) or state.v.shape != (size,):
        raise DimensionMismatchError(f"adam_step: moments of size {state.m.size} for {size} parameter values")
    state.flat = np.concatenate([p.data.ravel() for p in params])
    state.views = flat_views(params, state.flat)
    for p, view in zip(params, state.views):
        p.data = view


def adam_step(params: list[Tensor], state: AdamState, grads=None) -> None:
    """Standard Adam update in place.  grads: one array per parameter, or
    one flat array over all of them laid out as `flat_views` lays them out;
    it defaults to each param's .grad."""
    if isinstance(grads, np.ndarray):
        if grads.shape != (sum(p.data.size for p in params),):
            raise DimensionMismatchError(f"adam_step: flat gradient of shape {grads.shape}")
        g = grads
    else:
        if grads is None:
            grads = [p.grad if p.grad is not None else np.zeros_like(p.data) for p in params]
        if len(grads) != len(params) or any(g.shape != p.data.shape for g, p in zip(grads, params)):
            raise DimensionMismatchError("adam_step: gradient shapes do not match parameters")
        g = np.concatenate([g.ravel() for g in grads])
    if len(params) != len(state.views) or any(p.data is not v for p, v in zip(params, state.views)):
        _bind(params, state)
    state.step += 1
    t = state.step
    m, v = state.m, state.v
    m *= state.beta1
    m += (1 - state.beta1) * g
    v *= state.beta2
    v += (1 - state.beta2) * g * g
    denom = np.sqrt(v / (1 - state.beta2**t))
    denom += state.eps
    update = m / (1 - state.beta1**t)
    update *= state.lr
    update /= denom
    state.flat -= update


# -- checkpointing -----------------------------------------------------------


def save_checkpoint(path: str | Path, meta: dict, arrays: dict[str, np.ndarray]) -> None:
    """Versioned checkpoint: JSON header plus named row-major weight arrays."""
    header = dict(meta)
    header["checkpoint_version"] = CHECKPOINT_VERSION
    np.savez(path, __meta__=np.frombuffer(json.dumps(header).encode(), dtype=np.uint8), **arrays)


def load_checkpoint(path: str | Path) -> tuple[dict, dict[str, np.ndarray]]:
    """(meta, arrays) of a `save_checkpoint` file; DatasetError if the file
    is not a readable checkpoint archive of this version."""
    try:
        f = np.load(path)
        if not isinstance(f, np.lib.npyio.NpzFile):  # a bare .npy array
            raise ValueError("an array file, not an archive")
        with f:
            meta = json.loads(bytes(f["__meta__"]).decode())
            arrays = {k: f[k] for k in f.files if k != "__meta__"}
    except (OSError, EOFError, KeyError, ValueError, zipfile.BadZipFile) as exc:
        raise DatasetError(f"{path} is not a checkpoint: {exc}") from None
    if meta.get("checkpoint_version") != CHECKPOINT_VERSION:
        raise DatasetError(
            f"{path}: unsupported checkpoint version {meta.get('checkpoint_version')!r}"
        )
    return meta, arrays
