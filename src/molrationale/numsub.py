"""Minimal dense-tensor substrate with reverse-mode automatic differentiation.

Tensors are rank <= 2 arrays of 64-bit floats. Batching is explicit through
the row dimension; there is no broadcasting. A module-level switch disables
tape recording for evaluation-only work (sampling).
An op's backward closure keeps only the arrays its gradient reads, and a
backward pass consumes the tape it walks, freeing each op as it goes.
"""

from __future__ import annotations

import json
from contextlib import contextmanager

import numpy as np

__all__ = [
    "Tensor",
    "param",
    "const",
    "no_grad",
    "recording",
    "track",
    "matmul",
    "add",
    "mul",
    "scale",
    "concat",
    "gather_rows",
    "tile_rows",
    "segment_sum",
    "row_sum",
    "sum_all",
    "relu",
    "sigmoid",
    "exp",
    "logsigmoid",
    "cross_entropy",
    "gaussian_kl",
    "sigmoid_array",
    "softmax_array",
    "backward",
    "zero_grads",
    "adam_step",
    "save_params",
    "load_params",
    "ShapeError",
    "GradientError",
]

_GRAD_ENABLED = True


class ShapeError(ValueError):
    pass


class GradientError(RuntimeError):
    pass


@contextmanager
def no_grad():
    """Disable tape recording inside the block (forward-only evaluation)."""
    global _GRAD_ENABLED
    saved = _GRAD_ENABLED
    _GRAD_ENABLED = False
    try:
        yield
    finally:
        _GRAD_ENABLED = saved


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "name", "_parents", "_backward")

    def __init__(self, data, requires_grad=False, name=None, _parents=(), _backward=None):
        arr = np.asarray(data, dtype=np.float64)
        if arr.ndim > 2:
            raise ShapeError(f"rank {arr.ndim} tensor not supported (max 2)")
        self.data = arr
        self.grad = None
        self.requires_grad = requires_grad
        self.name = name
        self._parents = _parents
        self._backward = _backward

    @property
    def shape(self):
        return self.data.shape

    def __repr__(self):
        tag = f" {self.name}" if self.name else ""
        return f"Tensor{tag}(shape={self.shape})"


def param(data, name: str | None = None) -> Tensor:
    return Tensor(np.array(data, dtype=np.float64), requires_grad=True, name=name)


def const(data) -> Tensor:
    return Tensor(data)


def recording(parents) -> bool:
    """Whether track would record an op on these parents: gradients are
    enabled and some parent is a parameter or itself on the tape."""
    return _GRAD_ENABLED and any(p.requires_grad or p._backward for p in parents)


def track(out_data, parents, backward_fn) -> Tensor:
    """Record one op on the tape. backward_fn maps the output gradient to a
    tuple with one gradient (or None, for no dependence) per parent."""
    if recording(parents):
        return Tensor(out_data, _parents=tuple(parents), _backward=backward_fn)
    return Tensor(out_data)


def _same_shape(a: Tensor, b: Tensor, op: str) -> None:
    if a.shape != b.shape:
        raise ShapeError(f"{op}: shape mismatch {a.shape} vs {b.shape}")


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """A vector or a matrix times a matrix."""
    if a.data.ndim == 0 or b.data.ndim != 2:
        raise ShapeError("matmul takes a rank >= 1 left operand and a matrix right operand")
    if a.shape[-1] != b.shape[0]:
        raise ShapeError(f"matmul: inner dims differ {a.shape} vs {b.shape}")
    out = a.data @ b.data

    def backward_fn(g):
        ad, bd = a.data, b.data
        gb = np.outer(ad, g) if ad.ndim == 1 else ad.T @ g
        return g @ bd.T, gb

    return track(out, (a, b), backward_fn)


def add(a: Tensor, b: Tensor) -> Tensor:
    _same_shape(a, b, "add")
    return track(a.data + b.data, (a, b), lambda g: (g, g))


def mul(a: Tensor, b: Tensor) -> Tensor:
    _same_shape(a, b, "mul")
    return track(a.data * b.data, (a, b), lambda g: (g * b.data, g * a.data))


def scale(a: Tensor, c: float) -> Tensor:
    return track(a.data * c, (a,), lambda g: (g * c,))


def concat(parts: list[Tensor], axis: int = -1) -> Tensor:
    """Concatenate along the last axis: rank-1 tensors end to end, or rank-2
    tensors with equal row counts column block by column block. With axis=0,
    stack the rows of rank-2 tensors with equal column counts."""
    ndim = parts[0].data.ndim
    if ndim == 0 or any(p.data.ndim != ndim for p in parts):
        raise ShapeError("concat expects tensors of one rank, 1 or 2")
    if axis not in (-1, 0) or (axis == 0 and ndim != 2):
        raise ShapeError("concat joins along the last axis, or the rows of rank-2 tensors")
    if ndim == 2 and len({p.shape[axis + 1] for p in parts}) != 1:
        raise ShapeError("concat: " + ("column" if axis == 0 else "row") + " counts differ")
    sizes = [p.shape[axis] for p in parts]
    out = np.concatenate([p.data for p in parts], axis=axis)

    def backward_fn(g):
        grads = []
        off = 0
        for s in sizes:
            grads.append(g[off : off + s] if axis == 0 else g[..., off : off + s])
            off += s
        return tuple(grads)

    return track(out, tuple(parts), backward_fn)


def gather_rows(a: Tensor, idx) -> Tensor:
    if a.data.ndim != 2:
        raise ShapeError("gather_rows expects a rank-2 tensor")
    idx = np.asarray(idx, dtype=np.int64)

    def backward_fn(g):
        ga = np.zeros_like(a.data)
        np.add.at(ga, idx, g)
        return (ga,)

    return track(a.data[idx], (a,), backward_fn)


def tile_rows(a: Tensor, m: int) -> Tensor:
    """Stack m copies of a (d,) vector into an (m, d) matrix."""
    if a.data.ndim != 1:
        raise ShapeError("tile_rows expects a rank-1 tensor")
    return track(np.tile(a.data, (m, 1)), (a,), lambda g: (g.sum(axis=0),))


def segment_sum(a: Tensor, starts) -> Tensor:
    """Sum consecutive row blocks of an (n, d) matrix: block i is rows
    starts[i] up to starts[i + 1] (or n). starts begins at 0 and strictly
    increases, so no block is empty."""
    if a.data.ndim != 2:
        raise ShapeError("segment_sum expects a rank-2 tensor")
    starts = np.asarray(starts, dtype=np.int64)
    lengths = np.diff(np.append(starts, a.shape[0]))
    if starts.size == 0 or starts[0] != 0 or np.any(lengths < 1):
        raise ShapeError("segment_sum needs non-empty blocks starting at row 0")
    out = np.add.reduceat(a.data, starts, axis=0)
    return track(out, (a,), lambda g: (np.repeat(g, lengths, axis=0),))


def row_sum(a: Tensor) -> Tensor:
    """Sum a (n, d) matrix over rows, giving a (d,) vector."""
    if a.data.ndim != 2:
        raise ShapeError("row_sum expects a rank-2 tensor")
    n = a.shape[0]

    def backward_fn(g):
        return (np.tile(g, (n, 1)),)

    return track(a.data.sum(axis=0), (a,), backward_fn)


def sum_all(a: Tensor) -> Tensor:
    """Sum every element into a scalar."""
    shape = a.data.shape

    def backward_fn(g):
        return (np.full(shape, g, dtype=np.float64),)

    return track(a.data.sum(), (a,), backward_fn)


def relu(a: Tensor) -> Tensor:
    mask = a.data > 0
    return track(a.data * mask, (a,), lambda g: (g * mask,))


def sigmoid_array(x) -> np.ndarray:
    """The logistic function of an array, forward only."""
    # exp(-|x|) never overflows; the same expression serves both signs
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0, e) / (1.0 + e)


def softmax_array(x: np.ndarray) -> np.ndarray:
    """Softmax over the last axis of an array, forward only; rows sum to 1."""
    e = np.exp(x - x.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def sigmoid(a: Tensor) -> Tensor:
    out = sigmoid_array(a.data)
    return track(out, (a,), lambda g: (g * out * (1.0 - out),))


def exp(a: Tensor) -> Tensor:
    out = np.exp(a.data)
    return track(out, (a,), lambda g: (g * out,))


def logsigmoid(a: Tensor) -> Tensor:
    # log(sigmoid(x)) = min(x, 0) - log(1 + exp(-|x|)), stable in both directions
    e = np.exp(-np.abs(a.data))
    out = np.minimum(a.data, 0) - np.log1p(e)
    sig = sigmoid_array(a.data)
    return track(out, (a,), lambda g: (g * (1.0 - sig),))


def cross_entropy(logits: Tensor, target) -> Tensor:
    """-log softmax(logits)[target] over the last axis: a scalar for a
    rank-1 logits vector and an int target, one value per row for (m, k)
    logits and m targets."""
    x = logits.data
    if x.ndim == 0:
        raise ShapeError("cross_entropy expects rank-1 or rank-2 logits")
    target = np.asarray(target, dtype=np.int64)
    if target.shape != x.shape[:-1]:
        raise ShapeError(f"cross_entropy: targets {target.shape} for logits {x.shape}")
    m = x.max(axis=-1, keepdims=True)
    lse = m + np.log(np.exp(x - m).sum(axis=-1, keepdims=True))
    picked = np.take_along_axis(x, target[..., None], axis=-1)
    out = (lse - picked)[..., 0]

    def backward_fn(g):
        p = np.exp(x - lse) - (np.arange(x.shape[-1]) == target[..., None])
        return (np.asarray(g)[..., None] * p,)

    return track(out, (logits,), backward_fn)


def gaussian_kl(mu: Tensor, log_sigma: Tensor) -> Tensor:
    """KL(N(mu, sigma^2) || N(0, 1)) with sigma = exp(log_sigma), summed.

    Equals sum of 0.5 * (mu^2 + sigma^2 - 2*log_sigma - 1).
    """
    _same_shape(mu, log_sigma, "gaussian_kl")
    s2 = np.exp(2.0 * log_sigma.data)
    out = 0.5 * (mu.data**2 + s2 - 2.0 * log_sigma.data - 1.0).sum()

    def backward_fn(g):
        return (g * mu.data, g * (s2 - 1.0))

    return track(out, (mu, log_sigma), backward_fn)


def _spent(g):
    raise GradientError("backward through an op whose tape an earlier backward consumed")


def backward(loss: Tensor) -> None:
    """Reverse accumulation from a scalar loss; grads accumulate across calls.

    Once an op's gradient has gone to its parents, the op drops its closure
    and parents, so what only the tape held is freed as the pass goes. The op
    is spent: a later backward that brings it a gradient raises GradientError."""
    if loss.data.shape != ():
        raise ShapeError(f"backward requires a scalar loss, got shape {loss.data.shape}")
    topo: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(loss, False)]
    while stack:
        node, processed = stack.pop()
        if processed:
            topo.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if id(p) not in seen:
                stack.append((p, False))

    grads: dict[int, np.ndarray] = {id(loss): np.array(1.0)}
    while topo:
        node = topo.pop()
        g = grads.pop(id(node), None)
        if node.requires_grad and g is not None:
            if node.grad is None:
                node.grad = np.zeros_like(node.data)
            node.grad += g
        if node._backward is None:
            continue
        parents, backward_fn = node._parents, node._backward
        node._parents, node._backward = (), _spent
        if g is None:
            continue
        for p, pg in zip(parents, backward_fn(g)):
            if pg is None:
                continue
            acc = grads.get(id(p))
            grads[id(p)] = pg if acc is None else acc + pg


def zero_grads(params: dict[str, Tensor]) -> None:
    for t in params.values():
        t.grad = None


# Adam's moment decay rates and denominator floor (Kingma & Ba, 2015)
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


def adam_step(
    params: dict[str, Tensor],
    grads: dict[str, np.ndarray],
    state: dict,
    lr: float,
) -> None:
    """In-place Adam update with bias correction; deterministic."""
    state.setdefault("t", 0)
    state["t"] += 1
    t = state["t"]
    m_store = state.setdefault("m", {})
    v_store = state.setdefault("v", {})
    for name in sorted(params):
        g = grads.get(name)
        if g is None:
            continue
        if not np.all(np.isfinite(g)):
            raise GradientError(f"non-finite gradient for parameter {name!r}")
        p = params[name]
        if name not in m_store:
            m_store[name] = np.zeros_like(p.data)
            v_store[name] = np.zeros_like(p.data)
        m = m_store[name]
        v = v_store[name]
        m *= ADAM_BETA1
        m += (1 - ADAM_BETA1) * g
        v *= ADAM_BETA2
        v += (1 - ADAM_BETA2) * g * g
        m_hat = m / (1 - ADAM_BETA1**t)
        v_hat = v / (1 - ADAM_BETA2**t)
        p.data = p.data - lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)


# ---------------------------------------------------------------------------
# Parameter checkpointing: <path>.json manifest + <path>.bin little-endian f64

_CKPT_VERSION = 1


def save_params(path_stem: str, arrays: dict[str, np.ndarray], extra: dict) -> None:
    """<path_stem>.json names each array with its shape and byte offset and
    holds `extra`, and <path_stem>.bin holds the arrays in name order, each
    written straight in."""
    names = sorted(arrays)
    entries = []
    offset = 0
    for name in names:
        shape = np.shape(arrays[name])
        entries.append({"name": name, "shape": list(shape), "offset": offset})
        offset += 8 * int(np.prod(shape))
    manifest = {"version": _CKPT_VERSION, "dtype": "<f8", "params": entries, "extra": extra}
    with open(f"{path_stem}.json", "w") as fh:
        json.dump(manifest, fh, sort_keys=True, separators=(",", ":"))
    with open(f"{path_stem}.bin", "wb") as fh:
        for name in names:
            fh.write(np.ascontiguousarray(arrays[name], dtype="<f8").data)


def load_params(path_stem: str) -> tuple[dict[str, np.ndarray], dict]:
    with open(f"{path_stem}.json") as fh:
        manifest = json.load(fh)
    if manifest.get("version") != _CKPT_VERSION:
        raise ValueError(f"unsupported checkpoint version {manifest.get('version')}")
    with open(f"{path_stem}.bin", "rb") as fh:
        blob = fh.read()
    out = {}
    for entry in manifest["params"]:
        shape = tuple(entry["shape"])
        count = int(np.prod(shape)) if shape else 1
        arr = np.frombuffer(
            blob, dtype="<f8", count=count, offset=entry["offset"]
        ).reshape(shape)
        # astype copies, so the array owns its memory and is writeable
        out[entry["name"]] = arr.astype(np.float64)
    return out, manifest.get("extra", {})
