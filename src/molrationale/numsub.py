"""Minimal dense-tensor substrate with reverse-mode automatic differentiation.

Tensors are rank <= 2 arrays of 64-bit floats. Batching is explicit through
the row dimension; there is no broadcasting. A module-level switch disables
tape recording for evaluation-only work (sampling).
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
    "matmul",
    "add",
    "mul",
    "scale",
    "concat",
    "row",
    "gather_rows",
    "row_sum",
    "sum_all",
    "relu",
    "sigmoid",
    "exp",
    "softmax",
    "logsigmoid",
    "cross_entropy",
    "gaussian_kl",
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

    def item(self) -> float:
        return float(self.data)

    def __repr__(self):
        tag = f" {self.name}" if self.name else ""
        return f"Tensor{tag}(shape={self.shape})"


def param(data, name: str | None = None) -> Tensor:
    return Tensor(np.array(data, dtype=np.float64), requires_grad=True, name=name)


def const(data) -> Tensor:
    return Tensor(data)


def _track(out_data, parents, backward_fn) -> Tensor:
    if _GRAD_ENABLED and any(
        p.requires_grad or p._parents or p._backward for p in parents
    ):
        return Tensor(out_data, _parents=tuple(parents), _backward=backward_fn)
    return Tensor(out_data)


def _same_shape(a: Tensor, b: Tensor, op: str) -> None:
    if a.shape != b.shape:
        raise ShapeError(f"{op}: shape mismatch {a.shape} vs {b.shape}")


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.ndim == 0 or b.data.ndim == 0:
        raise ShapeError("matmul requires rank >= 1 operands")
    if a.shape[-1] != b.shape[0]:
        raise ShapeError(f"matmul: inner dims differ {a.shape} vs {b.shape}")
    out = a.data @ b.data

    def backward_fn(g):
        ad, bd = a.data, b.data
        if ad.ndim == 1 and bd.ndim == 2:
            ga = g @ bd.T
            gb = np.outer(ad, g)
        elif ad.ndim == 2 and bd.ndim == 1:
            ga = np.outer(g, bd)
            gb = ad.T @ g
        elif ad.ndim == 1 and bd.ndim == 1:
            ga = g * bd
            gb = g * ad
        else:
            ga = g @ bd.T
            gb = ad.T @ g
        return ga, gb

    return _track(out, (a, b), backward_fn)


def add(a: Tensor, b: Tensor) -> Tensor:
    _same_shape(a, b, "add")
    return _track(a.data + b.data, (a, b), lambda g: (g, g))


def mul(a: Tensor, b: Tensor) -> Tensor:
    _same_shape(a, b, "mul")
    return _track(a.data * b.data, (a, b), lambda g: (g * b.data, g * a.data))


def scale(a: Tensor, c: float) -> Tensor:
    return _track(a.data * c, (a,), lambda g: (g * c,))


def concat(parts: list[Tensor]) -> Tensor:
    """Concatenate rank-1 tensors end to end."""
    for p in parts:
        if p.data.ndim != 1:
            raise ShapeError("concat expects rank-1 tensors")
    sizes = [p.shape[0] for p in parts]
    out = np.concatenate([p.data for p in parts])

    def backward_fn(g):
        grads = []
        off = 0
        for s in sizes:
            grads.append(g[off : off + s])
            off += s
        return tuple(grads)

    return _track(out, tuple(parts), backward_fn)


def row(a: Tensor, i: int) -> Tensor:
    if a.data.ndim != 2:
        raise ShapeError("row expects a rank-2 tensor")

    def backward_fn(g):
        ga = np.zeros_like(a.data)
        ga[i] = g
        return (ga,)

    return _track(a.data[i].copy(), (a,), backward_fn)


def gather_rows(a: Tensor, idx) -> Tensor:
    if a.data.ndim != 2:
        raise ShapeError("gather_rows expects a rank-2 tensor")
    idx = np.asarray(idx, dtype=np.int64)

    def backward_fn(g):
        ga = np.zeros_like(a.data)
        np.add.at(ga, idx, g)
        return (ga,)

    return _track(a.data[idx], (a,), backward_fn)


def row_sum(a: Tensor) -> Tensor:
    """Sum a (n, d) matrix over rows, giving a (d,) vector."""
    if a.data.ndim != 2:
        raise ShapeError("row_sum expects a rank-2 tensor")
    n = a.shape[0]

    def backward_fn(g):
        return (np.tile(g, (n, 1)),)

    return _track(a.data.sum(axis=0), (a,), backward_fn)


def sum_all(a: Tensor) -> Tensor:
    """Sum every element into a scalar."""
    shape = a.data.shape

    def backward_fn(g):
        return (np.full(shape, g, dtype=np.float64),)

    return _track(a.data.sum(), (a,), backward_fn)


def relu(a: Tensor) -> Tensor:
    mask = a.data > 0
    return _track(a.data * mask, (a,), lambda g: (g * mask,))


def sigmoid(a: Tensor) -> Tensor:
    # exp(-|x|) never overflows; the same expression serves both signs
    e = np.exp(-np.abs(a.data))
    out = np.where(a.data >= 0, 1.0, e) / (1.0 + e)
    return _track(out, (a,), lambda g: (g * out * (1.0 - out),))


def exp(a: Tensor) -> Tensor:
    out = np.exp(a.data)
    return _track(out, (a,), lambda g: (g * out,))


def logsigmoid(a: Tensor) -> Tensor:
    # log(sigmoid(x)) = min(x, 0) - log(1 + exp(-|x|)), stable in both directions
    e = np.exp(-np.abs(a.data))
    out = np.minimum(a.data, 0) - np.log1p(e)
    sig = np.where(a.data >= 0, 1.0, e) / (1.0 + e)
    return _track(out, (a,), lambda g: (g * (1.0 - sig),))


def softmax(a: Tensor) -> Tensor:
    """Softmax over the last axis; rows sum to 1."""
    x = a.data
    m = x.max(axis=-1, keepdims=True)
    e = np.exp(x - m)
    out = e / e.sum(axis=-1, keepdims=True)

    def backward_fn(g):
        dot = (g * out).sum(axis=-1, keepdims=True)
        return (out * (g - dot),)

    return _track(out, (a,), backward_fn)


def cross_entropy(logits: Tensor, target: int) -> Tensor:
    """-log softmax(logits)[target] for a rank-1 logits vector."""
    if logits.data.ndim != 1:
        raise ShapeError("cross_entropy expects rank-1 logits")
    x = logits.data
    m = x.max()
    lse = m + np.log(np.exp(x - m).sum())
    out = lse - x[target]

    def backward_fn(g):
        p = np.exp(x - lse)
        p[target] -= 1.0
        return (g * p,)

    return _track(out, (logits,), backward_fn)


def gaussian_kl(mu: Tensor, log_sigma: Tensor) -> Tensor:
    """KL(N(mu, sigma^2) || N(0, 1)) with sigma = exp(log_sigma), summed.

    Equals sum of 0.5 * (mu^2 + sigma^2 - 2*log_sigma - 1).
    """
    _same_shape(mu, log_sigma, "gaussian_kl")
    s2 = np.exp(2.0 * log_sigma.data)
    out = 0.5 * (mu.data**2 + s2 - 2.0 * log_sigma.data - 1.0).sum()

    def backward_fn(g):
        return (g * mu.data, g * (s2 - 1.0))

    return _track(out, (mu, log_sigma), backward_fn)


def backward(loss: Tensor) -> None:
    """Reverse accumulation from a scalar loss; grads accumulate across calls."""
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
    for node in reversed(topo):
        g = grads.pop(id(node), None)
        if g is None:
            continue
        if node.requires_grad:
            if node.grad is None:
                node.grad = np.zeros_like(node.data)
            node.grad += g
        if node._backward is None:
            continue
        parent_grads = node._backward(g)
        for p, pg in zip(node._parents, parent_grads):
            if pg is None:
                continue
            acc = grads.get(id(p))
            grads[id(p)] = pg if acc is None else acc + pg


def zero_grads(params: dict[str, Tensor]) -> None:
    for t in params.values():
        t.grad = None


def adam_step(
    params: dict[str, Tensor],
    grads: dict[str, np.ndarray],
    state: dict,
    lr: float = 1e-3,
    beta1: float = 0.9,
    beta2: float = 0.999,
    eps: float = 1e-8,
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
        m = m_store.setdefault(name, np.zeros_like(p.data))
        v = v_store.setdefault(name, np.zeros_like(p.data))
        m *= beta1
        m += (1 - beta1) * g
        v *= beta2
        v += (1 - beta2) * g * g
        m_hat = m / (1 - beta1**t)
        v_hat = v / (1 - beta2**t)
        p.data = p.data - lr * m_hat / (np.sqrt(v_hat) + eps)


# ---------------------------------------------------------------------------
# Parameter checkpointing: <path>.json manifest + <path>.bin little-endian f64

_CKPT_VERSION = 1


def save_params(path_stem: str, arrays: dict[str, np.ndarray], extra: dict | None = None) -> None:
    entries = []
    blob = bytearray()
    for name in sorted(arrays):
        src = np.asarray(arrays[name], dtype=np.float64)
        arr = np.ascontiguousarray(src, dtype="<f8")
        entries.append({"name": name, "shape": list(src.shape), "offset": len(blob)})
        blob.extend(arr.tobytes())
    manifest = {"version": _CKPT_VERSION, "dtype": "<f8", "params": entries}
    if extra:
        manifest["extra"] = extra
    with open(f"{path_stem}.json", "w") as fh:
        json.dump(manifest, fh, sort_keys=True, separators=(",", ":"))
    with open(f"{path_stem}.bin", "wb") as fh:
        fh.write(bytes(blob))


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
        out[entry["name"]] = arr.astype(np.float64).copy()
    return out, manifest.get("extra", {})
