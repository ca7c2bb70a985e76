"""Deterministic numeric core: parameters, layers with exact gradients, checkpoints.

Each layer (GRU step, attention, output logits, masked log-softmax) is
one NumPy forward and one hand-derived backward, in float64 so finite
differences are meaningful. A forward returns its output together with
what its backward needs. A backward takes the output gradient, adds its
weight gradients to the parameters' ``.grad`` (one ``np.outer`` per
weight and call) and returns the input gradients.
``programmer.program_logprob`` chains them over a whole program and
returns one Tensor whose backward walks that chain once in reverse;
``programmer.grad_check`` compares it with finite differences.

Each forward is written once, batched as ``x @ W.T``: the replay passes
vectors, search and sampling pass vectors or (B, H) batches of lanes.
For vectors ``x @ W.T`` is the same matrix-vector product as ``W @ x``,
bit for bit. No GPU, no graph compiler, no broadcasting zoo.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np


class Tensor:
    """A float64 array. A parameter gathers its gradient in ``grad``; a
    replay's log probability carries the closure that back-propagates it."""

    __slots__ = ("data", "grad", "_bw")

    def __init__(self, data, bw=None):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None
        self._bw = bw

    def __repr__(self):
        return f"Tensor(shape={self.data.shape})"


def leaf(data) -> Tensor:
    return Tensor(data)


def grad_of(t: Tensor) -> np.ndarray:
    """t's gradient buffer, zeros until something is added to it."""
    if t.grad is None:
        t.grad = np.zeros_like(t.data)
    return t.grad


def _acc(t: Tensor, g) -> None:
    grad = grad_of(t)
    grad += g


def backward(loss: Tensor, weight: float = 1.0) -> None:
    """Add the gradient of weight * loss to the .grad of every parameter
    the scalar loss was computed from."""
    if loss.data.shape != () or loss._bw is None:
        raise ValueError("backward needs a scalar loss computed from parameters")
    loss._bw(float(weight))


# ---------------------------------------------------------------------------
# parameter bundles


@dataclass
class GRUParams:
    """Update gate z, reset gate r, candidate c; weights (hidden, in)."""

    wxz: Tensor
    whz: Tensor
    bz: Tensor
    wxr: Tensor
    whr: Tensor
    br: Tensor
    wxc: Tensor
    whc: Tensor
    bc: Tensor

    @classmethod
    def init(cls, rng: np.random.Generator, in_dim: int, hidden: int) -> "GRUParams":
        def w(rows, cols):
            return leaf(rng.uniform(-0.1, 0.1, (rows, cols)))

        def b():
            return leaf(rng.uniform(-0.1, 0.1, hidden))

        return cls(
            wxz=w(hidden, in_dim), whz=w(hidden, hidden), bz=b(),
            wxr=w(hidden, in_dim), whr=w(hidden, hidden), br=b(),
            wxc=w(hidden, in_dim), whc=w(hidden, hidden), bc=b(),
        )

    def named(self, prefix: str):
        for name in ("wxz", "whz", "bz", "wxr", "whr", "br", "wxc", "whc", "bc"):
            yield f"{prefix}.{name}", getattr(self, name)


@dataclass
class AttentionParams:
    w_score: Tensor  # (hidden, hidden)
    w_combine: Tensor  # (hidden, 2*hidden)

    @classmethod
    def init(cls, rng: np.random.Generator, hidden: int) -> "AttentionParams":
        return cls(
            w_score=leaf(rng.uniform(-0.1, 0.1, (hidden, hidden))),
            w_combine=leaf(rng.uniform(-0.1, 0.1, (hidden, 2 * hidden))),
        )

    def named(self, prefix: str):
        yield f"{prefix}.w_score", self.w_score
        yield f"{prefix}.w_combine", self.w_combine


@dataclass
class ModelParams:
    """Every learnable tensor of the programmer, in one bundle.

    word_emb embeds question words for the encoder; token_emb embeds the
    static program tokens the decoder consumes; w_out projects attention
    output to static-token logits; w_key projects it before dotting with
    memory keys for variable-token logits.
    """

    word_emb: Tensor  # (n_words, embed_dim)
    token_emb: Tensor  # (n_static, hidden)
    encoder: GRUParams
    decoder: GRUParams
    attention: AttentionParams
    w_out: Tensor  # (n_static, hidden)
    w_key: Tensor  # (hidden, hidden)

    @classmethod
    def init(
        cls,
        rng: np.random.Generator,
        n_words: int,
        n_static: int,
        embed_dim: int,
        hidden: int,
    ) -> "ModelParams":
        return cls(
            word_emb=leaf(rng.uniform(-0.1, 0.1, (n_words, embed_dim))),
            token_emb=leaf(rng.uniform(-0.1, 0.1, (n_static, hidden))),
            encoder=GRUParams.init(rng, embed_dim, hidden),
            decoder=GRUParams.init(rng, hidden, hidden),
            attention=AttentionParams.init(rng, hidden),
            w_out=leaf(rng.uniform(-0.1, 0.1, (n_static, hidden))),
            w_key=leaf(rng.uniform(-0.1, 0.1, (hidden, hidden))),
        )

    def named_tensors(self) -> list[tuple[str, Tensor]]:
        out = [("word_emb", self.word_emb), ("token_emb", self.token_emb)]
        out.extend(self.encoder.named("encoder"))
        out.extend(self.decoder.named("decoder"))
        out.extend(self.attention.named("attention"))
        out.append(("w_out", self.w_out))
        out.append(("w_key", self.w_key))
        return out

    def zero_grad(self) -> None:
        for _, t in self.named_tensors():
            t.grad = None

    @property
    def embed_dim(self) -> int:
        return self.word_emb.data.shape[1]

    @property
    def hidden_dim(self) -> int:
        return self.token_emb.data.shape[1]


# ---------------------------------------------------------------------------
# layers: one forward and one backward each


def _sigmoid_np(x):
    """1 / (1 + exp(-x)) for x >= 0 and exp(x) / (1 + exp(x)) below, so
    exp never overflows. minimum(x, -x), not -abs(x), keeps a NaN's sign."""
    e = np.exp(np.minimum(x, -x))
    d = 1.0 + e
    return np.where(x >= 0, 1.0 / d, e / d)


def gru_step(gp: GRUParams, h: np.ndarray, x: np.ndarray):
    """One GRU step; the update gate keeps the old state: h' = z*h + (1-z)*c.

    The reset gate r applies to the hidden path before the candidate c;
    h, x are (H,)/(E,) or (B,H)/(B,E). Returns (h', z, r, c), the gates
    being what gru_step_back needs.
    """
    z = _sigmoid_np(x @ gp.wxz.data.T + h @ gp.whz.data.T + gp.bz.data)
    r = _sigmoid_np(x @ gp.wxr.data.T + h @ gp.whr.data.T + gp.br.data)
    c = np.tanh(x @ gp.wxc.data.T + (r * h) @ gp.whc.data.T + gp.bc.data)
    return z * h + (1.0 - z) * c, z, r, c


def gru_step_np(gp: GRUParams, h: np.ndarray, x: np.ndarray) -> np.ndarray:
    """gru_step's new state alone, for decoding that keeps no gradients."""
    return gru_step(gp, h, x)[0]


def gru_step_back(gp: GRUParams, g, h, x, z, r, c):
    """Backward of a vector gru_step(gp, h, x) -> (h', z, r, c) for output
    gradient g: adds the weight gradients and returns (dx, dh)."""
    rh = r * h
    dz = g * (h - c)
    dh = g * z
    dc_pre = g * (1.0 - z) * (1.0 - c * c)
    dz_pre = dz * z * (1.0 - z)
    drh = gp.whc.data.T @ dc_pre
    dr_pre = drh * h * r * (1.0 - r)
    dh += drh * r
    dh += gp.whz.data.T @ dz_pre + gp.whr.data.T @ dr_pre
    dx = gp.wxz.data.T @ dz_pre + gp.wxr.data.T @ dr_pre + gp.wxc.data.T @ dc_pre
    _acc(gp.wxz, np.outer(dz_pre, x))
    _acc(gp.whz, np.outer(dz_pre, h))
    _acc(gp.bz, dz_pre)
    _acc(gp.wxr, np.outer(dr_pre, x))
    _acc(gp.whr, np.outer(dr_pre, h))
    _acc(gp.br, dr_pre)
    _acc(gp.wxc, np.outer(dc_pre, x))
    _acc(gp.whc, np.outer(dc_pre, rh))
    _acc(gp.bc, dc_pre)
    return dx, dh


def attention(ap: AttentionParams, u: np.ndarray, enc: np.ndarray):
    """Dot-product attention, tanh-combined, of u (H,) or (B,H) over the
    encoder outputs enc (T,H).

    scores s_t = u . (W_score @ enc_t); weights = softmax(s);
    context = sum_t w_t enc_t; output = tanh(W_combine @ [u; context]).
    Returns (output, query u @ W_score, weights, [u; context]), the last
    three being what attention_back needs.
    """
    if enc.ndim != 2 or enc.shape[0] == 0:
        raise ValueError("attention needs at least one encoder output")
    q = u @ ap.w_score.data
    s = q @ enc.T
    s = s - s.max(axis=-1, keepdims=True)
    w = np.exp(s)
    w /= w.sum(axis=-1, keepdims=True)
    cat = np.concatenate([u, w @ enc], axis=-1)
    return np.tanh(cat @ ap.w_combine.data.T), q, w, cat


def attention_np(ap: AttentionParams, u: np.ndarray, enc: np.ndarray) -> np.ndarray:
    """attention's output alone, for decoding that keeps no gradients."""
    return attention(ap, u, enc)[0]


def attention_back(ap: AttentionParams, g, u, enc, out, q, w, cat):
    """Backward of a vector attention(ap, u, enc) -> (out, q, w, cat) for
    output gradient g: adds the weight gradients and returns (du, denc)."""
    dcomb = g * (1.0 - out * out)
    _acc(ap.w_combine, np.outer(dcomb, cat))
    dcat = ap.w_combine.data.T @ dcomb
    hidden = u.shape[0]
    du = dcat[:hidden].copy()
    dctx = dcat[hidden:]
    dw = enc @ dctx
    denc = np.outer(w, dctx)
    ds = w * (dw - w @ dw)
    dq = enc.T @ ds
    denc += np.outer(ds, q)
    du += ap.w_score.data @ dq
    _acc(ap.w_score, np.outer(u, dq))
    return du, denc


def output_logits(w_out: Tensor, w_key: Tensor, a: np.ndarray, keys: list):
    """Decoder logits of attention output a (H,): one per static token
    (a @ W_out.T), then one per memory key, key_i . (a @ W_key.T).

    Returns (logits, key matrix, a @ W_key.T); without keys the last two
    are None. output_logits_back needs them.
    """
    logits = a @ w_out.data.T
    if not keys:
        return logits, None, None
    proj = a @ w_key.data.T
    kmat = np.stack(keys)
    return np.concatenate([logits, kmat @ proj]), kmat, proj


def output_logits_back(w_out: Tensor, w_key: Tensor, g, a, kmat, proj, key_grads):
    """Backward of output_logits for logit gradient g: adds the weight
    gradients, adds key i's gradient to key_grads[i] in place and returns
    da."""
    n_static = w_out.data.shape[0]
    gs = g[:n_static]
    _acc(w_out, np.outer(gs, a))
    da = w_out.data.T @ gs
    if kmat is not None:
        gv = g[n_static:]
        dproj = kmat.T @ gv
        for i, dk in enumerate(key_grads):
            dk += gv[i] * proj
        _acc(w_key, np.outer(dproj, a))
        da += w_key.data.T @ dproj
    return da


def log_probs_over(logits: np.ndarray, valid_ids: np.ndarray) -> np.ndarray:
    """log softmax over just the valid ids; aligned with valid_ids.

    Invalid logits contribute nothing to the normalizer: the decoder's
    exact-zero probability for tokens the assist rules out.
    """
    sub = logits[valid_ids]
    m = sub.max()
    lse = m + np.log(np.exp(sub - m).sum())
    return sub - lse


def log_probs_over_back(g: float, logps, valid_ids, chosen: int, size: int) -> np.ndarray:
    """Gradient over all size logits of g times the chosen id's entry of
    log_probs_over, whose result is logps: g * (onehot - p) on the valid
    ids and exactly 0 elsewhere."""
    p = np.exp(logps)
    gl = np.zeros(size)
    np.add.at(gl, valid_ids, -g * p)
    gl[chosen] += g
    return gl


# ---------------------------------------------------------------------------
# checkpoints

_CHECKPOINT_FORMAT = "lisplab-checkpoint"


def save_checkpoint(path, named_arrays: list[tuple[str, np.ndarray]], meta: dict) -> None:
    """One JSON header line, then raw little-endian float64 buffers."""
    header = {
        "format": _CHECKPOINT_FORMAT,
        "version": 1,
        "meta": meta,
        "tensors": [{"name": n, "shape": list(a.shape)} for n, a in named_arrays],
    }
    with open(path, "wb") as fh:
        fh.write(json.dumps(header, sort_keys=True).encode("utf-8"))
        fh.write(b"\n")
        for _, arr in named_arrays:
            fh.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())


def load_checkpoint(path) -> tuple[dict, dict[str, np.ndarray]]:
    blob = Path(path).read_bytes()
    nl = blob.find(b"\n")
    if nl < 0:
        raise ValueError("checkpoint has no header line")
    try:
        header = json.loads(blob[:nl].decode("utf-8"))
    except RecursionError:
        raise ValueError("checkpoint header is nested too deeply") from None
    if not isinstance(header, dict):
        raise ValueError("checkpoint header is not a JSON object")
    if header.get("format") != _CHECKPOINT_FORMAT or header.get("version") != 1:
        raise ValueError("not a recognized checkpoint file")
    if not isinstance(header.get("meta"), dict) or not isinstance(header.get("tensors"), list):
        raise ValueError("checkpoint header needs a meta object and a tensors list")
    arrays: dict[str, np.ndarray] = {}
    offset = nl + 1
    for entry in header["tensors"]:
        if not (isinstance(entry, dict) and isinstance(entry.get("name"), str)
                and isinstance(entry.get("shape"), list)
                and all(type(d) is int and d >= 0 for d in entry["shape"])):
            raise ValueError(f"checkpoint tensor entry needs a name and a shape, got {entry!r}")
        shape = tuple(entry["shape"])
        count = int(np.prod(shape)) if shape else 1
        end = offset + 8 * count
        if end > len(blob):
            raise ValueError("checkpoint data is truncated")
        arrays[entry["name"]] = (
            np.frombuffer(blob[offset:end], dtype="<f8").reshape(shape).copy()
        )
        offset = end
    if offset != len(blob):
        raise ValueError("checkpoint has trailing bytes")
    return header["meta"], arrays


def params_to_arrays(params: ModelParams) -> list[tuple[str, np.ndarray]]:
    return [(n, t.data) for n, t in params.named_tensors()]


def params_from_arrays(arrays: dict[str, np.ndarray]) -> ModelParams:
    """Rebuild a ModelParams bundle from checkpoint arrays.

    The two embedding tables give the model's dims. The arrays must be
    exactly the tensors of a model with those dims, each with its shape;
    anything else raises ValueError.
    """
    try:
        n_words, embed_dim = arrays["word_emb"].shape
        n_static, hidden = arrays["token_emb"].shape
    except (KeyError, ValueError):
        raise ValueError("checkpoint tensors do not match model") from None
    # a fresh bundle of those dims names every tensor and fixes its shape
    params = ModelParams.init(np.random.default_rng(0), n_words, n_static, embed_dim, hidden)
    named = params.named_tensors()
    if set(arrays) != {name for name, _ in named}:
        raise ValueError("checkpoint tensors do not match model")
    for name, tensor in named:
        if arrays[name].shape != tensor.data.shape:
            raise ValueError(f"shape mismatch for {name}")
        tensor.data = arrays[name].astype(np.float64, copy=True)
    return params
