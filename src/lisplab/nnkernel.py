"""Deterministic numeric core: tensors, GRU, attention, exact gradients.

A tiny tape: every op returns a Tensor that remembers its inputs and a
closure computing input gradients from the output gradient. Every op
records; there is no tape-off mode. backward() walks the tape once in
reverse topological order. The layers (GRU step, attention, output
logits, masked log-likelihood) are single tape nodes with hand-derived
backward passes, in float64 so finite differences are meaningful;
``programmer.grad_check`` runs that check on the programmer's replay.

Each layer's forward is written once, batched as ``x @ W.T``. The tape
op passes it vectors; the plain-numpy twin that search and sampling
call passes vectors or (B, H) batches of lanes. For vectors ``x @ W.T``
is the same matrix-vector product as ``W @ x``, bit for bit. Besides
these the module holds the masked log-softmax both sides share and the
checkpoint format. No GPU, no graph compiler, no broadcasting zoo.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np


class Tensor:
    """A float64 array plus its place in the tape."""

    __slots__ = ("data", "grad", "_prev", "_bw")

    def __init__(self, data, prev=(), bw=None):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None
        self._prev = prev
        self._bw = bw

    def __repr__(self):
        return f"Tensor(shape={self.data.shape})"


def leaf(data) -> Tensor:
    return Tensor(data)


def _acc(t: Tensor, g) -> None:
    if t.grad is None:
        t.grad = np.zeros_like(t.data)
    t.grad += g


def _acc_rows(t: Tensor, idx, g) -> None:
    if t.grad is None:
        t.grad = np.zeros_like(t.data)
    t.grad[idx] += g


def backward(loss: Tensor) -> None:
    """Reverse accumulation from a scalar loss; fills .grad on the tape."""
    if loss.data.shape != ():
        raise ValueError("backward needs a scalar loss")
    topo: list[Tensor] = []
    visited: set[int] = set()
    stack: list[tuple[Tensor, int]] = [(loss, 0)]
    visited.add(id(loss))
    while stack:
        node, child = stack[-1]
        if child < len(node._prev):
            stack[-1] = (node, child + 1)
            nxt = node._prev[child]
            if id(nxt) not in visited:
                visited.add(id(nxt))
                stack.append((nxt, 0))
        else:
            stack.pop()
            topo.append(node)
    loss.grad = np.ones((), dtype=np.float64)
    for node in reversed(topo):
        if node._bw is not None and node.grad is not None:
            node._bw(node.grad)


# ---------------------------------------------------------------------------
# generic ops


def addn(ts: list[Tensor]) -> Tensor:
    ts = tuple(ts)
    if not ts:
        raise ValueError("addn of nothing")
    data = ts[0].data.copy()
    for t in ts[1:]:
        data = data + t.data

    def bw(g):
        for t in ts:
            _acc(t, g)
    return Tensor(data, ts, bw)


def scale(t: Tensor, c: float) -> Tensor:
    def bw(g):
        _acc(t, g * c)
    return Tensor(t.data * c, (t,), bw)


def row(table: Tensor, idx: int) -> Tensor:
    def bw(g):
        _acc_rows(table, idx, g)
    return Tensor(table.data[idx], (table,), bw)


def stack(vecs: list[Tensor]) -> Tensor:
    """Rows -> matrix; gradient scatters back per row."""
    vecs = tuple(vecs)
    if not vecs:
        raise ValueError("stack of nothing")

    def bw(g):
        for i, v in enumerate(vecs):
            _acc(v, g[i])
    return Tensor(np.stack([v.data for v in vecs]), vecs, bw)


def span_mean(mat: Tensor, start: int, end: int) -> Tensor:
    """Mean of rows start..end-1."""
    if not 0 <= start < end <= mat.data.shape[0]:
        raise ValueError(f"bad span ({start}, {end})")
    width = end - start

    def bw(g):
        _acc_rows(mat, slice(start, end), g / width)
    return Tensor(mat.data[start:end].mean(axis=0), (mat,), bw)


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
# layers: one forward each, shared by the tape op and its plain-numpy twin


def _sigmoid_np(x):
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def _gru_gates(gp: GRUParams, h: np.ndarray, x: np.ndarray):
    """Update gate z, reset gate r and candidate c of one GRU step.

    The reset gate applies to the hidden path before the candidate;
    h, x are (H,)/(E,) or (B,H)/(B,E).
    """
    z = _sigmoid_np(x @ gp.wxz.data.T + h @ gp.whz.data.T + gp.bz.data)
    r = _sigmoid_np(x @ gp.wxr.data.T + h @ gp.whr.data.T + gp.br.data)
    c = np.tanh(x @ gp.wxc.data.T + (r * h) @ gp.whc.data.T + gp.bc.data)
    return z, r, c


def gru_step(gp: GRUParams, h: Tensor, x: Tensor) -> Tensor:
    """One GRU step; the update gate keeps the old state: h' = z*h + (1-z)*c."""
    hd, xd = h.data, x.data
    if hd.shape[0] != gp.whz.data.shape[1] or xd.shape[0] != gp.wxz.data.shape[1]:
        raise ValueError("gru_step shape mismatch")
    z, r, c = _gru_gates(gp, hd, xd)

    def bw(g):
        rh = r * hd
        dz = g * (hd - c)
        dh = g * z
        dc_pre = g * (1.0 - z) * (1.0 - c * c)
        dz_pre = dz * z * (1.0 - z)
        drh = gp.whc.data.T @ dc_pre
        dr_pre = drh * hd * r * (1.0 - r)
        dh += drh * r
        dh += gp.whz.data.T @ dz_pre + gp.whr.data.T @ dr_pre
        dx = gp.wxz.data.T @ dz_pre + gp.wxr.data.T @ dr_pre + gp.wxc.data.T @ dc_pre
        _acc(gp.wxz, np.outer(dz_pre, xd))
        _acc(gp.whz, np.outer(dz_pre, hd))
        _acc(gp.bz, dz_pre)
        _acc(gp.wxr, np.outer(dr_pre, xd))
        _acc(gp.whr, np.outer(dr_pre, hd))
        _acc(gp.br, dr_pre)
        _acc(gp.wxc, np.outer(dc_pre, xd))
        _acc(gp.whc, np.outer(dc_pre, rh))
        _acc(gp.bc, dc_pre)
        _acc(x, dx)
        _acc(h, dh)
    prev = (h, x, gp.wxz, gp.whz, gp.bz, gp.wxr, gp.whr, gp.br, gp.wxc, gp.whc, gp.bc)
    return Tensor(z * hd + (1.0 - z) * c, prev, bw)


def gru_step_np(gp: GRUParams, h: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Tape-free twin of gru_step: h, x may be (H,)/(E,) or (B,H)/(B,E)."""
    z, _, c = _gru_gates(gp, h, x)
    return z * h + (1.0 - z) * c


def _attend(ap: AttentionParams, u: np.ndarray, enc: np.ndarray):
    """Dot-product attention, tanh-combined, for u of shape (H,) or (B,H).

    scores s_t = u . (W_score @ enc_t); weights = softmax(s);
    context = sum_t w_t enc_t; output = tanh(W_combine @ [u; context]).
    Returns the query u @ W_score, the weights, [u; context] and the output.
    """
    q = u @ ap.w_score.data
    s = q @ enc.T
    s = s - s.max(axis=-1, keepdims=True)
    w = np.exp(s)
    w /= w.sum(axis=-1, keepdims=True)
    cat = np.concatenate([u, w @ enc], axis=-1)
    return q, w, cat, np.tanh(cat @ ap.w_combine.data.T)


def attention(ap: AttentionParams, u: Tensor, enc: Tensor) -> Tensor:
    """Attention of one decoder state over the encoder outputs (T, H)."""
    ud, encd = u.data, enc.data
    if encd.ndim != 2 or encd.shape[0] == 0:
        raise ValueError("attention needs at least one encoder output")
    q, w, cat, od = _attend(ap, ud, encd)

    def bw(g):
        dcomb = g * (1.0 - od * od)
        _acc(ap.w_combine, np.outer(dcomb, cat))
        dcat = ap.w_combine.data.T @ dcomb
        hidden = ud.shape[0]
        du = dcat[:hidden].copy()
        dctx = dcat[hidden:]
        dw = encd @ dctx
        denc = np.outer(w, dctx)
        ds = w * (dw - w @ dw)
        dq = encd.T @ ds
        denc += np.outer(ds, q)
        du += ap.w_score.data @ dq
        _acc(ap.w_score, np.outer(ud, dq))
        _acc(u, du)
        _acc(enc, denc)
    return Tensor(od, (u, enc, ap.w_score, ap.w_combine), bw)


def attention_np(ap: AttentionParams, u: np.ndarray, enc: np.ndarray) -> np.ndarray:
    """Tape-free twin of attention: u may be (H,) or (B,H); enc is (T,H)."""
    return _attend(ap, u, enc)[3]


def output_logits(w_out: Tensor, w_key: Tensor, a: Tensor, keys: list[Tensor]) -> Tensor:
    """Decoder logits of attention output a: one per static token
    (a @ W_out.T), then one per memory key, key_i . (a @ W_key.T)."""
    keys = tuple(keys)  # snapshot: callers may grow their list afterwards
    ad = a.data
    data = ad @ w_out.data.T
    n_static = data.shape[0]
    if keys:
        proj = ad @ w_key.data.T
        kmat = np.stack([k.data for k in keys])
        data = np.concatenate([data, kmat @ proj])

    def bw(g):
        gs = g[:n_static]
        _acc(w_out, np.outer(gs, ad))
        da = w_out.data.T @ gs
        if keys:
            gv = g[n_static:]
            dproj = kmat.T @ gv
            for i, k in enumerate(keys):
                _acc(k, gv[i] * proj)
            _acc(w_key, np.outer(dproj, ad))
            da += w_key.data.T @ dproj
        _acc(a, da)
    return Tensor(data, (w_out, w_key, a, *keys), bw)


def masked_log_prob(logits: Tensor, valid_ids: np.ndarray, chosen: int) -> Tensor:
    """log p(chosen) under a softmax restricted to valid_ids.

    chosen must be one of valid_ids; invalid logits contribute nothing to
    the normalizer, implementing exact-zero probability for them. The
    value is the chosen entry of log_probs_over, the twin search uses.
    """
    valid_ids = np.asarray(valid_ids, dtype=np.int64)
    ld = logits.data
    pos = np.nonzero(valid_ids == chosen)[0]
    if pos.size != 1:
        raise ValueError(f"chosen id {chosen} not among valid ids")
    logps = log_probs_over(ld, valid_ids)

    def bw(g):
        p = np.exp(logps)
        gl = np.zeros_like(ld)
        np.add.at(gl, valid_ids, -float(g) * p)
        gl[chosen] += float(g)
        _acc(logits, gl)
    return Tensor(logps[pos[0]], (logits,), bw)


def log_probs_over(logits: np.ndarray, valid_ids: np.ndarray) -> np.ndarray:
    """log softmax over just the valid ids; aligned with valid_ids."""
    sub = logits[valid_ids]
    m = sub.max()
    lse = m + np.log(np.exp(sub - m).sum())
    return sub - lse


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
