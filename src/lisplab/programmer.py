"""The programmer: a GRU seq2seq that writes programs token by token.

The encoder reads the question with entity spans abstracted to "ENT".
Each resolved entity becomes a variable holding its singleton set, paired
with a neural key: the average encoder output over the entity's span.
The decoder emits program tokens under the assist mask; its vocabulary is
the static program tokens plus one token per memory variable. When an
expression closes, the machine executes it and the result joins the
memory, keyed by the decoder output of the step that read ")".

Search, sampling and the training replay run one NumPy forward: one
encoder and one set of decoder rules (``_start``, ``_valid_ids``,
``_feed``). The replay of a chosen program also keeps what each layer's
backward needs, and its log probability back-propagates in one pass
over the program in reverse, into every parameter. ``grad_check``
compares those gradients with finite differences.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import partial
from operator import itemgetter

import numpy as np

from . import nnkernel as nn
from .assist import DecodingState
from .interpreter import (
    CLOSE, FUNCS, MAX_EXPRESSIONS, OPEN, RETURN, variable_index, variable_token,
)
from .kb import EntitySet, KnowledgeBase, canon

GO = "GO"
UNK = "<unk>"
ENT = "ENT"

_RESERVED = (GO, OPEN, CLOSE, RETURN) + tuple(FUNCS)
_VARISH = re.compile(r"^R\d+$")


@dataclass(frozen=True)
class QAItem:
    """One weakly supervised example: question, entity spans, answers."""

    qid: str
    tokens: tuple[str, ...]
    entities: tuple[tuple[tuple[int, int], str], ...]
    answers: EntitySet

    def __post_init__(self):
        object.__setattr__(self, "tokens", tuple(self.tokens))
        object.__setattr__(
            self, "entities", tuple(((s, e), eid) for (s, e), eid in self.entities)
        )
        object.__setattr__(self, "answers", canon(self.answers))
        for token in self.tokens:
            if token.split() != [token]:
                raise ValueError(f"question token {token!r} is empty or contains whitespace")
        last = 0
        for (start, end), eid in self.entities:
            if type(start) is not int or type(end) is not int:
                raise ValueError(f"entity span bounds must be integers, got ({start!r}, {end!r})")
            if not (0 <= start < end <= len(self.tokens)):
                raise ValueError(f"entity span ({start}, {end}) out of bounds")
            if start < last:
                raise ValueError("entity spans overlap or are unsorted")
            if not isinstance(eid, str) or not eid:
                raise ValueError(f"entity id must be a non-empty string, got {eid!r}")
            last = end

    def abstracted(self) -> list[str]:
        """Question tokens with every entity-span token replaced by ENT."""
        out = list(self.tokens)
        for (start, end), _ in self.entities:
            for i in range(start, end):
                out[i] = ENT
        return out

    def initial_vars(self) -> list[EntitySet]:
        return [(eid,) for _, eid in self.entities]


@dataclass
class Model:
    """Vocabularies plus parameters; everything a checkpoint must restore.

    ``kb_digest`` is the ``KnowledgeBase.digest`` of the KB the model was
    built for: the same property names over another KB mean other facts.
    """

    word_vocab: list[str]
    static_tokens: list[str]
    params: nn.ModelParams
    kb_digest: str

    def __post_init__(self):
        self.word_index = {w: i for i, w in enumerate(self.word_vocab)}
        self.token_index = {t: i for i, t in enumerate(self.static_tokens)}

    @property
    def n_static(self) -> int:
        return len(self.static_tokens)

    def token_to_id(self, token: str) -> int:
        idx = self.token_index.get(token)
        if idx is not None:
            return idx
        var = variable_index(token)
        if var is not None:
            return self.n_static + var
        raise KeyError(f"unknown program token {token!r}")

    def id_to_token(self, tid: int) -> str:
        if tid < self.n_static:
            return self.static_tokens[tid]
        return variable_token(tid - self.n_static)


def static_token_list(kb: KnowledgeBase) -> list[str]:
    props = sorted(kb.properties)
    for prop in props:
        if prop in _RESERVED or _VARISH.match(prop):
            raise ValueError(f"property name {prop!r} collides with a program token")
    return list(_RESERVED) + props


def build_model(
    kb: KnowledgeBase,
    train_items: list[QAItem],
    embed_dim: int = 32,
    hidden_dim: int = 64,
    seed: int = 0,
) -> Model:
    """Vocabulary from the training questions, parameters from the seed."""
    if embed_dim < 1 or hidden_dim < 1:
        raise ValueError("embed_dim and hidden_dim must be at least 1")
    words = sorted({w for item in train_items for w in item.abstracted()})
    word_vocab = [UNK] + words
    static_tokens = static_token_list(kb)
    rng = np.random.default_rng(seed)
    params = nn.ModelParams.init(rng, len(word_vocab), len(static_tokens), embed_dim, hidden_dim)
    return Model(word_vocab, static_tokens, params, kb.digest())


def save_model(path, model: Model, max_expressions: int) -> None:
    """Write the model with the expression budget it was trained to
    decode under, which decoding from the checkpoint must use too."""
    meta = {
        "embed_dim": model.params.embed_dim,
        "hidden_dim": model.params.hidden_dim,
        "kb_digest": model.kb_digest,
        "max_expressions": max_expressions,
        "word_vocab": model.word_vocab,
        "static_tokens": model.static_tokens,
    }
    nn.save_checkpoint(path, nn.params_to_arrays(model.params), meta)


def load_model(path) -> tuple[Model, int]:
    """The model and its recorded expression budget."""
    meta, arrays = nn.load_checkpoint(path)
    params = nn.params_from_arrays(arrays)
    try:
        vocabs = (meta["word_vocab"], meta["static_tokens"])
        dims = (meta["embed_dim"], meta["hidden_dim"])
        max_expressions = meta["max_expressions"]
        kb_digest = meta["kb_digest"]
    except KeyError as exc:
        raise ValueError(f"checkpoint meta is missing {exc}") from None
    if not isinstance(kb_digest, str):
        raise ValueError(f"checkpoint meta kb_digest is malformed: {kb_digest!r} is not a string")
    if type(max_expressions) is not int or max_expressions < 1:
        raise ValueError("checkpoint meta max_expressions is malformed: "
                         f"{max_expressions!r} is not a positive int")
    for name, vocab, table in zip(("word_vocab", "static_tokens"), vocabs,
                                  (params.word_emb, params.token_emb)):
        if not (isinstance(vocab, list) and all(isinstance(t, str) for t in vocab)
                and len(set(vocab)) == len(vocab)):
            raise ValueError(f"checkpoint meta {name} is malformed: "
                             "not a list of distinct strings")
        if len(vocab) != table.data.shape[0]:
            raise ValueError(f"checkpoint meta {name} has {len(vocab)} entries "
                             f"for {table.data.shape[0]} embedding rows")
    if dims != (params.embed_dim, params.hidden_dim):
        raise ValueError("checkpoint dims inconsistent with stored tensors")
    return Model(*vocabs, params, kb_digest), max_expressions


# ---------------------------------------------------------------------------
# encoding


@dataclass
class Encoding:
    enc: np.ndarray  # (T, hidden): the state after each question word
    keys: list[np.ndarray]  # one per initial entity variable
    word_ids: list[int]  # per word, its word_emb row
    gates: list[tuple]  # per word, the (z, r, c) its GRU step's backward needs


def encode(model: Model, item: QAItem) -> Encoding:
    """Encoder GRU over the abstracted question; span-mean entity keys."""
    tokens = item.abstracted()
    if not tokens:
        raise ValueError("empty question")
    params = model.params
    h = np.zeros(params.hidden_dim)
    word_ids = [model.word_index.get(word, 0) for word in tokens]
    states, gates = [], []
    for wid in word_ids:
        h, *zrc = nn.gru_step(params.encoder, h, params.word_emb.data[wid])
        states.append(h)
        gates.append(zrc)
    enc = np.stack(states)
    keys = [enc[start:end].mean(axis=0) for (start, end), _ in item.entities]
    return Encoding(enc, keys, word_ids, gates)


# ---------------------------------------------------------------------------
# decoder rules, shared by search, sampling and replay


class _Lane:
    """One decoding hypothesis: assist state, decoder state, memory keys."""

    __slots__ = ("state", "dec_h", "keys", "token_ids", "logprob")

    def __init__(self, state, dec_h, keys):
        self.state = state
        self.dec_h = dec_h
        self.keys = keys
        self.token_ids: tuple[int, ...] = ()
        self.logprob = 0.0

    @property
    def done(self) -> bool:
        return self.state.terminated

    def clone(self) -> "_Lane":
        lane = _Lane(self.state, self.dec_h, list(self.keys))
        lane.token_ids = self.token_ids
        lane.logprob = self.logprob
        return lane

    def step(self, model: Model, x) -> None:
        # looked up at call time, so wrappers installed on nnkernel see the call
        self.dec_h = nn.gru_step_np(model.params.decoder, self.dec_h, x)


class _Replay(_Lane):
    """A lane that keeps (h, x, h', z, r, c) of every decoder GRU step,
    GO first, for the backward of its log probability."""

    __slots__ = ("steps",)

    def __init__(self, state, dec_h, keys):
        super().__init__(state, dec_h, keys)
        self.steps = []

    def step(self, model: Model, x) -> None:
        out = nn.gru_step(model.params.decoder, self.dec_h, x)
        self.steps.append((self.dec_h, x) + out)
        self.dec_h = out[0]


def _start(lane_type, model: Model, kb: KnowledgeBase, item: QAItem, max_expressions,
           encoding: Encoding) -> _Lane:
    """A fresh lane: the assist state, and GO fed on the encoder's last state."""
    state = DecodingState(kb, item.initial_vars(), max_expressions)
    lane = lane_type(state, encoding.enc[-1], list(encoding.keys))
    lane.step(model, _token_vector(model, (), model.token_index[GO]))
    return lane


def _valid_ids(model: Model, state: DecodingState) -> np.ndarray:
    """The ids the assist allows next, sorted: the mask of every decoder step."""
    return np.array(sorted(model.token_to_id(t) for t in state.valid_tokens()), dtype=np.int64)


def _token_vector(model: Model, keys, token_id: int):
    """What a token feeds the decoder: its token_emb row, or its memory key."""
    if token_id >= model.n_static:
        return keys[token_id - model.n_static]
    return model.params.token_emb.data[token_id]


def _feed(model: Model, lane: _Lane, token_id: int, logp: float) -> None:
    """Consume one token of log probability logp: advance the assist
    state and the decoder.

    RETURN ends the program, so no GRU step follows it. ")" executes the
    expression, and the decoder state that read it becomes the memory key
    of the variable the expression creates.
    """
    token = model.id_to_token(token_id)
    lane.state = lane.state.feed(token)
    if token != RETURN:
        lane.step(model, _token_vector(model, lane.keys, token_id))
        if token == CLOSE:
            lane.keys.append(lane.dec_h)
    lane.token_ids = lane.token_ids + (token_id,)
    lane.logprob += logp


# ---------------------------------------------------------------------------
# search-side decoding


@dataclass(frozen=True, slots=True)
class Candidate:
    """A terminated hypothesis, ready for reward or reporting."""

    tokens: tuple[str, ...]
    token_ids: tuple[int, ...]
    logprob: float
    denotation: EntitySet

    def text(self) -> str:
        return " ".join(self.tokens)


def _lane_scores(model: Model, enc: np.ndarray, lanes: list[_Lane]):
    """Valid ids and their log probabilities for every lane, batched."""
    params = model.params
    u = np.stack([lane.dec_h for lane in lanes])
    att = nn.attention_np(params.attention, u, enc)
    static = att @ params.w_out.data.T
    proj = att @ params.w_key.data.T
    out = []
    for b, lane in enumerate(lanes):
        logits = static[b]
        if lane.keys:
            logits = np.concatenate([logits, np.stack(lane.keys) @ proj[b]])
        valid_ids = _valid_ids(model, lane.state)
        out.append((valid_ids, nn.log_probs_over(logits, valid_ids)))
    return out


def _finish(lane: _Lane) -> Candidate:
    state = lane.state
    return Candidate(state.emitted, lane.token_ids, lane.logprob, state.denotation())


def beam_search(
    model: Model,
    kb: KnowledgeBase,
    item: QAItem,
    beam_size: int,
    max_expressions: int = MAX_EXPRESSIONS,
) -> list[Candidate]:
    """Length-unnormalized beam over assist-valid tokens.

    Ties break lexicographically on token-id sequences, so results are
    a deterministic function of (model, kb, item). Every expansion is
    scored before it is fed, by its key (-log-prob, token ids), which
    needs only the parent's log-prob and the token's. Only the beam_size
    best non-RETURN expansions of each depth are fed, and only the
    beam_size best RETURN expansions of the whole search are finished.
    Only RETURN ends a program and the keys are unique, so the result is
    the one of feeding every expansion and then cutting. The finished
    pool is cut only against itself, which makes the beam exhaustive
    whenever beam_size is at least the number of live prefixes at every
    depth.
    """
    if beam_size < 1:
        raise ValueError("beam_size must be >= 1")
    encoding = encode(model, item)
    return_id = model.token_index[RETURN]
    live = [_start(_Lane, model, kb, item, max_expressions, encoding)]
    returns: list[tuple] = []  # the best (key, parent, logp) RETURN expansions so far
    while live:
        scored = _lane_scores(model, encoding.enc, live)
        expansions = []
        for lane, (valid_ids, logps) in zip(live, scored):
            for tid, lp in zip(valid_ids.tolist(), logps.tolist()):
                key = (-(lane.logprob + lp), lane.token_ids + (tid,))
                if tid == return_id:
                    returns.append((key, lane, lp))
                else:
                    expansions.append((key, lane, tid, lp))
        returns = sorted(returns, key=itemgetter(0))[:beam_size]
        expansions.sort(key=itemgetter(0))
        live = []
        for _, lane, tid, lp in expansions[:beam_size]:
            branch = lane.clone()
            _feed(model, branch, tid, lp)
            live.append(branch)
    finished = []
    for _, lane, lp in returns:
        branch = lane.clone()
        _feed(model, branch, return_id, lp)
        finished.append(_finish(branch))
    return finished


def greedy_decode(
    model: Model,
    kb: KnowledgeBase,
    item: QAItem,
    max_expressions: int = MAX_EXPRESSIONS,
) -> Candidate:
    return beam_search(model, kb, item, 1, max_expressions)[0]


def sample_programs(
    model: Model,
    kb: KnowledgeBase,
    item: QAItem,
    n_samples: int,
    rng: np.random.Generator,
    max_expressions: int = MAX_EXPRESSIONS,
) -> list[Candidate]:
    """Ancestral sampling, n_samples lanes in lockstep.

    Randomness is consumed one uniform draw per unfinished lane per step,
    in lane order, so results depend only on the rng state and arguments.
    """
    encoding = encode(model, item)
    lanes = [
        _start(_Lane, model, kb, item, max_expressions, encoding) for _ in range(n_samples)
    ]
    while True:
        active = [lane for lane in lanes if not lane.done]
        if not active:
            break
        scored = _lane_scores(model, encoding.enc, active)
        for lane, (valid_ids, logps) in zip(active, scored):
            u = rng.random()
            probs = np.exp(logps)
            acc = 0.0
            pick = len(valid_ids) - 1
            for j, p in enumerate(probs):
                acc += p
                if u < acc:
                    pick = j
                    break
            _feed(model, lane, int(valid_ids[pick]), float(logps[pick]))
    return [_finish(lane) for lane in lanes]


# ---------------------------------------------------------------------------
# training-side replay


def program_logprob(
    model: Model,
    kb: KnowledgeBase,
    item: QAItem,
    tokens: tuple[str, ...] | list[str],
    max_expressions: int = MAX_EXPRESSIONS,
) -> nn.Tensor:
    """log p(tokens | question) as a scalar Tensor, for gradient ascent.

    Replays the program on the decoder search uses, under the same assist
    masks, and keeps what each layer's backward needs. ``nn.backward`` of
    the result walks the program once in reverse, into every parameter
    and through the memory keys made mid-decode.
    """
    params = model.params
    encoding = encode(model, item)
    lane = _start(_Replay, model, kb, item, max_expressions, encoding)
    scored = []  # per token: the forwards of its attention, logits and softmax
    for token in tokens:
        if lane.done:
            raise ValueError("program continues past RETURN")
        att = nn.attention(params.attention, lane.dec_h, encoding.enc)
        logits, kmat, proj = nn.output_logits(params.w_out, params.w_key, att[0], lane.keys)
        valid_ids = _valid_ids(model, lane.state)
        tid = model.token_to_id(token)
        pos = np.nonzero(valid_ids == tid)[0]
        if pos.size != 1:
            raise ValueError(f"chosen id {tid} not among valid ids")
        logps = nn.log_probs_over(logits, valid_ids)
        scored.append((att, kmat, proj, logps, valid_ids, logits.shape[0]))
        _feed(model, lane, tid, float(logps[pos[0]]))
    if not lane.done:
        raise ValueError("program does not end with RETURN")
    return nn.Tensor(lane.logprob, partial(_replay_back, model, item, encoding, lane, scored))


def _replay_back(model, item, encoding, lane, scored, weight) -> None:
    """Add the gradient of weight * log p to every parameter.

    Token by token in reverse: the masked log-softmax, the output logits,
    the attention, then the GRU step that made the state scoring the
    token. The entity keys spread over their spans right after token 0's
    logits; then come the GO step and the encoder in reverse. This order
    fixes the summation order of every gradient.
    """
    params = model.params
    n_static = model.n_static
    hidden = params.hidden_dim
    tokens = lane.token_ids
    steps = lane.steps  # steps[t] made decoder state t, the one scoring tokens[t]
    d_state = np.zeros((len(steps), hidden))
    d_enc = np.zeros_like(encoding.enc)
    # a key made by ")" is the decoder state that read it
    close = model.token_index[CLOSE]
    key_grads = [np.zeros(hidden) for _ in item.entities]
    key_grads += [d_state[t + 1] for t, tid in enumerate(tokens) if tid == close]
    token_grad = nn.grad_of(params.token_emb)
    for t in reversed(range(len(tokens))):
        att, kmat, proj, logps, valid_ids, size = scored[t]
        g = nn.log_probs_over_back(weight, logps, valid_ids, tokens[t], size)
        n_keys = 0 if kmat is None else kmat.shape[0]
        g = nn.output_logits_back(params.w_out, params.w_key, g, att[0], kmat, proj,
                                  key_grads[:n_keys])
        if t == 0:
            for ((start, end), _), dk in reversed(list(zip(item.entities, key_grads))):
                d_enc[start:end] += dk / (end - start)
        du, de = nn.attention_back(params.attention, g, steps[t][2], encoding.enc, *att)
        d_state[t] += du
        d_enc += de
        if t > 0:
            h, x, _, z, r, c = steps[t]
            dx, dh = nn.gru_step_back(params.decoder, d_state[t], h, x, z, r, c)
            fed = tokens[t - 1]
            if fed < n_static:
                token_grad[fed] += dx
            else:
                key_grads[fed - n_static] += dx
            d_state[t - 1] += dh
    h, x, _, z, r, c = steps[0]
    dx, dh = nn.gru_step_back(params.decoder, d_state[0], h, x, z, r, c)
    token_grad[model.token_index[GO]] += dx
    d_enc[-1] += dh
    word_grad = nn.grad_of(params.word_emb)
    for i in reversed(range(len(encoding.word_ids))):
        h = encoding.enc[i - 1] if i else np.zeros(hidden)
        x = params.word_emb.data[encoding.word_ids[i]]
        dx, dh = nn.gru_step_back(params.encoder, d_enc[i], h, x, *encoding.gates[i])
        word_grad[encoding.word_ids[i]] += dx
        if i:
            d_enc[i - 1] += dh


# ---------------------------------------------------------------------------
# gradient check

# A fixed task for grad_check: R0 = acme, R1 = paris. The first program's
# second expression reads R2, which the first expression creates, so its
# gradient runs through a memory key made mid-decode.
_CHECK_TRIPLES = (
    ("acme", "founder", "alice"), ("acme", "founder", "bob"), ("acme", "founded", 1990.0),
    ("alice", "born", "paris"), ("bob", "born", "rome"),
    ("alice", "age", 40.0), ("bob", "age", 50.0),
    ("paris", "in", "france"), ("rome", "in", "italy"),
)
_CHECK_ITEM = QAItem(
    "check", ("which", "founder", "of", "acme", "was", "born", "in", "paris"),
    (((3, 4), "acme"), ((7, 8), "paris")), ("alice",),
)
_CHECK_FILTER = tuple("( Hop R0 founder ) ( Equal R2 R1 born ) RETURN".split())
_CHECK_OLDEST = tuple("( Hop R0 founder ) ( ArgMax R2 age ) RETURN".split())
# (program, weight) terms of the loss per objective: likelihood is one
# log-likelihood; policy weighs two programs by the advantages of rewards
# 1 and 0 against a baseline of 0.4.
_CHECK_OBJECTIVES = {
    "likelihood": ((_CHECK_FILTER, 1.0),),
    "policy": ((_CHECK_FILTER, 1.0 - 0.4), (_CHECK_OLDEST, 0.0 - 0.4)),
}


def grad_check(
    seed: int = 0, objective: str = "likelihood", embed_dim: int = 8, hidden: int = 12
) -> float:
    """Max relative error between replay gradients and central differences.

    The loss is sum_i w_i * program_logprob(program_i) on a fixed tiny
    task, with the parameters of a model built at ``seed``: the replay
    training differentiates, assist masks included. The relative error
    of coordinate pairs (a, b) is |a-b| divided by max(|a|, |b|, 1e-3);
    the floor keeps near-zero coordinates from exploding the ratio.
    Returns the max over every parameter coordinate; epsilon is 1e-5.
    """
    if objective not in _CHECK_OBJECTIVES:
        raise ValueError(f"unknown objective {objective!r}")
    terms = _CHECK_OBJECTIVES[objective]
    kb = KnowledgeBase(_CHECK_TRIPLES)
    model = build_model(kb, [_CHECK_ITEM], embed_dim, hidden, seed)

    def loss() -> float:
        return sum(weight * float(program_logprob(model, kb, _CHECK_ITEM, tokens).data)
                   for tokens, weight in terms)

    epsilon = 1e-5
    model.params.zero_grad()
    for tokens, weight in terms:
        nn.backward(program_logprob(model, kb, _CHECK_ITEM, tokens), weight)
    worst = 0.0
    for _, tensor in model.params.named_tensors():
        analytic = tensor.grad if tensor.grad is not None else np.zeros_like(tensor.data)
        flat = tensor.data.reshape(-1)
        aflat = analytic.reshape(-1)
        for i in range(flat.shape[0]):
            saved = flat[i]
            flat[i] = saved + epsilon
            up = loss()
            flat[i] = saved - epsilon
            down = loss()
            flat[i] = saved
            fd = (up - down) / (2.0 * epsilon)
            err = abs(aflat[i] - fd) / max(abs(aflat[i]), abs(fd), 1e-3)
            if err > worst:
                worst = err
    return worst
