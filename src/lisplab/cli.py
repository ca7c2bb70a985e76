"""Command-line front end.

One binary, eight subcommands: generate knowledge bases and datasets,
execute and autocomplete programs, parse questions with a trained model,
train, evaluate, and check gradients. Results go to standard output (or
the --out* files); diagnostics go to standard error. With a fixed seed
every subcommand is deterministic, so identical command lines produce
byte-identical outputs.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

from . import assist, interpreter, programmer, taskgen, trainer
from . import kb as kbmod

# Keys echoed per iteration into the training log, in emission order.
_LOG_KEYS = ("iteration", "mean_train_reward", "dev_f1", "store_coverage")

# Model dimensions live beside the TrainConfig fields in config files.
_MODEL_DEFAULTS = {"embed_dim": 32, "hidden_dim": 64}


# --- config files ------------------------------------------------------

def config_defaults() -> dict:
    """Every config key with its default; the full legal key set."""
    out = {f.name: f.default for f in dataclasses.fields(trainer.TrainConfig)}
    out.update(_MODEL_DEFAULTS)
    return out


def load_config(path=None) -> dict:
    """Read a flat key=value file over the defaults.

    Unknown and repeated keys are rejected rather than ignored: a typo
    that silently fell back to a default, or a second line that silently
    overrode the first, would be miserable to debug in a training run.
    Every failure is a ValueError naming the file.
    """
    cfg = config_defaults()
    if path is None:
        return cfg
    try:
        with open(path, encoding="utf-8") as fh:
            lines = list(fh)
    except UnicodeDecodeError:
        raise ValueError(f"{path}: not UTF-8 text") from None
    seen = set()
    for lineno, raw in enumerate(lines, 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        key = key.strip()
        if not sep:
            raise ValueError(f"{path}:{lineno}: expected key=value, got {line!r}")
        if key not in cfg:
            raise ValueError(f"{path}:{lineno}: unknown config key {key!r}")
        if key in seen:
            raise ValueError(f"{path}:{lineno}: duplicate config key {key!r}")
        seen.add(key)
        kind = type(cfg[key])
        try:
            cfg[key] = kind(value.strip())
        except ValueError:
            raise ValueError(
                f"{path}:{lineno}: bad {kind.__name__} for {key}: {value.strip()!r}"
            ) from None
    return cfg


def _train_config(cfg: dict) -> trainer.TrainConfig:
    names = [f.name for f in dataclasses.fields(trainer.TrainConfig)]
    return trainer.TrainConfig(**{name: cfg[name] for name in names})


# --- shared plumbing ---------------------------------------------------

def _initial_vars(pairs) -> list:
    """Turn repeated ``--entity R<k>=<id>`` flags into ordered variable values."""
    slots: dict[int, str] = {}
    for pair in pairs or ():
        name, sep, entity = pair.partition("=")
        idx = interpreter.variable_index(name)
        if not sep or idx is None or not entity:
            raise ValueError(f"--entity expects R<k>=<id>, got {pair!r}")
        if idx in slots:
            raise ValueError(f"duplicate entity variable {name}")
        slots[idx] = entity
    if sorted(slots) != list(range(len(slots))):
        raise ValueError("entity variables must be R0, R1, ... with no gaps")
    return [(slots[i],) for i in range(len(slots))]


def _load_model(path, kb) -> tuple[programmer.Model, int]:
    """Load a checkpoint and its expression budget, refusing one trained
    on another KB: on another property set its token ids would not line
    up with the KB's properties, and on other facts it answers wrongly."""
    model, max_expressions = programmer.load_model(path)
    if programmer.static_token_list(kb) != model.static_tokens:
        raise ValueError(f"{path}: checkpoint was trained on a different property set "
                         "than the knowledge base")
    if model.kb_digest != kb.digest():
        raise ValueError(f"{path}: checkpoint was trained on a different knowledge base "
                         f"(digest {model.kb_digest[:12]}, this one {kb.digest()[:12]})")
    return model, max_expressions


def _print_denotation(denotation) -> None:
    for value in kbmod.canon(denotation):
        print(kbmod.format_value(value))


# --- subcommands -------------------------------------------------------

def _cmd_gen_kb(args) -> int:
    kb = taskgen.gen_kb(
        seed=args.seed,
        n_entities=args.n_entities,
        n_properties=args.n_properties,
        edge_density=args.edge_density,
    )
    if args.out:
        kbmod.save_kb(kb, args.out)
    else:
        sys.stdout.write("".join(line + "\n" for line in kb.lines()))
    return 0


def _cmd_gen_data(args) -> int:
    kb = kbmod.load_kb(args.kb)
    train_items, dev_items, test_items = taskgen.gen_dataset(
        kb, seed=args.seed, n_train=args.n_train, n_dev=args.n_dev, n_test=args.n_test
    )
    taskgen.save_dataset(args.out_train, train_items)
    taskgen.save_dataset(args.out_dev, dev_items)
    taskgen.save_dataset(args.out_test, test_items)
    return 0


def _cmd_exec(args) -> int:
    kb = kbmod.load_kb(args.kb)
    denotation = interpreter.run_program_text(kb, args.program, _initial_vars(args.entity))
    _print_denotation(denotation)
    return 0


def _cmd_assist(args) -> int:
    kb = kbmod.load_kb(args.kb)
    state = assist.DecodingState(kb, _initial_vars(args.entity))
    state = state.feed_all(args.prefix.split())
    for token in sorted(state.valid_tokens()):
        print(token)
    return 0


def _cmd_parse(args) -> int:
    kb = kbmod.load_kb(args.kb)
    model, max_expressions = _load_model(args.checkpoint, kb)
    tokens = tuple(args.question.split())
    entities = tuple(kbmod.resolve_entities(kb, list(tokens)))
    if not entities:
        raise ValueError("no knowledge-base entity mentioned in the question")
    item = programmer.QAItem(qid="cli", tokens=tokens, entities=entities, answers=())
    best = programmer.greedy_decode(model, kb, item, max_expressions)
    print(" ".join(best.tokens))
    _print_denotation(best.denotation)
    return 0


def _cmd_train(args) -> int:
    cfg = load_config(args.config)
    if args.seed is not None:
        cfg["seed"] = args.seed
    config = _train_config(cfg)
    kb = kbmod.load_kb(args.kb)
    train_items = taskgen.load_dataset(args.train)
    dev_items = taskgen.load_dataset(args.dev)
    model = programmer.build_model(
        kb, train_items,
        embed_dim=cfg["embed_dim"], hidden_dim=cfg["hidden_dim"], seed=config.seed,
    )

    def log(entry: dict) -> None:
        line = json.dumps({k: entry[k] for k in _LOG_KEYS}, sort_keys=True)
        print(line, flush=True)

    print(json.dumps({"config": cfg}, sort_keys=True), flush=True)
    trainer.train(model, kb, train_items, dev_items, config, log)
    programmer.save_model(args.out_checkpoint, model, config.max_expressions)
    return 0


def _cmd_eval(args) -> int:
    kb = kbmod.load_kb(args.kb)
    model, max_expressions = _load_model(args.checkpoint, kb)
    items = taskgen.load_dataset(args.test)
    metrics = trainer.evaluate(model, kb, items, max_expressions)
    print(json.dumps(dataclasses.asdict(metrics), sort_keys=True))
    return 0


def _cmd_gradcheck(args) -> int:
    worst = 0.0
    for objective in ("likelihood", "policy"):
        for seed in range(args.seed, args.seed + 3):
            worst = max(worst, programmer.grad_check(seed, objective))
    print(f"max relative error {worst:.3e}")
    return 0 if worst <= 1e-4 else 1


# --- argument parsing --------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lisplab",
        description="Semantic parsing over synthetic knowledge bases: "
        "generate data, run programs, train and evaluate the parser.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-kb", help="generate a random knowledge base")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--n-entities", type=int, default=100)
    p.add_argument("--n-properties", type=int, default=10)
    p.add_argument("--edge-density", type=float, default=0.5)
    p.add_argument("--out", help="KB file path (default: standard output)")
    p.set_defaults(func=_cmd_gen_kb)

    p = sub.add_parser("gen-data", help="generate train/dev/test question files")
    p.add_argument("--kb", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--n-train", type=int, default=300)
    p.add_argument("--n-dev", type=int, default=100)
    p.add_argument("--n-test", type=int, default=100)
    p.add_argument("--out-train", required=True)
    p.add_argument("--out-dev", required=True)
    p.add_argument("--out-test", required=True)
    p.set_defaults(func=_cmd_gen_data)

    p = sub.add_parser("exec", help="execute a program against a knowledge base")
    p.add_argument("--kb", required=True)
    p.add_argument("--program", required=True, help='e.g. "( Hop R0 PlaceOfBirthOf ) RETURN"')
    p.add_argument("--entity", action="append", metavar="R<k>=<id>",
                   help="bind a program variable to an entity (repeatable)")
    p.set_defaults(func=_cmd_exec)

    p = sub.add_parser("assist", help="list the valid next tokens after a prefix")
    p.add_argument("--kb", required=True)
    p.add_argument("--prefix", default="", help="program prefix, whitespace separated")
    p.add_argument("--entity", action="append", metavar="R<k>=<id>")
    p.set_defaults(func=_cmd_assist)

    p = sub.add_parser("parse", help="decode the best program for a question")
    p.add_argument("--kb", required=True)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--question", required=True)
    p.set_defaults(func=_cmd_parse)

    p = sub.add_parser("train", help="train a parser with weak supervision")
    p.add_argument("--kb", required=True)
    p.add_argument("--train", required=True)
    p.add_argument("--dev", required=True)
    p.add_argument("--config", help="key=value overrides for the defaults")
    p.add_argument("--out-checkpoint", required=True)
    p.add_argument("--seed", type=int, default=None,
                   help="overrides the config seed when given")
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint on a dataset")
    p.add_argument("--kb", required=True)
    p.add_argument("--test", required=True)
    p.add_argument("--checkpoint", required=True)
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("gradcheck", help="compare analytic gradients to finite differences")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_gradcheck)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args)
    except (
        OSError,
        ValueError,
        kbmod.KBError,
        interpreter.ProgramError,
        assist.AssistError,
        taskgen.GenerationError,
        taskgen.DatasetError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
