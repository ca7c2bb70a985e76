import dataclasses
import json
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lisplab import cli, programmer, taskgen, trainer
from lisplab import kb as kbmod
from lisplab import nnkernel as nn

from oracles import byte_edits


def run_cli(argv):
    return cli.main(list(argv))


@pytest.fixture(scope="module")
def toy_kb(tmp_path_factory):
    path = tmp_path_factory.mktemp("toy") / "toy.tsv"
    lines = [
        "Hodgenville\tPlaceOfBirthOf\tAbeLincoln\tentity",
        "Hodgenville\tPlaceOfBirthOf\tZed\tentity",
        "Hodgenville\tPlaceOfBirthOf\tBob\tentity",
        "@alias\tHodgenville\tHodgenville",
        "@alias\tAbeLincoln\tAbeLincoln",
        "@alias\tZed\tZed",
        "@alias\tBob\tBob",
    ]
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    return str(path)


@pytest.fixture(scope="module")
def bench(tmp_path_factory):
    """A generated KB plus small dataset files, built through the CLI itself."""
    root = tmp_path_factory.mktemp("bench")
    kb = str(root / "kb.tsv")
    paths = {
        "kb": kb,
        "train": str(root / "train.jsonl"),
        "dev": str(root / "dev.jsonl"),
        "test": str(root / "test.jsonl"),
    }
    assert run_cli(["gen-kb", "--seed", "0", "--out", kb]) == 0
    assert run_cli([
        "gen-data", "--kb", kb, "--seed", "0",
        "--n-train", "24", "--n-dev", "8", "--n-test", "8",
        "--out-train", paths["train"], "--out-dev", paths["dev"],
        "--out-test", paths["test"],
    ]) == 0
    return paths


def train_subprocess(bench, ckpt, config=None, seed=None):
    cmd = [
        sys.executable, "-m", "lisplab", "train",
        "--kb", bench["kb"], "--train", bench["train"], "--dev", bench["dev"],
        "--out-checkpoint", str(ckpt),
    ]
    if config is not None:
        cmd += ["--config", str(config)]
    if seed is not None:
        cmd += ["--seed", str(seed)]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@pytest.fixture(scope="module")
def trained(tmp_path_factory, bench):
    root = tmp_path_factory.mktemp("trained")
    config = root / "fast.cfg"
    config.write_text(
        "beam_size = 16\nml_iterations = 2\nepochs_per_iteration = 3\n"
        "reinforce_epochs = 2\n",
        encoding="utf-8",
    )
    ckpt = root / "model.ckpt"
    stdout = train_subprocess(bench, ckpt, config)
    return {"config": config, "ckpt": ckpt, "stdout": stdout, "root": root}


class TestConfig:
    def test_defaults_cover_train_config_and_model_dims(self):
        cfg = cli.config_defaults()
        for field in dataclasses.fields(trainer.TrainConfig):
            assert cfg[field.name] == field.default
        assert cfg["embed_dim"] == 32
        assert cfg["hidden_dim"] == 64

    def test_no_path_gives_defaults(self):
        assert cli.load_config(None) == cli.config_defaults()

    def test_overrides_and_types(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("beam_size = 7\nalpha=0.25\n\n# note\n", encoding="utf-8")
        cfg = cli.load_config(str(path))
        assert cfg["beam_size"] == 7 and isinstance(cfg["beam_size"], int)
        assert cfg["alpha"] == 0.25
        # untouched keys keep their defaults
        assert cfg["learning_rate"] == trainer.TrainConfig().learning_rate

    def test_unknown_key_rejected_with_line(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("beam_size = 7\nbogus = 1\n", encoding="utf-8")
        with pytest.raises(ValueError, match=r":2: unknown config key 'bogus'"):
            cli.load_config(str(path))

    def test_bad_value_rejected(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("beam_size = 7.5\n", encoding="utf-8")
        with pytest.raises(ValueError, match="bad int"):
            cli.load_config(str(path))

    def test_missing_equals_rejected(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("beam_size\n", encoding="utf-8")
        with pytest.raises(ValueError, match="key=value"):
            cli.load_config(str(path))

    def test_non_utf8_rejected_with_path(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_bytes(b"beam_size = 7\n\xff\n")
        with pytest.raises(ValueError) as info:
            cli.load_config(str(path))
        assert str(info.value) == f"{path}: not UTF-8 text"

    def test_duplicate_key_rejected_with_line(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("beam_size = 4\n# again\nbeam_size = 9\n", encoding="utf-8")
        with pytest.raises(ValueError) as info:
            cli.load_config(str(path))
        assert str(info.value) == f"{path}:3: duplicate config key 'beam_size'"


def write_config(path, cfg) -> None:
    path.write_text("".join(f"{key} = {value!r}\n" for key, value in cfg.items()),
                    encoding="utf-8")


def load_config_or_reject(path):
    """load_config's result, or None after a ValueError that names path;
    any other exception fails the test."""
    try:
        return cli.load_config(str(path))
    except ValueError as exc:
        assert str(path) in str(exc), exc
        return None


# config values of the defaults' own types
config_values = st.fixed_dictionaries({
    key: st.integers(-10**6, 10**6) if type(default) is int
    else st.floats(allow_nan=False)
    for key, default in cli.config_defaults().items()
})


class TestConfigFuzz:
    @given(config_values)
    @settings(max_examples=60, deadline=None)
    def test_round_trip(self, cfg):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "c.cfg"
            write_config(path, cfg)
            loaded = cli.load_config(str(path))
        assert loaded == cfg
        assert {k: type(v) for k, v in loaded.items()} == {k: type(v) for k, v in cfg.items()}

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_edited_bytes_load_or_raise(self, data):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "c.cfg"
            write_config(path, cli.config_defaults())
            path.write_bytes(data.draw(byte_edits(path.read_bytes())))
            load_config_or_reject(path)

    @given(st.binary(max_size=80))
    @settings(max_examples=100, deadline=None)
    def test_arbitrary_bytes_load_or_raise(self, blob):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "c.cfg"
            path.write_bytes(blob)
            loaded = load_config_or_reject(path)
        if loaded is not None:
            assert set(loaded) == set(cli.config_defaults())


class TestInitialVars:
    def test_ordering_by_index(self):
        out = cli._initial_vars(["R1=b", "R0=a"])
        assert out == [("a",), ("b",)]

    def test_gap_rejected(self):
        with pytest.raises(ValueError, match="no gaps"):
            cli._initial_vars(["R1=b"])

    def test_duplicate_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            cli._initial_vars(["R0=a", "R0=b"])

    @pytest.mark.parametrize("bad", ["R0", "=x", "Q0=x", "R0="])
    def test_malformed_rejected(self, bad):
        with pytest.raises(ValueError):
            cli._initial_vars([bad])

    def test_none_is_empty(self):
        assert cli._initial_vars(None) == []


class TestExec:
    def test_hop_prints_denotation(self, toy_kb, capsys):
        rc = run_cli([
            "exec", "--kb", toy_kb,
            "--program", "( Hop R0 PlaceOfBirthOf ) RETURN",
            "--entity", "R0=Hodgenville",
        ])
        assert rc == 0
        # one value per line, canonical (sorted) order
        assert capsys.readouterr().out == "AbeLincoln\nBob\nZed\n"

    def test_bad_program_exit_1(self, toy_kb, capsys):
        rc = run_cli([
            "exec", "--kb", toy_kb, "--program", "( Hop R0 Nope ) RETURN",
            "--entity", "R0=Hodgenville",
        ])
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    def test_missing_kb_exit_1(self, tmp_path, capsys):
        rc = run_cli([
            "exec", "--kb", str(tmp_path / "none.tsv"), "--program", "RETURN",
        ])
        assert rc == 1
        assert "error:" in capsys.readouterr().err


class TestAssist:
    def test_function_slot(self, toy_kb, capsys):
        rc = run_cli(["assist", "--kb", toy_kb, "--prefix", "(", "--entity", "R0=Hodgenville"])
        assert rc == 0
        tokens = capsys.readouterr().out.split()
        assert tokens == sorted(tokens)
        # the oracle prunes ArgMax/Equal here: no comparable property,
        # no second variable, so only Hop can complete
        assert tokens == ["Hop"]

    def test_empty_prefix(self, toy_kb, capsys):
        rc = run_cli(["assist", "--kb", toy_kb, "--entity", "R0=Hodgenville"])
        assert rc == 0
        assert "(" in capsys.readouterr().out.split()

    def test_invalid_prefix_exit_1(self, toy_kb, capsys):
        rc = run_cli(["assist", "--kb", toy_kb, "--prefix", ") (", "--entity", "R0=Hodgenville"])
        assert rc == 1
        assert "error:" in capsys.readouterr().err


class TestUsage:
    def test_no_subcommand_exit_2(self, capsys):
        assert run_cli([]) == 2
        capsys.readouterr()

    def test_unknown_subcommand_exit_2(self, capsys):
        assert run_cli(["frobnicate"]) == 2
        capsys.readouterr()

    def test_unknown_flag_exit_2(self, toy_kb, capsys):
        assert run_cli(["exec", "--kb", toy_kb, "--program", "RETURN", "--nope"]) == 2
        capsys.readouterr()


class TestGenKb:
    def test_stdout_matches_out_file(self, tmp_path, capsys):
        out = tmp_path / "kb.tsv"
        assert run_cli(["gen-kb", "--seed", "3", "--n-entities", "20",
                        "--n-properties", "4", "--out", str(out)]) == 0
        assert run_cli(["gen-kb", "--seed", "3", "--n-entities", "20",
                        "--n-properties", "4"]) == 0
        assert capsys.readouterr().out == out.read_text(encoding="utf-8")

    def test_seed_changes_output(self, capsys):
        run_cli(["gen-kb", "--seed", "1", "--n-entities", "20", "--n-properties", "4"])
        one = capsys.readouterr().out
        run_cli(["gen-kb", "--seed", "2", "--n-entities", "20", "--n-properties", "4"])
        assert capsys.readouterr().out != one


class TestGenData:
    def test_three_loadable_files(self, bench):
        sizes = {"train": 24, "dev": 8, "test": 8}
        for split, n in sizes.items():
            items = taskgen.load_dataset(bench[split])
            assert len(items) == n
            assert all(item.answers for item in items)


class TestTrain:
    def test_first_line_echoes_effective_config(self, trained):
        first = json.loads(trained["stdout"].splitlines()[0])
        assert first["config"]["beam_size"] == 16
        assert first["config"]["ml_iterations"] == 2
        # defaults fill in everything not overridden
        assert first["config"]["alpha"] == trainer.TrainConfig().alpha
        assert set(first["config"]) == set(cli.config_defaults())

    def test_log_lines_have_exact_keys(self, trained):
        lines = trained["stdout"].splitlines()[1:]
        assert len(lines) == 2 + 2  # ml_iterations + reinforce_epochs
        for i, line in enumerate(lines, 1):
            entry = json.loads(line)
            assert set(entry) == set(cli._LOG_KEYS)
            assert entry["iteration"] == i

    def test_determinism_byte_identical(self, trained, bench):
        ckpt2 = trained["root"] / "model2.ckpt"
        stdout2 = train_subprocess(bench, ckpt2, trained["config"])
        assert stdout2 == trained["stdout"]
        assert ckpt2.read_bytes() == trained["ckpt"].read_bytes()

    def test_seed_flag_overrides_config(self, trained, bench):
        ckpt3 = trained["root"] / "model3.ckpt"
        stdout3 = train_subprocess(bench, ckpt3, trained["config"], seed=1)
        assert json.loads(stdout3.splitlines()[0])["config"]["seed"] == 1
        assert stdout3 != trained["stdout"]


class TestEvalParse:
    def test_eval_metrics_json(self, trained, bench, capsys):
        rc = run_cli(["eval", "--kb", bench["kb"], "--test", bench["test"],
                      "--checkpoint", str(trained["ckpt"])])
        assert rc == 0
        metrics = json.loads(capsys.readouterr().out)
        assert set(metrics) == {"avg_precision", "avg_recall", "avg_f1", "accuracy_at_1"}
        assert all(0.0 <= v <= 1.0 for v in metrics.values())

    def test_parse_prints_program_then_denotation(self, trained, bench, capsys):
        items = taskgen.load_dataset(bench["dev"])
        question = " ".join(items[0].tokens)
        rc = run_cli(["parse", "--kb", bench["kb"], "--question", question,
                      "--checkpoint", str(trained["ckpt"])])
        assert rc == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].endswith("RETURN")
        assert len(lines) >= 1

    def test_decode_budget_comes_from_checkpoint(self, bench, tmp_path, capsys):
        config = tmp_path / "one.cfg"
        config.write_text(
            "max_expressions = 1\nbeam_size = 8\nml_iterations = 2\n"
            "epochs_per_iteration = 2\nreinforce_epochs = 0\n",
            encoding="utf-8",
        )
        ckpt = tmp_path / "one.ckpt"
        last = json.loads(train_subprocess(bench, ckpt, config).splitlines()[-1])
        rc = run_cli(["eval", "--kb", bench["kb"], "--test", bench["dev"],
                      "--checkpoint", str(ckpt)])
        assert rc == 0
        assert json.loads(capsys.readouterr().out)["avg_f1"] == last["dev_f1"]
        for item in taskgen.load_dataset(bench["dev"]):
            rc = run_cli(["parse", "--kb", bench["kb"], "--question", " ".join(item.tokens),
                          "--checkpoint", str(ckpt)])
            assert rc == 0
            assert capsys.readouterr().out.splitlines()[0].split().count("(") <= 1

    def test_parse_without_entity_exit_1(self, trained, bench, capsys):
        rc = run_cli(["parse", "--kb", bench["kb"], "--question", "what is this",
                      "--checkpoint", str(trained["ckpt"])])
        assert rc == 1
        assert "entity" in capsys.readouterr().err


class TestGradcheck:
    """The CLI's wiring only; real gradients are checked by acceptance
    criterion 4 and test_nnkernel.TestGradCheck."""

    def fake_grad_check(self, monkeypatch, errors):
        calls = []
        errors = iter(errors)

        def grad_check(seed, objective):
            calls.append((seed, objective))
            return next(errors)

        monkeypatch.setattr(programmer, "grad_check", grad_check)
        return calls

    def test_passes_and_prints_error(self, monkeypatch, capsys):
        calls = self.fake_grad_check(monkeypatch, [1e-7, 3e-6, 2e-7, 5e-8, 1e-4, 4e-7])
        rc = run_cli(["gradcheck", "--seed", "5"])
        assert calls == [(5, "likelihood"), (6, "likelihood"), (7, "likelihood"),
                         (5, "policy"), (6, "policy"), (7, "policy")]
        assert capsys.readouterr().out == "max relative error 1.000e-04\n"
        assert rc == 0

    def test_exit_1_above_bound(self, monkeypatch, capsys):
        self.fake_grad_check(monkeypatch, [1e-7, 3e-6, 2e-7, 5e-8, 1.5e-4, 4e-7])
        rc = run_cli(["gradcheck"])
        assert capsys.readouterr().out == "max relative error 1.500e-04\n"
        assert rc == 1


def assert_one_error_line(argv):
    proc = subprocess.run([sys.executable, "-m", "lisplab", *argv], capture_output=True, text=True)
    assert proc.returncode == 1, proc.stderr
    assert "Traceback" not in proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), proc.stderr
    return lines[0]


CHECKPOINT_HEAD = b'{"format": "lisplab-checkpoint", "version": 1'


class TestMalformedInputs:
    """Each malformed input exits 1 with a single ``error:`` line."""

    @pytest.mark.parametrize("blob", [
        CHECKPOINT_HEAD + b', "meta": {}, "tensors": []}',  # no newline
        b"[1]\n",
        CHECKPOINT_HEAD + b', "meta": {}}\n',
        CHECKPOINT_HEAD + b', "meta": {}, "tensors": [{"shape": [2]}]}\n',
    ], ids=["no-newline", "not-an-object", "no-tensors", "tensor-without-name"])
    def test_bad_checkpoint_header(self, bench, tmp_path, blob):
        ckpt = tmp_path / "bad.ckpt"
        ckpt.write_bytes(blob)
        assert_one_error_line(["eval", "--kb", bench["kb"], "--test", bench["test"],
                               "--checkpoint", str(ckpt)])

    def test_kb_with_other_properties(self, trained, bench, tmp_path):
        kb12 = str(tmp_path / "kb12.tsv")
        assert run_cli(["gen-kb", "--seed", "0", "--n-properties", "12", "--out", kb12]) == 0
        question = " ".join(taskgen.load_dataset(bench["dev"])[0].tokens)
        for argv in (["eval", "--test", bench["test"]], ["parse", "--question", question]):
            line = assert_one_error_line(argv + ["--kb", kb12, "--checkpoint", str(trained["ckpt"])])
            assert "property set" in line

    def test_kb_with_same_properties_other_facts(self, trained, bench, tmp_path):
        kb1 = str(tmp_path / "kb1.tsv")
        assert run_cli(["gen-kb", "--seed", "1", "--out", kb1]) == 0
        assert kbmod.load_kb(kb1).properties == kbmod.load_kb(bench["kb"]).properties
        question = " ".join(taskgen.load_dataset(bench["dev"])[0].tokens)
        for argv in (["eval", "--test", bench["test"]], ["parse", "--question", question]):
            line = assert_one_error_line(argv + ["--kb", kb1, "--checkpoint", str(trained["ckpt"])])
            assert "different knowledge base" in line

    @pytest.mark.parametrize("record", [
        {"id": "q", "question": "a e001", "entities": [{"start": 1, "end": 2, "id": "e001"}],
         "answers": ["e002"]},
        {"id": "q", "question": "a  e001", "entities": [{"start": 2, "end": 3, "id": "e001"}],
         "answers": [["entity", "e002"]]},
    ], ids=["answer-without-kind", "empty-token"])
    def test_bad_dataset_line(self, trained, bench, tmp_path, record):
        data = tmp_path / "bad.jsonl"
        data.write_text(json.dumps(record) + "\n", encoding="utf-8")
        line = assert_one_error_line(["eval", "--kb", bench["kb"], "--test", str(data),
                                      "--checkpoint", str(trained["ckpt"])])
        assert "bad.jsonl:1" in line

    def test_gen_kb_without_entities(self):
        assert_one_error_line(["gen-kb", "--n-entities", "0"])

    def test_gen_data_negative_split(self, bench, tmp_path):
        outs = [str(tmp_path / f"{split}.jsonl") for split in ("train", "dev", "test")]
        assert_one_error_line(["gen-data", "--kb", bench["kb"], "--n-train", "-1",
                               "--out-train", outs[0], "--out-dev", outs[1], "--out-test", outs[2]])

    def test_kb_not_utf8(self, bench, tmp_path):
        kb = tmp_path / "bad_kb.tsv"
        with open(bench["kb"], "rb") as fh:
            kb.write_bytes(fh.readline() + b"\xff\n")
        line = assert_one_error_line(["exec", "--kb", str(kb), "--program", "RETURN"])
        assert line == f"error: {kb}: not UTF-8 text"

    @pytest.mark.parametrize("program", ["( Hop R0 NoSuchProperty ) RETURN", "( Hop R0 rel0"],
                             ids=["unknown-property", "unterminated"])
    def test_bad_exec_program(self, bench, program):
        assert_one_error_line(["exec", "--kb", bench["kb"], "--program", program,
                               "--entity", "R0=e000"])

    def test_assist_invalid_prefix(self, bench):
        assert_one_error_line(["assist", "--kb", bench["kb"], "--prefix", "( Bogus",
                               "--entity", "R0=e000"])

    @pytest.mark.parametrize("config, float_span, message", [
        ("", True, "float.jsonl:1"),
        ("learning_rate = nan\n", False, "learning_rate"),
        ("hidden_dim = 0\n", False, "hidden_dim"),
    ], ids=["float-span", "nan-learning-rate", "zero-hidden-dim"])
    def test_bad_train_input(self, bench, tmp_path, config, float_span, message):
        train = bench["train"]
        if float_span:
            with open(train, encoding="utf-8") as fh:
                record = json.loads(fh.readline())
            entity = record["entities"][0]
            entity["start"], entity["end"] = float(entity["start"]), float(entity["end"])
            train = tmp_path / "float.jsonl"
            train.write_text(json.dumps(record) + "\n", encoding="utf-8")
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(config, encoding="utf-8")
        ckpt = tmp_path / "model.ckpt"
        line = assert_one_error_line(["train", "--kb", bench["kb"], "--train", str(train),
                                      "--dev", bench["dev"], "--config", str(cfg),
                                      "--out-checkpoint", str(ckpt)])
        assert message in line
        assert not ckpt.exists()

    def test_vocabulary_longer_than_its_table(self, trained, bench, tmp_path):
        meta, arrays = nn.load_checkpoint(trained["ckpt"])
        ckpt = tmp_path / "long.ckpt"
        meta["word_vocab"] = meta["word_vocab"] + [f"extra{i}" for i in range(5)]
        nn.save_checkpoint(ckpt, list(arrays.items()), meta)
        question = " ".join(taskgen.load_dataset(bench["dev"])[0].tokens)
        line = assert_one_error_line(["parse", "--kb", bench["kb"], "--question", question,
                                      "--checkpoint", str(ckpt)])
        assert "word_vocab" in line
