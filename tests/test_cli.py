"""CLI surface tests: exit codes, output files, and reproducibility."""

import json
import warnings

import numpy as np
import pytest

from textcaps.adversarial import SeededRng
from textcaps.cli import build_parser, main
from textcaps.model import forward_batch, init_model
from textcaps.serialize import (
    config_parts_from_meta,
    fmt_float,
    load_model,
    model_meta,
    save_model,
)
from textcaps.tensor import Tensor
from textcaps.text import encode_batch, load_embeddings, read_dataset
from textcaps.training import TrainConfig, config_from_dict


def run_cli(argv):
    """Invoke the CLI in-process; argparse usage errors raise SystemExit(2)."""
    return main(argv)


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    corpus = root / "corpus.jsonl"
    embeddings = root / "emb.txt"
    code = run_cli(["gen-synth", "--docs", "120", "--vocab", "60", "--seed", "9",
                    "--out", str(corpus), "--embeddings-out", str(embeddings),
                    "--embedding-dim", "8"])
    assert code == 0
    config = root / "config.json"
    config.write_text(json.dumps({
        "encoder": {"kind": "cnn", "kernel_sizes": [2], "filters_per_kernel": 3,
                    "hidden_dim": 3},
        "head": {"type": "capsule", "n_pc": 2, "n_cc": 4, "d": 3,
                 "routing_iterations": 2},
        "adversarial": False,
        "learning_rate": 0.003,
        "epochs": 2,
        "batch_size": 16,
        "split": [0.7, 0.2, 0.1],
        "seed": 5,
        "n_s": 2,
        "n_w": 6,
    }), encoding="utf-8")
    return root


@pytest.fixture(scope="module")
def trained(workspace):
    out = workspace / "run"
    code = run_cli(["train", "--config", str(workspace / "config.json"),
                    "--data", str(workspace / "corpus.jsonl"),
                    "--embeddings", str(workspace / "emb.txt"),
                    "--out", str(out)])
    assert code == 0
    return out


class TestFlagValidation:
    def test_missing_data_flag_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli(["train", "--config", "x.json", "--embeddings", "e.txt",
                     "--out", "o"])
        assert exc.value.code == 2
        assert "usage" in capsys.readouterr().err

    def test_unknown_stage_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli(["export-repr", "--model", "m", "--data", "d",
                     "--embeddings", "e", "--stage", "pooled-oops", "--out", "o"])
        assert exc.value.code == 2

    def test_nonpositive_doc_count_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            run_cli(["gen-synth", "--docs", "0", "--vocab", "10", "--seed", "1",
                     "--out", "x", "--embeddings-out", "y"])
        assert exc.value.code == 2

    def test_sweep_default_grid(self):
        parser = build_parser()
        args = parser.parse_args(["sweep", "--config", "c", "--data", "d",
                                  "--embeddings", "e", "--out", "o"])
        assert args.n_pc == [2, 8, 32]
        assert args.n_cc == [32, 128, 256]
        assert args.repeats == 3


class TestGenSynth:
    def test_balance(self, workspace):
        docs = read_dataset(workspace / "corpus.jsonl")
        assert len(docs) == 120
        assert sum(d.label for d in docs) == 60

    def test_odd_count_floors_positive(self, tmp_path):
        out = tmp_path / "odd.jsonl"
        emb = tmp_path / "odd_emb.txt"
        run_cli(["gen-synth", "--docs", "41", "--vocab", "20", "--seed", "2",
                 "--out", str(out), "--embeddings-out", str(emb)])
        docs = read_dataset(out)
        assert sum(d.label for d in docs) == 20

    def test_deterministic_bytes(self, tmp_path):
        paths = []
        for tag in ("a", "b"):
            out = tmp_path / f"{tag}.jsonl"
            emb = tmp_path / f"{tag}_emb.txt"
            run_cli(["gen-synth", "--docs", "30", "--vocab", "15", "--seed", "8",
                     "--out", str(out), "--embeddings-out", str(emb)])
            paths.append((out.read_bytes(), emb.read_bytes()))
        assert paths[0] == paths[1]


class TestTrain:
    def test_outputs_exist(self, trained):
        for name in ("metrics.csv", "model.caps", "manifest.json"):
            assert (trained / name).exists()
        assert (trained / "splits" / "test.jsonl").exists()

    def test_manifest_contents(self, trained, workspace):
        manifest = json.loads((trained / "manifest.json").read_text())
        assert manifest["resolved_seed"] == 5
        assert set(manifest["input_digests"]) == {"data", "embeddings"}
        assert manifest["config"]["encoder"]["kind"] == "cnn"
        assert manifest["tool_version"]

    def test_manifest_rerun_byte_identical(self, trained, workspace):
        out = workspace / "rerun"
        code = run_cli(["train", "--config", str(trained / "manifest.json"),
                        "--data", str(workspace / "corpus.jsonl"),
                        "--embeddings", str(workspace / "emb.txt"),
                        "--out", str(out)])
        assert code == 0
        assert (out / "metrics.csv").read_bytes() == (trained / "metrics.csv").read_bytes()
        assert (out / "model.caps").read_bytes() == (trained / "model.caps").read_bytes()

    def test_empty_validation_split_is_one_line_error(self, workspace, tmp_path, capsys):
        # 3 documents at split (0.7, 0.2, 0.1) leave validation and test empty
        code = run_cli(["train", "--config", str(workspace / "config.json"),
                        "--data", str(workspace / "corpus.jsonl"),
                        "--embeddings", str(workspace / "emb.txt"),
                        "--out", str(tmp_path / "tiny"), "--max-docs", "3"])
        assert code == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error: ")
        assert "Traceback" not in err

    def test_max_docs_truncates(self, workspace, tmp_path):
        out = tmp_path / "trunc"
        code = run_cli(["train", "--config", str(workspace / "config.json"),
                        "--data", str(workspace / "corpus.jsonl"),
                        "--embeddings", str(workspace / "emb.txt"),
                        "--out", str(out), "--max-docs", "30"])
        assert code == 0
        test_docs = read_dataset(out / "splits" / "test.jsonl")
        assert len(test_docs) == 3  # floor(0.1 * 30)


class TestEval:
    def test_matches_metrics_csv_test_row(self, trained, workspace, capsys):
        code = run_cli(["eval", "--model", str(trained / "model.caps"),
                        "--data", str(trained / "splits" / "test.jsonl"),
                        "--embeddings", str(workspace / "emb.txt")])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        test_row = [line for line in
                    (trained / "metrics.csv").read_text().splitlines()
                    if ",test," in line][-1].split(",")
        assert payload["loss"] == float(test_row[2])
        assert payload["accuracy"] == float(test_row[3])
        assert payload["precision"] == float(test_row[4])
        assert payload["recall"] == float(test_row[5])

    def test_checkpoint_with_class_count_record(self, trained, workspace, tmp_path, capsys):
        # checkpoints written before the class count became a constant carry
        # a meta.n_cls record; it is ignored and scoring is unchanged
        argv = ["--data", str(trained / "splits" / "test.jsonl"),
                "--embeddings", str(workspace / "emb.txt")]
        assert run_cli(["eval", "--model", str(trained / "model.caps"), *argv]) == 0
        current = capsys.readouterr().out
        params, meta = load_model(trained / "model.caps")
        assert "n_cls" not in meta
        save_model(tmp_path / "m.caps", params, {**meta, "n_cls": 2})
        assert run_cli(["eval", "--model", str(tmp_path / "m.caps"), *argv]) == 0
        assert capsys.readouterr().out == current

    def test_corrupt_magic_mentions_caps1(self, workspace, capsys):
        bad = workspace / "bad.caps"
        bad.write_bytes(b"NOPE!" + b"\x00" * 16)
        code = run_cli(["eval", "--model", str(bad),
                        "--data", str(workspace / "corpus.jsonl"),
                        "--embeddings", str(workspace / "emb.txt")])
        assert code == 1
        assert "CAPS1" in capsys.readouterr().err

    def test_empty_dataset_exits_1(self, trained, workspace, tmp_path):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("", encoding="utf-8")
        code = run_cli(["eval", "--model", str(trained / "model.caps"),
                        "--data", str(empty),
                        "--embeddings", str(workspace / "emb.txt")])
        assert code == 1


_ENCODER_CODES = [("cnn", 0), ("gru", 1), ("bigru", 2), ("cnn-bigru", 3), ("lstm", 4),
                  ("bilstm", 5), ("cnn-bilstm", 6)]


class TestCheckpointMeta:
    """The checkpoint's metadata records, pinned so their format cannot drift."""

    @pytest.mark.parametrize("kind, code", _ENCODER_CODES)
    @pytest.mark.parametrize("capsule", [True, False], ids=["capsule", "baseline"])
    def test_meta_records(self, tmp_path, kind, code, capsule):
        config = config_from_dict({
            "encoder": {"kind": kind, "kernel_sizes": [2, 3], "filters_per_kernel": 5,
                        "hidden_dim": 6},
            "head": ({"n_pc": 2, "n_cc": 3, "d": 4, "routing_iterations": 2} if capsule
                     else {"type": "baseline"}),
            "n_s": 3, "n_w": 7})
        head = ({"head_type": 1, "n_pc": 2, "n_cc": 3, "d": 4, "routing_iterations": 2}
                if capsule else {"head_type": 0})
        meta = model_meta(config, 8)
        assert meta == {"format_version": 1, "encoder_kind": code, "kernel_sizes": [2, 3],
                        "filters_per_kernel": 5, "hidden_dim": 6, **head,
                        "n_s": 3, "n_w": 7, "e_d": 8}
        assert config_parts_from_meta(meta) == (config.encoder, config.head, 3, 7, 8)
        save_model(tmp_path / "m.caps", {}, meta)
        assert load_model(tmp_path / "m.caps")[1] == meta


def _assert_one_line_error(capsys, *fragments):
    """Returns what went to stdout."""
    out, err = capsys.readouterr()
    assert err.count("\n") == 1 and err.startswith("error: ") and "Traceback" not in err
    for fragment in fragments:
        assert fragment in err
    return out


class TestMalformedInputs:
    def _eval(self, model, workspace):
        return run_cli(["eval", "--model", str(model),
                        "--data", str(workspace / "corpus.jsonl"),
                        "--embeddings", str(workspace / "emb.txt")])

    @pytest.mark.parametrize("change, fragment", [
        ({"encoder_kind": 99}, "encoder kind code 99"),
        ({"head_type": 7}, "head type code 7"),
        ({"format_version": 2}, "format version 2"),
        ({"n_pc": 2.5}, "'head.n_pc' must be an integer"),
        ({"kernel_sizes": 2}, "'encoder.kernel_sizes' must be a list"),
        ({"d": None}, "lacks 'd'"),
        ({"n_s": 0}, "n_s and n_w must be >= 1"),
        ({"hidden_dim": 0}, "metadata is invalid"),
        ({"routing_iterations": 196608}, "routing_iterations must be <= 10, got 196608"),
        ({"n_w": 0}, "n_s and n_w must be >= 1"),
        ({"e_d": 0}, "'e_d' must be an integer >= 1"),
    ])
    def test_bad_metadata(self, trained, workspace, tmp_path, capsys, change, fragment):
        params, meta = load_model(trained / "model.caps")
        meta = {key: value for key, value in {**meta, **change}.items() if value is not None}
        save_model(tmp_path / "m.caps", params, meta)
        assert self._eval(tmp_path / "m.caps", workspace) == 1
        _assert_one_line_error(capsys, fragment)

    def test_missing_parameter(self, trained, workspace, tmp_path, capsys):
        params, meta = load_model(trained / "model.caps")
        del params["head.routing.w"]
        save_model(tmp_path / "m.caps", params, meta)
        assert self._eval(tmp_path / "m.caps", workspace) == 1
        _assert_one_line_error(capsys, "'head.routing.w' is missing")

    def test_misshapen_parameter(self, trained, workspace, tmp_path, capsys):
        params, meta = load_model(trained / "model.caps")
        save_model(tmp_path / "m.caps", params, {**meta, "n_cc": meta["n_cc"] + 1})
        assert self._eval(tmp_path / "m.caps", workspace) == 1
        _assert_one_line_error(capsys, "'head.compress.w' has shape")

    @pytest.mark.parametrize("command, fragment", [
        ("eval", "evaluation loss is nan; every parameter is finite"),
        ("export-repr", "stage 'class' vectors hold non-finite values"),
    ])
    def test_overflowing_checkpoint(self, trained, workspace, tmp_path, capsys, command,
                                    fragment):
        # every value is finite, but the forward pass overflows
        params, meta = load_model(trained / "model.caps")
        for p in params.values():
            p.values[...] = 1e200
        save_model(tmp_path / "m.caps", params, meta)
        out = tmp_path / "repr.csv"
        argv = [command, "--model", str(tmp_path / "m.caps"),
                "--data", str(workspace / "corpus.jsonl"),
                "--embeddings", str(workspace / "emb.txt")]
        if command == "export-repr":
            argv += ["--stage", "class", "--out", str(out)]
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert run_cli(argv) == 1
        assert _assert_one_line_error(capsys, fragment) == ""
        assert not out.exists()

    @pytest.mark.parametrize("command", ["eval", "export-repr"])
    def test_non_finite_checkpoint(self, trained, workspace, tmp_path, capsys, command):
        # the scan runs in name order, not the draw order that puts
        # head.primary.w first, so the infinity is named rather than the NaN
        params, meta = load_model(trained / "model.caps")
        params["head.primary.w"].values.flat[0] = np.nan
        params["head.compress.w"].values.flat[-1] = np.inf
        model = tmp_path / "m.caps"
        save_model(model, params, meta)
        out = tmp_path / "repr.csv"
        argv = [command, "--model", str(model),
                "--data", str(workspace / "corpus.jsonl"),
                "--embeddings", str(workspace / "emb.txt")]
        if command == "export-repr":
            argv += ["--stage", "class", "--out", str(out)]
        assert run_cli(argv) == 1
        assert _assert_one_line_error(
            capsys, f"error: {model}: parameter 'head.compress.w' holds non-finite values\n") == ""
        assert not out.exists()

    def test_three_class_checkpoint(self, trained, workspace, tmp_path, capsys):
        params, meta = load_model(trained / "model.caps")
        n_cc, _, d, _ = params["head.routing.w"].shape
        params["head.routing.w"].values = np.random.default_rng(0).normal(
            size=(n_cc, 3, d, d))
        save_model(tmp_path / "m.caps", params, {**meta, "n_cls": 3})
        assert self._eval(tmp_path / "m.caps", workspace) == 1
        _assert_one_line_error(capsys, "'head.routing.w' has shape")

    @pytest.mark.parametrize("command", ["eval", "export-repr"])
    def test_embedding_dimension_mismatch(self, trained, workspace, tmp_path, capsys,
                                          command):
        # the 8-dim checkpoint meets a 4-dim table: the table is blamed, not
        # the checkpoint's weights
        assert run_cli(["gen-synth", "--docs", "4", "--vocab", "10", "--seed", "1",
                        "--out", str(tmp_path / "c.jsonl"),
                        "--embeddings-out", str(tmp_path / "e4.txt"),
                        "--embedding-dim", "4"]) == 0
        capsys.readouterr()
        extra = [] if command == "eval" else ["--stage", "class", "--out", str(tmp_path / "r.csv")]
        code = run_cli([command, "--model", str(trained / "model.caps"),
                        "--data", str(workspace / "corpus.jsonl"),
                        "--embeddings", str(tmp_path / "e4.txt"), *extra])
        assert code == 1
        _assert_one_line_error(capsys, "embedding dimension 4 != model dimension 8")
        assert not (tmp_path / "r.csv").exists()

    @pytest.mark.parametrize("key, value", [("lr_decay", "epoch"),
                                            ("adversarial_resample", True),
                                            ("head.n_cls", 2)])
    def test_retired_config_key(self, trained, workspace, tmp_path, capsys, key, value):
        # a manifest written before these keys were retired carries them
        manifest = json.loads((trained / "manifest.json").read_text())
        section, _, name = key.rpartition(".")
        target = manifest["config"][section] if section else manifest["config"]
        target[name] = value
        (tmp_path / "old.json").write_text(json.dumps(manifest))
        code = run_cli(["train", "--config", str(tmp_path / "old.json"),
                        "--data", str(workspace / "corpus.jsonl"),
                        "--embeddings", str(workspace / "emb.txt"),
                        "--out", str(tmp_path / "run")])
        assert code == 1
        _assert_one_line_error(capsys, f"'{key}' is unknown")
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("change", [{"n_cc": 10 ** 12},
                                        {"kernel_sizes": [1e300], "e_d": 1e300}])
    def test_meta_describing_a_huge_model(self, trained, workspace, tmp_path, capsys, change):
        params, meta = load_model(trained / "model.caps")
        save_model(tmp_path / "m.caps", params, {**meta, **change})
        assert self._eval(tmp_path / "m.caps", workspace) == 1
        _assert_one_line_error(capsys, "m.caps")  # rejected without filling memory

    def test_oversized_sequence_config(self, workspace, tmp_path, capsys):
        # T = n_s * n_w exceeds the address space, so the first parameter
        # draw fails at once without touching memory
        config = json.loads((workspace / "config.json").read_text())
        config["n_w"] = 10 ** 15
        (tmp_path / "big.json").write_text(json.dumps(config))
        code = run_cli(["train", "--config", str(tmp_path / "big.json"),
                        "--data", str(workspace / "corpus.jsonl"),
                        "--embeddings", str(workspace / "emb.txt"),
                        "--out", str(tmp_path / "run")])
        assert code == 1
        _assert_one_line_error(capsys, "Unable to allocate")
        assert not (tmp_path / "run" / "model.caps").exists()

    def test_repeated_kernel_sizes_config(self, workspace, tmp_path, capsys):
        config = json.loads((workspace / "config.json").read_text())
        config["encoder"]["kernel_sizes"] = [2, 2]
        (tmp_path / "repeat.json").write_text(json.dumps(config))
        code = run_cli(["train", "--config", str(tmp_path / "repeat.json"),
                        "--data", str(workspace / "corpus.jsonl"),
                        "--embeddings", str(workspace / "emb.txt"),
                        "--out", str(tmp_path / "run")])
        assert code == 1
        _assert_one_line_error(capsys, "kernel_sizes must be distinct")
        assert not (tmp_path / "run").exists()

    def test_repeated_kernel_sizes_metadata(self, trained, workspace, tmp_path, capsys):
        params, meta = load_model(trained / "model.caps")
        save_model(tmp_path / "m.caps", params, {**meta, "kernel_sizes": [2, 2]})
        assert self._eval(tmp_path / "m.caps", workspace) == 1
        _assert_one_line_error(capsys, "checkpoint metadata is invalid",
                               "kernel_sizes must be distinct")

    def test_config_typo(self, workspace, tmp_path, capsys):
        config = json.loads((workspace / "config.json").read_text())
        config["learning_rat"] = config.pop("learning_rate")
        (tmp_path / "typo.json").write_text(json.dumps(config))
        code = run_cli(["train", "--config", str(tmp_path / "typo.json"),
                        "--data", str(workspace / "corpus.jsonl"),
                        "--embeddings", str(workspace / "emb.txt"),
                        "--out", str(tmp_path / "run")])
        assert code == 1
        _assert_one_line_error(capsys, "'learning_rat'")

    @pytest.mark.parametrize("raw", ["5", "null", '"config"', "[1]"])
    def test_config_not_an_object(self, workspace, tmp_path, capsys, raw):
        (tmp_path / "scalar.json").write_text(raw)
        code = run_cli(["train", "--config", str(tmp_path / "scalar.json"),
                        "--data", str(workspace / "corpus.jsonl"),
                        "--embeddings", str(workspace / "emb.txt"),
                        "--out", str(tmp_path / "run")])
        assert code == 1
        _assert_one_line_error(capsys, "config must be a JSON object")

    def _train_on(self, workspace, tmp_path, data, embeddings):
        return run_cli(["train", "--config", str(workspace / "config.json"),
                        "--data", str(data), "--embeddings", str(embeddings),
                        "--out", str(tmp_path / "run")])

    def test_bad_data_line_names_the_data_file(self, workspace, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"text": "ok", "label": 1}\n{"text": 5, "label": 0}\n',
                       encoding="utf-8")
        assert self._train_on(workspace, tmp_path, bad, workspace / "emb.txt") == 1
        assert capsys.readouterr().err == f"error: {bad}: line 2: 'text' must be a string\n"
        assert not (tmp_path / "run").exists()

    def test_bad_embeddings_line_names_the_embeddings_file(self, workspace, tmp_path, capsys):
        bad = tmp_path / "bad_emb.txt"
        bad.write_text("2 3\na 1 0 0\nb 1 2\n", encoding="utf-8")
        assert self._train_on(workspace, tmp_path, workspace / "corpus.jsonl", bad) == 1
        assert capsys.readouterr().err == f"error: {bad}: line 3: expected 3 values, found 2\n"
        assert not (tmp_path / "run").exists()

    def test_config_with_a_bom_loads(self, workspace, tmp_path, capsys):
        config = tmp_path / "bom.json"
        config.write_bytes(b"\xef\xbb\xbf" + (workspace / "config.json").read_bytes())
        code = run_cli(["train", "--config", str(config),
                        "--data", str(workspace / "corpus.jsonl"),
                        "--embeddings", str(workspace / "emb.txt"),
                        "--out", str(tmp_path / "run"), "--max-docs", "40"])
        assert code == 0, capsys.readouterr().err

    def test_undecodable_config_names_the_file(self, workspace, tmp_path, capsys):
        config = tmp_path / "bad.json"
        config.write_bytes(b'{"epochs": "\xff"}')
        code = run_cli(["train", "--config", str(config),
                        "--data", str(workspace / "corpus.jsonl"),
                        "--embeddings", str(workspace / "emb.txt"),
                        "--out", str(tmp_path / "run")])
        assert code == 1
        _assert_one_line_error(capsys, f"error: {config}: not valid UTF-8: ")

    @pytest.mark.parametrize("raw, fragment", [
        ("[" * 100_000 + "]" * 100_000, "maximum recursion depth"),  # beyond the stack
        ('{"epochs": ', "Expecting value"),
        ('{"epochs": ' + "9" * 5000 + "}", "Exceeds the limit"),
    ], ids=["deeply-nested", "truncated", "long-integer"])
    def test_unreadable_config(self, workspace, tmp_path, capsys, raw, fragment):
        (tmp_path / "bad.json").write_text(raw)
        code = run_cli(["train", "--config", str(tmp_path / "bad.json"),
                        "--data", str(workspace / "corpus.jsonl"),
                        "--embeddings", str(workspace / "emb.txt"),
                        "--out", str(tmp_path / "run")])
        assert code == 1
        _assert_one_line_error(capsys, "bad.json: unreadable JSON: ", fragment)
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("key, raw", [("learning_rate", "NaN"),
                                          ("learning_rate", "Infinity"),
                                          ("learning_rate", "0"),
                                          ("learning_rate", "-0.5"),
                                          ("split", "[NaN, 0.3, 0.3]")])
    def test_non_finite_or_non_positive_number(self, workspace, tmp_path, capsys, key, raw):
        # the raw JSON text: Python's json reads NaN and Infinity as floats
        config = json.loads((workspace / "config.json").read_text())
        config[key] = "@"
        (tmp_path / "bad.json").write_text(json.dumps(config).replace('"@"', raw))
        code = run_cli(["train", "--config", str(tmp_path / "bad.json"),
                        "--data", str(workspace / "corpus.jsonl"),
                        "--embeddings", str(workspace / "emb.txt"),
                        "--out", str(tmp_path / "run")])
        assert code == 1
        _assert_one_line_error(capsys, f"config key '{key}' must be")
        assert not (tmp_path / "run").exists()

    def test_diverging_run_writes_no_model(self, workspace, tmp_path, capsys):
        config = json.loads((workspace / "config.json").read_text())
        config["learning_rate"] = 1e300
        (tmp_path / "nan.json").write_text(json.dumps(config))
        code = run_cli(["train", "--config", str(tmp_path / "nan.json"),
                        "--data", str(workspace / "corpus.jsonl"),
                        "--embeddings", str(workspace / "emb.txt"),
                        "--out", str(tmp_path / "run")])
        assert code == 1
        _assert_one_line_error(capsys, "loss is nan at epoch 0")
        assert not (tmp_path / "run" / "model.caps").exists()
        assert not (tmp_path / "run" / "metrics.csv").exists()


class TestAugment:
    def test_line_count_labels_and_determinism(self, workspace, tmp_path):
        out_a = tmp_path / "adv_a.jsonl"
        out_b = tmp_path / "adv_b.jsonl"
        for out in (out_a, out_b):
            code = run_cli(["augment", "--data", str(workspace / "corpus.jsonl"),
                            "--seed", "31", "--out", str(out)])
            assert code == 0
        originals = read_dataset(workspace / "corpus.jsonl")
        augmented = read_dataset(out_a)
        assert len(augmented) == len(originals)
        assert [d.label for d in augmented] == [d.label for d in originals]
        assert out_a.read_bytes() == out_b.read_bytes()

    def test_parse_failure_exits_1(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"text": "ok", "label": 1}\n{broken\n', encoding="utf-8")
        code = run_cli(["augment", "--data", str(bad), "--seed", "1",
                        "--out", str(tmp_path / "o.jsonl")])
        assert code == 1
        assert "line 2" in capsys.readouterr().err


class TestAblationAndSweep:
    def test_ablation_rows(self, workspace, tmp_path):
        out = tmp_path / "abl"
        code = run_cli(["ablation", "--config", str(workspace / "config.json"),
                        "--data", str(workspace / "corpus.jsonl"),
                        "--embeddings", str(workspace / "emb.txt"),
                        "--out", str(out), "--max-docs", "40"])
        assert code == 0
        lines = (out / "ablation.csv").read_text().splitlines()
        assert len(lines) == 5
        labels = [line.split(",")[0] for line in lines[1:]]
        assert labels == ["CNN", "+Adv", "+Capsule", "+Adv+Capsule"]

    def test_sweep_cells_and_reproducibility(self, workspace, tmp_path):
        outs = []
        for tag in ("s1", "s2"):
            out = tmp_path / tag
            code = run_cli(["sweep", "--config", str(workspace / "config.json"),
                            "--data", str(workspace / "corpus.jsonl"),
                            "--embeddings", str(workspace / "emb.txt"),
                            "--out", str(out), "--max-docs", "40",
                            "--n-pc", "1", "2", "--n-cc", "2", "--repeats", "1"])
            assert code == 0
            outs.append((out / "sweep.csv").read_text())
        lines = outs[0].splitlines()
        assert len(lines) == 1 + 3  # header + 2 n_pc cells + 1 n_cc cell
        assert lines[0] == "parameter,value,mean_accuracy,run_accuracies"
        assert outs[0] == outs[1]  # the whole file reproduces across reruns

    def test_sweep_seed_reduces_modulo_2_64(self, workspace, tmp_path):
        # a negative seed is accepted, as by train, and names the same streams
        config = json.loads((workspace / "config.json").read_text())
        rows = []
        for seed in (-1, 2**64 - 1):
            path = tmp_path / f"config{seed}.json"
            path.write_text(json.dumps({**config, "seed": seed}), encoding="utf-8")
            code = run_cli(["sweep", "--config", str(path),
                            "--data", str(workspace / "corpus.jsonl"),
                            "--embeddings", str(workspace / "emb.txt"),
                            "--out", str(tmp_path / str(seed)), "--max-docs", "40",
                            "--n-pc", "1", "--n-cc", "2", "--repeats", "2"])
            assert code == 0
            rows.append((tmp_path / str(seed) / "sweep.csv").read_text().splitlines())
        assert len(rows[0]) == 1 + 2
        assert rows[0] == rows[1]


class TestCsvConventions:
    def test_newlines_decimal_and_precision(self, trained):
        raw = (trained / "metrics.csv").read_bytes()
        assert b"\r" not in raw
        for line in raw.decode().splitlines()[1:]:
            for cell in line.split(",")[2:]:
                value = float(cell)  # '.' decimals, parseable
                from textcaps.serialize import fmt_float
                assert float(fmt_float(value)) == value  # 17 sig digits round-trip


class TestExportRepr:
    @pytest.mark.parametrize("stage,columns", [
        ("class", 1 + 2 * 3),        # label + N_CLASSES * d
        ("condensed", 1 + 4 * 3),    # label + n_cc * d
        ("encoder-pooled", 1 + 3),   # label + channels
    ])
    def test_column_and_row_counts(self, trained, workspace, tmp_path, stage, columns):
        out = tmp_path / f"{stage}.csv"
        code = run_cli(["export-repr", "--model", str(trained / "model.caps"),
                        "--data", str(trained / "splits" / "test.jsonl"),
                        "--embeddings", str(workspace / "emb.txt"),
                        "--stage", stage, "--out", str(out)])
        assert code == 0
        rows = out.read_text().splitlines()
        n_docs = len(read_dataset(trained / "splits" / "test.jsonl"))
        assert len(rows) == n_docs
        assert all(len(row.split(",")) == columns for row in rows)
        labels = [int(row.split(",")[0]) for row in rows]
        assert set(labels) <= {0, 1}

    @pytest.mark.parametrize("capsule", [True, False], ids=["capsule", "baseline"])
    def test_encoder_pooled_is_the_mean_feature_map(self, trained, workspace, tmp_path,
                                                    capsule):
        model = trained / "model.caps"
        if not capsule:
            config = config_from_dict({**json.loads((workspace / "config.json").read_text()),
                                       "head": {"type": "baseline"}})
            model = tmp_path / "baseline.caps"
            params = init_model(config.encoder, None, 8, config.n_s * config.n_w, SeededRng(3))
            save_model(model, params, model_meta(config, 8))
        data, out = trained / "splits" / "test.jsonl", tmp_path / "pooled.csv"
        code = run_cli(["export-repr", "--model", str(model), "--data", str(data),
                        "--embeddings", str(workspace / "emb.txt"),
                        "--stage", "encoder-pooled", "--out", str(out)])
        assert code == 0
        params, meta = load_model(model)
        encoder, head, n_s, n_w, _ = config_parts_from_meta(meta)
        table = load_embeddings(workspace / "emb.txt")
        ids, _ = encode_batch(read_dataset(data), table, n_s, n_w)
        blocks = table.matrix[ids]  # the whole-split block export-repr no longer builds
        batch_size, want = TrainConfig(encoder=encoder, head=head).batch_size, []
        for start in range(0, len(blocks), batch_size):
            fm = forward_batch(encoder, head, params,
                               Tensor(blocks[start:start + batch_size])).feature_map.values
            want.extend([fmt_float(v) for v in row] for row in fm.sum(1) * (1 / fm.shape[1]))
        assert [row.split(",")[1:] for row in out.read_text().splitlines()] == want
