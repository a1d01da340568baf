import csv
import json
import os
import struct
import zlib

import numpy as np
import pytest

from abnn.abelian import AbelianOp
from abnn.analogy import build_synthetic_analogy_corpus
from abnn.checkpoint import save_checkpoint
from abnn.cli import build_parser, main
from abnn.invertible import MonotonicNet


def run_cli(*argv):
    try:
        return main(list(argv))
    except SystemExit as exc:
        return exc.code


class TestSynthetic:
    def test_smoke_run_writes_results(self, tmp_path):
        out = tmp_path / "run"
        code = run_cli("synthetic", "--task", "add", "--model", "agn",
                       "--seed", "7", "--epochs", "3", "--out", str(out))
        assert code == 0
        with open(out / "results.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert {r["split"] for r in rows} == {"small", "large"}
        assert all(r["task"] == "add" and r["model"] == "agn" for r in rows)
        assert (out / "config.json").exists()
        assert (out / "results.json").exists()
        assert (out / "add-agn.abnn").exists()

    def test_multiple_models(self, tmp_path):
        out = tmp_path / "run"
        code = run_cli("synthetic", "--task", "mul", "--model", "agn,asn,deepsets",
                       "--seed", "1", "--epochs", "2", "--out", str(out),
                       "--hidden-dim", "4", "--middle-dim", "4",
                       "--k-groups", "2", "--j-units", "2")
        assert code == 0
        with open(out / "results.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 6  # three models x two splits

    def test_unknown_task_exits_2(self, capsys):
        code = run_cli("synthetic", "--task", "frobnicate", "--model", "agn")
        assert code == 2
        err = capsys.readouterr().err
        assert "add" in err and "mul" in err  # lists the valid tasks

    def test_unknown_flag_rejected(self):
        assert run_cli("synthetic", "--task", "add", "--frolic") == 2

    def test_threads_only_on_search(self):
        assert run_cli("synthetic", "--task", "add", "--threads", "2") == 2
        args = build_parser().parse_args(["search", "--task", "add", "--threads", "2"])
        assert args.threads == 2

    def test_reproducible_outputs(self, tmp_path):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert run_cli("synthetic", "--task", "add", "--model", "agn",
                           "--seed", "3", "--epochs", "3", "--out", str(out)) == 0
            outs.append(out)
        a, b = outs
        assert (a / "add-agn.abnn").read_bytes() == (b / "add-agn.abnn").read_bytes()
        assert (a / "config.json").read_text() == (b / "config.json").read_text()

        def rows_no_clock(path):
            with open(path) as fh:
                return [{k: v for k, v in row.items() if k != "wall_clock_s"}
                        for row in csv.DictReader(fh)]

        assert rows_no_clock(a / "results.csv") == rows_no_clock(b / "results.csv")


class TestConfigPrecedence:
    def test_flags_beat_config_file_beat_defaults(self, tmp_path):
        cfg_file = tmp_path / "c.json"
        cfg_file.write_text(json.dumps(
            {"seed": 9, "epochs": 2, "k_groups": 2, "j_units": 2}))
        out1 = tmp_path / "o1"
        assert run_cli("synthetic", "--task", "add", "--model", "agn",
                       "--config", str(cfg_file), "--out", str(out1)) == 0
        echo = json.loads((out1 / "config.json").read_text())["add/agn"]
        assert echo["seed"] == 9 and echo["epochs"] == 2

        out2 = tmp_path / "o2"
        assert run_cli("synthetic", "--task", "add", "--model", "agn",
                       "--config", str(cfg_file), "--seed", "4",
                       "--epochs", "1", "--out", str(out2)) == 0
        echo = json.loads((out2 / "config.json").read_text())["add/agn"]
        assert echo["seed"] == 4 and echo["epochs"] == 1

    def test_unknown_config_key_rejected(self, tmp_path):
        cfg_file = tmp_path / "c.json"
        cfg_file.write_text(json.dumps({"licorice": 3}))
        assert run_cli("synthetic", "--task", "add", "--model", "agn",
                       "--config", str(cfg_file)) == 2

    @pytest.mark.parametrize("body,why", [
        ("{not json", "is not valid JSON"),
        ("[1, 2]", "must hold a JSON object, not list"),
        ('{"epochs": "3"}', "epochs must be int, got str"),
        ('{"epochs": true}', "epochs must be int, got bool"),
        ('{"lr": 0}', "lr must be > 0"),
        ('{"hidden_dim": 0}', "hidden_dim must be >= 1"),
    ])
    def test_bad_config_file_exits_2(self, tmp_path, capsys, body, why):
        cfg_file = tmp_path / "c.json"
        cfg_file.write_text(body)
        assert run_cli("synthetic", "--task", "add", "--model", "agn",
                       "--config", str(cfg_file), "--out", str(tmp_path / "o")) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and why in err
        assert not (tmp_path / "o").exists()

    def test_config_directory_exits_2(self, tmp_path, capsys):
        cfg_dir = tmp_path / "c.json"
        cfg_dir.mkdir()
        assert run_cli("synthetic", "--task", "add", "--model", "agn",
                       "--config", str(cfg_dir), "--out", str(tmp_path / "o")) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot read config file") and "directory" in err
        assert not (tmp_path / "o").exists()


class TestSearch:
    def test_tiny_search(self, tmp_path):
        out = tmp_path / "s"
        code = run_cli("search", "--task", "add", "--model", "agn",
                       "--trials", "2", "--epochs", "2", "--seed", "5",
                       "--out", str(out))
        assert code == 0
        best = json.loads((out / "best_config.json").read_text())
        assert best["model"] == "agn"
        lines = (out / "trials.csv").read_text().strip().splitlines()
        assert len(lines) == 3  # header + two trials


class TestClassifyPoly:
    def test_bilinear_half(self, capsys):
        assert run_cli("classify-poly", "--coeffs", "0,1;1,0.5") == 0
        assert "Bilinear beta=1 gamma=0.5" in capsys.readouterr().out

    def test_constant(self, capsys):
        assert run_cli("classify-poly", "--coeffs", "5") == 0
        assert "Constant alpha=5" in capsys.readouterr().out

    def test_squares_not_associative(self, capsys):
        assert run_cli("classify-poly", "--coeffs", "0,0,1;0,0,0;1,0,0") == 0
        assert "NotAssociative witness=" in capsys.readouterr().out

    def test_asymmetric_exits_2(self):
        assert run_cli("classify-poly", "--coeffs", "0,1;0,0") == 2


@pytest.fixture(scope="module")
def analogy_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("analogy")
    table, relations, _ = build_synthetic_analogy_corpus(
        3, 10, d=4, seed=13, subnet_scale=0.8)
    emb = root / "emb.txt"
    lines = [f"{len(table)} {table.dim}"]
    for tok, row in zip(table.vocab, table.matrix):
        lines.append(tok + " " + " ".join(repr(float(v)) for v in row))
    emb.write_text("\n".join(lines) + "\n")
    rel_dir = root / "rels"
    rel_dir.mkdir()
    for cat, pairs in relations.items():
        body = "".join(f"{w1}\t{'/'.join(alts)}\n" for w1, alts in pairs)
        (rel_dir / f"{cat}.tsv").write_text(body)
    return emb, rel_dir


class TestAnalogy:
    def test_eval_wv(self, analogy_files, tmp_path, capsys):
        emb, rels = analogy_files
        out = tmp_path / "eval"
        code = run_cli("analogy-eval", "--embeddings", str(emb),
                       "--relations", str(rels), "--kind", "wv",
                       "--seed", "2", "--out", str(out))
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert 0.0 <= report["accuracy"] <= 1.0
        assert "accuracy" in capsys.readouterr().out

    def test_exclude_abc_flag_changes_pool(self, analogy_files, tmp_path):
        emb, rels = analogy_files
        reports = {}
        for flag in (False, True):
            out = tmp_path / f"e{flag}"
            argv = ["analogy-eval", "--embeddings", str(emb), "--relations",
                    str(rels), "--kind", "wv", "--seed", "2", "--out", str(out)]
            if flag:
                argv.append("--exclude-abc")
            assert run_cli(*argv) == 0
            reports[flag] = json.loads((out / "report.json").read_text())
        assert reports[True]["exclude_abc"] is True
        assert reports[False]["exclude_abc"] is False

    def test_train_then_eval_roundtrip(self, analogy_files, tmp_path):
        emb, rels = analogy_files
        out = tmp_path / "t"
        code = run_cli("analogy-train", "--embeddings", str(emb),
                       "--relations", str(rels), "--kind", "agn",
                       "--seed", "2", "--epochs", "2", "--layers", "2",
                       "--hidden-dim", "8", "--out", str(out))
        assert code == 0
        assert (out / "model.abnn").exists()
        out2 = tmp_path / "e"
        code = run_cli("analogy-eval", "--embeddings", str(emb),
                       "--relations", str(rels), "--kind", "agn",
                       "--model", str(out / "model.abnn"),
                       "--seed", "2", "--out", str(out2))
        assert code == 0

    def test_missing_embeddings_exits_2(self, analogy_files):
        _, rels = analogy_files
        assert run_cli("analogy-eval", "--embeddings", "/nope.txt",
                       "--relations", str(rels), "--kind", "wv") == 2

    @pytest.mark.parametrize("case", ["kind-not-utf8", "kind-mismatch", "directory"])
    def test_checkpoint_that_does_not_load_exits_2(self, analogy_files, tmp_path,
                                                   capsys, case):
        emb, rels = analogy_files
        path = tmp_path / "model.abnn"
        if case == "directory":
            path.mkdir()
        else:
            save_checkpoint(AbelianOp(MonotonicNet.initialized(2, 2, np.random.default_rng(0)),
                                      "sum"), path)
            if case == "kind-not-utf8":  # b"agn-mono" -> 8 bytes of 0xff, CRC redone
                data = path.read_bytes().replace(b"agn-mono", b"\xff" * 8)[:-4]
                path.write_bytes(data + struct.pack("<I", zlib.crc32(data)))
        code = run_cli("analogy-eval", "--embeddings", str(emb), "--relations", str(rels),
                       "--kind", "agn", "--model", str(path))
        assert code == 2
        assert f"error: cannot load checkpoint {path}" in capsys.readouterr().err

    def test_parse_error_exits_1(self, analogy_files, tmp_path, capsys):
        _, rels = analogy_files
        bad = tmp_path / "bad.txt"
        bad.write_text("2 2\na 1 0\nb 1\n")
        code = run_cli("analogy-eval", "--embeddings", str(bad),
                       "--relations", str(rels), "--kind", "wv")
        assert code == 1
        assert "line 3" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ("analogy-eval", "--kind", "wv"),
        ("analogy-train", "--kind", "agn", "--epochs", "1", "--normalize"),
    ])
    def test_non_finite_embedding_exits_1(self, analogy_files, tmp_path, capsys, argv):
        _, rels = analogy_files
        bad = tmp_path / "bad.txt"
        bad.write_text("2 2\na 1 0\nb nan 1\n")
        code = run_cli(*argv, "--embeddings", str(bad), "--relations", str(rels),
                       "--out", str(tmp_path / "out"))
        assert code == 1
        assert "error: line 3: non-finite value" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_bad_config_seed_exits_2(self, analogy_files, tmp_path, capsys):
        emb, rels = analogy_files
        cfg_file = tmp_path / "c.json"
        cfg_file.write_text('{"seed": "2"}')
        assert run_cli("analogy-eval", "--embeddings", str(emb), "--relations",
                       str(rels), "--kind", "wv", "--config", str(cfg_file)) == 2
        assert "error: invalid config: seed must be int" in capsys.readouterr().err

    def test_wv_train_rejected(self, analogy_files):
        emb, rels = analogy_files
        assert run_cli("analogy-train", "--embeddings", str(emb),
                       "--relations", str(rels), "--kind", "wv") == 2


class TestBound:
    def test_prints_value(self, capsys):
        assert run_cli("bound", "--epsilon", "0.1", "--a", "2", "--b", "4",
                       "--k1", "1", "--k2", "1") == 0
        assert float(capsys.readouterr().out.strip()) == pytest.approx(0.3)

    def test_bad_inputs_exit_2(self):
        assert run_cli("bound", "--epsilon", "0.1", "--a", "1", "--b", "4",
                       "--k1", "1", "--k2", "1") == 2
