"""Command surface: exit codes, artifacts, config echo, reruns."""

import csv
import json
import math
import os
import shutil

import numpy as np
import pytest

from conftest import per_head_names
from linesift import checkpoint
from linesift.cli import main
from linesift.corpus import bundled_corpus_path, load_corpus, synthesize_corpus, save_corpus
from linesift.model import HierarchicalModel, load_bundle


@pytest.fixture(scope="module")
def corpus_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("corpus") / "tiny.jsonl"
    save_corpus(synthesize_corpus(24, seed=3), str(path))
    return str(path)


@pytest.fixture(scope="module")
def finetuned(tmp_path_factory, corpus_path):
    """A quick fine-tuned checkpoint shared by evaluate/explain tests."""
    out = tmp_path_factory.mktemp("ft")
    code = main([
        "finetune", "--corpus", corpus_path, "--out", str(out),
        "--epochs", "8", "--batch", "6", "--lr", "3e-3", "--seed", "1",
        "--split", "0.6,0.2,0.2", "--vocab-size", "512",
    ])
    assert code == 0
    return str(out)


def add_zero_dropout(bundle):
    """Give a bundle's encoder config the key that bundles written while
    the encoder had a dropout option carry."""
    path = bundle / "config.json"
    payload = json.loads(path.read_text())
    assert "dropout" not in payload["model"]["encoder"]
    payload["model"]["encoder"]["dropout"] = 0.0
    path.write_text(json.dumps(payload))


@pytest.mark.parametrize("command, flag, value", [
    ("evaluate", "--k", "0"), ("evaluate", "--k", "150"), ("evaluate", "--k", "-5"),
    ("evaluate", "--k", "nan"), ("evaluate", "--k", "2,inf"), ("explain", "--k", "0"),
    ("finetune", "--batch", "0"), ("finetune", "--epochs", "0"),
    ("finetune", "--class-weights", "1"), ("finetune", "--class-weights", "a,b"),
    ("finetune", "--class-weights", "1,2,3"), ("finetune", "--class-weights", "1,0"),
    ("finetune", "--class-weights", "1,nan"), ("pretrain", "--batch", "0"),
    ("pretrain", "--steps", "-3"), ("pretrain", "--mlm-steps", "-1"),
])
def test_bad_numeric_flag_exits_2_before_any_input_is_read(tmp_path, capsys,
                                                           command, flag, value):
    missing = str(tmp_path / "missing")  # reading it would fail with another message
    argv = [command, "--corpus", missing, "--out", str(tmp_path / "o"), flag, value]
    if command in ("evaluate", "explain"):
        argv += ["--checkpoint", missing]
    if command == "explain":
        argv += ["--id", "x"]
    assert main(argv) == 2
    assert flag in capsys.readouterr().err.strip().splitlines()[-1]


class TestConvert:
    def test_convert_then_load(self, tmp_path):
        csv_path = tmp_path / "in.csv"
        with open(csv_path, "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=[
                "processed_func", "target", "flaw_line_index", "CWE ID"])
            writer.writeheader()
            writer.writerow({"processed_func": "int f ( ) {\nx = 1 ;\n}",
                             "target": "0", "flaw_line_index": "",
                             "CWE ID": ""})
        out = tmp_path / "out"
        assert main(["convert", "--csv", str(csv_path), "--out", str(out)]) == 0
        samples = load_corpus(str(out / "corpus.jsonl"))
        assert len(samples) == 1
        assert (out / "run_config.json").exists()

    def test_missing_csv(self, tmp_path):
        code = main(["convert", "--csv", str(tmp_path / "nope.csv"),
                     "--out", str(tmp_path / "o")])
        assert code == 2


class TestStats:
    def test_stats_artifacts(self, tmp_path, corpus_path):
        out = tmp_path / "stats"
        assert main(["stats", "--corpus", corpus_path, "--out", str(out)]) == 0
        stats = json.loads((out / "stats.json").read_text())
        assert stats["classes"]["total"] == 24
        assert {r["limit"] for r in stats["truncation"]} == {512, 1024, 2048}
        assert (out / "stats.txt").exists()


class TestPretrainCommand:
    def test_zero_step_schedule_keeps_model(self, tmp_path, corpus_path):
        out = tmp_path / "pt0"
        code = main([
            "pretrain", "--corpus", corpus_path, "--out", str(out),
            "--steps", "0", "--mlm-steps", "0", "--seed", "5",
            "--vocab-size", "512",
        ])
        assert code == 0
        config, arrays, vocab, meta = load_bundle(str(out / "checkpoint"))
        fresh = HierarchicalModel(config, seed=5)
        for name, p in fresh.parameters().items():
            assert np.array_equal(arrays[name], p.data)
        echoed = json.loads((out / "run_config.json").read_text())
        assert echoed["seed"] == 5 and echoed["m_len"] == 512

    def test_missing_corpus_exits_2(self, tmp_path):
        code = main(["pretrain", "--corpus", str(tmp_path / "missing.jsonl"),
                     "--out", str(tmp_path / "o"), "--steps", "1"])
        assert code == 2

    def test_init_from_continues_training(self, tmp_path, corpus_path):
        first = tmp_path / "p1"
        assert main(["pretrain", "--corpus", corpus_path, "--out", str(first),
                     "--steps", "3", "--batch", "2", "--seed", "4",
                     "--vocab-size", "512"]) == 0
        second = tmp_path / "p2"
        code = main([
            "pretrain", "--corpus", corpus_path, "--out", str(second),
            "--steps", "2", "--batch", "2", "--seed", "5",
            "--init-from", str(first / "checkpoint"), "--vocab-size", "512",
        ])
        assert code == 0
        _, arrays_a, _, _ = load_bundle(str(first / "checkpoint"))
        _, arrays_b, _, _ = load_bundle(str(second / "checkpoint"))
        assert set(arrays_a) == set(arrays_b)
        changed = [k for k in arrays_a
                   if not np.array_equal(arrays_a[k], arrays_b[k])]
        assert changed  # training moved on from the restored weights

    def test_init_from_missing_decoder_tensor_exits_2(self, tmp_path, corpus_path,
                                                       capsys):
        first = tmp_path / "p1"
        assert main(["pretrain", "--corpus", corpus_path, "--out", str(first),
                     "--steps", "0", "--vocab-size", "512"]) == 0
        bundle = str(first / "checkpoint")
        arrays = checkpoint.load_tensors(bundle)
        del arrays["decoder.proj_b"]
        checkpoint.save_tensors(bundle, arrays)
        code = main(["pretrain", "--corpus", corpus_path,
                     "--out", str(tmp_path / "p2"), "--steps", "1",
                     "--init-from", bundle])
        assert code == 2
        assert "'decoder.proj_b'" in capsys.readouterr().err

    @pytest.mark.parametrize("bad", ["0", "-3"])
    def test_max_decode_len_below_one_exits_2(self, tmp_path, corpus_path,
                                              capsys, bad):
        code = main(["pretrain", "--corpus", corpus_path,
                     "--out", str(tmp_path / "o"), "--steps", "1",
                     "--max-decode-len", bad])
        assert code == 2
        assert "--max-decode-len" in capsys.readouterr().err

    def test_bundled_corpus_short_run_reduces_loss(self, tmp_path):
        out = tmp_path / "pt"
        code = main([
            "pretrain", "--corpus", bundled_corpus_path(), "--out", str(out),
            "--steps", "12", "--batch", "4", "--lr", "3e-3", "--seed", "0",
            "--vocab-size", "512",
        ])
        assert code == 0
        with open(out / "loss.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 12
        assert all(r["phase"] == "msp" for r in rows)
        assert float(rows[-1]["loss"]) < float(rows[0]["loss"])


class TestFinetuneCommand:
    def test_invalid_m_len_exits_2(self, corpus_path, tmp_path):
        code = main(["finetune", "--corpus", corpus_path,
                     "--out", str(tmp_path / "o"), "--m-len", "777"])
        assert code == 2

    def test_malformed_split_exits_2(self, corpus_path, tmp_path):
        code = main(["finetune", "--corpus", corpus_path,
                     "--out", str(tmp_path / "o"), "--split", "a,b,c"])
        assert code == 2

    def test_artifacts(self, finetuned):
        assert os.path.isdir(os.path.join(finetuned, "best"))
        assert os.path.isdir(os.path.join(finetuned, "last"))
        metrics = json.loads(
            open(os.path.join(finetuned, "metrics.json")).read()
        )
        assert set(metrics) >= {"accuracy", "precision", "recall", "f1"}

    def test_resume_matches_uninterrupted(self, tmp_path, corpus_path):
        self._check_resume(tmp_path, corpus_path)

    def test_resume_from_per_head_last_matches_uninterrupted(self, tmp_path,
                                                             corpus_path):
        def per_head_last(parted):
            # rewrite last/ (weights and AdamW moments) as an older bundle
            last = str(parted / "last")
            arrays = checkpoint.load_tensors(last)
            assert "opt.m.te.layer0.wqkv" in arrays
            heads = load_bundle(last)[0].encoder.heads
            checkpoint.save_tensors(last, per_head_names(arrays, heads))
            manifest = (parted / "last" / "manifest.txt").read_text()
            assert "opt.v.se.layer1.head3.wv" in manifest

        self._check_resume(tmp_path, corpus_path, per_head_last)

    def test_resume_from_dropout_keyed_last_matches_uninterrupted(self, tmp_path,
                                                                  corpus_path):
        self._check_resume(tmp_path, corpus_path,
                           lambda parted: add_zero_dropout(parted / "last"))

    @pytest.mark.parametrize("edit, named", [
        ("misshape_m", "opt.m.te.layer0.wo"),
        ("drop_v", "opt.v.se.layer1.wo"),
        ("drop_m_and_v", "opt.m.se.layer1.wo"),
    ])
    def test_resume_with_bad_moment_exits_2(self, finetuned, corpus_path, tmp_path,
                                            capsys, edit, named):
        out = tmp_path / "ft"
        shutil.copytree(finetuned, out)
        last = str(out / "last")
        arrays = checkpoint.load_tensors(last)
        if edit == "misshape_m":
            arrays[named] = np.zeros((3, 3))
        else:
            del arrays["opt.v.se.layer1.wo"]
            if edit == "drop_m_and_v":
                del arrays["opt.m.se.layer1.wo"]
        checkpoint.save_tensors(last, arrays)
        code = main(["finetune", "--corpus", corpus_path, "--out", str(out),
                     "--epochs", "9", "--batch", "6", "--lr", "3e-3", "--seed", "1",
                     "--split", "0.6,0.2,0.2", "--vocab-size", "512", "--resume"])
        assert code == 2
        assert f"'{named}'" in capsys.readouterr().err

    def _check_resume(self, tmp_path, corpus_path, edit_last=None):
        # with this seed the best evaluation F1 comes in the first epoch, so
        # a resume that forgot it would pick a later one
        args = ["--corpus", corpus_path, "--batch", "6", "--lr", "3e-3",
                "--seed", "1", "--split", "0.7,0.15,0.15",
                "--vocab-size", "512"]
        full = tmp_path / "full"
        assert main(["finetune", *args, "--out", str(full),
                     "--epochs", "4"]) == 0
        assert json.loads((full / "metrics.json").read_text())["best_epoch"] < 2
        parted = tmp_path / "parted"
        assert main(["finetune", *args, "--out", str(parted),
                     "--epochs", "2"]) == 0
        if edit_last is not None:
            edit_last(parted)
        assert main(["finetune", *args, "--out", str(parted),
                     "--epochs", "4", "--resume"]) == 0

        def read_epoch(path, epoch):
            with open(path, newline="") as fh:
                return [r["loss"] for r in csv.DictReader(fh)
                        if r["epoch"] == str(epoch)]

        for epoch in (2, 3):
            full_losses = read_epoch(full / "loss.csv", epoch)
            resumed_losses = read_epoch(parted / "loss.csv", epoch)
            assert full_losses and full_losses == resumed_losses

        # the best epoch survives the resume: same best/ bundle, same report
        _, full_arrays, _, full_meta = load_bundle(str(full / "best"))
        _, parted_arrays, _, parted_meta = load_bundle(str(parted / "best"))
        assert parted_meta == full_meta
        assert parted_arrays.keys() == full_arrays.keys()
        for name, arr in full_arrays.items():
            assert np.array_equal(parted_arrays[name], arr), name
        full_metrics = json.loads((full / "metrics.json").read_text())
        parted_metrics = json.loads((parted / "metrics.json").read_text())
        assert parted_metrics["best_epoch"] == full_metrics["best_epoch"]

    def test_rerun_is_behavior_identical(self, tmp_path, corpus_path):
        outs = []
        for tag in ("a", "b"):
            out = tmp_path / tag
            assert main([
                "finetune", "--corpus", corpus_path, "--out", str(out),
                "--epochs", "2", "--batch", "6", "--seed", "9",
                "--vocab-size", "512",
            ]) == 0
            outs.append(out)
        assert (outs[0] / "loss.csv").read_text() == (outs[1] / "loss.csv").read_text()
        assert (outs[0] / "metrics.json").read_text() \
            == (outs[1] / "metrics.json").read_text()


class TestEvaluateCommand:
    def test_empty_split_exits_2(self, finetuned, corpus_path, tmp_path):
        code = main([
            "evaluate", "--corpus", corpus_path,
            "--checkpoint", os.path.join(finetuned, "best"),
            "--out", str(tmp_path / "ev"), "--split", "1.0,0.0,0.0",
        ])
        assert code == 2

    @pytest.mark.parametrize("corrupt", ["drop_m_len", "mean_pool", "bad_json"])
    def test_malformed_config_exits_2(self, finetuned, corpus_path, tmp_path,
                                      capsys, corrupt):
        bundle = tmp_path / "bundle"
        shutil.copytree(os.path.join(finetuned, "best"), bundle)
        config_path = bundle / "config.json"
        payload = json.loads(config_path.read_text())
        if corrupt == "drop_m_len":
            del payload["model"]["m_len"]
        elif corrupt == "mean_pool":
            payload["model"]["program_pool"] = "mean"
        text = "{not json" if corrupt == "bad_json" else json.dumps(payload)
        config_path.write_text(text)
        code = main(["evaluate", "--corpus", corpus_path,
                     "--checkpoint", str(bundle), "--out", str(tmp_path / "ev")])
        assert code == 2
        assert str(config_path) in capsys.readouterr().err

    @pytest.mark.parametrize("name, shape", [
        ("te.layer0.wo", None), ("heads.dnet_w2", None), ("heads.stmt_w2", (256, 3)),
    ], ids=["drop_wo", "drop_dnet_w2", "three_class_stmt_w2"])
    def test_missing_or_misshapen_tensor_exits_2(self, finetuned, corpus_path,
                                                 tmp_path, capsys, name, shape):
        bundle = tmp_path / "bundle"
        shutil.copytree(os.path.join(finetuned, "best"), bundle)
        arrays = checkpoint.load_tensors(str(bundle))
        if shape is None:
            del arrays[name]
        else:
            arrays[name] = np.zeros(shape)
        checkpoint.save_tensors(str(bundle), arrays)
        code = main(["evaluate", "--corpus", corpus_path,
                     "--checkpoint", str(bundle), "--out", str(tmp_path / "ev")])
        assert code == 2
        assert f"'{name}'" in capsys.readouterr().err

    @pytest.mark.parametrize("change", [-800, 8])
    def test_blob_length_mismatch_exits_2(self, finetuned, corpus_path, tmp_path,
                                          capsys, change):
        bundle = tmp_path / "bundle"
        shutil.copytree(os.path.join(finetuned, "best"), bundle)
        blob = bundle / "weights.bin"
        raw = blob.read_bytes()
        blob.write_bytes(raw[:change] if change < 0 else raw + bytes(change))
        code = main(["evaluate", "--corpus", corpus_path,
                     "--checkpoint", str(bundle), "--out", str(tmp_path / "ev")])
        assert code == 2
        assert str(blob) in capsys.readouterr().err

    def test_bundle_with_zero_dropout_predicts_identically(self, finetuned,
                                                           corpus_path, tmp_path):
        bundle = tmp_path / "bundle"
        shutil.copytree(os.path.join(finetuned, "best"), bundle)
        add_zero_dropout(bundle)
        predictions = []
        for tag, checkpoint_dir in (("now", os.path.join(finetuned, "best")),
                                    ("keyed", str(bundle))):
            out = tmp_path / tag
            assert main(["evaluate", "--corpus", corpus_path, "--checkpoint",
                         checkpoint_dir, "--out", str(out), "--split-part", "all"]) == 0
            predictions.append((out / "predictions.jsonl").read_bytes())
        assert predictions[0] == predictions[1]

    def test_checkpoint_without_heads_exits_2(self, corpus_path, tmp_path):
        pt = tmp_path / "pt"
        assert main(["pretrain", "--corpus", corpus_path, "--out", str(pt),
                     "--steps", "0", "--vocab-size", "512"]) == 0
        code = main([
            "evaluate", "--corpus", corpus_path,
            "--checkpoint", str(pt / "checkpoint"),
            "--out", str(tmp_path / "ev"),
        ])
        assert code == 2

    def test_metrics_match_recomputation_from_dump(self, finetuned, corpus_path,
                                                   tmp_path):
        out = tmp_path / "ev"
        code = main([
            "evaluate", "--corpus", corpus_path,
            "--checkpoint", os.path.join(finetuned, "best"),
            "--out", str(out), "--split", "0.6,0.2,0.2", "--seed", "1",
            "--split-part", "test", "--k", "10,20",
        ])
        assert code == 0
        reports = [json.loads(line) for line in
                   open(out / "predictions.jsonl")]
        summary = json.loads((out / "metrics.json").read_text())
        by_id = {s.id: s for s in load_corpus(corpus_path)}

        tp = fp = tn = fn = 0
        for rep in reports:
            truth = by_id[rep["id"]].label
            pred = rep["coarse_label"]
            tp += truth == 1 and pred == 1
            fp += truth == 0 and pred == 1
            tn += truth == 0 and pred == 0
            fn += truth == 1 and pred == 0
        assert summary["counts"] == {"tp": tp, "fp": fp, "tn": tn, "fn": fn}
        accuracy = (tp + tn) / len(reports)
        assert summary["accuracy"] == accuracy

        # recompute Top-10% from the dumped rankings
        hits = evaluated = 0
        for rep in reports:
            sample = by_id[rep["id"]]
            if sample.label != 1:
                continue
            truth_lines = set(sample.vul_lines) & set(rep["lines"])
            if not truth_lines:
                continue
            evaluated += 1
            count = max(1, math.ceil(0.10 * len(rep["lines"])))
            ranked = [s["line"] for s in rep["statements"]][:count]
            hits += bool(set(ranked) & truth_lines)
        expected = hits / evaluated if evaluated else 0.0
        assert summary["topk"]["10.0"]["accuracy"] == expected
        assert (out / "topk.csv").exists()

    def test_topk_filter_restricts_record_pool(self, finetuned, corpus_path,
                                               tmp_path):
        results = {}
        for variant in ("all", "coarse-correct"):
            out = tmp_path / variant
            assert main([
                "evaluate", "--corpus", corpus_path,
                "--checkpoint", os.path.join(finetuned, "best"),
                "--out", str(out), "--split", "0.6,0.2,0.2", "--seed", "1",
                "--split-part", "all", "--k", "10",
                "--topk-filter", variant,
            ]) == 0
            results[variant] = json.loads((out / "metrics.json").read_text())
        pool_all = results["all"]["topk"]["10.0"]
        pool_correct = results["coarse-correct"]["topk"]["10.0"]
        assert pool_correct["evaluated"] <= pool_all["evaluated"]
        # the filtered pool contains only coarse-positives, so every record
        # has a nonempty ranking and accuracy cannot be lower
        assert pool_correct["accuracy"] >= pool_all["accuracy"]


class TestExplainCommand:
    def test_unknown_id_exits_2(self, finetuned, corpus_path, tmp_path):
        code = main([
            "explain", "--corpus", corpus_path,
            "--checkpoint", os.path.join(finetuned, "best"),
            "--out", str(tmp_path / "ex"), "--id", "nope",
        ])
        assert code == 2

    def test_heatmap_row_count_and_gating(self, finetuned, corpus_path, tmp_path):
        from linesift.encoding import encode
        from linesift.cli import _load_model, _load_heads
        from linesift.finetune import predict

        model, vocab, arrays, meta = _load_model(os.path.join(finetuned, "best"))
        heads = _load_heads(model, arrays, meta)
        samples = load_corpus(corpus_path)
        for sample in samples:
            encoded = encode(sample, vocab, model.config.m_len)
            report = predict(encoded, model, heads)
            out = tmp_path / f"ex_{sample.id}"
            code = main([
                "explain", "--corpus", corpus_path,
                "--checkpoint", os.path.join(finetuned, "best"),
                "--out", str(out), "--id", sample.id,
            ])
            assert code == 0
            path = out / f"heatmap_{sample.id}.csv"
            text = path.read_text()
            if report.coarse_label == 0:
                assert text.startswith("# coarse-negative; ranking suppressed")
            body = [ln for ln in text.split("\n") if ln and not ln.startswith("#")]
            assert len(body) - 1 == encoded.L  # header + one row per line
