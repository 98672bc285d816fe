"""Command surface: exit codes, artifacts, config echo, reruns."""

import csv
import dataclasses
import json
import math
import os
import shutil

import numpy as np
import pytest

from conftest import bundled_corpus_path, per_head_names, synthesize_corpus
from linesift import checkpoint, parallel, pretrain
from linesift.cli import main
from linesift.corpus import SplitSpec, load_corpus, save_corpus, split
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


def blanked(sample):
    """``sample`` with every line of its code blank, which ``encode`` refuses."""
    return dataclasses.replace(sample, code="\n" * (sample.line_count() - 1))


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
    ("finetune", "--early-stop", "0"), ("finetune", "--early-stop", "-1"),
    ("pretrain", "--checkpoint-every", "-2"),
    ("finetune", "--lr", "nan"), ("finetune", "--lr", "0"), ("finetune", "--lr", "-1e-3"),
    ("finetune", "--lr", "inf"), ("pretrain", "--lr", "nan"), ("pretrain", "--lr", "0"),
    ("finetune", "--lambda-fine", "nan"), ("finetune", "--lambda-fine", "-0.5"),
    ("finetune", "--lambda-fine", "inf"), ("finetune", "--threshold", "nan"),
    ("finetune", "--threshold", "-0.1"), ("finetune", "--threshold", "1.5"),
    ("pretrain", "--vocab-size", "6"), ("finetune", "--vocab-size", "3"),
    ("stats", "--vocab-size", "-1"), ("pretrain", "--min-freq", "0"),
    ("finetune", "--min-freq", "-4"), ("stats", "--min-freq", "0"),
    ("finetune", "--split", "nan,0.5,0.5"), ("finetune", "--split", "0.8,0.1,nan"),
    ("finetune", "--split", "0.5,0.5"), ("evaluate", "--split", "-0.1,0.6,0.5"),
    ("evaluate", "--split", "0.6,-0.1,0.5"), ("explain", "--k", "10,20"),
    ("pretrain", "--seed", "-1"), ("finetune", "--seed", "-1"), ("evaluate", "--seed", "-1"),
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


@pytest.mark.parametrize("command, flag, value, reason", [
    ("evaluate", "--split", "-0.1,0.6,0.5", "must be a finite number at least 0, got -0.1"),
    ("finetune", "--class-weights", "-1,2", "must be a finite number above 0, got -1"),
    ("evaluate", "--k", "-5,10", "must be a finite number above 0 and at most 100, got -5"),
])
def test_comma_list_starting_with_minus_reaches_the_range_check(tmp_path, capsys, command,
                                                                flag, value, reason):
    missing = str(tmp_path / "missing")
    argv = [command, "--corpus", missing, "--out", str(tmp_path / "o"), flag, value]
    if command == "evaluate":
        argv += ["--checkpoint", missing]
    assert main(argv) == 2
    assert capsys.readouterr().err.strip().splitlines()[-1].endswith(f"{flag}: {reason}")


def test_unknown_option_is_still_refused(tmp_path, capsys):
    argv = ["stats", "--corpus", str(tmp_path / "missing"), "--out", str(tmp_path / "o")]
    assert main([*argv, "--nosuch"]) == 2
    assert capsys.readouterr().err.strip().splitlines()[-1].endswith(
        "unrecognized arguments: --nosuch")
    assert main([*argv, "--nosuch", "-1"]) == 2
    assert "unrecognized arguments: --nosuch -1" in capsys.readouterr().err


def test_smallest_vocab_flags_are_accepted(tmp_path, corpus_path):
    out = tmp_path / "o"
    assert main(["stats", "--corpus", corpus_path, "--out", str(out),
                 "--vocab-size", "7", "--min-freq", "1"]) == 0
    assert json.loads((out / "stats.json").read_text())["vocab_size"] == 7


@pytest.mark.parametrize("command, flag", [("stats", "--corpus"), ("convert", "--csv")])
def test_input_path_that_is_a_directory_exits_2(tmp_path, capsys, command, flag):
    assert main([command, flag, str(tmp_path), "--out", str(tmp_path / "o")]) == 2
    assert str(tmp_path) in capsys.readouterr().err


@pytest.mark.parametrize("under", [False, True], ids=["file", "under_file"])
def test_out_that_is_or_lies_under_a_file_exits_2(tmp_path, corpus_path, capsys, under):
    afile = tmp_path / "afile"
    afile.write_bytes(b"kept\n")
    out = afile / "sub" if under else afile
    assert main(["stats", "--corpus", corpus_path, "--out", str(out)]) == 2
    assert f"--out {out} " in capsys.readouterr().err
    assert afile.read_bytes() == b"kept\n"


def refusal(row, tmp_path, out, corpus_path, finetuned):
    """The argv, but for ``--out``, of the last refusal the command of
    ``row`` can raise before it writes, and a piece of its message. Inputs
    are made under ``tmp_path``; a resume's run is ``finetuned``, copied to
    ``out``."""
    best = os.path.join(finetuned, "best")
    if row == "convert":
        (tmp_path / "in.csv").write_text("processed_func,target\na,0\nb,abc\n")
        return ["convert", "--csv", str(tmp_path / "in.csv")], "row 3: bad cell"
    if row in ("stats", "pretrain"):
        samples = synthesize_corpus(4, seed=3)
        samples = samples + samples[:1] if row == "stats" else list(map(blanked, samples))
        save_corpus(samples, str(tmp_path / "c.jsonl"))
        argv = [row, "--corpus", str(tmp_path / "c.jsonl"), "--vocab-size", "512"]
        return argv, "line 5: id" if row == "stats" else "no encodable samples"
    if row == "evaluate":
        return (["evaluate", "--corpus", corpus_path, "--checkpoint", best,
                 "--split", "1,0,0"], "selected split 'test' is empty")
    if row == "explain":
        return (["explain", "--corpus", corpus_path, "--checkpoint", best, "--id", "nosuch"],
                "sample id 'nosuch' not found")
    shutil.copytree(finetuned, out, dirs_exist_ok=True)
    if row == "resume_history":
        with open(out / "eval.csv", "a") as fh:
            fh.write("8,high\n")
        named = f"{out / 'eval.csv'} is not a"
    else:
        arrays = checkpoint.load_tensors(str(out / "last"))
        del arrays["opt.v.se.layer1.wo"]
        checkpoint.save_tensors(str(out / "last"), arrays)
        named = "'opt.v.se.layer1.wo'"
    return (["finetune", "--corpus", corpus_path, "--epochs", "9", "--batch", "6",
             "--lr", "3e-3", "--seed", "1", "--split", "0.6,0.2,0.2",
             "--vocab-size", "512", "--resume"], named)


def tree(root):
    """Every path under ``root``, with the bytes of each file."""
    return {path: path.read_bytes() if path.is_file() else None for path in root.rglob("*")}


@pytest.mark.parametrize("row, form", [
    *((row, form) for row in ("convert", "stats", "pretrain", "evaluate", "explain")
      for form in ("absent", "present")),
    # a resume reads its run from --out, which must then be there
    ("resume_history", "present"), ("resume_moment", "present"),
])
def test_refused_command_writes_nothing(tmp_path, corpus_path, finetuned, capsys, row, form):
    ancestor = tmp_path / "missing"
    out = ancestor / "out" if form == "absent" else tmp_path / "out"
    if form == "present":
        out.mkdir()
        (out / "run_config.json").write_bytes(b'{"seed": 7}\n')
        (out / "notes.txt").write_bytes(b"kept\n")
    argv, message = refusal(row, tmp_path, out, corpus_path, finetuned)
    before = tree(tmp_path)
    assert main([*argv, "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert tree(tmp_path) == before
    assert form == "present" or not ancestor.exists()


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

    @pytest.mark.parametrize("column, cell", [("target", "abc"), ("flaw_line_index", "x"),
                                              ("flaw_line_index", "1.5")])
    def test_malformed_cell_exits_2_naming_the_row(self, tmp_path, capsys, column, cell):
        csv_path = tmp_path / "in.csv"
        rows = [{"processed_func": "a\nb", "target": "1", "flaw_line_index": "0"}] * 2
        rows[1] = {**rows[1], column: cell}
        with open(csv_path, "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
            writer.writeheader()
            writer.writerows(rows)
        code = main(["convert", "--csv", str(csv_path), "--out", str(tmp_path / "o")])
        assert code == 2
        assert "row 3" in capsys.readouterr().err

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

    def test_divergence_keeps_the_loss_history_of_the_checkpoint(self, tmp_path,
                                                                 corpus_path, monkeypatch):
        backward_sum = pretrain.backward_sum
        calls = []

        def nan_on_third_step(losses):
            calls.append(None)
            value = backward_sum(losses)
            return math.nan if len(calls) == 3 else value

        monkeypatch.setattr(pretrain, "backward_sum", nan_on_third_step)
        out = tmp_path / "pt"
        assert main(["pretrain", "--corpus", corpus_path, "--out", str(out),
                     "--steps", "5", "--batch", "2", "--checkpoint-every", "2",
                     "--vocab-size", "512"]) == 1
        assert load_bundle(str(out / "checkpoint"))[3]["step"] == 2
        with open(out / "loss.csv", newline="") as fh:
            assert [r["step"] for r in csv.DictReader(fh)] == ["1", "2"]

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

    def test_resume_after_a_kill_matches_uninterrupted(self, tmp_path, corpus_path):
        self._check_resume(tmp_path, corpus_path, kill=True)

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

    def test_resume_drops_history_rows_past_last(self, tmp_path, corpus_path):
        def stopped_before_last(parted):
            # an epoch writes loss.csv and eval.csv before last/, so a run
            # stopped in between leaves rows of an epoch that last/ lacks
            for name, row in (("loss.csv", "2,0,0.5\n"), ("eval.csv", "2,0.5\n")):
                with open(parted / name, "a") as fh:
                    fh.write(row)
        self._check_resume(tmp_path, corpus_path, stopped_before_last)

    def test_resume_without_best_exits_2(self, tmp_path, corpus_path, capsys):
        args = ["--corpus", corpus_path, "--out", str(tmp_path), "--batch", "6",
                "--seed", "1", "--split", "0.6,0.2,0.2", "--vocab-size", "512"]
        assert main(["finetune", *args, "--epochs", "2"]) == 0
        shutil.rmtree(tmp_path / "best")
        weights = (tmp_path / "last" / "weights.bin").read_bytes()
        assert main(["finetune", *args, "--epochs", "4", "--resume"]) == 2
        assert str(tmp_path / "best") in capsys.readouterr().err
        assert (tmp_path / "last" / "weights.bin").read_bytes() == weights

    def test_run_without_evaluation_split_resumes_after_a_kill(self, tmp_path, corpus_path):
        self._check_resume_without_best(tmp_path, corpus_path, "1,0,0")

    def test_run_that_encodes_no_evaluation_sample_resumes_after_a_kill(self, tmp_path):
        # its evaluation split is not empty, but it evaluates nothing either
        samples = load_corpus(bundled_corpus_path())
        blank = {s.id for s in split(samples, SplitSpec(0.6, 0.2, 0.2, seed=1))[1]}
        assert blank
        corpus = tmp_path / "corpus.jsonl"
        save_corpus([blanked(s) if s.id in blank else s for s in samples], str(corpus))
        self._check_resume_without_best(tmp_path, str(corpus), "0.6,0.2,0.2")

    @staticmethod
    def _check_resume_without_best(tmp_path, corpus_path, fractions):
        # a run that evaluates nothing writes best/ only after its final
        # epoch, so a kill leaves none, and its resume must go on without it
        args = ["--corpus", corpus_path, "--batch", "6", "--seed", "1",
                "--split", fractions, "--vocab-size", "512", "--epochs", "3"]
        full, parted = tmp_path / "full", tmp_path / "parted"
        assert main(["finetune", *args, "--out", str(full)]) == 0
        with open(full / "loss.csv", newline="") as fh:
            one_epoch = sum(r["epoch"] == "0" for r in csv.DictReader(fh))
        adamw_step = pretrain.adamw_step

        def killed(params, opt):  # in the first step of the second epoch
            if opt.t == one_epoch:
                raise RuntimeError("killed")
            adamw_step(params, opt)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(pretrain, "adamw_step", killed)
            assert main(["finetune", *args, "--out", str(parted)]) == 1
        assert (parted / "last").is_dir() and not (parted / "best").exists()
        assert main(["finetune", *args, "--out", str(parted), "--resume"]) == 0
        for name in ("loss.csv", "eval.csv", "metrics.json",
                     *(f"{d}/{f}" for d in ("best", "last") for f in os.listdir(full / d))):
            assert (parted / name).read_bytes() == (full / name).read_bytes(), name

    @pytest.mark.parametrize("before", [b'{"epochs": 1}\n', None], ids=["echo", "no_echo"])
    def test_refused_command_leaves_run_config_as_it_was(self, tmp_path, corpus_path,
                                                         capsys, before):
        echo = tmp_path / "run_config.json"
        if before is not None:
            echo.write_bytes(before)
        assert main(["finetune", "--corpus", corpus_path, "--out", str(tmp_path),
                     "--epochs", "3", "--resume"]) == 2
        assert str(tmp_path / "last") in capsys.readouterr().err
        assert (echo.read_bytes() if echo.exists() else None) == before

    def test_refused_command_removes_the_out_it_made(self, tmp_path, corpus_path):
        out = tmp_path / "newout"
        assert main(["evaluate", "--corpus", corpus_path, "--checkpoint",
                     str(tmp_path / "nosuch"), "--out", str(out)]) == 2
        assert not out.exists()
        out.mkdir()  # one that was there stays, empty or not
        assert main(["evaluate", "--corpus", corpus_path, "--checkpoint",
                     str(tmp_path / "nosuch"), "--out", str(out)]) == 2
        assert out.is_dir() and not any(out.iterdir())

    def test_refused_command_removes_the_out_ancestors_it_made(self, tmp_path, corpus_path):
        args = ["evaluate", "--corpus", corpus_path, "--checkpoint", str(tmp_path / "nosuch")]
        assert main([*args, "--out", str(tmp_path / "x" / "new" / "a")]) == 2
        assert list(tmp_path.iterdir()) == []
        (tmp_path / "x").mkdir()  # an ancestor that was there stays
        assert main([*args, "--out", str(tmp_path / "x" / "new" / "a")]) == 2
        assert list(tmp_path.iterdir()) == [tmp_path / "x"]
        assert list((tmp_path / "x").iterdir()) == []
        (tmp_path / "x" / "new" / "b").mkdir(parents=True)  # so does one not empty
        assert main([*args, "--out", str(tmp_path / "x" / "new" / "a")]) == 2
        assert list((tmp_path / "x" / "new").iterdir()) == [tmp_path / "x" / "new" / "b"]
        # makedirs makes "y" for "y/..", which the lexical parents pass
        assert main([*args, "--out", str(tmp_path / "y" / ".." / "z" / "a")]) == 2
        assert list(tmp_path.iterdir()) == [tmp_path / "x"]

    @pytest.mark.parametrize("key, value", [
        ("opt_t", None), ("epoch", None), ("epoch", -1), ("opt_t", -3),
    ], ids=["no_opt_t", "no_epoch", "negative_epoch", "negative_opt_t"])
    def test_resume_with_bad_counter_exits_2(self, finetuned, corpus_path, tmp_path,
                                             capsys, key, value):
        out = tmp_path / "ft"
        shutil.copytree(finetuned, out)
        config = out / "last" / "config.json"
        payload = json.loads(config.read_text())
        if value is None:
            del payload["meta"][key]
        else:
            payload["meta"][key] = value
        config.write_text(json.dumps(payload))
        weights = (out / "last" / "weights.bin").read_bytes()
        code = main(["finetune", "--corpus", corpus_path, "--out", str(out),
                     "--epochs", "9", "--batch", "6", "--lr", "3e-3", "--seed", "1",
                     "--split", "0.6,0.2,0.2", "--vocab-size", "512", "--resume"])
        assert code == 2
        assert f"meta {key} " in capsys.readouterr().err
        assert (out / "last" / "weights.bin").read_bytes() == weights

    @pytest.mark.parametrize("name, edit", [
        ("loss.csv", lambda text: text.replace("loss", "nll", 1)),
        ("loss.csv", lambda text: text + "8,0\n"),
        ("eval.csv", lambda text: text + "8,high\n"),
    ], ids=["header", "short_row", "not_a_number"])
    def test_resume_with_bad_history_exits_2(self, finetuned, corpus_path, tmp_path,
                                             capsys, name, edit):
        out = tmp_path / "ft"
        shutil.copytree(finetuned, out)
        (out / name).write_text(edit((out / name).read_text()))
        code = main(["finetune", "--corpus", corpus_path, "--out", str(out),
                     "--epochs", "9", "--batch", "6", "--lr", "3e-3", "--seed", "1",
                     "--split", "0.6,0.2,0.2", "--vocab-size", "512", "--resume"])
        assert code == 2
        assert f"{out / name} is not a" in capsys.readouterr().err

    def _check_resume(self, tmp_path, corpus_path, edit_last=None, kill=False):
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
        if kill:
            # a 4-epoch run whose first step of the third epoch raises, as a
            # kill there would stop it
            with open(full / "loss.csv", newline="") as fh:
                two_epochs = sum(int(r["epoch"]) < 2 for r in csv.DictReader(fh))
            adamw_step = pretrain.adamw_step

            def killed(params, opt):
                if opt.t == two_epochs:
                    raise RuntimeError("killed")
                adamw_step(params, opt)

            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(pretrain, "adamw_step", killed)
                assert main(["finetune", *args, "--out", str(parted),
                             "--epochs", "4"]) == 1
        else:
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
        # the histories from before the resume are kept
        for name in ("loss.csv", "eval.csv"):
            assert (parted / name).read_bytes() == (full / name).read_bytes(), name

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

    @pytest.mark.parametrize("corrupt", ["drop_m_len", "mean_pool", "bad_json",
                                         "zero_heads", "negative_layers", "one_layer",
                                         "float_hidden", "float_layers",
                                         "float_vocab_size", "bool_m_len", "list_meta",
                                         "string_threshold", "nan_threshold",
                                         "fractional_epoch"])
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
        elif corrupt == "zero_heads":
            payload["model"]["encoder"]["heads"] = 0
        elif corrupt == "negative_layers":
            payload["model"]["encoder"]["layers"] = -1
        elif corrupt == "one_layer":  # a well-formed config that drops a stored layer
            assert payload["model"]["encoder"]["layers"] == 2
            payload["model"]["encoder"]["layers"] = 1
        elif corrupt.startswith("float_"):
            key = corrupt[len("float_"):]
            payload["model"]["encoder"][key] = float(payload["model"]["encoder"][key])
        elif corrupt == "bool_m_len":
            payload["model"]["m_len"] = True
        elif corrupt == "list_meta":
            payload["meta"] = []
        elif corrupt == "string_threshold":
            payload["meta"]["threshold"] = "abc"
        elif corrupt == "nan_threshold":
            payload["meta"]["threshold"] = math.nan
        elif corrupt == "fractional_epoch":
            payload["meta"]["epoch"] = 1.5
        text = "{not json" if corrupt == "bad_json" else json.dumps(payload)
        config_path.write_text(text)
        code = main(["evaluate", "--corpus", corpus_path,
                     "--checkpoint", str(bundle), "--out", str(tmp_path / "ev")])
        assert code == 2
        named = "'se.layer1." if corrupt == "one_layer" else str(config_path)
        assert named in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["evaluate", "explain"])
    @pytest.mark.parametrize("change", ["longer", "shorter"])
    def test_vocabulary_of_another_size_exits_2(self, finetuned, corpus_path, tmp_path,
                                                capsys, command, change):
        bundle = tmp_path / "bundle"
        shutil.copytree(os.path.join(finetuned, "best"), bundle)
        vocab_path = bundle / "vocab.txt"
        tokens = vocab_path.read_text().split("\n")[:-1]
        tokens = tokens + ["extra_a", "extra_b"] if change == "longer" else tokens[:-1]
        vocab_path.write_text("\n".join(tokens) + "\n")
        argv = [command, "--corpus", corpus_path, "--checkpoint", str(bundle),
                "--out", str(tmp_path / "o")]
        if command == "explain":
            argv += ["--id", load_corpus(corpus_path)[0].id]
        assert main(argv) == 2
        assert str(vocab_path) in capsys.readouterr().err

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

    @pytest.mark.parametrize("name", ["manifest.txt", "vocab.txt", "weights.bin"],
                             ids=["non_utf8_manifest", "non_utf8_vocab", "directory_blob"])
    def test_unreadable_bundle_file_exits_2(self, finetuned, corpus_path, tmp_path,
                                            capsys, name):
        bundle = tmp_path / "bundle"
        shutil.copytree(os.path.join(finetuned, "best"), bundle)
        path = bundle / name
        if name == "weights.bin":
            path.unlink()
            path.mkdir()
        else:  # a byte that is not UTF-8 opens the first line
            path.write_bytes(b"\xff" + path.read_bytes())
        code = main(["evaluate", "--corpus", corpus_path,
                     "--checkpoint", str(bundle), "--out", str(tmp_path / "ev")])
        assert code == 2
        err = capsys.readouterr().err
        assert str(path) in err and "Traceback" not in err
        if name == "manifest.txt":
            assert f"{path} line 1:" in err

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

    def test_same_bytes_for_one_and_two_cores(self, finetuned, corpus_path, tmp_path,
                                              monkeypatch):
        written = []
        for cores in (1, 2):
            monkeypatch.setattr(parallel, "usable_cores", lambda cores=cores: cores)
            out = tmp_path / f"cores{cores}"
            assert main(["evaluate", "--corpus", corpus_path, "--checkpoint",
                         os.path.join(finetuned, "best"), "--out", str(out),
                         "--split-part", "all"]) == 0
            written.append({name: (out / name).read_bytes() for name in
                            ("predictions.jsonl", "metrics.json", "topk.csv")})
        assert written[0] == written[1]

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
