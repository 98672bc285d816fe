"""The three workloads: a set-up along the CLI's path, a closed timed loop,
and the checks on every output.

A workload is driven by one caller that issues its next operation only
after the previous one returned. An operation is one training step
(``finetune-512``, ``pretrain-1024``) or one ``predict`` call
(``predict-2048``). The training workloads repeat a fixed-step run (an
"episode": fresh model from the seed, then ``finetune_run`` or
``pretrain_run``), so every episode of a run does the same arithmetic and
must report the same losses bit for bit.

The library is reached through module attributes (``finetune.predict``,
not a copied reference), so that the tracer's wrappers are seen. README.md
says why each workload exists.
"""

from __future__ import annotations

import math
import os
import time
from dataclasses import dataclass, field

import numpy as np

import linesift.corpus as corpus
import linesift.encoding as encoding
import linesift.finetune as finetune
import linesift.model as model_mod
import linesift.pretrain as pretrain
import linesift.tensor as tensor
import linesift.transformer as transformer
from inputs import Spec, check_encoded, generate
from spans import replace_everywhere

PRESET = "desk-2x64x4"
VOCAB_MAX = 4096  # the CLI's --vocab-size default


@dataclass
class Phase:
    """What one timed loop did."""

    attempted: int = 0
    failed: int = 0
    tokens: int = 0
    elapsed_s: float = 0.0
    latencies: list[float] = field(default_factory=list)
    problems: list[str] = field(default_factory=list)
    # Fastest time seen, and its tokens, of each distinct piece of work that
    # passed its checks: a pool sample's predict call, or one step of an
    # episode (or the episode's tail after its last step).
    best: dict[str, tuple[float, int]] = field(default_factory=dict)

    def add(self, other: "Phase") -> None:
        for name in ("attempted", "failed", "tokens", "elapsed_s"):
            setattr(self, name, getattr(self, name) + getattr(other, name))
        self.latencies += other.latencies
        self.problems += other.problems
        for key, (seconds, tokens) in other.best.items():
            self.keep_best(key, seconds, tokens)

    def keep_best(self, key: str, seconds: float, tokens: int) -> None:
        if key not in self.best or seconds < self.best[key][0]:
            self.best[key] = (seconds, tokens)


class StepClock:
    """Marks the end of every training step by timing ``adamw_step`` returns.

    The library has no step hook, and the optimizer update is the one call
    made exactly once per step, so its return is the step boundary.
    """

    def __init__(self):
        self.stamps: list[float] = []
        original, stamps = tensor.adamw_step, self.stamps

        def adamw_step(params, state):
            original(params, state)
            stamps.append(time.perf_counter())

        self._original, self._wrapper = original, adamw_step

    def install(self) -> None:
        replace_everywhere(self._original, self._wrapper)

    def uninstall(self) -> None:
        replace_everywhere(self._wrapper, self._original)


def _corpus_round_trip(samples, out: str):
    """save_corpus then load_corpus, as every CLI command starts from a file."""
    path = os.path.join(out, "corpus.jsonl")
    corpus.save_corpus(samples, path)
    return corpus.load_corpus(path)


def _model_config(vocab_size: int, m_len: int, t2s: str):
    enc = transformer.preset_config(PRESET, vocab_size=vocab_size)
    return model_mod.ModelConfig(encoder=enc, m_len=m_len, t2s=t2s)


class Workload:
    name: str
    spec: Spec

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir
        self.samples, self.planned = generate(self.spec, seed, self.name)
        self._setups = 0

    def setup(self, keep: bool = True) -> None:
        """The timed set-up, from the generated samples. With ``keep`` false
        the same work is done and its result dropped, so that set-up can be
        timed again without touching the state the operations use."""
        self._setups += 1
        out = os.path.join(self.workdir, f"setup{self._setups}")
        os.makedirs(out)
        state = self._setup(out)
        if keep:
            vars(self).update(state)

    def check_inputs(self) -> list[str]:
        return check_encoded(self.encoded_inputs(), self.planned)


class _TrainingWorkload(Workload):
    """Episodes of a fixed-step training run, repeated until time is up."""

    final_steps = 2  # quality.loss is the mean loss over this many last steps

    def __init__(self, seed: int, workdir: str):
        super().__init__(seed, workdir)
        self.reference: list[float] | None = None  # the first episode's losses

    def block(self) -> int:
        return self.planned_steps()

    def warm_up(self) -> Phase:
        """One untimed forward and backward pass, so that allocator growth and
        first-call costs are paid before timing."""
        self.warm_step()
        return Phase()

    def run(self, ops: int, clock: StepClock | None = None) -> Phase:
        """Whole episodes until at least ``ops`` steps were attempted."""
        phase = Phase()
        out = os.path.join(self.workdir, "episodes")
        os.makedirs(out, exist_ok=True)
        start = time.perf_counter()
        while phase.attempted < ops:
            planned = self.planned_steps()
            phase.attempted += planned
            mark = time.perf_counter()
            if clock is not None:
                clock.stamps.clear()
            try:
                losses, problems = self.episode(out)
            except Exception as exc:  # noqa: BLE001 - a failed step is counted, not fatal
                losses, problems = [], [f"episode raised {type(exc).__name__}: {exc}"]
            done = time.perf_counter()
            if len(losses) != planned:
                problems.append(f"{len(losses)} steps run, {planned} planned")
            if not all(math.isfinite(v) for v in losses):
                problems.append(f"non-finite loss in {losses}")
            if not problems and self.reference is not None and losses != self.reference:
                problems.append("episode losses differ from the first episode's")
            if problems:
                phase.failed += planned
                phase.problems += problems
            else:
                self.reference = self.reference or losses
                phase.tokens += self.episode_tokens()
            if clock is not None and problems:
                phase.latencies += [math.inf] * planned  # a failed step misses every limit
            elif clock is not None:
                bounds = [mark] + clock.stamps
                steps = [b - a for a, b in zip(bounds, bounds[1:])]
                phase.latencies += steps
                for k, seconds in enumerate(steps):
                    phase.keep_best(f"step{k}", seconds, 0)
                # the last evaluation and saves; the episode's tokens count here
                phase.keep_best("tail", done - bounds[-1], self.episode_tokens())
        phase.elapsed_s = time.perf_counter() - start
        return phase

    def quality(self) -> float:
        if self.reference is None:  # no episode passed its checks
            return float("nan")
        return float(np.mean(self.reference[-self.final_steps:]))

    def verify(self) -> list[str]:
        return [] if self.reference is not None else ["no episode completed"]


class FinetuneWorkload(_TrainingWorkload):
    name = "finetune-512"
    spec = Spec(tokens=512, line_tokens=(4, 12), vulnerable_share=0.5, samples=40)
    # Two epochs of four steps: six of the eight step latencies are bare
    # training steps, so the median sits among them; the other two carry the
    # model build and the first epoch's evaluation and saves.
    epochs = 2
    final_steps = 4  # quality.loss: mean over the second epoch, every sample once
    batch_size = 8
    learning_rate = 2e-3  # the CLI's finetune --lr default

    def _setup(self, out: str) -> dict:
        loaded = _corpus_round_trip(self.samples, out)
        train_s, eval_s, _ = corpus.split(
            loaded, corpus.SplitSpec(0.8, 0.1, 0.1, seed=self.seed), stratify=True)
        vocab = encoding.build_vocab(train_s, max_size=VOCAB_MAX)
        return {
            "train": [encoding.encode(s, vocab, self.spec.tokens) for s in train_s],
            "evaluation": [encoding.encode(s, vocab, self.spec.tokens) for s in eval_s],
            "vocab": vocab,
            "config": _model_config(len(vocab), self.spec.tokens, "average"),
        }

    def encoded_inputs(self):
        return self.train + self.evaluation

    def planned_steps(self) -> int:
        return self.epochs * -(-len(self.train) // self.batch_size)

    def episode_tokens(self) -> int:
        per_epoch = sum(e.n for e in self.train) + sum(e.n for e in self.evaluation)
        return self.epochs * per_epoch

    def _fresh(self):
        model = model_mod.HierarchicalModel(self.config, seed=self.seed)
        cfg = self.config.encoder
        heads = finetune.DetectionHeads(
            cfg.hidden, cfg.ffn_hidden,
            np.random.default_rng(np.random.SeedSequence([self.seed, 0x4EAD])))
        return model, heads

    def warm_step(self) -> None:
        model, heads = self._fresh()
        loss, _ = finetune.finetune_loss(self.train[:self.batch_size], model, heads,
                                         training=True)
        loss.backward()

    def episode(self, out: str):
        model, heads = self._fresh()
        schedule = finetune.FinetuneSchedule(
            epochs=self.epochs, batch_size=self.batch_size,
            learning_rate=self.learning_rate, seed=self.seed)
        result = finetune.finetune_run(self.train, self.evaluation, model, heads,
                                       schedule, out_dir=out, vocab=self.vocab)
        problems = []
        if len(result.eval_history) != self.epochs:
            problems.append(f"{len(result.eval_history)} evaluations, {self.epochs} epochs")
        for tag in ("last", "best"):
            if not os.path.isfile(os.path.join(out, tag, "weights.bin")):
                problems.append(f"no {tag}/ checkpoint written")
        return [loss for _, _, loss in result.loss_history], problems


class PretrainWorkload(_TrainingWorkload):
    name = "pretrain-1024"
    spec = Spec(tokens=1024, line_tokens=(4, 12), vulnerable_share=0.5, samples=8)
    mlm_steps = 1
    msp_steps = 3         # the README's 1:3 MLM:MSP step ratio
    batch_size = 4
    learning_rate = 1e-3  # the CLI's pretrain --lr default

    def _setup(self, out: str) -> dict:
        loaded = _corpus_round_trip(self.samples, out)
        vocab = encoding.build_vocab(loaded, max_size=VOCAB_MAX)
        return {
            "encodeds": [encoding.encode(s, vocab, self.spec.tokens) for s in loaded],
            "vocab": vocab,
            "config": _model_config(len(vocab), self.spec.tokens, "attention"),
        }

    def encoded_inputs(self):
        return self.encodeds

    def planned_steps(self) -> int:
        return self.mlm_steps + self.msp_steps

    def episode_tokens(self) -> int:
        return self.planned_steps() * self.batch_size * self.spec.tokens

    def _fresh(self):
        model = model_mod.HierarchicalModel(self.config, seed=self.seed)
        cfg = self.config.encoder
        dec_rng, mlm_rng = (np.random.default_rng(s) for s in
                            np.random.SeedSequence([self.seed, 0xDEC0]).spawn(2))
        decoder = pretrain.MspDecoder(cfg.hidden, cfg.vocab_size, dec_rng)
        mlm_head = pretrain.MlmHead(cfg.hidden, cfg.ffn_hidden, cfg.vocab_size, mlm_rng)
        return model, decoder, mlm_head

    def warm_step(self) -> None:
        model, decoder, mlm_head = self._fresh()
        enc = self.encodeds[0]
        plan = pretrain.make_mask_plan(enc, self.config.encoder.vocab_size, self.seed)
        pretrain.msp_loss(enc, plan, model, decoder, per_token_mean=True)[0].backward()
        pretrain.mlm_loss(enc, model, mlm_head, self.seed)[0].backward()

    def episode(self, out: str):
        model, decoder, mlm_head = self._fresh()
        schedule = pretrain.PretrainSchedule(
            mlm_steps=self.mlm_steps, msp_steps=self.msp_steps,
            batch_size=self.batch_size, learning_rate=self.learning_rate,
            seed=self.seed)
        state = pretrain.pretrain_run(self.encodeds, model, decoder, mlm_head,
                                      schedule, out_dir=out, vocab=self.vocab)
        problems = []
        phases = [p for _, p, _ in state.loss_history]
        want = ["mlm"] * self.mlm_steps + ["msp"] * self.msp_steps
        if phases != want:
            problems.append(f"phases {phases}, planned {want}")
        if state.skipped_samples:
            problems.append(f"{state.skipped_samples} MLM samples skipped")
        if not os.path.isfile(os.path.join(out, "checkpoint", "weights.bin")):
            problems.append("no checkpoint/ written")
        return [loss for _, _, loss in state.loss_history], problems


class PredictWorkload(Workload):
    name = "predict-2048"
    spec = Spec(tokens=2048, line_tokens=(3, 7), vulnerable_share=0.5, samples=16)
    k_percent = 10.0
    # With an untrained model p_vul sits near 0.5; a zero threshold keeps the
    # fine ranking on for every call whatever the last bits of p_vul are.
    threshold = 0.0
    bundle_checks = 2  # samples re-predicted by the in-memory model

    def _setup(self, out: str) -> dict:
        loaded = _corpus_round_trip(self.samples, out)
        vocab = encoding.build_vocab(loaded, max_size=VOCAB_MAX)
        config = _model_config(len(vocab), self.spec.tokens, "average")
        model = model_mod.HierarchicalModel(config, seed=self.seed)
        cfg = config.encoder
        heads = finetune.DetectionHeads(
            cfg.hidden, cfg.ffn_hidden,
            np.random.default_rng(np.random.SeedSequence([self.seed, 0x4EAD])),
            threshold=self.threshold)
        arrays = model.state_arrays()
        arrays.update({k: p.data for k, p in heads.parameters()})
        bundle = os.path.join(out, "bundle")
        model_mod.save_bundle(bundle, config, arrays, vocab=vocab,
                              meta={"threshold": self.threshold})
        # as `linesift evaluate` does: model, heads and vocabulary from the bundle
        config2, arrays2, vocab2, meta = model_mod.load_bundle(bundle)
        loaded_model = model_mod.HierarchicalModel(config2, seed=0)
        loaded_model.load_state(arrays2)
        loaded_heads = finetune.DetectionHeads(
            cfg.hidden, cfg.ffn_hidden, np.random.default_rng(0),
            threshold=float(meta["threshold"]))
        for name, p in loaded_heads.parameters():
            p.data = np.ascontiguousarray(arrays2[name], dtype=np.float64)
        return {
            "pool": [encoding.encode(s, vocab2, config2.m_len) for s in loaded],
            "model": loaded_model, "heads": loaded_heads,
            "memory_model": model, "memory_heads": heads,
            "reference": {},  # id -> (p_vul, ranking) of the first call
            "reports": [],    # kept, as `linesift evaluate` keeps them
            "_next": 0,       # calls cycle through the pool across runs
        }

    def encoded_inputs(self):
        return self.pool

    def _predict(self, enc, model, heads):
        return finetune.predict(enc, model, heads, k_percent=self.k_percent)

    def _check(self, enc, report) -> list[str]:
        problems = []
        if not 0.0 <= report.p_vul <= 1.0:
            problems.append(f"{enc.id}: p_vul {report.p_vul} outside [0, 1]")
        if report.coarse_label != int(report.p_vul >= self.threshold):
            problems.append(f"{enc.id}: coarse label disagrees with the threshold")
        ranked = [r["line"] for r in report.statements]
        if sorted(ranked) != sorted(enc.orig_lines) or len(set(ranked)) != enc.L:
            problems.append(f"{enc.id}: ranking is not a permutation of the retained lines")
        prefix = max(1, math.ceil(self.k_percent / 100.0 * enc.L))
        if report.top_lines != ranked[:prefix]:
            problems.append(f"{enc.id}: top_lines is not the ranking's prefix")
        key = (report.p_vul, tuple((r["line"], r["p_vul"]) for r in report.statements))
        seen = self.reference.setdefault(enc.id, key)
        if seen != key:
            problems.append(f"{enc.id}: repeated predict is not bit-identical")
        return problems

    warm_calls = 4

    def block(self) -> int:
        return len(self.pool) // 2

    def warm_up(self) -> Phase:
        """A few untimed calls, so that allocator growth and first-call costs
        are paid before timing; their outputs are checked like any other."""
        return self.run(self.warm_calls)

    def run(self, ops: int, clock=None) -> Phase:
        phase = Phase()
        clock_fn = time.perf_counter
        start = clock_fn()
        while phase.attempted < ops:
            enc = self.pool[self._next % len(self.pool)]
            self._next += 1
            phase.attempted += 1
            t0 = clock_fn()
            try:
                report = self._predict(enc, self.model, self.heads)
            except Exception as exc:  # noqa: BLE001 - a failed call is counted, not fatal
                phase.latencies.append(math.inf)  # a failed call misses every latency limit
                phase.failed += 1
                phase.problems.append(f"{enc.id}: predict raised {type(exc).__name__}: {exc}")
                continue
            latency = clock_fn() - t0
            self.reports.append(report)
            problems = self._check(enc, report)
            if problems:
                phase.failed += 1
                phase.problems += problems
                latency = math.inf
            else:
                phase.tokens += enc.n
                phase.keep_best(enc.id, latency, enc.n)
            phase.latencies.append(latency)
        phase.elapsed_s = clock_fn() - start
        return phase

    def verify(self) -> list[str]:
        """The bundle-loaded model must predict exactly as the in-memory one.
        Also predicts any pool sample the timed loop did not reach, so that
        quality() covers the whole pool."""
        problems = []
        for enc in self.pool:
            if enc.id not in self.reference:
                problems += self._check(enc, self._predict(enc, self.model, self.heads))
        for enc in self.pool[:self.bundle_checks]:
            report = self._predict(enc, self.memory_model, self.memory_heads)
            key = (report.p_vul, tuple((r["line"], r["p_vul"]) for r in report.statements))
            if self.reference.get(enc.id) != key:
                problems.append(f"{enc.id}: bundle-loaded model predicts differently")
        return problems

    def quality(self) -> float:
        """Mean coarse cross-entropy of the predicted p_vul against the labels."""
        labels = {e.id: e.label for e in self.pool}
        seen = [(labels[i], p) for i, (p, _) in sorted(self.reference.items())]
        if not seen or not all(0.0 < p < 1.0 for _, p in seen):  # the checks failed
            return float("nan")
        return float(np.mean([-math.log(p if label else 1.0 - p) for label, p in seen]))


WORKLOADS = {w.name: w for w in (FinetuneWorkload, PredictWorkload, PretrainWorkload)}
