"""linesift benchmark: one workload, one seed, one closed-loop run.

    python3 benchmarks/run.py --workload predict-2048 --seed 1 --seconds 30 --trace 0

Run from the repository root; the library is imported from ``src/`` next to
this directory. ``--trace 0`` measures the end-to-end metrics with nothing
wrapped but the step clock of the training workloads. ``--trace 1`` traces
one set-up, then alternates untraced and traced blocks of operations for
``--seconds``, and reports the per-layer split and what tracing cost. The last line of standard
output is the result as one JSON object; the full record (environment,
problems, phase counts) goes to ``benchmarks/out/``. See README.md there.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
# An untraced run takes set-up samples: SETUP_SAMPLES before and again after
# the timed phase, and one more after each block of operations that ends at
# least SETUP_EVERY_S after the last sample (outside the timed wall). A
# sample is the fastest of SETUP_REPEATS back-to-back set-ups, and setup_s is
# the median of the samples. The machine's speed drifts over tens of
# seconds, so samples spread over the whole run measure the same machine the
# operations do; it also swings within a second, and the fastest of a few
# set-ups is the one the swing did not slow.
SETUP_SAMPLES = 4
SETUP_REPEATS = 3
SETUP_EVERY_S = 3.0
# One BLAS thread: on a small shared machine a second thread gains ~15% but
# makes every matmul wait on the slower of two cores, which doubled the
# run-to-run spread of the timings.
BLAS_THREADS = 1
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# glibc malloc, fixed instead of self-tuning: blocks up to 32 MiB come from
# the heap and freed memory is never handed back. By default the mmap
# threshold grows with the blocks freed, and whether the heap top is trimmed
# after each call depends on what else happens to be allocated above it, so
# the same predict call ran at 0.21 s or 0.35 s (the rest in page faults)
# depending on the run's history.
MALLOC_OPTIONS = {"M_MMAP_THRESHOLD": (-3, 32 << 20), "M_TRIM_THRESHOLD": (-1, 2**31 - 1)}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


# -- environment ---------------------------------------------------------------


def _blas_threads():
    """Thread count reported by the loaded OpenBLAS, or None if not found."""
    import ctypes

    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                fn = getattr(lib, symbol)
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def pin_allocator() -> dict | None:
    """Apply MALLOC_OPTIONS through mallopt; None where glibc is absent."""
    import ctypes
    import ctypes.util

    path = ctypes.util.find_library("c")
    libc = ctypes.CDLL(path) if path else None
    if libc is None or not hasattr(libc, "mallopt"):
        return None
    libc.mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    libc.mallopt.restype = ctypes.c_int
    applied = {}
    for name, (param, value) in MALLOC_OPTIONS.items():
        applied[name] = value if libc.mallopt(param, value) == 1 else None
    return applied


def _commit():
    """HEAD of the checkout when it is a git work tree, else None."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _source_digest() -> str:
    """sha256 over the library sources, to identify the code when there is
    no commit to name."""
    h = hashlib.sha256()
    for path in sorted((SRC / "linesift").rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def environment(nproc: int, malloc: dict | None) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": nproc,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "blas_thread_env": {v: os.environ[v] for v in BLAS_THREAD_VARS},
        "malloc": malloc,
        "numpy": np.__version__,
        "python": platform.python_version(),
        "commit": _commit(),
        "source_sha256": _source_digest(),
    }


# -- metrics -------------------------------------------------------------------


def timed_setup(wl, keep: bool = False) -> float:
    t0 = time.perf_counter()
    wl.setup(keep)
    return time.perf_counter() - t0


def setup_sample(wl, keep: bool = False) -> list[float]:
    """SETUP_REPEATS back-to-back set-ups; with ``keep`` the first one's
    result is the state the operations use."""
    return [timed_setup(wl, keep and i == 0) for i in range(SETUP_REPEATS)]


def timed_phase(wl, seconds: float, clock, setup_samples: list[list[float]]):
    """Blocks of operations until ``seconds`` of them have passed, ending on
    the block boundary nearest to ``seconds``, with set-up samples between
    blocks."""
    from workloads import Phase

    phase, blocks = Phase(), 0
    last_sample = time.perf_counter()
    while blocks == 0 or phase.elapsed_s * (1 + 0.5 / blocks) < seconds:
        phase.add(wl.run(wl.block(), clock))
        blocks += 1
        if time.perf_counter() - last_sample >= SETUP_EVERY_S:
            setup_samples.append(setup_sample(wl))
            last_sample = time.perf_counter()
    return phase


def end_to_end(setup_samples, phase, quality: float) -> dict:
    """The gated metrics. Other tenants of the host slow this process by up
    to 1.8x, for stretches of seconds to minutes, and only ever add time; so
    the timings that repeat best from run to run are the fastest repeat of
    each piece of work, not the median or the tail (those go to the record)."""
    best_s = sum(seconds for seconds, _ in phase.best.values())
    best_tokens = sum(tokens for _, tokens in phase.best.values())
    return {
        "setup_s": (statistics.median(min(s) for s in setup_samples), "s"),
        "tokens_per_s.best_pass": (best_tokens / best_s if best_s else 0.0, "tokens/s"),
        "latency_s.min": (min(phase.latencies), "s"),
        "quality.loss": (quality, "nats"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def whole_phase(phase) -> dict:
    """Median, tail and throughput over the whole timed phase: recorded, not
    gated, because they follow the host's speed."""
    import numpy as np

    lat = np.asarray(phase.latencies)
    return {
        "operations": len(lat),
        # no interpolation: a failed operation's latency is infinite
        "latency_s.p50": float(np.quantile(lat, 0.5, method="inverted_cdf")),
        "latency_s.p90": float(np.quantile(lat, 0.9, method="inverted_cdf")),
        "tokens_per_s": phase.tokens / phase.elapsed_s,
    }


def per_layer(setup, timed, ops: int, plain, traced) -> dict:
    """Each value is its cost in the one traced set-up plus its cost per
    operation of the traced timed phase. Every named metric but the layer
    self times comes from one phase only on each workload."""
    from spans import LAYERS

    def both(f):
        return f(setup) + f(timed) / ops

    def incl(*names, within=None):
        return both(lambda p: p.inclusive_s(names, within))

    def count(key):
        return both(lambda p: p.counts.get(key, 0.0))

    m = {f"{layer}.self_s": (both(lambda p, la=layer: p.layer_self_s(la)), "s")
         for layer in LAYERS}
    m.update({
        "tensor.backward_s": (incl("tensor.Tensor.backward"), "s"),
        "tensor.adamw_s": (incl("tensor.adamw_step"), "s"),
        "tensor.ops": (count("tensor.ops"), "count"),
        "tensor.graph_ops": (count("tensor.graph_ops"), "count"),
        "tensor.matmul_s": (incl("tensor.matmul"), "s"),
        "tensor.matmul_gflop": (count("tensor.matmul_flop") / 1e9, "GFLOP-computed"),
        "tensor.softmax_rows_s": (incl("tensor.softmax_rows"), "s"),
        "tensor.layer_norm_s": (incl("tensor.layer_norm"), "s"),
        "tensor.copy_s": (incl("tensor.rows", "tensor.concat_rows", "tensor.concat_cols",
                               "tensor.gather_rows"), "s"),
        "transformer.token_encoder.forward_s": (incl("transformer.TokenEncoder.forward"), "s"),
        "transformer.token_encoder.segments": (count("transformer.token_encoder.segments"),
                                               "count"),
        "transformer.statement_encoder.forward_s": (
            incl("transformer.StatementEncoder.forward"), "s"),
        "transformer.statement_encoder.statements": (
            count("transformer.statement_encoder.statements"), "count"),
        "pooling.apply_s": (incl("pooling.AveragePool.apply", "pooling.WeightedPool.apply",
                                 "pooling.AttentionPool.apply"), "s"),
        "model.encode_self_s": (both(lambda p: p.self_s(
            ["model.HierarchicalModel.encode_batch", "model.HierarchicalModel.encode_program",
             "model.HierarchicalModel.encode_tokens"])), "s"),
        "finetune.loss_forward_s": (incl("finetune.finetune_loss"), "s"),
        "finetune.heads_s": (incl(
            "finetune.DetectionHeads.coarse_logits_raw", "finetune.DetectionHeads.fine_logits_raw",
            "finetune.DetectionHeads.coarse_probabilities",
            "finetune.DetectionHeads.fine_probabilities"), "s"),
        "finetune.eval_predict_s": (incl("finetune.predict", within=["finetune.finetune_run"]),
                                    "s"),
        "pretrain.msp_forward_s": (incl("pretrain.msp_loss"), "s"),
        "pretrain.mlm_forward_s": (incl("pretrain.mlm_loss"), "s"),
        "pretrain.decoder_s": (incl("pretrain.MspDecoder.sequence_loss"), "s"),
        "pretrain.decoded_lines": (count("pretrain.decoded_lines"), "count"),
        "pretrain.decoded_tokens": (count("pretrain.decoded_tokens"), "count"),
        "pretrain.mask_s": (incl("pretrain.make_mask_plan", "pretrain.apply_mask_plan"), "s"),
        "checkpoint.save_s": (incl("checkpoint.save_tensors"), "s"),
        "checkpoint.load_s": (incl("checkpoint.load_tensors"), "s"),
        "checkpoint.bytes": (count("checkpoint.bytes"), "bytes"),
        "encoding.build_vocab_s": (incl("encoding.build_vocab"), "s"),
        "encoding.encode_s": (incl("encoding.encode"), "s"),
        "corpus.load_s": (incl("corpus.load_corpus"), "s"),
        "trace.overhead_pct": (
            100.0 * ((traced.elapsed_s / traced.attempted)
                     / (plain.elapsed_s / plain.attempted) - 1.0), "%"),
        "trace.uncovered_pct": (100.0 * (1.0 - timed.top_level_s / traced.elapsed_s), "%"),
        "trace.spans": (timed.span_count / ops, "count"),
    })
    return m


# -- the run -------------------------------------------------------------------


def run(args, nproc: int, malloc: dict | None) -> dict:
    from spans import Tracer
    from workloads import WORKLOADS, Phase, StepClock

    record: dict = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                    "trace": args.trace, "environment": environment(nproc, malloc)}
    workdir = OUT / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        wl = WORKLOADS[args.workload](args.seed, str(workdir))
        problems: list[str] = []
        if args.trace == 0:
            setup_samples = [setup_sample(wl, keep=True)]
            setup_samples += [setup_sample(wl) for _ in range(SETUP_SAMPLES - 1)]
            problems += wl.check_inputs()
            warm = wl.warm_up()
            clock = StepClock()
            clock.install()
            try:
                phase = timed_phase(wl, args.seconds, clock, setup_samples)
            finally:
                clock.uninstall()
            problems += warm.problems + phase.problems + wl.verify()
            phases = [warm, phase]
            quality = wl.quality()
            setup_samples += [setup_sample(wl) for _ in range(SETUP_SAMPLES)]
            metrics = end_to_end(setup_samples, phase, quality)
            record["whole_phase"] = whole_phase(phase)
            record["setup_samples_s"] = setup_samples
            record["latencies_s"] = phase.latencies
            record["best_pieces_s"] = {k: s for k, (s, _) in phase.best.items()}
        else:
            tracer = Tracer()
            tracer.install()
            tracer.begin("setup")
            t0 = time.perf_counter()
            try:
                wl.setup()
            finally:
                setup_s = time.perf_counter() - t0
                tracer.end()
                tracer.uninstall()
            problems += wl.check_inputs()
            warm = wl.warm_up()
            # Untraced and traced blocks alternate, so both halves see the
            # same machine state; their per-operation times give the overhead.
            plain, traced = Phase(), Phase()
            start = time.perf_counter()
            while traced.attempted == 0 or time.perf_counter() - start < args.seconds:
                plain.add(wl.run(wl.block()))
                tracer.install()
                tracer.begin("timed")
                try:
                    traced.add(wl.run(wl.block()))
                finally:
                    tracer.end()
                    tracer.uninstall()
            problems += warm.problems + plain.problems + traced.problems + wl.verify()
            phases = [warm, plain, traced]
            setup, timed, none = (tracer.summary(p) for p in ("setup", "timed", "none"))
            metrics = per_layer(setup, timed, traced.attempted, plain, traced)
            record["shares_of_timed_wall"] = {
                name: value * traced.attempted / traced.elapsed_s
                for name, (value, unit) in
                per_layer(none, timed, traced.attempted, plain, traced).items()
                if unit == "s"}
            record["setup_traced_s"] = setup_s
            record["shares_of_setup"] = {
                name: value / setup_s
                for name, (value, unit) in per_layer(setup, none, 1, plain, traced).items()
                if unit == "s"}
            spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.json"
            tracer.dump(str(spans_path), {k: record[k] for k in ("workload", "seed", "seconds")})
            record["spans_file"] = str(spans_path.relative_to(ROOT))
        record["phases"] = [
            {k: getattr(p, k) for k in ("attempted", "failed", "tokens", "elapsed_s")}
            for p in phases
        ]
        record["problems"] = problems
        record["attempted"] = sum(p.attempted for p in phases)
        record["failed"] = sum(p.failed for p in phases)
        record["error_rate"] = record["failed"] / record["attempted"]
        record["correct"] = not problems and record["failed"] == 0
        # a run in which every operation failed has no finite latency; JSON
        # has no infinity, so such a value is written as null
        record["metrics"] = {k: {"value": v if math.isfinite(v) else None, "unit": u}
                             for k, (v, u) in metrics.items()}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return record


def declared_metrics(trace: int) -> list[str] | None:
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        return None
    spec = json.loads(path.read_text())
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "linesift" / "__init__.py").is_file():
        print(f"error: no linesift sources under {SRC}", file=sys.stderr)
        return 2
    # BLAS threads are pinned before numpy loads.
    nproc = len(os.sched_getaffinity(0))
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(min(BLAS_THREADS, nproc))
    sys.path.insert(0, str(SRC))
    import linesift

    if Path(linesift.__file__).resolve().parent != SRC / "linesift":
        print(f"error: linesift imported from {linesift.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    record = run(args, nproc, pin_allocator())
    declared = declared_metrics(args.trace)
    if declared is not None and sorted(declared) != sorted(record["metrics"]):
        print(f"error: metrics {sorted(record['metrics'])} do not match BENCHMARK.json "
              f"{sorted(declared)}", file=sys.stderr)
        return 1
    OUT.mkdir(exist_ok=True)
    path = OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    print("environment: " + json.dumps(record["environment"]))
    print(f"attempted {record['attempted']} failed {record['failed']} "
          f"error_rate {record['error_rate']}")
    for problem in record["problems"][:10]:
        print(f"problem: {problem}")
    for name, value in record.get("whole_phase", {}).items():
        print(f"not gated: whole-phase {name} {value:.6g}")
    for name, m in record["metrics"].items():
        value = "null" if m["value"] is None else f"{m['value']:.6g}"
        print(f"{name:45s} {value} {m['unit']}")
    print(json.dumps({"correct": record["correct"], "attempted": record["attempted"],
                      "failed": record["failed"], "metrics": record["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
