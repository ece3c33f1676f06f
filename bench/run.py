#!/usr/bin/env python3
"""visdep benchmark: the public CLI, in-process, as one closed-loop client.

Usage (from the root of a checkout)::

    python3 bench/run.py --workload train-b8 --seed 1 --seconds 40 --trace 0

Every stage is a call to ``visdep.cli.main([...])`` that starts only after
the previous one returned.  The seed drives the corpus, the split and the
training; the program receives only the generated inputs.  Set-up makes the
corpus ``SETUP_REPS`` times and ``setup_s`` is the median.  The measured
phase repeats ``train`` within ``TRAIN_SHARE`` of ``--seconds``, then
``filter`` and ``eval`` on the new checkpoint within the rest; each
throughput is the median over that stage's runs.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs every stage
once untraced and once under ``tracer.Tracer`` and prints the per-layer
metrics plus ``trace_overhead_share``.  The last line of standard output is
the result object; the line before it records the environment, the failed
checks and the CHAIR report.  A stage that exits non-zero or whose outputs
fail a check counts as a failed operation.  Results, spans and artifact
digests are kept under ``.bench_work/`` in the checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".bench_work"
SRC = ROOT / "src"

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

SCENES = 5000
TEST_FRAC = 0.2  # the CLI default; every stage splits off round(0.2 * scenes)
FILTER_FRAC = 0.1
EVAL_RATES = ("chair_s", "chair_i", "recall")
SETUP_REPS = 3
TAIL_FRAC = 0.1

# The paper's protocol: batch 8, lr 0.02, re-weighting gated on at half-way.
PROTOCOL_WNEG = (
    "--loss", "wneg", "--tau", "0.5", "--start-frac", "0.5", "--noise-step", "900",
    "--epochs", "2", "--batch-size", "8", "--lr", "0.02",
)
# Large batch, mle: array work dominates and the noisy pass never changes a weight.
# The lr is the protocol's, not the CLI default 3e-3: after 64 steps at 3e-3 the
# model often never emits EOS, so eval's decode length (and time) depended on
# the seed.  The cost of a training step does not depend on the lr.
LARGE_BATCH_MLE = ("--loss", "mle", "--epochs", "2", "--batch-size", "128", "--lr", "0.02")

# Both workloads run synth (set-up), train, then filter and eval on the fresh
# checkpoint: the two training shapes stress different layers, and the
# inference stages are the control that a training-only change leaves alone.
WORKLOADS = {
    # 1000 steps of 8: bound by per-call overhead; half the steps are re-weighted
    "train-b8": PROTOCOL_WNEG,
    # 64 steps of 128: array work dominates and the optimizer barely runs
    "train-b128": LARGE_BATCH_MLE,
}
# Share of --seconds spent repeating train before filter and eval are repeated.
TRAIN_SHARE = 0.6

END_TO_END_UNITS = {
    "setup_s": "s",
    "synth_scenes_per_s": "1/s",
    "train_samples_per_s": "1/s",
    "train_loss_tail": "nats",
    "filter_samples_per_s": "1/s",
    "eval_samples_per_s": "1/s",
    "peak_rss_mb": "MiB",
}


def single_blas_thread() -> None:
    """One BLAS thread, as the client is single-threaded; must run before numpy loads.

    On a 2-CPU shared machine a second BLAS thread made training slower and
    its timings noisier.
    """
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"


def environment(seed: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "seed": seed,
    }


def flag_value(flags: tuple[str, ...], name: str) -> int:
    return int(flags[flags.index(name) + 1])


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def run_key(workload: str, seed: int, scenes: int) -> str:
    """Names one program version and set of inputs: the sources, stage flags, seed and size."""
    h = hashlib.sha256(repr((WORKLOADS[workload], seed, scenes)).encode())
    for path in sorted((SRC / "visdep").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return f"{workload}-{seed}-{scenes}-{h.hexdigest()[:16]}"


def finite(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool) and math.isfinite(x)


# -- checks: each returns a list of problems, empty when the outputs are right --


def check_corpus(path: Path, scenes: int) -> list[str]:
    """Every scene survives the write and a plain JSON read unchanged."""
    keys = {"scene_id", "true_objects", "feature", "caption", "caption_surfaces", "hallucinated_positions"}
    problems, ids = [], set()
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().split("\n")
    if lines[-1] != "":
        problems.append("corpus does not end with a newline")
    lines = lines[:-1]
    if len(lines) != scenes:
        problems.append(f"corpus has {len(lines)} scenes, expected {scenes}")
    for line in lines:
        rec = json.loads(line)
        if json.dumps(rec, ensure_ascii=False, sort_keys=True, separators=(",", ":")) != line:
            problems.append(f"scene {rec.get('scene_id')!r} does not round-trip")
        elif set(rec) != keys or len(rec["caption"]) != len(rec["caption_surfaces"]):
            problems.append(f"scene {rec.get('scene_id')!r} is malformed")
        ids.add(rec.get("scene_id"))
        if len(problems) > 5:
            break
    if not problems and len(ids) != len(lines):
        problems.append("duplicate scene ids")
    return problems


def check_train(out: Path, n_train: int, flags: tuple[str, ...]) -> list[str]:
    problems = []
    # ceil(n / batch) steps per epoch
    expected = flag_value(flags, "--epochs") * -(-n_train // flag_value(flags, "--batch-size"))
    losses = train_losses(out)
    if len(losses) != expected:
        problems.append(f"trainlog has {len(losses)} steps, expected {expected}")
    if not all(math.isfinite(x) for x in losses):
        problems.append("non-finite loss in trainlog")
    with open(out / "ckpt.json", encoding="utf-8") as fh:
        ckpt = json.load(fh)
    if ckpt.get("format") != "visdep-ckpt" or not ckpt.get("blocks"):
        problems.append("ckpt.json is not a visdep checkpoint")
    elif not all(finite(x) for b in ckpt["blocks"].values() for x in b["data"]):
        problems.append("non-finite checkpoint parameter")
    return problems


def check_filter(out: Path, n_train: int) -> list[str]:
    with open(out / "manifest.json", encoding="utf-8") as fh:
        m = json.load(fh)
    problems = []
    scores = m.get("scores", {})
    if len(scores) != n_train or not all(finite(v) for v in scores.values()):
        problems.append(f"expected {n_train} finite scores, got {len(scores)}")
    if len(m.get("removed", ())) != round(FILTER_FRAC * n_train):
        problems.append(f"removed {len(m.get('removed', ()))}, expected {round(FILTER_FRAC * n_train)}")
    if set(m.get("kept", ())) | set(m.get("removed", ())) != set(scores):
        problems.append("kept and removed do not partition the scored scenes")
    return problems


def check_eval(out: Path, n_test: int) -> list[str]:
    with open(out / "report.json", encoding="utf-8") as fh:
        report = json.load(fh)
    problems = []
    if report.get("n_samples") != n_test:
        problems.append(f"n_samples {report.get('n_samples')}, expected {n_test}")
    for key in EVAL_RATES:
        if not (finite(report.get(key)) and 0.0 <= report[key] <= 1.0):
            problems.append(f"{key} = {report.get(key)!r} outside [0, 1]")
    return problems


def train_losses(out: Path) -> list[float]:
    with open(out / "trainlog.csv", encoding="utf-8") as fh:
        header, *rows = fh.read().splitlines()
    col = header.split(",").index("loss")
    return [float(row.split(",")[col]) for row in rows]


# Artifacts that must be byte-identical whenever a stage reruns with the same inputs.
IDENTICAL = {"synth": ("corpus.jsonl",), "train": ("ckpt.json",), "filter": ("manifest.json",), "eval": ("traces.jsonl",)}


class Pipeline:
    """Runs CLI stages for one workload and seed, timing and checking each."""

    def __init__(self, workload: str, seed: int, scenes: int, run_dir: Path) -> None:
        from visdep import cli

        self.cli = cli
        self.train_flags = WORKLOADS[workload]
        self.seed = seed
        self.scenes = scenes
        self.n_test = int(round(TEST_FRAC * scenes))
        self.n_train = scenes - self.n_test
        self.run_dir = run_dir
        self.times: dict[str, list[float]] = {}
        self.attempted = 0
        self.failures: list[str] = []
        self.loss_tail: float | None = None
        self.report: dict | None = None  # CHAIR numbers are checked and recorded, not gated
        self.corpus: Path | None = None
        self.ckpt: Path | None = None
        self.digests: dict[str, str] = {}
        self.digest_file = WORK / "digests" / f"{run_key(workload, seed, scenes)}.json"
        self._count = 0

    def _call(self, argv: list[str]) -> tuple[int, float, str]:
        """Exit code, wall seconds and captured stderr of one CLI call."""
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = perf_counter()
            try:
                code = self.cli.main(argv)
            except Exception:  # a crash is one failed operation; the run still reports
                traceback.print_exc()
                code = -1
            seconds = perf_counter() - start
        return code, seconds, err.getvalue().strip()

    def stage(self, name: str, record: bool = True) -> bool:
        """Run one stage into a fresh directory; returns False if it failed."""
        out = self.run_dir / f"{self._count:02d}-{name}"
        self._count += 1
        seed = ["--seed", str(self.seed), "--out-dir", str(out)]
        corpus = ["--corpus", str(self.corpus)]
        ckpt = ["--ckpt", str(self.ckpt)]
        argv, check = {
            "synth": (
                ["synth", "--scenes", str(self.scenes)] + seed,
                lambda: check_corpus(out / "corpus.jsonl", self.scenes),
            ),
            # the same seed also fixes the split, so train, filter and eval agree on it
            "train": (
                ["train"] + corpus + list(self.train_flags) + ["--split-seed", str(self.seed)] + seed,
                lambda: check_train(out, self.n_train, self.train_flags),
            ),
            "filter": (
                ["filter"] + corpus + ckpt + ["--strategy", "lowest", "--frac", str(FILTER_FRAC)] + seed,
                lambda: check_filter(out, self.n_train),
            ),
            "eval": (["eval"] + corpus + ckpt + seed, lambda: check_eval(out, self.n_test)),
        }[name]
        self.attempted += 1
        code, seconds, err = self._call(argv)
        if code:
            problems = [f"exit code {code}: {err[-300:]}"]
        else:
            try:
                problems = check() or self._check_identical(name, out)
            except (OSError, ValueError, KeyError, TypeError, AttributeError) as exc:
                problems = [f"unreadable output: {type(exc).__name__}: {exc}"]
        if problems:
            self.failures.append(f"{name}: " + "; ".join(problems))
            return False
        if record:
            self.times.setdefault(name, []).append(seconds)
        if name == "eval" and self.report is None:
            self.report = json.loads((out / "report.json").read_text())
        if name == "synth" and self.corpus is None:
            self.corpus = out / "corpus.jsonl"
        if name == "train":
            self.ckpt = out / "ckpt.json"
            if self.loss_tail is None:
                losses = train_losses(out)
                tail = losses[-max(1, int(TAIL_FRAC * len(losses))):]
                self.loss_tail = sum(tail) / len(tail)
        return True

    def _check_identical(self, name: str, out: Path) -> list[str]:
        problems = []
        for fname in IDENTICAL[name]:
            digest = sha256(out / fname)
            if self.digests.setdefault(fname, digest) != digest:
                problems.append(f"{fname} differs from an earlier rerun with the same inputs")
        return problems

    def check_against_earlier_runs(self) -> None:
        """Artifacts must match those of earlier runs of this code, workload and seed."""
        if self.digest_file.exists():
            earlier = json.loads(self.digest_file.read_text())
            differ = sorted(f for f, d in self.digests.items() if earlier.get(f, d) != d)
            if differ:
                self.failures.append(f"rerun identity: {', '.join(differ)} differ from an earlier run")
            merged = {**self.digests, **earlier}
        else:
            merged = self.digests
        self.digest_file.parent.mkdir(parents=True, exist_ok=True)
        self.digest_file.write_text(json.dumps(merged, sort_keys=True) + "\n")

    def setup(self) -> list[float]:
        """Make and check the corpus SETUP_REPS times; returns each rep's wall time."""
        walls = []
        for _ in range(SETUP_REPS):
            start = perf_counter()
            if not self.stage("synth"):
                break
            walls.append(perf_counter() - start)
        return walls

    def run_stages(self, stages, record: bool = True) -> bool:
        return all(self.stage(name, record) for name in stages)


def median_rate(count: int, times: list[float] | None) -> float | None:
    return count / statistics.median(times) if times else None


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # ru_maxrss is KiB on Linux


def repeat(p: Pipeline, stages: tuple[str, ...], start: float, budget: float) -> bool:
    """Run ``stages`` at least once, then again while one more pass fits in ``budget``."""
    while True:
        begin = perf_counter()
        if not p.run_stages(stages):
            return False
        now = perf_counter()
        if now + (now - begin) - start > budget:
            return True


def measure(p: Pipeline, seconds: float) -> dict:
    """Repeat train, then filter and eval, within ``seconds``; end-to-end metrics."""
    start = perf_counter()
    if repeat(p, ("train",), start, TRAIN_SHARE * seconds):
        repeat(p, ("filter", "eval"), start, seconds)
    metrics = {
        "synth_scenes_per_s": median_rate(p.scenes, p.times.get("synth")),
        "train_samples_per_s": median_rate(
            p.n_train * flag_value(p.train_flags, "--epochs"), p.times.get("train")
        ),
        "train_loss_tail": p.loss_tail,
        "filter_samples_per_s": median_rate(p.n_train, p.times.get("filter")),
        "eval_samples_per_s": median_rate(p.n_test, p.times.get("eval")),
        "peak_rss_mb": peak_rss_mb(),
    }
    return {k: v for k, v in metrics.items() if v is not None}


def trace(p: Pipeline, spans_path: Path) -> tuple[dict, list[str]]:
    """One untraced and one traced pass of every stage; per-layer metrics."""
    from tracer import Tracer

    stages = ("synth", "train", "filter", "eval")
    start = perf_counter()
    if not p.run_stages(stages, record=False):
        return {}, []
    untraced = perf_counter() - start
    with Tracer() as tracer:
        start = perf_counter()
        ok = p.run_stages(stages, record=False)
        traced = perf_counter() - start
    if not ok:
        return {}, tracer.absent
    metrics = tracer.layer_metrics()
    metrics["trace_overhead_share"] = traced / untraced - 1.0
    tracer.write_spans(spans_path)
    return metrics, tracer.absent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scenes", type=int, default=SCENES, help="corpus size (smaller only for smoke tests)")
    args = parser.parse_args(argv)

    if not (SRC / "visdep" / "cli.py").is_file():
        print(f"error: {SRC / 'visdep'} not found; run from the root of a visdep checkout", file=sys.stderr)
        return 2
    single_blas_thread()
    sys.path[:0] = [str(SRC), str(Path(__file__).resolve().parent)]
    env = environment(args.seed)

    run_dir = WORK / "runs" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    (WORK / "results").mkdir(exist_ok=True)
    absent: list[str] = []
    try:
        p = Pipeline(args.workload, args.seed, args.scenes, run_dir)
        setup_walls = p.setup()
        if p.failures:
            metrics = {}
        elif args.trace:
            metrics, absent = trace(p, WORK / "results" / f"{args.workload}.spans.jsonl")
        else:
            metrics = {"setup_s": statistics.median(setup_walls), **measure(p, args.seconds)}
        p.check_against_earlier_runs()
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    units = END_TO_END_UNITS
    if args.trace:
        from tracer import layer_metric_units

        units = {**layer_metric_units(), "trace_overhead_share": "ratio"}
    result = {
        "correct": not p.failures,
        "attempted": p.attempted,
        "failed": len(p.failures),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    detail = {"env": env, "absent_hooks": absent, "failures": p.failures, "stage_seconds": p.times, "eval_report": p.report}
    results = WORK / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    results.write_text(json.dumps({**detail, **result}, indent=1, sort_keys=True) + "\n")
    for failure in p.failures:
        print(f"check failed: {failure}", file=sys.stderr)
    print(json.dumps(detail, sort_keys=True))
    print(json.dumps(result, sort_keys=True))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
