"""Command-line pipeline: synth, train, analyze, filter, eval, sweep, plot.

Every run writes its command and parsed flags to ``run.json`` in the output
directory; re-invoking any stage with the same inputs and seed reproduces
its artifacts byte for byte.  Exit codes: 0 success, 2 usage error,
3 data or invariant error, 4 numerical divergence.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import synth
from .dependence import CLASS_BY_CODE, TokenClass, classify_array, dependence_array
from .diffusion import DEFAULT_NOISE_STEP
from .filtering import (
    FilterStrategy,
    apply_filter,
    check_fraction,
    load_manifest,
    save_manifest,
    score_corpus,
)
from .halleval import class_object_counts, co_occurrence, evaluate
from .plots import score_histogram_svg, trace_bars_svg, write_text
from .reweight import LossMode, ReweightConfig
from .seeding import derive_seed
from .toymodel import (
    TrainConfig,
    TrainingDiverged,
    check_max_len,
    check_noise_step,
    generate_batch,
    load_params,
    noised_dependence,
    save_params,
    train,
    write_train_log,
)
from .trace import TraceArrays, TraceError, read_traces, write_traces

# Unused here but hooked by name by ``bench/tracer.py`` (tests/test_bench_hooks.py).
from .dependence import profile_trace  # noqa: F401
from .diffusion import corrupt  # noqa: F401
from .toymodel import teacher_forced_probs  # noqa: F401
from .trace import TokenTrace  # noqa: F401

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_DIVERGED = 4

CORPUS_FILE = "corpus.jsonl"
CKPT_FILE = "ckpt.json"
TRAINLOG_FILE = "trainlog.csv"
REPORT_FILE = "report.json"
MANIFEST_FILE = "manifest.json"
SWEEP_FILE = "sweep.csv"
RUN_FILE = "run.json"
TRACES_FILE = "traces.jsonl"
ANALYSIS_FILE = "analysis.csv"
CLASS_COUNTS_FILE = "class_counts.csv"
COOCCUR_FILE = "cooccurrence.csv"
SCORE_HIST_SVG = "score_hist.svg"
SCORE_HIST_CSV = "score_hist.csv"


def _out_dir(args) -> Path:
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_run(out: Path, args) -> None:
    """``run.json``: the command, and every flag it parsed by its dest name except ``--out-dir``."""
    config = {k: v for k, v in vars(args).items() if k not in ("command", "func", "out_dir")}
    payload = {"command": args.command, "config": config}
    with open(out / RUN_FILE, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(payload, fh, sort_keys=True, indent=2)
        fh.write("\n")


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed", type=int, default=42, help="root seed for every RNG stream")
    p.add_argument(
        "--out-dir",
        default=os.environ.get("VISDEP_OUT", "."),
        help="artifact directory (default: $VISDEP_OUT or cwd)",
    )


def _add_split_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--test-frac", type=float, default=0.2)
    p.add_argument(
        "--split-seed",
        type=int,
        default=42,
        help="seed for the train/test split; keep identical across stages "
        "so they agree on the held-out set even when --seed differs",
    )


def _read_split(args, test: bool) -> synth.Corpus:
    """The training half of ``--corpus`` under ``--test-frac`` and ``--split-seed``, or with ``test`` the held-out one.

    Every stage that reads a corpus splits it with ``synth.held_out`` under
    these flags, so they all hold out the same scenes; only the rows of the
    half asked for are kept.
    """
    return synth.read_corpus(args.corpus, lambda n: synth.held_out(n, args.test_frac, args.split_seed) == test)


def _load_ckpt(args, corpus: synth.Corpus):
    """``--ckpt``, rejected unless it takes the feature length of ``--corpus`` and has its vocabulary."""
    params = load_params(args.ckpt)
    n_feature = corpus.features.shape[1]
    if params.v_obj != n_feature:
        raise ValueError(
            f"{args.ckpt}: checkpoint takes {params.v_obj} features per scene, "
            f"but {args.corpus} has {n_feature}"
        )
    if params.vocab_size != synth.vocab_size(n_feature):
        raise ValueError(
            f"{args.ckpt}: checkpoint has {params.vocab_size} tokens, "
            f"but {n_feature} objects take {synth.vocab_size(n_feature)}"
        )
    return params


def _add_train_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--loss", choices=[m.value for m in LossMode], default="mle")
    p.add_argument("--tau", type=float, default=0.5, help="softmax temperature for the weights")
    p.add_argument("--start-frac", type=float, default=0.5, help="fraction of training before re-weighting starts")
    p.add_argument("--no-eos-floor", dest="eos_floor", action="store_false", help="disable the EOS weight floor")
    p.add_argument("--noise-step", type=int, default=DEFAULT_NOISE_STEP)
    p.add_argument("--epochs", type=int, default=2)
    p.add_argument("--batch-size", type=int, default=128)
    p.add_argument("--lr", type=float, default=3e-3)
    _add_split_flags(p)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="visdep",
        description="Visual-dependence measurement, re-weighted training and hallucination evaluation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic corpus")
    _add_common(p)
    p.add_argument("--scenes", type=int, required=True)
    p.add_argument("--objects", type=int, default=40)
    p.add_argument("--halluc-rate", type=float, default=0.6)
    p.add_argument("--jitter", type=float, default=0.05)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("train", help="train the toy model on a corpus")
    _add_common(p)
    p.add_argument("--corpus", required=True)
    p.add_argument("--manifest", default=None, help="filter manifest restricting the training set")
    _add_train_flags(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("analyze", help="per-token CSV from a trace file")
    _add_common(p)
    p.add_argument("--traces", required=True)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("filter", help="score training samples and build a filter manifest")
    _add_common(p)
    p.add_argument("--corpus", required=True)
    p.add_argument("--ckpt", required=True)
    p.add_argument("--strategy", choices=[s.value for s in FilterStrategy], required=True)
    p.add_argument("--frac", type=float, required=True)
    p.add_argument("--noise-step", type=int, default=DEFAULT_NOISE_STEP)
    _add_split_flags(p)
    p.set_defaults(func=cmd_filter)

    p = sub.add_parser("eval", help="decode the test split and report hallucination metrics")
    _add_common(p)
    p.add_argument("--corpus", required=True)
    p.add_argument("--ckpt", required=True)
    p.add_argument("--noise-step", type=int, default=DEFAULT_NOISE_STEP)
    p.add_argument("--max-len", type=int, default=40)
    _add_split_flags(p)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("sweep", help="train+eval across one hyperparameter axis")
    _add_common(p)
    p.add_argument("--corpus", required=True)
    p.add_argument("--axis", choices=["tau", "start-frac", "noise-step"], required=True)
    p.add_argument("--values", type=float, nargs="+", required=True)
    _add_train_flags(p)
    p.add_argument("--max-len", type=int, default=40)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("plot", help="SVG charts from traces and/or a score manifest")
    _add_common(p)
    p.add_argument("--traces", default=None)
    p.add_argument("--manifest", default=None)
    p.set_defaults(func=cmd_plot)

    return parser


def cmd_synth(args) -> int:
    out = _out_dir(args)
    cfg = synth.CorpusConfig(
        num_scenes=args.scenes,
        vocab_objects=args.objects,
        hallucination_rate=args.halluc_rate,
        sigma_jitter=args.jitter,
        seed=args.seed,
    )
    corpus = synth.generate_corpus(cfg)
    synth.write_corpus(corpus, out / CORPUS_FILE)
    _write_run(out, args)
    print(f"wrote {out / CORPUS_FILE} ({len(corpus)} scenes)")
    return EXIT_OK


def _train_config(args) -> TrainConfig:
    return TrainConfig(
        epochs=args.epochs,
        batch_size=args.batch_size,
        learning_rate=args.lr,
        seed=args.seed,
        reweight=ReweightConfig(
            mode=LossMode(args.loss),
            tau=args.tau,
            start_fraction=args.start_frac,
            eos_floor=args.eos_floor,
        ),
        noise_step=args.noise_step,
    )


def cmd_train(args) -> int:
    cfg = _train_config(args)
    out = _out_dir(args)
    corpus = _read_split(args, test=False)
    if args.manifest:
        manifest = load_manifest(args.manifest)
        if set(manifest.kept) | set(manifest.removed) != set(corpus.scene_ids):
            raise ValueError(
                f"{args.manifest}: scored scenes are not this training split "
                f"(--test-frac {args.test_frac}, --split-seed {args.split_seed})"
            )
        kept = set(manifest.kept)
        corpus = corpus.take(np.array([sid in kept for sid in corpus.scene_ids], dtype=bool))
    params, log = train(corpus, cfg)
    save_params(params, out / CKPT_FILE)
    write_train_log(log, out / TRAINLOG_FILE)
    _write_run(out, args)
    print(f"wrote {out / CKPT_FILE} ({len(corpus)} training scenes, {len(log)} steps)")
    return EXIT_OK


def _csv_field(text: str) -> str:
    return '"' + text.replace('"', '""') + '"'


def cmd_analyze(args) -> int:
    out = _out_dir(args)
    tf = read_traces(args.traces)
    d = dependence_array(tf.p_clean, tf.p_noisy)
    lines = ["sample_id,t,surface,p_clean,p_noisy,d,class"]
    rows = zip(
        tf.sample_ids, tf.lengths.tolist(), tf.surfaces.tolist(), tf.p_clean.tolist(), tf.p_noisy.tolist(),
        d.tolist(), classify_array(d).tolist(),
    )
    for sid, n, surfaces, clean, noisy, row_d, codes in rows:
        sid = _csv_field(sid) if any(c in sid for c in ',"\n\r') else sid
        for t in range(n):
            lines.append(
                f"{sid},{t},{_csv_field(surfaces[t])},{clean[t]!r},{noisy[t]!r},"
                f"{row_d[t]!r},{CLASS_BY_CODE[codes[t]].value}"
            )
    write_text(out / ANALYSIS_FILE, "\n".join(lines) + "\n")
    _write_run(out, args)
    print(f"wrote {out / ANALYSIS_FILE} ({len(tf.sample_ids)} traces)")
    return EXIT_OK


def cmd_filter(args) -> int:
    check_fraction(args.frac)
    check_noise_step(args.noise_step)
    out = _out_dir(args)
    corpus = _read_split(args, test=False)
    params = _load_ckpt(args, corpus)
    scores = score_corpus(corpus, params, noise_step=args.noise_step, seed=args.seed)
    manifest = apply_filter(scores, FilterStrategy(args.strategy), args.frac, seed=args.seed)
    save_manifest(manifest, out / MANIFEST_FILE)
    _write_run(out, args)
    print(f"wrote {out / MANIFEST_FILE} (removed {len(manifest.removed)} of {len(scores)})")
    return EXIT_OK


def run_eval(params, corpus: synth.Corpus, noise_step: int, seed: int, max_len: int):
    """Decode the corpus's scenes, trace them against a noised condition, and score.

    The clean probabilities are the decode's own; only the noised pass is
    teacher-forced.  Returns (traces, report, counts, histogram).
    """
    tokens, lengths, p_clean = generate_batch(params, corpus.features, max_len=max_len)
    seeds = [derive_seed(seed, "evalnoise", sid) for sid in corpus.scene_ids]
    p_noisy, d = noised_dependence(params, corpus.features, tokens, lengths, p_clean, seeds, noise_step)
    surfaces = np.array(synth.surfaces_for(range(params.vocab_size), params.v_obj), dtype=object)
    traces = TraceArrays(
        noise_step=noise_step,
        sample_ids=corpus.scene_ids,
        tokens=tokens,
        lengths=lengths,
        surfaces=surfaces[tokens],
        p_clean=p_clean,
        p_noisy=p_noisy,
        ends_at_eos=tokens[np.arange(len(lengths)), lengths - 1] == synth.EOS_ID,
        generator={"source": "toymodel-eval"},
    )
    report = evaluate(tokens, lengths, corpus.truth)
    counts = class_object_counts(d, tokens, lengths, corpus.truth)
    hist = co_occurrence(d, tokens, lengths, corpus.truth, window=3)
    return traces, report, counts, hist


def _fraction_within(row: list[int]) -> float | None:
    """The share within the window of one ``co_occurrence`` row's mentions that have a token of its class."""
    near = sum(row[:-2])
    return near / (near + row[-2]) if near + row[-2] else None


def _write_eval_artifacts(out: Path, tf, report, counts, hist) -> None:
    write_traces(tf, out / TRACES_FILE)
    with open(out / REPORT_FILE, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(report.to_dict(), fh, sort_keys=True, indent=2)
        fh.write("\n")
    lines = ["class,grounded,hallucinated"]
    for cls, (grounded, hallucinated) in zip(TokenClass, counts.tolist()):
        lines.append(f"{cls.value},{grounded},{hallucinated}")
    write_text(out / CLASS_COUNTS_FILE, "\n".join(lines) + "\n")
    lines = ["class,bucket,count"]
    for cls, row in zip(TokenClass, hist.tolist()):
        lines.extend(f"{cls.value},{d},{c}" for d, c in enumerate(row[:-2]))
        lines.append(f"{cls.value},beyond,{row[-2]}")
        lines.append(f"{cls.value},absent,{row[-1]}")
        frac = _fraction_within(row)
        lines.append(f"{cls.value},fraction_within,{'' if frac is None else repr(frac)}")
    write_text(out / COOCCUR_FILE, "\n".join(lines) + "\n")


def cmd_eval(args) -> int:
    check_noise_step(args.noise_step)
    check_max_len(args.max_len)
    out = _out_dir(args)
    corpus = _read_split(args, test=True)
    params = _load_ckpt(args, corpus)
    tf, report, counts, hist = run_eval(params, corpus, args.noise_step, args.seed, args.max_len)
    _write_eval_artifacts(out, tf, report, counts, hist)
    _write_run(out, args)
    print(
        f"wrote {out / REPORT_FILE} "
        f"(chair_s={report.chair_s:.4f} chair_i={report.chair_i:.4f} recall={report.recall:.4f})"
    )
    return EXIT_OK


def cmd_sweep(args) -> int:
    if args.axis == "noise-step" and not all(v.is_integer() for v in args.values):
        print(f"error: --axis noise-step takes integer values, got {args.values}", file=sys.stderr)
        return EXIT_USAGE
    names = [f"{args.axis}-{value:g}" for value in args.values]
    if len(set(names)) < len(names):
        print(f"error: two --values share a sub-run name: {names}", file=sys.stderr)
        return EXIT_USAGE
    # every value is checked before the first one trains
    configs = []
    for value in args.values:
        sub_args = argparse.Namespace(**vars(args))
        setattr(sub_args, args.axis.replace("-", "_"), int(value) if args.axis == "noise-step" else value)
        configs.append(_train_config(sub_args))
    check_max_len(args.max_len)
    out = _out_dir(args)
    train_corpus, test_corpus = synth.train_test_split(synth.read_corpus(args.corpus), args.test_frac, args.split_seed)
    rows = ["value,chair_s,chair_i,recall,mean_len"]
    for value, name, cfg in zip(args.values, names, configs):
        params, _ = train(train_corpus, cfg)
        sub_out = out / name
        sub_out.mkdir(parents=True, exist_ok=True)
        save_params(params, sub_out / CKPT_FILE)
        tf, report, counts, hist = run_eval(params, test_corpus, cfg.noise_step, args.seed, args.max_len)
        _write_eval_artifacts(sub_out, tf, report, counts, hist)
        rows.append(
            f"{value:g},{report.chair_s!r},{report.chair_i!r},{report.recall!r},{report.mean_len!r}"
        )
    write_text(out / SWEEP_FILE, "\n".join(rows) + "\n")
    _write_run(out, args)
    print(f"wrote {out / SWEEP_FILE} ({len(args.values)} rows)")
    return EXIT_OK


def cmd_plot(args) -> int:
    if not args.traces and not args.manifest:
        print("error: plot requires --traces and/or --manifest", file=sys.stderr)
        return EXIT_USAGE
    out = _out_dir(args)
    wrote = []
    if args.traces:
        tf = read_traces(args.traces)
        if len(tf.sample_ids) == 0:
            raise ValueError(f"{args.traces}: no traces to plot")
        for sid in tf.sample_ids:
            if sid in (".", "..") or any(c and c in sid for c in (os.sep, os.altsep, "\0")):
                raise ValueError(f"{args.traces}: trace {sid!r}: sample_id is not a file name, cannot plot it")
        d = dependence_array(tf.p_clean, tf.p_noisy)
        for i, (sid, n) in enumerate(zip(tf.sample_ids, tf.lengths.tolist())):
            path = out / f"trace_{sid}.svg"
            write_text(path, trace_bars_svg(sid, tf.surfaces[i, :n], tf.p_clean[i, :n], tf.p_noisy[i, :n], d[i, :n]))
            wrote.append(path.name)
    if args.manifest:
        manifest = load_manifest(args.manifest)
        svg, counts, edges = score_histogram_svg(list(manifest.scores.values()))
        write_text(out / SCORE_HIST_SVG, svg)
        lines = ["bin_lo,bin_hi,count"]
        for i, c in enumerate(counts):
            lines.append(f"{float(edges[i])!r},{float(edges[i + 1])!r},{int(c)}")
        write_text(out / SCORE_HIST_CSV, "\n".join(lines) + "\n")
        wrote.extend([SCORE_HIST_SVG, SCORE_HIST_CSV])
    _write_run(out, args)
    print(f"wrote {len(wrote)} plot artifacts to {out}")
    return EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        return args.func(args)
    except TrainingDiverged as exc:
        print(f"error: diverged: {exc}", file=sys.stderr)
        return EXIT_DIVERGED
    except (TraceError, ValueError, OSError, json.JSONDecodeError, KeyError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
