"""Acceptance suite: one test — and one pass/fail line — per release criterion.

Run ``pytest tests/test_acceptance.py -v`` to see the per-criterion
verdicts.  C1–C6 and C11 are self-contained numerical checks; C7–C10
share one 5000-scene corpus and their trained models through
session-scoped fixtures (C9 trains a baseline and two filtered models at
each of five seeds) and together finish in a few minutes.
"""

import time
from collections import namedtuple

import numpy as np
import pytest

from visdep import synth
from visdep.cli import run_eval
from visdep.dependence import (
    CLASS_BY_CODE,
    NEGATIVE_THRESHOLD,
    POSITIVE_THRESHOLD,
    TokenClass,
    classify_array,
    dependence_array,
)
from visdep.filtering import FilterStrategy, apply_filter, save_manifest, score_corpus
from visdep.halleval import evaluate
from visdep.reweight import LossMode, ReweightConfig, training_weights
from visdep.synth import Corpus, CorpusConfig, generate_corpus, train_test_split, write_corpus
from visdep.toymodel import (
    TrainConfig,
    _forward_batch,
    _loss_and_grads,
    init_params,
    save_params,
    train,
)
from visdep.trace import write_traces

from test_toymodel import padded

# Evaluation protocol.  Corpus, epochs, temperature, gating point and
# noise step are fixed by the protocol; batch size, learning rate and
# the training seed are free choices pinned here so that every run of
# this suite reproduces the same numbers.
CORPUS_SIZE = 5000
CORPUS_SEED = 42
TEST_FRACTION = 0.2
EPOCHS = 2
BATCH_SIZE = 8
LEARNING_RATE = 0.02
TRAIN_SEED = 2
TAU = 0.5
START_FRACTION = 0.5
NOISE_STEP = 900
EVAL_SEED = 42
MAX_LEN = 40
FILTER_FRACTION = 0.1
# C9 compares filtered retraining with the baseline as paired differences
# averaged over these training seeds, so its verdict is not one seed's draw.
FILTER_SEEDS = tuple(range(TRAIN_SEED, TRAIN_SEED + 5))

Bundle = namedtuple("Bundle", "params report hist seconds")
FilterArm = namedtuple("FilterArm", "report insertion_share")


def _verdict(cid: str, ok: bool, detail: str) -> None:
    print(f"\n[{cid}] {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"[{cid}] FAIL {detail}"


def _protocol_config(mode: LossMode, seed: int = TRAIN_SEED) -> TrainConfig:
    return TrainConfig(
        epochs=EPOCHS,
        batch_size=BATCH_SIZE,
        learning_rate=LEARNING_RATE,
        seed=seed,
        reweight=ReweightConfig(mode=mode, tau=TAU, start_fraction=START_FRACTION),
        noise_step=NOISE_STEP,
    )


@pytest.fixture(scope="session")
def protocol_corpus():
    corpus = generate_corpus(CorpusConfig(num_scenes=CORPUS_SIZE, seed=CORPUS_SEED))
    return train_test_split(corpus, TEST_FRACTION, seed=CORPUS_SEED)


def _train_and_eval(protocol_corpus, mode: LossMode) -> Bundle:
    train_scenes, test_scenes = protocol_corpus
    t0 = time.perf_counter()
    params, _ = train(train_scenes, _protocol_config(mode))
    _, report, _, hist = run_eval(params, test_scenes, NOISE_STEP, EVAL_SEED, MAX_LEN)
    return Bundle(params, report, hist, time.perf_counter() - t0)


@pytest.fixture(scope="session")
def mle_bundle(protocol_corpus):
    return _train_and_eval(protocol_corpus, LossMode.VANILLA)


@pytest.fixture(scope="session")
def wneg_bundle(protocol_corpus):
    return _train_and_eval(protocol_corpus, LossMode.EMPHASIZE_NEGATIVE)


@pytest.fixture(scope="session")
def wpos_bundle(protocol_corpus):
    return _train_and_eval(protocol_corpus, LossMode.EMPHASIZE_POSITIVE)


def _insertion_share(corpus: Corpus) -> float:
    """Share of captions that carry at least one labelled hallucinated insertion."""
    return float(corpus.inserted.any(axis=1).mean())


@pytest.fixture(scope="session")
def filter_runs(protocol_corpus, mle_bundle):
    """Per seed in FILTER_SEEDS: the baseline report and, for each Σd filter,
    the report after retraining on the kept scenes plus the insertion share
    of the removed scenes (read from the corpus labels)."""
    train_scenes, test_scenes = protocol_corpus
    runs = {}
    for seed in FILTER_SEEDS:
        if seed == TRAIN_SEED:
            base_params, base_report = mle_bundle.params, mle_bundle.report
        else:
            base_params, _ = train(train_scenes, _protocol_config(LossMode.VANILLA, seed))
            _, base_report, _, _ = run_eval(base_params, test_scenes, NOISE_STEP, EVAL_SEED, MAX_LEN)
        scores = score_corpus(train_scenes, base_params, noise_step=NOISE_STEP, seed=EVAL_SEED)
        arms = {"mle": base_report}
        for strategy in (FilterStrategy.REMOVE_HIGHEST, FilterStrategy.REMOVE_LOWEST):
            manifest = apply_filter(scores, strategy, FILTER_FRACTION, seed=EVAL_SEED)
            kept_ids = set(manifest.kept)
            kept = np.array([sid in kept_ids for sid in train_scenes.scene_ids])
            subset, removed = train_scenes.take(kept), train_scenes.take(~kept)
            params, _ = train(subset, _protocol_config(LossMode.VANILLA, seed))
            _, report, _, _ = run_eval(params, test_scenes, NOISE_STEP, EVAL_SEED, MAX_LEN)
            arms[strategy] = FilterArm(report, _insertion_share(removed))
        runs[seed] = arms
    return runs


def test_c01_token_dependence_oracle():
    """10^5 random pairs against the closed form, plus antisymmetry and range."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(CORPUS_SEED)
    n = 100_000
    p = rng.uniform(0.0, 1.0, n)
    q = rng.uniform(0.0, 1.0, n)
    p[rng.random(n) < 0.03] = 0.0
    q[rng.random(n) < 0.03] = 0.0
    denom = np.maximum(p, q)
    expected = np.divide(p - q, denom, out=np.zeros(n), where=denom > 0.0)

    forward = np.array([dependence_array(a, b) for a, b in zip(p, q)])
    backward = np.array([dependence_array(b, a) for a, b in zip(p, q)])
    err = float(np.max(np.abs(forward - expected)))
    anti = float(np.max(np.abs(forward + backward)))
    vec_err = float(np.max(np.abs(dependence_array(p, q) - expected)))
    in_range = bool(np.all(forward >= -1.0) and np.all(forward <= 1.0))
    elapsed = time.perf_counter() - t0
    ok = err <= 1e-12 and anti <= 1e-12 and vec_err <= 1e-12 and in_range and elapsed < 5.0
    _verdict(
        "C1",
        ok,
        f"max_err={err:.2e} antisym={anti:.2e} array_err={vec_err:.2e} "
        f"range_ok={in_range} {elapsed:.2f}s",
    )


def test_c02_class_boundaries():
    """The two thresholds land exactly on the documented sides."""
    cases = [
        (POSITIVE_THRESHOLD, TokenClass.IMAGE_POSITIVE),
        (NEGATIVE_THRESHOLD, TokenClass.IMAGE_INVARIANT),
        (float(np.nextafter(0.25, 0.0)), TokenClass.IMAGE_INVARIANT),
        (float(np.nextafter(-0.25, -1.0)), TokenClass.IMAGE_NEGATIVE),
        (1.0, TokenClass.IMAGE_POSITIVE),
        (-1.0, TokenClass.IMAGE_NEGATIVE),
        (0.0, TokenClass.IMAGE_INVARIANT),
    ]
    got = [CLASS_BY_CODE[c] for c in classify_array([d for d, _ in cases]).tolist()]
    bad = [(d, g.value, cls.value) for (d, cls), g in zip(cases, got) if g is not cls]
    _verdict("C2", not bad, f"boundary cases checked={len(cases)} mismatches={bad}")


def _normalized(raw: np.ndarray, tau: float) -> np.ndarray:
    """One row of ``raw`` weights through ``training_weights``: an
    emphasize-negative step on ``d = -raw``, without the EOS floor."""
    cfg = ReweightConfig(mode=LossMode.EMPHASIZE_NEGATIVE, tau=tau, eos_floor=False)
    return training_weights(-raw[None], np.array([raw.size]), cfg)[0]


def test_c03_weight_normalization():
    """10^4 random vectors: sums, the tau=0 identity, and order preservation."""
    rng = np.random.default_rng(7)
    worst_rel = 0.0
    order_ok = True
    for _ in range(10_000):
        n = int(rng.integers(1, 2049))
        tau = float(rng.uniform(0.0, 4.0))
        raw = rng.uniform(0.0, 1.0, n)
        wv = _normalized(raw, tau)
        worst_rel = max(worst_rel, abs(float(wv.sum()) - n) / n)
        if n > 1 and order_ok:
            order_ok = bool(
                np.array_equal(
                    np.argsort(raw, kind="stable"),
                    np.argsort(wv, kind="stable"),
                )
            )
    tau_zero_ok = all(
        bool(np.all(_normalized(rng.uniform(0, 1, n), 0.0) == 1.0))
        for n in (1, 2, 17, 2048)
    )
    ok = worst_rel <= 1e-9 and tau_zero_ok and order_ok
    _verdict(
        "C3",
        ok,
        f"worst_sum_rel_err={worst_rel:.2e} tau0_exact_ones={tau_zero_ok} "
        f"order_preserved={order_ok}",
    )


def test_c04_analytic_gradients_match_finite_differences():
    """Central differences (eps=1e-4) over every parameter block."""
    t0 = time.perf_counter()
    eps = 1e-4
    worst = 0.0
    blocks_checked = set()
    n_blocks = None
    for instance in range(3):
        seed = 100 + instance
        rng = np.random.default_rng(seed)
        v_obj = 5
        params = init_params(synth.vocab_size(v_obj), v_obj, d_emb=6, d_hid=8, seed=seed)
        condition = rng.uniform(0.0, 1.0, v_obj)
        target = [int(t) for t in rng.integers(0, params.vocab_size, 5)]
        weights = rng.uniform(0.2, 2.0, 5)

        def loss_and_grads():
            """The weighted loss and gradients of the one sequence, as a one-row batch."""
            c = condition[None, :]
            return _loss_and_grads(params, c, _forward_batch(params, c, *padded([target])), weights[None, :])

        _, grads = loss_and_grads()
        n_blocks = len(params.blocks())
        for name, block in params.blocks().items():
            flat = block.ravel()
            analytic = grads.blocks()[name].ravel()
            fd = np.empty_like(analytic)
            for k in range(flat.size):
                orig = flat[k]
                flat[k] = orig + eps
                up, _ = loss_and_grads()
                flat[k] = orig - eps
                down, _ = loss_and_grads()
                flat[k] = orig
                fd[k] = (up - down) / (2.0 * eps)
            dev = np.abs(analytic - fd) / np.maximum(np.abs(fd), 1e-3)
            worst = max(worst, float(dev.max()))
            np.testing.assert_allclose(analytic, fd, rtol=1e-4, atol=1e-7)
            blocks_checked.add(name)
    elapsed = time.perf_counter() - t0
    ok = len(blocks_checked) == n_blocks and elapsed < 30.0
    _verdict(
        "C4",
        ok,
        f"instances=3 blocks={len(blocks_checked)}/{n_blocks} "
        f"worst_rel_dev={worst:.2e} {elapsed:.2f}s",
    )


def test_c05_gated_reweighting_is_bit_identical_before_activation():
    """start_fraction=1.0 never activates, so the run must equal vanilla."""
    scenes = generate_corpus(CorpusConfig(num_scenes=200, seed=CORPUS_SEED))
    base = dict(epochs=1, batch_size=16, learning_rate=0.01, seed=5, noise_step=NOISE_STEP)
    vanilla, v_log = train(
        scenes, TrainConfig(reweight=ReweightConfig(mode=LossMode.VANILLA), **base)
    )
    gated, g_log = train(
        scenes,
        TrainConfig(
            reweight=ReweightConfig(mode=LossMode.EMPHASIZE_NEGATIVE, start_fraction=1.0),
            **base,
        ),
    )
    same_params = all(
        np.array_equal(vanilla.blocks()[name], gated.blocks()[name])
        for name in vanilla.blocks()
    )
    same_losses = [r.loss for r in v_log] == [r.loss for r in g_log]
    _verdict("C5", same_params and same_losses, f"params_equal={same_params} losses_equal={same_losses}")


def test_c06_evaluation_matches_naive_recount():
    """1000 random responses re-scored with an independent tally."""
    rng = np.random.default_rng(CORPUS_SEED)
    v_obj = 40
    responses, truths = [], []
    for _ in range(1000):
        length = int(rng.integers(1, 30))
        responses.append([int(t) for t in rng.integers(0, synth.vocab_size(v_obj), length)])
        truths.append({int(o) for o in rng.choice(v_obj, size=int(rng.integers(0, 7)), replace=False)})
    tokens, lengths = padded(responses)
    truth = np.zeros((len(truths), v_obj), dtype=bool)
    for i, objs in enumerate(truths):
        truth[i, list(objs)] = True
    report = evaluate(tokens, lengths, truth)

    with_bad = bad_mentions = mentions = recalled = truth_total = total_len = 0
    for resp, truth in zip(responses, truths):
        objs = [t - synth.OBJECT_BASE for t in resp if t >= synth.OBJECT_BASE]
        bad = sum(1 for o in objs if o not in truth)
        mentions += len(objs)
        bad_mentions += bad
        with_bad += bool(bad)
        recalled += len(set(objs) & truth)
        truth_total += len(truth)
        total_len += len(resp)
    expected = {
        "chair_s": with_bad / 1000,
        "chair_i": bad_mentions / mentions,
        "recall": recalled / truth_total,
        "mean_len": total_len / 1000,
        "n_samples": 1000,
    }
    errs = {
        key: abs(getattr(report, key) - value) / max(1.0, abs(value))
        for key, value in expected.items()
    }
    ok = all(e <= 1e-12 for e in errs.values())
    _verdict("C6", ok, "max_field_rel_err={:.2e}".format(max(errs.values())))


@pytest.mark.slow
def test_c07_negative_reweighting_cuts_hallucination(mle_bundle, wneg_bundle):
    m, w = mle_bundle.report, wneg_bundle.report
    cut = (m.chair_i - w.chair_i) / m.chair_i if m.chair_i else float("-inf")
    len_ratio = w.mean_len / m.mean_len
    recall_drop = m.recall - w.recall
    runtime = mle_bundle.seconds + wneg_bundle.seconds
    ok = cut >= 0.20 and 0.9 <= len_ratio <= 1.1 and recall_drop <= 0.05 and runtime < 600
    _verdict(
        "C7",
        ok,
        f"chair_i {m.chair_i:.4f}->{w.chair_i:.4f} (cut {cut:+.1%}) "
        f"len_ratio={len_ratio:.3f} recall_drop={recall_drop:+.4f} runtime={runtime:.0f}s",
    )


@pytest.mark.slow
def test_c08_positive_reweighting_trades_the_other_way(mle_bundle, wneg_bundle, wpos_bundle):
    m, w, p = mle_bundle.report, wneg_bundle.report, wpos_bundle.report
    ok = p.recall >= m.recall and p.recall > w.recall
    _verdict(
        "C8",
        ok,
        f"recall mle={m.recall:.4f} wpos={p.recall:.4f} wneg={w.recall:.4f} "
        f"chair_i mle={m.chair_i:.4f} wpos={p.chair_i:.4f} wneg={w.chair_i:.4f}",
    )


@pytest.mark.slow
def test_c09_dependence_filtering_controls(filter_runs):
    """Each condition holds on the mean of the paired per-seed differences."""
    rows = []
    for seed, arms in filter_runs.items():
        m = arms["mle"]
        high = arms[FilterStrategy.REMOVE_HIGHEST]
        low = arms[FilterStrategy.REMOVE_LOWEST]
        rows.append(
            (
                high.report.chair_i - m.chair_i,
                high.report.recall - m.recall,
                high.report.chair_i - low.report.chair_i,
                low.report.recall - m.recall,
                high.insertion_share - low.insertion_share,
            )
        )
        print(
            f"\n[C9] seed {seed}: chair_i mle={m.chair_i:.4f} high={high.report.chair_i:.4f} "
            f"low={low.report.chair_i:.4f} | recall mle={m.recall:.4f} "
            f"high={high.report.recall:.4f} low={low.report.recall:.4f} | removed "
            f"insertion share high={high.insertion_share:.3f} low={low.insertion_share:.3f} | "
            f"mean_len mle={m.mean_len:.3f} high={high.report.mean_len:.3f} low={low.report.mean_len:.3f} "
            f"len_ratio high={high.report.mean_len / m.mean_len:.3f} low={low.report.mean_len / m.mean_len:.3f}"
        )
    d_high_chair, d_high_recall, d_high_low_chair, d_low_recall, d_share = np.mean(rows, axis=0)
    high_ok = d_high_chair < 0.0 and d_high_recall < 0.0
    low_ok = d_high_low_chair < 0.0 and abs(d_low_recall) <= 0.01
    labels_ok = d_share > 0.0
    _verdict(
        "C9",
        high_ok and low_ok and labels_ok,
        f"mean over seeds {FILTER_SEEDS[0]}-{FILTER_SEEDS[-1]}: remove-highest "
        f"d_chair_i={d_high_chair:+.4f} d_recall={d_high_recall:+.4f} ok={high_ok} | "
        f"highest-lowest chair_i={d_high_low_chair:+.4f} remove-lowest "
        f"d_recall={d_low_recall:+.4f} ok={low_ok} | removed insertion share "
        f"highest-lowest={d_share:+.3f} ok={labels_ok}",
    )


@pytest.mark.slow
def test_c10_hallucinations_cluster_near_invariant_spans(mle_bundle):
    hist = mle_bundle.hist
    inv = hist.per_class[TokenClass.IMAGE_INVARIANT].fraction_within
    pos = hist.per_class[TokenClass.IMAGE_POSITIVE].fraction_within
    ok = inv is not None and pos is not None and inv > pos
    _verdict("C10", ok, f"fraction_within_3: invariant={inv} positive={pos}")


def test_c11_artifacts_are_byte_identical_on_rerun(tmp_path):
    cfg = CorpusConfig(num_scenes=200, seed=CORPUS_SEED)
    train_cfg = TrainConfig(epochs=1, batch_size=16, learning_rate=0.01, seed=5)
    outputs = []
    for run in ("a", "b"):
        corpus = generate_corpus(cfg)
        write_corpus(corpus, tmp_path / f"corpus-{run}.jsonl")
        params, _ = train(corpus, train_cfg)
        save_params(params, tmp_path / f"ckpt-{run}.json")
        tf, _, _, _ = run_eval(params, corpus.take(np.arange(40)), NOISE_STEP, EVAL_SEED, MAX_LEN)
        write_traces(tf, tmp_path / f"traces-{run}.jsonl")
        scores = score_corpus(corpus, params, noise_step=NOISE_STEP, seed=EVAL_SEED)
        manifest = apply_filter(scores, FilterStrategy.REMOVE_HIGHEST, 0.1, seed=EVAL_SEED)
        save_manifest(manifest, tmp_path / f"manifest-{run}.json")
        outputs.append(
            {
                name: (tmp_path / f"{name}-{run}{ext}").read_bytes()
                for name, ext in [
                    ("corpus", ".jsonl"),
                    ("ckpt", ".json"),
                    ("traces", ".jsonl"),
                    ("manifest", ".json"),
                ]
            }
        )
    mismatched = [name for name in outputs[0] if outputs[0][name] != outputs[1][name]]
    _verdict("C11", not mismatched, f"rerun artifact mismatches={mismatched or 'none'}")
