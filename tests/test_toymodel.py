"""Tests for the conditioned recurrent captioning model and its trainer."""

import csv
import math
import tracemalloc

import numpy as np
import pytest

import visdep.toymodel as toymodel
from visdep import synth
from visdep.dependence import CLASS_BY_CODE, classify_array, dependence_array, profile_trace
from visdep.diffusion import make_schedule, corrupt
from visdep.reweight import LossMode, ReweightConfig, training_weights
from visdep.seeding import derive_seed, rng_for
from visdep.synth import BOS_ID, EOS_ID, OBJECT_BASE, Corpus, CorpusConfig, generate_corpus, object_token
from visdep.toymodel import (
    SCORE_BLOCK_ROWS,
    ModelParams,
    TrainConfig,
    TrainingDiverged,
    _Adam,
    _cell_backward,
    _cell_forward,
    _cell_step,
    _gates,
    _forward_batch,
    _loss_and_grads,
    _sigmoid,
    batch_weights,
    generate_batch,
    init_params,
    load_params,
    noised_dependence,
    save_params,
    teacher_forced_probs,
    train,
    write_train_log,
)
from visdep.trace import TokenTrace

V_OBJ_SMALL = 5
VOCAB_SMALL = synth.vocab_size(V_OBJ_SMALL)


def small_params(seed=0):
    return init_params(VOCAB_SMALL, V_OBJ_SMALL, seed=seed, d_emb=6, d_hid=8)


def small_condition(seed=0):
    return np.random.default_rng(seed).normal(0.0, 1.0, V_OBJ_SMALL)


def _targets(corpus: Corpus) -> list[list[int]]:
    """Each caption after BOS, as a list of token ids."""
    return [row[1:n] for row, n in zip(corpus.captions.tolist(), corpus.lengths.tolist())]


def padded(rows):
    """``(ids, lengths)`` of variable-length token rows, zero past each length."""
    lengths = np.array([len(row) for row in rows], dtype=np.int64)
    ids = np.zeros((len(rows), lengths.max(initial=0)), dtype=np.int64)
    for i, row in enumerate(rows):
        ids[i, : len(row)] = row
    return ids, lengths


def _zeros_like(p: ModelParams) -> ModelParams:
    return ModelParams(**{name: np.zeros_like(arr) for name, arr in p.blocks().items()})


def _ref_forward(p: ModelParams, condition, prefix) -> np.ndarray:
    """Next-token distribution after consuming ``prefix`` (starting at BOS)."""
    condition = np.asarray(condition, dtype=np.float64)
    if condition.shape != (p.v_obj,):
        raise ValueError(f"condition must have shape ({p.v_obj},), got {condition.shape}")
    prefix = list(prefix)
    if not prefix or prefix[0] != synth.BOS_ID:
        raise ValueError("prefix must begin with BOS")
    if any(not 0 <= t < p.vocab_size for t in prefix):
        raise ValueError("prefix contains out-of-vocabulary token ids")
    gates = _gates(p)
    h = _cell_forward(gates, np.zeros((1, p.d_hid)), toymodel._cond_embed(p, condition[None, :]))
    for t in prefix:
        h = _cell_forward(gates, h, p.emb[[t]])
    logits = (h @ p.w_out + p.b_out)[0]
    logits = logits - logits.max()
    e = np.exp(logits)
    return e / e.sum()


def _one_row_loss(p, condition, target, weights):
    """``_loss_and_grads`` of one sequence, as a batch of one row."""
    c = np.asarray(condition, dtype=np.float64)[None, :]
    fwd = _forward_batch(p, c, *padded([target]))
    return _loss_and_grads(p, c, fwd, np.asarray(weights, dtype=np.float64)[None, :])


def _decode(p, condition, max_len=40):
    """``generate_batch`` of one condition, BOS through its last emitted token."""
    return _sequences(*generate_batch(p, np.asarray(condition)[None, :], max_len)[:2])[0]


@pytest.fixture(scope="module")
def tiny_corpus():
    return generate_corpus(CorpusConfig(num_scenes=160, seed=42))


@pytest.fixture(scope="module")
def mle_run(tiny_corpus):
    cfg = TrainConfig(epochs=2, batch_size=32, learning_rate=0.01, seed=7)
    return train(tiny_corpus, cfg)


@pytest.fixture(scope="module")
def wneg_run(tiny_corpus):
    cfg = TrainConfig(
        epochs=2,
        batch_size=32,
        learning_rate=0.01,
        seed=7,
        reweight=ReweightConfig(mode=LossMode.EMPHASIZE_NEGATIVE, start_fraction=0.0),
    )
    return train(tiny_corpus, cfg)


@pytest.fixture(scope="module")
def trained_run():
    """A model trained long enough to caption scenes it was shown."""
    corpus = generate_corpus(CorpusConfig(num_scenes=1000, seed=42))
    cfg = TrainConfig(epochs=4, batch_size=16, learning_rate=0.015, seed=42)
    return corpus, train(corpus, cfg)


class TestForward:
    def test_output_is_a_distribution(self):
        p = small_params()
        dist = _ref_forward(p, small_condition(), [BOS_ID])
        assert dist.shape == (VOCAB_SMALL,)
        assert dist.sum() == pytest.approx(1.0, abs=1e-9)
        assert np.all(dist > 0.0)

    def test_deterministic(self):
        p = small_params()
        cond = small_condition()
        prefix = [BOS_ID, 3, 4]
        np.testing.assert_array_equal(
            _ref_forward(p, cond, prefix), _ref_forward(p, cond, prefix)
        )

    def test_does_not_mutate_params(self):
        p = small_params()
        before = {name: arr.copy() for name, arr in p.blocks().items()}
        _ref_forward(p, small_condition(), [BOS_ID, 2])
        for name, arr in p.blocks().items():
            np.testing.assert_array_equal(arr, before[name])

    def test_rejects_prefix_without_bos(self):
        with pytest.raises(ValueError):
            _ref_forward(small_params(), small_condition(), [3, 4])

    def test_rejects_empty_prefix(self):
        with pytest.raises(ValueError):
            _ref_forward(small_params(), small_condition(), [])

    def test_rejects_out_of_vocab_token(self):
        with pytest.raises(ValueError):
            _ref_forward(small_params(), small_condition(), [BOS_ID, VOCAB_SMALL])

    def test_rejects_wrong_condition_shape(self):
        with pytest.raises(ValueError):
            _ref_forward(small_params(), np.zeros(V_OBJ_SMALL + 1), [BOS_ID])

    def test_condition_changes_the_distribution(self):
        p = small_params()
        a = _ref_forward(p, small_condition(1), [BOS_ID])
        b = _ref_forward(p, small_condition(2), [BOS_ID])
        assert np.abs(a - b).sum() > 0.0


def _ref_sigmoid(x):
    """Reference logistic: masked indexing, one ``exp`` formula per sign."""
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def _ref_cell_forward(p, h, x):
    """The unfused GRU step: one matmul per gate and weight block."""
    z = _ref_sigmoid(x @ p.w_xz + h @ p.w_hz + p.b_z)
    r = _ref_sigmoid(x @ p.w_xr + h @ p.w_hr + p.b_r)
    hr = r * h
    c = np.tanh(x @ p.w_xc + hr @ p.w_hc + p.b_c)
    return (1.0 - z) * h + z * c, (x, h, z, r, hr, c)


def _ref_cell_backward(p, g, dh_new, cache):
    """The unfused backward step; accumulates into ``g``, returns (dx, dh_prev)."""
    x, h_prev, z, r, hr, c = cache
    dz = dh_new * (c - h_prev)
    dc = dh_new * z
    dh_prev = dh_new * (1.0 - z)
    da_c = dc * (1.0 - c * c)
    g.w_xc += x.T @ da_c
    g.w_hc += hr.T @ da_c
    g.b_c += da_c.sum(axis=0)
    dx = da_c @ p.w_xc.T
    dhr = da_c @ p.w_hc.T
    dh_prev += dhr * r
    da_r = dhr * h_prev * r * (1.0 - r)
    g.w_xr += x.T @ da_r
    g.w_hr += h_prev.T @ da_r
    g.b_r += da_r.sum(axis=0)
    dx += da_r @ p.w_xr.T
    dh_prev += da_r @ p.w_hr.T
    da_z = dz * z * (1.0 - z)
    g.w_xz += x.T @ da_z
    g.w_hz += h_prev.T @ da_z
    g.b_z += da_z.sum(axis=0)
    dx += da_z @ p.w_xz.T
    dh_prev += da_z @ p.w_hz.T
    return dx, dh_prev


def _ref_train_step(p, conditions, targets, weights):
    """Loss and gradients of one step with everything per time step and unfused."""
    fwd = _forward_batch(p, conditions, *padded(targets))  # only its ids, lengths, mask and inputs are read
    b, t_max = fwd.targets.shape
    rows = np.arange(b)
    h, cache = _ref_cell_forward(p, np.zeros((b, p.d_hid)), toymodel._cond_embed(p, conditions))
    caches, hs, probs, target_logp = [cache], [], [], np.empty((b, t_max))
    for t in range(t_max):
        h, cache = _ref_cell_forward(p, h, p.emb[fwd.inputs[:, t]])
        logits = h @ p.w_out + p.b_out
        logits = logits - logits.max(axis=1, keepdims=True)
        expl = np.exp(logits)
        denom = expl.sum(axis=1)
        probs.append(expl / denom[:, None])
        target_logp[:, t] = logits[rows, fwd.targets[:, t]] - np.log(denom)
        caches.append(cache)
        hs.append(h)
    coef = np.where(fwd.mask, weights / (fwd.lengths[:, None] * b), 0.0)
    loss = float(-(coef * np.where(fwd.mask, target_logp, 0.0)).sum())
    g = _zeros_like(p)
    dh_next = np.zeros((b, p.d_hid))
    for t in range(t_max - 1, -1, -1):
        dlogits = probs[t] * coef[:, t][:, None]
        dlogits[rows, fwd.targets[:, t]] -= coef[:, t]
        g.w_out += hs[t].T @ dlogits
        g.b_out += dlogits.sum(axis=0)
        dx, dh_next = _ref_cell_backward(p, g, dh_next + dlogits @ p.w_out.T, caches[t + 1])
        np.add.at(g.emb, fwd.inputs[:, t], dx)
    dx_cond, _ = _ref_cell_backward(p, g, dh_next, caches[0])
    cond_emb = caches[0][0]
    g.cond += toymodel._normalized_conditions(conditions).T @ (dx_cond * (1.0 - cond_emb * cond_emb))
    return loss, g


def _full_size_params(seed):
    """Protocol-sized parameters with every block, biases included, nonzero."""
    rng = np.random.default_rng(seed)
    p = init_params(synth.vocab_size(40), 40, seed=seed)
    for arr in p.blocks().values():
        arr += rng.normal(0.0, 0.1, arr.shape)
    return p


class TestFusedCellMatchesReference:
    """The fused cell, the branch-free sigmoid and the hoisted output layer
    must reproduce the per-gate, per-step arithmetic bit for bit: a change
    in the last bit would move every trained checkpoint."""

    def test_sigmoid_is_bit_identical(self):
        x = np.concatenate(
            [
                np.random.default_rng(0).normal(0.0, 10.0, 10**6),
                [0.0, -0.0, 700.0, -700.0, 1e-300, -1e-300, 800.0, -800.0, np.nan, np.inf, -np.inf],
            ]
        )
        np.testing.assert_array_equal(_sigmoid(x), _ref_sigmoid(x))  # NaN where the reference has NaN
        assert np.isnan(_sigmoid(x)[-3]) and _sigmoid(x)[-2:].tolist() == [1.0, 0.0]

    @pytest.mark.parametrize("b", [1, 2, 8, 128])
    def test_cell_forward_and_backward_are_bit_identical(self, b):
        p = _full_size_params(b)
        rng = np.random.default_rng(100 + b)
        h = rng.normal(0.0, 1.0, (b, p.d_hid))
        x = rng.normal(0.0, 1.0, (b, p.d_emb))
        x[0, :4] = [0.0, -0.0, 700.0, -700.0]
        dh = rng.normal(0.0, 1.0, (b, p.d_hid))

        g = x @ _gates(p).w_x
        hr = np.empty_like(h)
        h_new = _cell_step(_gates(p), h, g, hr)
        ref_h, ref_cache = _ref_cell_forward(p, h, x)
        np.testing.assert_array_equal(h_new, ref_h)
        np.testing.assert_array_equal(_cell_forward(_gates(p), h, x), ref_h)
        _, _, z, r, ref_hr, ref_c = ref_cache
        np.testing.assert_array_equal(g, np.stack([z, r, ref_c]))
        np.testing.assert_array_equal(hr, ref_hr)

        ref_g = _zeros_like(p)
        ref_dx, ref_dh_prev = _ref_cell_backward(p, ref_g, dh, ref_cache)
        np.testing.assert_array_equal(_cell_backward(p, dh, h, g), ref_dh_prev)
        # g now holds [da_z, da_r, da_c], from which the caller builds dx
        # and the weight gradients as _loss_and_grads does
        da_z, da_r, da_c = g
        dx = da_c @ p.w_xc.T
        dx += da_r @ p.w_xr.T
        dx += da_z @ p.w_xz.T
        np.testing.assert_array_equal(dx, ref_dx)
        np.testing.assert_array_equal(x.T @ da_z, ref_g.w_xz)
        np.testing.assert_array_equal(h.T @ da_r, ref_g.w_hr)
        np.testing.assert_array_equal(hr.T @ da_c, ref_g.w_hc)
        np.testing.assert_array_equal(g.sum(axis=1), np.stack([ref_g.b_z, ref_g.b_r, ref_g.b_c]))

    @pytest.mark.parametrize("b", [1, 2, 8, 128])
    def test_training_step_is_bit_identical(self, b):
        p = _full_size_params(b)
        corpus = generate_corpus(CorpusConfig(num_scenes=b, seed=b))
        conditions, targets = corpus.features, _targets(corpus)
        fwd = _forward_batch(p, conditions, *padded(targets))
        weights = np.where(fwd.mask, np.random.default_rng(b).uniform(0.5, 2.0, fwd.mask.shape), 0.0)
        loss, grads = _loss_and_grads(p, conditions, fwd, weights)
        ref_loss, ref_grads = _ref_train_step(p, conditions, targets, weights)
        assert loss == ref_loss
        for name, arr in grads.blocks().items():
            np.testing.assert_array_equal(arr, ref_grads.blocks()[name], err_msg=name)


class TestWorkspace:
    """A training run writes every step's stacks and gradients into one
    ``_Workspace``; whatever an earlier step left there must not reach a
    later step's bits, and a step must hold no second cache."""

    def test_a_reused_workspace_leaks_nothing(self):
        """Steps whose shapes shrink and grow, then a doubled clean and
        noised batch, all through one workspace that starts out NaN: each
        step's loss and gradients equal the unfused reference's."""
        p = _full_size_params(9)
        longest = 34
        ws = toymodel._Workspace(p, 16, longest)
        for buf in (*ws.bufs.values(), ws.grad):
            buf.fill(np.nan)
        rng = np.random.default_rng(9)

        def batch(b, t):
            lengths = rng.integers(1, t + 1, size=b)
            lengths[0] = t
            targets = [[int(x) for x in rng.integers(1, p.vocab_size, size=n)] for n in lengths]
            conditions = rng.normal(0.0, 1.0, (b, p.v_obj))
            weights = np.where(np.arange(t) < lengths[:, None], rng.uniform(0.5, 2.0, (b, t)), 0.0)
            return conditions, targets, weights

        def check(fwd, conditions, targets, weights):
            loss, grads = _loss_and_grads(p, conditions, fwd, weights)
            ref_loss, ref_grads = _ref_train_step(p, conditions, targets, weights)
            assert loss == ref_loss
            for name, arr in grads.blocks().items():
                np.testing.assert_array_equal(arr, ref_grads.blocks()[name], err_msg=name)

        for b, t in [(8, 30), (3, 12), (16, longest)]:
            conditions, targets, weights = batch(b, t)
            check(_forward_batch(p, conditions, *padded(targets), ws), conditions, targets, weights)
        conditions, targets, weights = batch(8, 20)
        ids, lengths = padded(targets)
        noisy = rng.normal(0.0, 1.0, conditions.shape)
        both = _forward_batch(p, np.concatenate([conditions, noisy]), np.tile(ids, (2, 1)), np.tile(lengths, 2), ws)
        check(both.head(8), conditions, targets, weights)

    def test_a_step_holds_one_cache(self):
        """The traced peak of a two-step batch-64 run stays below 1.75 times
        the workspace's bytes.  The bound was fixed before measuring: the
        workspace is one forward cache plus ``dh_out``, the cache alone
        0.86 of it at this size, and everything else a step holds at once
        (parameters, gradients, Adam's moments, the backward's
        temporaries) is well under 0.75 of it; a second live cache alone
        would take the peak past the bound."""
        corpus = generate_corpus(CorpusConfig(num_scenes=64, seed=3))  # each step's batch is the whole corpus
        cfg = TrainConfig(epochs=2, batch_size=64, learning_rate=0.01, seed=3)
        p = init_params(synth.vocab_size(corpus.features.shape[1]), corpus.features.shape[1], seed=0)
        ws_bytes = sum(buf.nbytes for buf in toymodel._Workspace(p, 64, int(corpus.lengths.max()) - 1).bufs.values())
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            train(corpus, cfg)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < 1.75 * ws_bytes


class TestTeacherForcedProbs:
    def test_matches_stepwise_forward(self):
        """Batched teacher forcing equals position-by-position decoding."""
        p = small_params()
        rng = np.random.default_rng(42)
        conds = rng.normal(0.0, 1.0, (3, V_OBJ_SMALL))
        targets = [
            [int(t) for t in rng.integers(2, VOCAB_SMALL, size=n)] for n in (4, 7, 2)
        ]
        batched = teacher_forced_probs(p, conds, *padded(targets))
        assert batched.shape == (3, 7)
        for i, target in enumerate(targets):
            assert not batched[i, len(target) :].any()
            for t in range(len(target)):
                dist = _ref_forward(p, conds[i], [BOS_ID] + target[:t])
                assert batched[i][t] == pytest.approx(dist[target[t]], rel=1e-12)

    @pytest.mark.parametrize("n", [1100, SCORE_BLOCK_ROWS + 1])
    def test_blocks_do_not_change_any_row(self, n):
        """Rows are scored in blocks of SCORE_BLOCK_ROWS; slices that
        straddle a block boundary give every row the same bits, and so do
        a slice of a few rows and a one-row remainder."""
        p = _full_size_params(3)
        corpus = generate_corpus(CorpusConfig(num_scenes=n, seed=9))
        conds, targets = corpus.features, _targets(corpus)
        assert len({len(t) for t in targets}) > 5
        whole = teacher_forced_probs(p, conds, *padded(targets))
        assert whole.shape == (n, max(len(t) for t in targets))
        cuts = [c for c in (0, 8, 300, SCORE_BLOCK_ROWS - 1, SCORE_BLOCK_ROWS + 200) if c < n] + [n]
        for lo, hi in zip(cuts, cuts[1:]):
            part = teacher_forced_probs(p, conds[lo:hi], *padded(targets[lo:hi]))
            np.testing.assert_array_equal(whole[lo:hi, : part.shape[1]], part)
            assert not whole[lo:hi, part.shape[1] :].any()

    def test_padding_does_not_leak_between_sequences(self):
        """A ragged batch gives each row the same result as a batch of one."""
        p = small_params()
        rng = np.random.default_rng(1)
        conds = rng.normal(0.0, 1.0, (2, V_OBJ_SMALL))
        targets = [[3, 4, 5, 6, 7, 8], [9]]
        batched = teacher_forced_probs(p, conds, *padded(targets))
        for i, target in enumerate(targets):
            solo = teacher_forced_probs(p, conds[i : i + 1], *padded([target]))[0]
            np.testing.assert_allclose(batched[i, : len(target)], solo, rtol=1e-12)

    def test_ids_wider_than_the_longest_length(self):
        """Columns past the longest length, and junk past each row's length,
        change no probability or dependence bit: they come back as zeros."""
        p = _full_size_params(5)
        corpus = generate_corpus(CorpusConfig(num_scenes=40, seed=6))
        conds, (ids, lengths) = corpus.features, padded(_targets(corpus))
        wide = np.random.default_rng(0).integers(0, p.vocab_size, (len(ids), ids.shape[1] + 4))
        within = np.arange(ids.shape[1]) < lengths[:, None]
        wide[:, : ids.shape[1]][within] = ids[within]

        def widened(arr):
            return np.pad(arr, ((0, 0), (0, 4)))

        p_clean = teacher_forced_probs(p, conds, ids, lengths)
        np.testing.assert_array_equal(teacher_forced_probs(p, conds, wide, lengths), widened(p_clean))
        seeds = list(range(len(ids)))
        narrow = noised_dependence(p, conds, ids, lengths, p_clean, seeds, 900)
        got = noised_dependence(p, conds, wide, lengths, widened(p_clean), seeds, 900)
        for a, b in zip(got, narrow):
            np.testing.assert_array_equal(a, widened(b))


def _ref_teacher_forced_probs(p, conditions, targets):
    """Blocks of SCORE_BLOCK_ROWS rows in input order, every row run at every step."""
    n = len(targets)
    starts = list(range(0, n, SCORE_BLOCK_ROWS))
    if n > 1 and n % SCORE_BLOCK_ROWS == 1:
        starts.pop()
    gates = _gates(p)
    out = []
    for start, stop in zip(starts, starts[1:] + [n]):
        block = targets[start:stop]
        ids, _ = padded(block)
        b, t_max = ids.shape
        inputs = np.concatenate([np.full((b, 1), BOS_ID, dtype=np.int64), ids[:, :-1]], axis=1)
        h = _cell_forward(gates, np.zeros((b, p.d_hid)), toymodel._cond_embed(p, conditions[start:stop]))
        if b * t_max <= SCORE_BLOCK_ROWS:
            hs = np.empty((t_max, b, p.d_hid))
            for t in range(t_max):
                h = _cell_forward(gates, h, p.emb[inputs[:, t]], out=hs[t])
            _, target_p, _ = toymodel._output_layer(p, hs, ids.T)
        else:
            target_p = np.empty((t_max, b))
            for t in range(t_max):
                h = _cell_forward(gates, h, p.emb[inputs[:, t]])
                _, target_p[t : t + 1], _ = toymodel._output_layer(p, h[None], ids.T[t : t + 1])
        out.extend(target_p.T[i, : len(t)].copy() for i, t in enumerate(block))
    return out


def _scoring_targets(n, shape):
    """Corpus captions of mixed lengths, one caption 6 tokens longer than
    any other (in the middle of the batch), or n equal lengths."""
    corpus = generate_corpus(CorpusConfig(num_scenes=n, seed=11))
    conds, targets = corpus.features, _targets(corpus)
    if shape == "one_long":
        longest = max(len(t) for t in targets)
        targets[n // 2] = targets[n // 2] + [object_token(0)] * (longest + 6 - len(targets[n // 2]))
    elif shape == "equal":
        targets = [(t * 3)[:20] for t in targets]
    return conds, targets


class TestPackedScoringMatchesBlockLoop:
    """Rows sorted longest first, each step run on the live rows only (never
    fewer than two), and the rows put back in input order must give every
    probability the bits of the plain block loop."""

    @pytest.mark.parametrize("shape", ["mixed", "one_long", "equal"])
    @pytest.mark.parametrize("n", [2, SCORE_BLOCK_ROWS + 1, 1100])
    def test_bit_identical_to_the_block_loop(self, n, shape):
        p = _full_size_params(4)
        conds, targets = _scoring_targets(n, shape)
        lengths = sorted(len(t) for t in targets)
        if shape == "one_long":
            assert lengths[-1] >= lengths[-2] + 5
        assert (len(set(lengths)) == 1) == (shape == "equal")
        got = teacher_forced_probs(p, conds, *padded(targets))
        want = _ref_teacher_forced_probs(p, conds, targets)
        assert len(got) == len(want) == n
        for i, (a, b) in enumerate(zip(got, want)):
            assert np.array_equal(a[: len(b)], b), f"row {i}"
            assert not a[len(b) :].any(), f"row {i}"

    def test_scoring_block_must_come_longest_first(self):
        p = small_params()
        conds = np.zeros((SCORE_BLOCK_ROWS, V_OBJ_SMALL))
        targets = [[3]] + [[3, 4]] * (SCORE_BLOCK_ROWS - 1)
        with pytest.raises(ValueError, match="longest first"):
            toymodel._score_block(p, conds, *padded(targets))


class TestSequenceLoss:
    def test_uniform_weights_give_mean_cross_entropy(self):
        p = small_params()
        cond = small_condition()
        target = [3, 9, 4, 1]
        probs = teacher_forced_probs(p, cond[None, :], *padded([target]))[0]
        expected = -np.mean(np.log(probs))
        loss, _ = _one_row_loss(p, cond, target, np.ones(len(target)))
        assert loss == pytest.approx(expected, rel=1e-12)

    def test_arbitrary_weights_match_recomputation(self):
        """Loss is the weight-scaled sum of token log-losses over length."""
        p = small_params()
        cond = small_condition()
        target = [3, 9, 4, 1]
        weights = np.array([1.0, 2.0, 0.5, 1.0])
        probs = teacher_forced_probs(p, cond[None, :], *padded([target]))[0]
        expected = -np.sum(weights * np.log(probs)) / len(target)
        loss, _ = _one_row_loss(p, cond, target, weights)
        assert loss == pytest.approx(expected, rel=1e-12)

    def test_doubling_a_weight_adds_that_tokens_share(self):
        p = small_params()
        cond = small_condition()
        target = [3, 9, 4]
        probs = teacher_forced_probs(p, cond[None, :], *padded([target]))[0]
        base, _ = _one_row_loss(p, cond, target, np.ones(3))
        bumped, _ = _one_row_loss(p, cond, target, np.array([1.0, 2.0, 1.0]))
        assert bumped - base == pytest.approx(-np.log(probs[1]) / 3, rel=1e-9)

    def test_rejects_empty_target(self):
        conds = np.stack([small_condition(0), small_condition(1)])
        for forward in (_forward_batch, teacher_forced_probs):
            with pytest.raises(ValueError, match="at least one token"):
                forward(small_params(), conds, *padded([[3, 4], []]))


class TestGradients:
    """Analytic gradients against central finite differences.

    The checks run with non-uniform weights, which also pins down that
    weights act as constants: the finite-difference oracle holds them
    fixed, so any weight-dependence in the gradients would show up as a
    mismatch.
    """

    def _check_instance(self, seed):
        rng = np.random.default_rng(seed)
        p = small_params(seed)
        cond = rng.normal(0.0, 1.0, V_OBJ_SMALL)
        target = [int(t) for t in rng.integers(1, VOCAB_SMALL, size=5)]
        weights = rng.uniform(0.5, 2.0, size=5)
        _, grads = _one_row_loss(p, cond, target, weights)
        eps = 1e-5
        for name, arr in p.blocks().items():
            g = grads.blocks()[name]
            fd = np.empty_like(arr)
            flat = arr.ravel()
            fd_flat = fd.ravel()
            for j in range(flat.size):
                orig = flat[j]
                flat[j] = orig + eps
                up, _ = _one_row_loss(p, cond, target, weights)
                flat[j] = orig - eps
                down, _ = _one_row_loss(p, cond, target, weights)
                flat[j] = orig
                fd_flat[j] = (up - down) / (2 * eps)
            np.testing.assert_allclose(
                g, fd, rtol=1e-5, atol=1e-7, err_msg=f"block {name}"
            )

    def test_every_block_matches_finite_differences(self):
        self._check_instance(0)

    def test_second_random_instance(self):
        self._check_instance(1)


class TestGenerate:
    def test_starts_with_bos_and_terminates(self):
        p = small_params()
        seq = _decode(p, small_condition(), max_len=12)
        assert seq[0] == BOS_ID
        assert seq[-1] == EOS_ID or len(seq) == 12

    def test_deterministic(self):
        p = small_params()
        cond = small_condition()
        assert _decode(p, cond) == _decode(p, cond)

    def test_batch_matches_single(self):
        """Each row of a batch decode equals its standalone decode, so the
        done-masking never leaks state across rows."""
        p = small_params(3)
        rng = np.random.default_rng(42)
        conds = rng.normal(0.0, 1.0, (5, V_OBJ_SMALL))
        batch = _sequences(*generate_batch(p, conds, max_len=20)[:2])
        singles = [_decode(p, conds[i], max_len=20) for i in range(5)]
        assert batch == singles

    def test_rejects_tiny_max_len(self):
        with pytest.raises(ValueError):
            generate_batch(small_params(), small_condition()[None, :], max_len=1)

    def test_respects_max_len(self):
        p = small_params()
        for max_len in (2, 5, 9):
            assert len(_decode(p, small_condition(), max_len=max_len)) <= max_len


def _sequences(tokens, lengths):
    """Each decoded row as a tuple, BOS through its last emitted token."""
    return [(BOS_ID, *row[:n]) for row, n in zip(tokens.tolist(), lengths.tolist())]


def _ref_generate_batch(p, conditions, max_len):
    """Greedy decode that steps every row until all are done; also returns
    the state each step computes, (B, d_hid) per step."""
    b = conditions.shape[0]
    gates = _gates(p)
    h = _cell_forward(gates, np.zeros((b, p.d_hid)), toymodel._cond_embed(p, conditions))
    seqs = [[BOS_ID] for _ in range(b)]
    done = np.zeros(b, dtype=bool)
    current = np.full(b, BOS_ID, dtype=np.int64)
    states = [None]
    while not done.all() and max(len(s) for s in seqs) < max_len:
        h_new = _cell_forward(gates, h, p.emb[current])
        states.append(h_new.copy())
        h = np.where(done[:, None], h, h_new)
        nxt = (h @ p.w_out + p.b_out).argmax(axis=1)
        for i in range(b):
            if not done[i]:
                seqs[i].append(int(nxt[i]))
                if nxt[i] == EOS_ID:
                    done[i] = True
        current = nxt
    return [tuple(s) for s in seqs], states


def _spread_decoder():
    """Full-size parameters whose greedy decodes stop anywhere from the
    first step to never (within 40 tokens)."""
    p = _full_size_params(4)
    p.w_out[:, EOS_ID] *= 5.0
    conds = np.random.default_rng(4).normal(0.0, 1.0, (64, 40))
    return p, conds[np.r_[14, :14, 15:64]]  # a row that never stops comes first


class TestLiveRowDecodeMatchesReference:
    """Greedy decode steps only the rows that have not emitted EOS (never
    fewer than two) and must still produce today's tokens, and every live
    row's state must carry the bits of the full-batch decode."""

    def test_decoder_lengths_are_spread(self):
        p, conds = _spread_decoder()
        lengths = [len(s) for s in _ref_generate_batch(p, conds, 40)[0]]
        assert min(lengths) == 2 and max(lengths) == 40
        assert len(set(lengths)) > 10
        assert lengths[0] == 40 and lengths[0] > lengths[1] > lengths[2]

    @pytest.mark.parametrize("max_len", [2, 40])
    @pytest.mark.parametrize("b", [1, 2, 3, 64])
    def test_bit_identical_to_full_batch_decode(self, monkeypatch, b, max_len):
        p, conds = _spread_decoder()
        conds = conds[:b]
        want, ref_states = _ref_generate_batch(p, conds, max_len)
        states = []
        real = toymodel._cell_forward

        def recording(gates, h, x, out=None):
            h_new = real(gates, h, x, out)
            states.append(h_new.copy())
            return h_new

        monkeypatch.setattr(toymodel, "_cell_forward", recording)
        tokens, lengths, probs = generate_batch(p, conds, max_len=max_len)
        assert _sequences(tokens, lengths) == want
        past = np.arange(tokens.shape[1]) >= lengths[:, None]
        assert tokens.shape == probs.shape and not tokens[past].any() and not probs[past].any()
        assert len(states) == len(ref_states)
        for step in range(1, len(states)):
            live = [i for i, seq in enumerate(want) if len(seq) > step]
            assert len(states[step]) == (min(b, 2) if len(live) < 2 else len(live))
            for i in live:
                assert any(np.array_equal(row, ref_states[step][i]) for row in states[step]), (step, i)


class TestDecodeProbabilities:
    """The decode keeps each emitted token's probability; it must have the
    bits that a teacher-forced pass over the decoded responses gives."""

    @staticmethod
    def _check(p, conds, max_len):
        tokens, lengths, probs = generate_batch(p, conds, max_len=max_len)
        np.testing.assert_array_equal(probs, teacher_forced_probs(p, conds, tokens, lengths))
        assert probs.shape == (len(conds), lengths.max())
        return lengths

    @pytest.mark.parametrize("max_len", [30, 40])
    @pytest.mark.parametrize("run", ["mle_run", "wneg_run", "trained_run"])
    def test_trained_checkpoints(self, request, tiny_corpus, run, max_len):
        result = request.getfixturevalue(run)
        params = (result[1] if run == "trained_run" else result)[0]
        self._check(params, tiny_corpus.features[:64], max_len)

    @pytest.mark.parametrize("max_len", [30, 40])
    def test_rows_cut_at_max_len_and_a_row_that_outlives_the_rest(self, max_len):
        p, conds = _spread_decoder()
        lengths = self._check(p, conds, max_len)
        assert lengths[0] == max_len - 1 and (lengths == max_len - 1).sum() > 1  # cut rows
        assert lengths.min() == 1
        # row 0 with the two shortest: it decodes on with one finished row as padding
        lengths = self._check(p, conds[[0, *np.argsort(lengths, kind="stable")[:2]]], max_len)
        assert lengths[0] == max_len - 1 > 2 * lengths[1:].max()

    @pytest.mark.parametrize("b", [1, 2])
    def test_small_batches(self, b):
        p, conds = _spread_decoder()
        self._check(p, conds[:b], 40)


class TestTrainMechanics:
    def test_loss_decreases(self, mle_run):
        _, log = mle_run
        assert log[-1].loss < log[0].loss

    def test_log_covers_every_step(self, mle_run):
        _, log = mle_run
        assert [rec.step for rec in log] == list(range(10))
        assert all(math.isfinite(rec.loss) for rec in log)

    def test_training_is_deterministic(self, tiny_corpus, mle_run):
        params_a, log_a = mle_run
        cfg = TrainConfig(epochs=2, batch_size=32, learning_rate=0.01, seed=7)
        params_b, log_b = train(tiny_corpus, cfg)
        for name, arr in params_a.blocks().items():
            np.testing.assert_array_equal(arr, params_b.blocks()[name])
        assert [r.step for r in log_a] == [r.step for r in log_b]
        assert [r.loss for r in log_a] == [r.loss for r in log_b]
        np.testing.assert_array_equal(  # NaN-tolerant: empty classes log NaN
            [[r.mean_w_pos, r.mean_w_inv, r.mean_w_neg] for r in log_a],
            [[r.mean_w_pos, r.mean_w_inv, r.mean_w_neg] for r in log_b],
        )

    def test_gated_reweight_is_bit_identical_to_vanilla(self, tiny_corpus, mle_run):
        """With activation deferred past the end of training, emphasis mode
        must not perturb a single bit of the parameters."""
        vanilla_params, vanilla_log = mle_run
        cfg = TrainConfig(
            epochs=2,
            batch_size=32,
            learning_rate=0.01,
            seed=7,
            reweight=ReweightConfig(
                mode=LossMode.EMPHASIZE_NEGATIVE, start_fraction=1.0
            ),
        )
        gated_params, gated_log = train(tiny_corpus, cfg)
        for name, arr in gated_params.blocks().items():
            np.testing.assert_array_equal(arr, vanilla_params.blocks()[name])
        assert [r.loss for r in gated_log] == [r.loss for r in vanilla_log]

    def test_emphasis_lifts_anti_visual_tokens(self, wneg_run):
        """Once active, emphasize-negative holds the negative-class mean
        weight above 1 and pushes the invariant class below 1."""
        _, log = wneg_run
        neg = np.nanmean([rec.mean_w_neg for rec in log])
        inv = np.nanmean([rec.mean_w_inv for rec in log])
        assert neg > 1.0 > inv

    def test_class_means_are_logged_exactly_on_weighted_steps(self, mle_run, wneg_run):
        """An unweighted step runs no noisy pass and logs NaN for every
        class; a weighted step logs a finite mean for each non-empty class,
        and every token is in one."""
        for rec in mle_run[1]:
            assert all(math.isnan(v) for v in (rec.mean_w_pos, rec.mean_w_inv, rec.mean_w_neg))
        for rec in wneg_run[1]:
            assert any(math.isfinite(v) for v in (rec.mean_w_pos, rec.mean_w_inv, rec.mean_w_neg))

    def test_noisy_pass_runs_only_on_weighted_steps(self, monkeypatch):
        """Corruption runs on the steps from start_fraction on, once per
        scene, and never in mle mode; a weighted step runs its clean and
        noised rows as one forward of twice the batch, an unweighted step
        only the clean rows, and training never calls the scoring pass."""
        calls = {"corrupt": [], "teacher_forced_probs": [], "_forward_batch": []}
        step = [0]

        def counting(name, record):
            real = getattr(toymodel, name)

            def wrapper(*args, **kwargs):
                calls[name].append(record(args))
                return real(*args, **kwargs)

            monkeypatch.setattr(toymodel, name, wrapper)

        real_loss = toymodel._loss_and_grads

        def loss_and_next_step(*args):
            out = real_loss(*args)
            step[0] += 1
            return out

        counting("corrupt", lambda args: step[0])
        counting("teacher_forced_probs", lambda args: step[0])
        counting("_forward_batch", lambda args: (step[0], len(args[1])))
        monkeypatch.setattr(toymodel, "_loss_and_grads", loss_and_next_step)
        corpus = generate_corpus(CorpusConfig(num_scenes=24, seed=5))
        gated = ReweightConfig(mode=LossMode.EMPHASIZE_NEGATIVE, start_fraction=0.5)
        _, log = train(corpus, TrainConfig(epochs=2, batch_size=8, seed=11, reweight=gated))
        assert len(log) == 6
        assert calls["corrupt"] == [3] * 8 + [4] * 8 + [5] * 8
        assert calls["_forward_batch"] == [(0, 8), (1, 8), (2, 8), (3, 16), (4, 16), (5, 16)]
        assert calls["teacher_forced_probs"] == []

        for rows in calls.values():
            rows.clear()
        step[0] = 0
        train(corpus, TrainConfig(epochs=2, batch_size=8, seed=11))
        assert calls == {"corrupt": [], "teacher_forced_probs": [], "_forward_batch": [(i, 8) for i in range(6)]}

    def test_batch_weights_match_the_trace_path(self):
        """The noised pass's (B, T) dependence and the step's weights equal,
        row for row and bit for bit, those built one sequence at a time
        through TokenTrace, profile_trace and a one-row training_weights;
        the class means are those of the per-token classes."""
        p = _full_size_params(4)
        corpus = generate_corpus(CorpusConfig(num_scenes=32, seed=4))
        conds, targets = corpus.features, _targets(corpus)
        ids, lengths = padded(targets)
        fwd = _forward_batch(p, conds, ids, lengths)
        p_clean = np.where(fwd.mask, fwd.target_p, 0.0)
        noisy_p, d = noised_dependence(p, conds, ids, lengths, p_clean, list(range(len(corpus))), 900)
        noisy = np.stack([corrupt(c, 900, make_schedule(), i) for i, c in enumerate(conds)])
        np.testing.assert_array_equal(noisy_p, teacher_forced_probs(p, noisy, ids, lengths))
        for cfg in (
            ReweightConfig(mode=LossMode.EMPHASIZE_NEGATIVE),
            ReweightConfig(mode=LossMode.EMPHASIZE_POSITIVE, tau=2.0),
            ReweightConfig(mode=LossMode.EMPHASIZE_NEGATIVE, tau=0.0, eos_floor=False),
        ):
            weights, means = batch_weights(fwd, d, cfg)
            classes = []
            for i, (sid, target) in enumerate(zip(corpus.scene_ids, targets)):
                n = len(target)
                trace = TokenTrace(
                    sample_id=sid,
                    tokens=target,
                    surfaces=synth.surfaces_for(target, p.v_obj),
                    p_clean=fwd.target_p[i, :n],
                    p_noisy=noisy_p[i, :n],
                    eos_index=n - 1,
                )
                row = profile_trace(trace)
                np.testing.assert_array_equal(d[i, :n], row)
                np.testing.assert_array_equal(weights[i, :n], training_weights(row[None], np.array([n]), cfg)[0])
                assert not weights[i, n:].any() and not d[i, n:].any() and not noisy_p[i, n:].any()
                classes.extend((CLASS_BY_CODE[c], w) for c, w in zip(classify_array(row), weights[i, :n]))
            for cls, mean in means.items():
                members = [w for c, w in classes if c is cls]
                if members:
                    np.testing.assert_allclose(mean, np.mean(members), rtol=1e-12)
                else:
                    assert math.isnan(mean)

    def test_noised_pass_rejects_a_step_outside_the_schedule(self):
        p = small_params()
        with pytest.raises(ValueError, match="schedule"):
            noised_dependence(p, np.zeros((1, V_OBJ_SMALL)), *padded([[3]]), np.ones((1, 1)), [0], 1001)

    def test_single_step_matches_manual_replication(self):
        """One optimizer step decomposes into the documented stages:
        shuffle, clean pass, noising, trace scoring, weighting, backward,
        update — each reproducible from the shared seed streams."""
        corpus = generate_corpus(CorpusConfig(num_scenes=24, seed=5))
        cfg = TrainConfig(
            epochs=1,
            batch_size=24,
            learning_rate=0.01,
            seed=11,
            reweight=ReweightConfig(mode=LossMode.EMPHASIZE_NEGATIVE, start_fraction=0.0),
        )
        trained_params, log = train(corpus, cfg)
        assert len(log) == 1

        v_obj = corpus.features.shape[1]
        init = init_params(synth.vocab_size(v_obj), v_obj, seed=derive_seed(cfg.seed, "init"))
        theta = init.flat()
        params = init.views(theta)
        schedule = make_schedule()
        batch = corpus.take(rng_for(cfg.seed, "shuffle", 0).permutation(len(corpus)))
        features, targets = batch.features, _targets(batch)
        fwd = _forward_batch(params, features, *padded(targets))
        noisy = np.stack(
            [
                corrupt(feature, cfg.noise_step, schedule, derive_seed(cfg.seed, "noise", 0, sid))
                for feature, sid in zip(batch.features, batch.scene_ids)
            ]
        )
        noisy_p = teacher_forced_probs(params, noisy, *padded(targets))
        d = dependence_array(np.where(fwd.mask, fwd.target_p, 0.0), noisy_p)
        weights, _ = batch_weights(fwd, d, cfg.reweight)
        loss, grads = _loss_and_grads(params, features, fwd, weights)
        _Adam(theta.size, cfg.learning_rate).step(theta, grads.flat())

        assert loss == log[0].loss
        for name, arr in params.blocks().items():
            np.testing.assert_array_equal(arr, trained_params.blocks()[name])

    def test_returns_the_average_of_the_second_half_iterates(self):
        """A six-step run replicated step by step, with a separate clean
        and noisy pass per step: the returned parameters are the mean of the
        iterates after steps 3, 4 and 5, while the logged losses are those
        of the plain, unaveraged trajectory."""
        self._check_replicated_run(24, 8)

    @pytest.mark.parametrize("num_scenes,batch_size", [(24, 1), (24, 23), (400, 200)])
    def test_one_row_batches_and_large_stacks_match_separate_passes(self, num_scenes, batch_size):
        """The same replication where a re-weighted step cannot stack its
        rows (batch 1, and batch 23 on 24 scenes, whose last batch has one
        row) and where it stacks 400 clean and noised rows (batch 200), a
        row count at which OpenBLAS has changed kernels before."""
        self._check_replicated_run(num_scenes, batch_size)

    def test_a_lone_row_reweighted_batch_keeps_its_clean_cache(self):
        """Every step re-weighted, and 25 scenes in batches of 8 end each
        epoch on one row, whose clean and noised passes run separately: the
        noised pass must not write over the clean cache the backward reads."""
        self._check_replicated_run(25, 8, start_fraction=0.0)

    @staticmethod
    def _check_replicated_run(num_scenes, batch_size, start_fraction=0.5):
        corpus = generate_corpus(CorpusConfig(num_scenes=num_scenes, seed=5))
        cfg = TrainConfig(
            epochs=2,
            batch_size=batch_size,
            learning_rate=0.01,
            seed=11,
            reweight=ReweightConfig(mode=LossMode.EMPHASIZE_NEGATIVE, start_fraction=start_fraction),
        )
        averaged, log = train(corpus, cfg)
        n_steps = 2 * -(-len(corpus) // batch_size)
        assert len(log) == n_steps

        v_obj = corpus.features.shape[1]
        init = init_params(synth.vocab_size(v_obj), v_obj, seed=derive_seed(cfg.seed, "init"))
        theta = init.flat()
        params = init.views(theta)
        opt = _Adam(theta.size, cfg.learning_rate)
        schedule = make_schedule()
        losses, iterates = [], []
        for epoch in range(cfg.epochs):
            order = rng_for(cfg.seed, "shuffle", epoch).permutation(len(corpus))
            for start in range(0, len(corpus), cfg.batch_size):
                step = len(losses)
                batch = corpus.take(order[start : start + cfg.batch_size])
                features, targets = batch.features, _targets(batch)
                fwd = _forward_batch(params, features, *padded(targets))
                if step / n_steps < start_fraction:  # all-ones weights, no noisy pass
                    weights = np.where(fwd.mask, 1.0, 0.0)
                else:
                    noisy = np.stack(
                        [
                            corrupt(feature, cfg.noise_step, schedule, derive_seed(cfg.seed, "noise", step, sid))
                            for feature, sid in zip(batch.features, batch.scene_ids)
                        ]
                    )
                    noisy_p = teacher_forced_probs(params, noisy, *padded(targets))
                    d = dependence_array(np.where(fwd.mask, fwd.target_p, 0.0), noisy_p)
                    weights, _ = batch_weights(fwd, d, cfg.reweight)
                loss, grads = _loss_and_grads(params, features, fwd, weights)
                opt.step(theta, grads.flat())
                losses.append(loss)
                iterates.append(ModelParams(**{name: arr.copy() for name, arr in params.blocks().items()}))

        assert [rec.loss for rec in log] == losses
        tail = iterates[n_steps // 2 :]
        for name, arr in averaged.blocks().items():
            expected = sum(it.blocks()[name] for it in tail) / len(tail)
            np.testing.assert_array_equal(arr, expected)
        assert not np.array_equal(averaged.w_out, iterates[-1].w_out)

    def test_divergence_aborts_with_diagnostic(self, monkeypatch):
        """A non-finite loss stops training immediately with the step in
        the message.  The saturating cell and max-subtracted softmax keep
        natural losses finite, so the guard is exercised by injection."""
        import visdep.toymodel as toymodel

        real = toymodel._loss_and_grads

        def poisoned(p, conditions, fwd, weights):
            loss, grads = real(p, conditions, fwd, weights)
            return float("nan"), grads

        monkeypatch.setattr(toymodel, "_loss_and_grads", poisoned)
        corpus = generate_corpus(CorpusConfig(num_scenes=32, seed=1))
        cfg = TrainConfig(epochs=1, batch_size=16, seed=1)
        with pytest.raises(TrainingDiverged, match="step 0"):
            train(corpus, cfg)

    def test_rejects_empty_corpus(self):
        with pytest.raises(ValueError):
            train(generate_corpus(CorpusConfig(num_scenes=0)), TrainConfig())

    def test_rejects_out_of_schedule_noise_step(self):
        with pytest.raises(ValueError):
            train(generate_corpus(CorpusConfig(num_scenes=4, seed=1)), TrainConfig(noise_step=1001))


class _RefAdam:
    """The flat Adam as it was before its step reused buffers."""

    def __init__(self, params, lr, beta1=0.9, beta2=0.999, eps=1e-8):
        self.lr, self.beta1, self.beta2, self.eps, self.t = lr, beta1, beta2, eps, 0
        size = sum(arr.size for arr in params.blocks().values())
        self.m = np.zeros(size)
        self.v = np.zeros(size)

    def step(self, params, grads):
        self.t += 1
        b1c = 1.0 - self.beta1 ** self.t
        b2c = 1.0 - self.beta2 ** self.t
        g = np.concatenate([arr.ravel() for arr in grads.blocks().values()])
        m, v = self.m, self.v
        m *= self.beta1
        m += (1.0 - self.beta1) * g
        v *= self.beta2
        v += (1.0 - self.beta2) * (g * g)
        update = self.lr * (m / b1c) / (np.sqrt(v / b2c) + self.eps)
        start = 0
        for arr in params.blocks().values():
            arr -= update[start : start + arr.size].reshape(arr.shape)
            start += arr.size


class TestAdam:
    def test_buffered_step_is_bit_identical_to_the_allocating_one(self):
        """Five steps on gradients that mix ordinary values with 0, -0.0,
        +-1e300 (whose square overflows) and +-1e-300 (whose square
        underflows) leave the parameters and both moments bit for bit as
        the allocating step does."""
        theta, ref_p = _full_size_params(3).flat(), _full_size_params(3)
        p = ref_p.views(theta)
        opt, ref = _Adam(theta.size, 0.02), _RefAdam(ref_p, 0.02)
        rng = np.random.default_rng(3)
        specials = np.array([0.0, -0.0, 1e300, -1e300, 1e-300, -1e-300])
        for _ in range(5):
            grads = _zeros_like(p)
            for arr in grads.blocks().values():
                arr[...] = rng.normal(0.0, 1.0, arr.shape)
                flat = arr.reshape(-1)
                picks = rng.random(flat.size) < 0.3
                flat[picks] = rng.choice(specials, picks.sum())
            with np.errstate(over="ignore"):  # the square of 1e300 overflows to inf, by design
                opt.step(theta, grads.flat())
                ref.step(ref_p, grads)
            for name, arr in p.blocks().items():
                np.testing.assert_array_equal(arr, ref_p.blocks()[name], err_msg=name)
            np.testing.assert_array_equal(opt.m, ref.m)
            np.testing.assert_array_equal(opt.v, ref.v)
            assert np.signbit(opt.m).tolist() == np.signbit(ref.m).tolist()


class TestTrainedBehaviour:
    def test_loss_drops_substantially(self, trained_run):
        _, (_, log) = trained_run
        assert log[-1].loss < 0.5 * log[0].loss

    def test_generates_objects_from_the_scene(self, trained_run):
        """Captions for a seen scene mention most of its objects."""
        corpus, (params, _) = trained_run
        tokens, _, _ = generate_batch(params, corpus.features[:20])
        hits = 0
        for row, truth in zip(tokens.tolist(), corpus.truth[:20]):
            mentioned = {t - OBJECT_BASE for t in row if t >= OBJECT_BASE}
            hits += len(mentioned & set(np.flatnonzero(truth).tolist())) >= 2
        assert hits >= 15

    def test_specific_scene_is_described(self, trained_run):
        _, (params, _) = trained_run
        feature = np.zeros(40)
        feature[[3, 7, 11]] = 1.0
        mentioned = {t - OBJECT_BASE for t in _decode(params, feature) if t >= OBJECT_BASE}
        assert len(mentioned & {3, 7, 11}) >= 2

    def test_conditioning_shifts_the_first_object_slot(self, trained_run):
        """Zeroing the image changes the distribution at the first content
        position by more than 0.01 in total variation."""
        corpus, (params, _) = trained_run
        prefix = corpus.captions[0, :4].tolist()
        with_image = _ref_forward(params, corpus.features[0], prefix)
        without = _ref_forward(params, np.zeros_like(corpus.features[0]), prefix)
        tv = 0.5 * np.abs(with_image - without).sum()
        assert tv > 0.01


class TestTrainLog:
    def test_csv_layout(self, tmp_path, mle_run):
        _, log = mle_run
        path = tmp_path / "trainlog.csv"
        write_train_log(log, path)
        with open(path, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["step", "loss", "mean_w_pos", "mean_w_inv", "mean_w_neg"]
        assert len(rows) == len(log) + 1
        for rec, row in zip(log, rows[1:]):
            assert int(row[0]) == rec.step
            assert float(row[1]) == rec.loss


class TestCheckpoint:
    def test_round_trip_is_exact(self, tmp_path):
        p = small_params(9)
        path = tmp_path / "ckpt.json"
        save_params(p, path)
        restored = load_params(path)
        for name, arr in p.blocks().items():
            np.testing.assert_array_equal(arr, restored.blocks()[name])

    def test_rejects_wrong_format(self, tmp_path):
        path = tmp_path / "ckpt.json"
        path.write_text('{"format": "other", "version": 1}', encoding="utf-8")
        with pytest.raises(ValueError, match="checkpoint"):
            load_params(path)

    def test_rejects_wrong_version(self, tmp_path):
        p = small_params()
        path = tmp_path / "ckpt.json"
        save_params(p, path)
        import json

        payload = json.loads(path.read_text(encoding="utf-8"))
        payload["version"] = 99
        path.write_text(json.dumps(payload), encoding="utf-8")
        with pytest.raises(ValueError, match="version"):
            load_params(path)

    def test_rejects_missing_block(self, tmp_path):
        p = small_params()
        path = tmp_path / "ckpt.json"
        save_params(p, path)
        import json

        payload = json.loads(path.read_text(encoding="utf-8"))
        del payload["blocks"]["w_out"]
        path.write_text(json.dumps(payload), encoding="utf-8")
        with pytest.raises(ValueError, match="w_out"):
            load_params(path)

    @pytest.mark.parametrize(
        "edit,message",
        [
            (lambda p: {**p, "blocks": None}, "blocks"),
            (lambda p: [p], "not a visdep-ckpt"),
            (lambda p: {**p, "d_hid": None}, "dimensions"),
            (lambda p: {**p, "blocks": {**p["blocks"], "b_z": None}}, "b_z"),
            (lambda p: {**p, "blocks": {**p["blocks"], "b_z": {**p["blocks"]["b_z"], "shape": [9]}}}, "shape"),
            (lambda p: {**p, "blocks": {**p["blocks"], "b_z": {**p["blocks"]["b_z"], "data": [0.0] * 9}}}, "b_z"),
            (lambda p: {**p, "blocks": {**p["blocks"], "b_z": {**p["blocks"]["b_z"], "data": [{}] * 8}}}, "b_z"),
            (lambda p: {**p, "blocks": {**p["blocks"], "b_z": {**p["blocks"]["b_z"], "data": ["0.5"] * 8}}}, "b_z"),
            (lambda p: {**p, "blocks": {**p["blocks"], "b_z": {**p["blocks"]["b_z"], "data": [True] * 8}}}, "b_z"),
            (lambda p: {**p, "blocks": {**p["blocks"], "b_z": {**p["blocks"]["b_z"], "data": [float("nan")] * 8}}}, "b_z"),
            (lambda p: {**p, "blocks": {**p["blocks"], "b_z": {**p["blocks"]["b_z"], "data": [float("inf")] * 8}}}, "b_z"),
            (lambda p: {**p, "blocks": {**p["blocks"], "b_z": {**p["blocks"]["b_z"], "data": 0.5}}}, "b_z"),
            (lambda p: {**p, "blocks": {**p["blocks"], "b_z": {**p["blocks"]["b_z"], "data": [10**400] * 8}}}, "b_z"),
        ],
        ids=[
            "blocks-null", "list", "dim-null", "block-null", "shape-vs-header", "data-size", "data-objects",
            "data-string", "data-bool", "data-nan", "data-inf", "data-scalar", "data-huge-int",
        ],
    )
    def test_rejects_a_malformed_checkpoint_naming_the_file(self, tmp_path, edit, message):
        import json

        path = tmp_path / "ckpt.json"
        save_params(small_params(), path)
        payload = json.loads(path.read_text(encoding="utf-8"))
        path.write_text(json.dumps(edit(payload)), encoding="utf-8")
        with pytest.raises(ValueError, match=f"ckpt.json: .*{message}"):
            load_params(path)


class TestConfigValidation:
    def test_defaults(self):
        cfg = TrainConfig()
        assert cfg.epochs == 2
        assert cfg.batch_size == 128
        assert cfg.noise_step == 900

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"epochs": 0},
            {"batch_size": 0},
            {"learning_rate": 0.0},
            {"learning_rate": float("nan")},
            {"noise_step": -1},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            TrainConfig(**kwargs)


class TestModelParamsValidation:
    def test_rejects_wrong_block_shape(self):
        p = small_params()
        blocks = {name: arr.copy() for name, arr in p.blocks().items()}
        blocks["w_out"] = np.zeros((3, 3))
        with pytest.raises(ValueError):
            ModelParams(**blocks)
