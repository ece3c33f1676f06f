"""Small conditional autoregressive generator with hand-written gradients.

A single gated recurrent (GRU) cell over learned token embeddings.  The
conditioning feature vector is projected into embedding space and pushed
through the cell once before BOS, which installs it in the initial
hidden state.  Forward, backward and the Adam optimizer are written out
by hand in numpy so the weighted-loss gradient path stays fully auditable;
per-token loss weights enter the gradients as constants.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field, fields
from typing import NamedTuple

import numpy as np

from . import synth
from .dependence import CLASS_BY_CODE, TokenClass, classify_array, dependence_array
from .diffusion import DEFAULT_NOISE_STEP, NoiseSchedule, corrupt, make_schedule
from .reweight import ReweightConfig, reweighting_active, training_weights
from .seeding import derive_seed, rng_for

# Unused here but hooked by name by ``bench/tracer.py`` (tests/test_bench_hooks.py).
from .dependence import profile_trace  # noqa: F401
from .trace import TokenTrace  # noqa: F401

D_EMB = 32
D_HID = 64
# Conditions are rescaled to this L2 norm before projection; it matches the
# typical norm of a clean scene feature, so corrupted conditions land on the
# scale the cell was trained on.
CONDITION_NORM = 2.0

# Rows per teacher-forced block in ``teacher_forced_probs``: scoring a whole
# corpus in one batch would hold every per-step array at corpus size.
SCORE_BLOCK_ROWS = 512

CKPT_FORMAT = "visdep-ckpt"
CKPT_VERSION = 2


class TrainingDiverged(RuntimeError):
    """Raised when the training loss stops being finite."""


@dataclass
class ModelParams:
    """All parameter blocks; shapes are validated on construction."""

    emb: np.ndarray      # (vocab, d_emb) token embeddings
    cond: np.ndarray     # (v_obj, d_emb) condition projection
    w_xz: np.ndarray     # (d_emb, d_hid) update gate, input half
    w_hz: np.ndarray     # (d_hid, d_hid)
    b_z: np.ndarray      # (d_hid,)
    w_xr: np.ndarray     # (d_emb, d_hid) reset gate
    w_hr: np.ndarray     # (d_hid, d_hid)
    b_r: np.ndarray      # (d_hid,)
    w_xc: np.ndarray     # (d_emb, d_hid) candidate state
    w_hc: np.ndarray     # (d_hid, d_hid)
    b_c: np.ndarray      # (d_hid,)
    w_out: np.ndarray    # (d_hid, vocab) output projection
    b_out: np.ndarray    # (vocab,)

    def __post_init__(self) -> None:
        vocab, d_emb = self.emb.shape
        d_hid = self.w_xz.shape[1]
        expected = _block_shapes(vocab, self.cond.shape[0], d_emb, d_hid)
        for name, shape in expected.items():
            arr = getattr(self, name)
            if arr.shape != shape:
                raise ValueError(f"parameter {name}: expected shape {shape}, got {arr.shape}")

    @property
    def vocab_size(self) -> int:
        return self.emb.shape[0]

    @property
    def v_obj(self) -> int:
        return self.cond.shape[0]

    @property
    def d_emb(self) -> int:
        return self.emb.shape[1]

    @property
    def d_hid(self) -> int:
        return self.w_xz.shape[1]

    def blocks(self) -> dict[str, np.ndarray]:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def flat(self) -> np.ndarray:
        """Every block, in field order, copied into one vector."""
        return np.concatenate([arr.ravel() for arr in self.blocks().values()])

    def views(self, flat: np.ndarray) -> "ModelParams":
        """Blocks shaped as this one's, as consecutive views of the vector ``flat``."""
        parts = np.split(flat, np.cumsum([arr.size for arr in self.blocks().values()])[:-1])
        return ModelParams(**{name: part.reshape(arr.shape) for (name, arr), part in zip(self.blocks().items(), parts)})


def _block_shapes(vocab: int, v_obj: int, d_emb: int, d_hid: int) -> dict[str, tuple[int, ...]]:
    return {
        "emb": (vocab, d_emb),
        "cond": (v_obj, d_emb),
        "w_xz": (d_emb, d_hid),
        "w_hz": (d_hid, d_hid),
        "b_z": (d_hid,),
        "w_xr": (d_emb, d_hid),
        "w_hr": (d_hid, d_hid),
        "b_r": (d_hid,),
        "w_xc": (d_emb, d_hid),
        "w_hc": (d_hid, d_hid),
        "b_c": (d_hid,),
        "w_out": (d_hid, vocab),
        "b_out": (vocab,),
    }


# Update-gate bias starts negative so the cell carries state by default
# (the conditioning is injected once, before BOS, and has to survive the
# whole sequence); the condition projection starts wider than the token
# embeddings for the same reason.
INIT_UPDATE_BIAS = -2.5
INIT_COND_STD = 0.5


def init_params(
    vocab_size: int,
    v_obj: int,
    seed: int,
    d_emb: int = D_EMB,
    d_hid: int = D_HID,
) -> ModelParams:
    rng = np.random.default_rng(seed)
    sx = 1.0 / math.sqrt(d_emb)
    sh = 1.0 / math.sqrt(d_hid)
    return ModelParams(
        emb=rng.normal(0.0, 0.1, (vocab_size, d_emb)),
        cond=rng.normal(0.0, INIT_COND_STD, (v_obj, d_emb)),
        w_xz=rng.normal(0.0, sx, (d_emb, d_hid)),
        w_hz=rng.normal(0.0, sh, (d_hid, d_hid)),
        b_z=np.full(d_hid, INIT_UPDATE_BIAS),
        w_xr=rng.normal(0.0, sx, (d_emb, d_hid)),
        w_hr=rng.normal(0.0, sh, (d_hid, d_hid)),
        b_r=np.zeros(d_hid),
        w_xc=rng.normal(0.0, sx, (d_emb, d_hid)),
        w_hc=rng.normal(0.0, sh, (d_hid, d_hid)),
        b_c=np.zeros(d_hid),
        w_out=rng.normal(0.0, sh, (d_hid, vocab_size)),
        b_out=np.zeros(vocab_size),
    )


def _normalized_conditions(conditions: np.ndarray) -> np.ndarray:
    """Rescale each condition row to a fixed L2 norm.

    Scene features all have similar norms, so this barely changes clean
    inputs, but it pulls heavily corrupted conditions back into the range
    the recurrent cell saw during training instead of letting the noise
    blow up the input scale. An all-zero row is left untouched.
    """
    norms = np.linalg.norm(conditions, axis=1, keepdims=True)
    return conditions * (CONDITION_NORM / np.maximum(norms, 1e-12))


def _cond_embed(p: ModelParams, conditions: np.ndarray) -> np.ndarray:
    """Project the (normalized) condition into embedding space.

    The tanh squash bounds the projected condition per coordinate, so the
    first recurrent step always sees an input on the token-embedding scale.
    """
    return np.tanh(_normalized_conditions(conditions) @ p.cond)


def _sigmoid(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Logistic function; ``exp`` only ever sees ``-|x|``, so it cannot overflow."""
    e = np.exp(-np.abs(x))
    return np.divide(np.maximum(e, x >= 0), 1.0 + e, out=out)  # e <= 1: the numerator is 1 where x >= 0


class _Gates(NamedTuple):
    """The GRU blocks arranged so that one call serves several gates.

    The input weights are stacked per gate: one stacked matmul projects an
    input into gate-major ``(3, B, d_hid)`` blocks ``[z, r, c]``, each
    contiguous, so the cell's elementwise work never runs on a column
    slice, which numpy does slower than a whole array.  Each block has the
    bits of that gate's own matmul.  The recurrent weights of the two
    sigmoid gates lie side by side: a fused matmul gives each gate's
    columns the bits of the gate's own matmul whenever both run the same
    BLAS kernel.  OpenBLAS picks its kernel by matrix size, which leaves one
    exception (measured with OpenBLAS 0.3.31 on an AVX-512 Xeon): for a
    batch of 385-488 rows the fused input-weight gradient ``x.T @ da``
    leaves the small-matrix kernel that one gate's product stays in, and
    sums the batch in another order.  That gradient therefore keeps its
    one fused product.
    """

    w_x: np.ndarray   # (3, d_emb, d_hid): w_xz, w_xr, w_xc
    w_h: np.ndarray   # (d_hid, 2 d_hid): [w_hz | w_hr]
    w_hc: np.ndarray  # (d_hid, d_hid)
    b: np.ndarray     # (3, 1, d_hid): b_z, b_r, b_c


def _gates(p: ModelParams) -> _Gates:
    return _Gates(
        w_x=np.stack([p.w_xz, p.w_xr, p.w_xc]),
        w_h=np.concatenate([p.w_hz, p.w_hr], axis=1),
        w_hc=p.w_hc,
        b=np.stack([p.b_z, p.b_r, p.b_c])[:, None, :],
    )


def _cell_step(
    gates: _Gates, h: np.ndarray, g: np.ndarray, hr: np.ndarray, out: np.ndarray | None = None
) -> np.ndarray:
    """One GRU step of a (B, d_hid) state from its input projection ``g = x @ gates.w_x``.

    Overwrites ``g`` (3, B, d_hid) with the gates ``[z, r, c]`` and ``hr``
    with ``r * h``, the two things the backward step reads; returns the new
    state, written to ``out`` if given.
    """
    zr, (z, r, c) = g[:2], g
    zr += (h @ gates.w_h).reshape(h.shape[0], 2, -1).transpose(1, 0, 2)
    zr += gates.b[:2]
    _sigmoid(zr, out=zr)
    np.multiply(r, h, out=hr)
    c += hr @ gates.w_hc
    c += gates.b[2]
    np.tanh(c, out=c)
    return np.add((1.0 - z) * h, z * c, out=out)


def _cell_forward(gates: _Gates, h: np.ndarray, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """One GRU step for a (B, d) batch; returns the new state (written to ``out`` if given)."""
    return _cell_step(gates, h, x @ gates.w_x, np.empty_like(h), out)


def _cell_backward(p: ModelParams, dh_new: np.ndarray, h_prev: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Backprop one GRU step through its gates ``g = [z, r, c]``; returns dh_prev.

    Overwrites ``g`` with the pre-activation gradients ``[da_z, da_r,
    da_c]``.  ``dh_prev`` sums one matmul per gate in the order of the
    unfused cell: one fused matmul would regroup the sum.
    """
    zr, (z, r, c) = g[:2], g
    dz = dh_new * (c - h_prev)
    dh_prev = dh_new * (1.0 - z)
    np.multiply(dh_new * z, 1.0 - c * c, out=c)  # da_c
    dhr = c @ p.w_hc.T
    dh_prev += dhr * r
    dzr = 1.0 - zr
    z *= dz
    r *= dhr * h_prev
    zr *= dzr  # da_z, da_r
    dh_prev += r @ p.w_hr.T
    dh_prev += z @ p.w_hz.T
    return dh_prev


class _Workspace:
    """Flat buffers for forwards of up to ``rows`` rows of ``t_max`` targets, and the gradients.

    A step takes a buffer's leading entries as one contiguous (steps, B, .)
    array, laid out as a fresh one, so no bit depends on the buffers.
    """

    def __init__(self, p: ModelParams, rows: int, t_max: int):
        widths = dict(xs=p.d_emb, hs=p.d_hid, hr=p.d_hid, gz=3 * p.d_hid, logits=p.vocab_size, dh_out=p.d_hid)
        self.bufs = {name: np.empty(rows * (t_max + 2) * width) for name, width in widths.items()}
        self.grad = np.empty(sum(arr.size for arr in p.blocks().values()))
        self.grads = p.views(self.grad)

    def take(self, name: str, *shape: int) -> np.ndarray:
        return self.bufs[name][: math.prod(shape)].reshape(shape)


class _ForwardCache(NamedTuple):
    """Everything the backward pass needs from one teacher-forced forward.

    Step 0 of each stack is the condition step, step ``t + 1`` reads input
    token ``t``.  Every array but ``lengths`` has the batch on its
    second-to-last axis; the stacks are views into ``ws``.
    """

    inputs: np.ndarray       # (B, T) BOS then the targets shifted right
    targets: np.ndarray      # (B, T) padded target ids
    lengths: np.ndarray      # (B,)
    mask: np.ndarray         # (B, T) True within each length
    xs: np.ndarray           # (T+1, B, d_emb) cell input at each step
    hs: np.ndarray           # (T+2, B, d_hid) zero, then the state after each step
    hr: np.ndarray           # (T+1, B, d_hid) r * h_prev at each step
    gz: np.ndarray           # (T+1, 3, B, d_hid) the gates [z, r, c] at each step
    probs: np.ndarray        # (T, B, vocab) next-token distributions
    target_p: np.ndarray     # (B, T) probability of each target
    target_logp: np.ndarray  # (B, T) its log
    ws: _Workspace           # holds the stacks; the backward writes its own into it

    def head(self, b: int) -> "_ForwardCache":
        """The cache of the first ``b`` rows, as views."""
        return _ForwardCache(*(f[:b] if f.ndim == 1 else f[..., :b, :] for f in self[:-1]), self.ws)


def _output_layer(p: ModelParams, hs: np.ndarray, ids: np.ndarray, out: np.ndarray | None = None):
    """Softmax outputs for a (t, B, d_hid) stack of states and (t, B) target ids.

    Returns the (t, B, vocab) distributions, written to ``out`` if given,
    and each target's probability and log-probability, (t, B) each.  A
    matmul on a stack makes one BLAS call per step, the call one step alone
    would make, so no bit depends on how many steps are stacked.
    """
    logits = np.matmul(hs, p.w_out, out=out)
    logits += p.b_out
    return _softmax_at(logits, ids)


def _softmax_at(logits: np.ndarray, ids: np.ndarray):
    """``_output_layer`` from the (t, B, vocab) logits on, which it overwrites."""
    logits -= logits.max(axis=2, keepdims=True)
    pick = ids[:, :, None]
    target_logits = np.take_along_axis(logits, pick, axis=2)[:, :, 0]
    probs = np.exp(logits, out=logits)
    denom = probs.sum(axis=2)
    target_p = np.take_along_axis(probs, pick, axis=2)[:, :, 0] / denom
    probs /= denom[:, :, None]
    return probs, target_p, target_logits - np.log(denom)


def _forward_batch(
    p: ModelParams, conditions: np.ndarray, ids: np.ndarray, lengths: np.ndarray, ws: _Workspace | None = None
) -> _ForwardCache:
    """Teacher-forced training pass over padded (B, T) target ids (BOS excluded) and their lengths.

    Only the recurrence runs step by step: the input projections of every
    step are one stacked matmul, which makes each step's own BLAS calls,
    and the cell turns them into the gates in place.  The output layer does
    not feed the recurrence and runs once on the stack of states, so a
    small batch pays its per-call cost once instead of at every step.
    Every stack is written into ``ws``, one made for this batch if none is
    given, and stays valid until the next pass through ``ws``.
    """
    if np.any(lengths < 1):
        raise ValueError("every target sequence must contain at least one token")
    b, t_max = ids.shape
    ws = ws or _Workspace(p, b, t_max)
    inputs = np.concatenate([np.full((b, 1), synth.BOS_ID, dtype=np.int64), ids[:, :-1]], axis=1)
    gates = _gates(p)
    xs = ws.take("xs", t_max + 1, b, p.d_emb)
    xs[0] = _cond_embed(p, conditions)
    p.emb.take(inputs.T, axis=0, out=xs[1:])
    gz = np.matmul(xs[:, None], gates.w_x, out=ws.take("gz", t_max + 1, 3, b, p.d_hid))
    hs = ws.take("hs", t_max + 2, b, p.d_hid)
    hs[0] = 0.0
    hr = ws.take("hr", t_max + 1, b, p.d_hid)
    for t in range(t_max + 1):
        _cell_step(gates, hs[t], gz[t], hr[t], out=hs[t + 1])
    probs, target_p, target_logp = _output_layer(p, hs[2:], ids.T, ws.take("logits", t_max, b, p.vocab_size))
    mask = np.arange(t_max)[None, :] < lengths[:, None]
    return _ForwardCache(inputs, ids, lengths, mask, xs, hs, hr, gz, probs, target_p.T, target_logp.T, ws)


def _score_block(p: ModelParams, conditions: np.ndarray, ids: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """The ``target_p`` of ``_forward_batch`` for a block listed longest first, zero past each length.

    Step ``t`` runs only the rows whose length exceeds ``t``, a prefix of
    the block, but never fewer than two: a row's bits do not depend on the
    other rows of a batch of two or more, but a lone row's matmuls are
    matrix-vector products that round differently.
    """
    if np.any(lengths[1:] > lengths[:-1]):
        raise ValueError("a scoring block must list its rows longest first")
    b, t_max = ids.shape
    inputs = np.concatenate([np.full((b, 1), synth.BOS_ID, dtype=np.int64), ids[:, :-1]], axis=1)
    gates = _gates(p)
    h = _cell_forward(gates, np.zeros((b, p.d_hid)), _cond_embed(p, conditions))
    # live[t]: rows still inside their target at step t, at least two
    live = np.maximum(np.searchsorted(-lengths, -np.arange(t_max), side="left"), min(b, 2))
    target_p = np.zeros((t_max, b))
    for t in range(t_max):
        k = live[t]
        _cell_forward(gates, h[:k], p.emb[inputs[:k, t]], out=h[:k])
        _, target_p[t : t + 1, :k], _ = _output_layer(p, h[None, :k], ids.T[t : t + 1, :k])
    return np.where(np.arange(t_max) < lengths[:, None], target_p.T, 0.0)


def _loss_and_grads(
    p: ModelParams,
    conditions: np.ndarray,
    fwd: _ForwardCache,
    weights: np.ndarray,
) -> tuple[float, ModelParams]:
    """Weighted loss (mean over sequences) and gradients for the batch.

    ``weights`` is (B, T_max) with zeros beyond each sequence length; it is
    treated as a constant throughout.  The pass consumes ``fwd``: its
    distributions become the logit gradients and its gates the gates'
    gradients, which it writes to ``fwd.ws.grads``.  The output layer and
    ``dx`` do not feed the recurrence and run once on the (steps, B, .)
    stacks; the output weights sum their per-step products last step first,
    the order of a per-step ``+=``.
    The cell's weight gradients keep one product per step, accumulated in
    the loop: those products cost the same stacked or not, and a stack of
    them is slower to sum at a large batch.
    """
    b, t_max = fwd.targets.shape
    coef = np.where(fwd.mask, weights / (fwd.lengths[:, None] * b), 0.0)
    loss = float(-(coef * np.where(fwd.mask, fwd.target_logp, 0.0)).sum())

    hid = p.d_hid
    coef_t = coef.T
    dlogits = fwd.probs
    dlogits *= coef_t[:, :, None]
    dlogits[np.arange(t_max)[:, None], np.arange(b)[None, :], fwd.targets.T] -= coef_t
    dh_out = np.matmul(dlogits, p.w_out.T, out=fwd.ws.take("dh_out", t_max, b, hid))
    xs, hs, hr, da = fwd.xs, fwd.hs, fwd.hr, fwd.gz
    g = fwd.ws.grads  # every block but the two summed with += is overwritten below
    g.w_hc[...], g.cond[...] = 0.0, 0.0
    g_x, g_h, g_b = np.zeros((p.d_emb, 3 * hid)), np.zeros((hid, 2 * hid)), np.zeros(3 * hid)
    dh = np.zeros((b, hid))
    for t in range(t_max, -1, -1):
        dh = _cell_backward(p, dh + dh_out[t - 1] if t else dh, hs[t], da[t])
        # x.T @ da stays one fused product (see _Gates), on a (B, 3 d_hid) copy
        da_t = da[t].transpose(1, 0, 2).reshape(b, 3 * hid)
        g_x += xs[t].T @ da_t
        g_h += hs[t].T @ da_t[:, : 2 * hid]
        g.w_hc += hr[t].T @ da_t[:, 2 * hid :]
        g_b += da_t.sum(axis=0)
    g.w_xz[...], g.w_xr[...], g.w_xc[...] = np.split(g_x, 3, axis=1)
    g.w_hz[...], g.w_hr[...] = np.split(g_h, 2, axis=1)
    g.b_z[...], g.b_r[...], g.b_c[...] = np.split(g_b, 3)
    # sum over steps of hs[t].T @ dlogits[t], last step first
    g.w_out[...] = (hs[2:].transpose(0, 2, 1) @ dlogits)[::-1].sum(axis=0)
    g.b_out[...] = dlogits.sum(axis=1)[::-1].sum(axis=0)
    dxs = da[:, 2] @ p.w_xc.T
    dxs += da[:, 1] @ p.w_xr.T
    dxs += da[:, 0] @ p.w_xz.T
    # One scatter-add, its rows in the order of one add per step, last step first:
    # bincount sums each entry from 0.0 in input order, as np.add.at would.
    slots = fwd.inputs.T[::-1].reshape(-1, 1) * p.d_emb + np.arange(p.d_emb)
    g.emb[...] = np.bincount(
        slots.ravel(), weights=dxs[:0:-1].ravel(), minlength=g.emb.size
    ).reshape(g.emb.shape)
    g.cond += _normalized_conditions(conditions).T @ (dxs[0] * (1.0 - xs[0] * xs[0]))
    return loss, g


def teacher_forced_probs(p: ModelParams, conditions: np.ndarray, ids: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """(n, T) probability of each of the padded (n, T) target ids, zero past each length.

    Rows are ordered longest first (a stable sort) and cut into blocks of
    ``SCORE_BLOCK_ROWS``, each scored by ``_score_block`` over the columns
    of its longest row, so a block pads little.  The blocks bound the
    memory and change no bit, as long as none is a lone row: a one-row
    remainder joins the block before it.
    """
    conditions = np.asarray(conditions, dtype=np.float64)
    if np.any(lengths < 1):
        raise ValueError("every target sequence must contain at least one token")
    n = len(lengths)
    order = np.argsort(-lengths, kind="stable")
    starts = list(range(0, n, SCORE_BLOCK_ROWS))
    if n > 1 and n % SCORE_BLOCK_ROWS == 1:
        starts.pop()
    out = np.zeros(ids.shape)
    for start, stop in zip(starts, starts[1:] + [n]):
        rows = order[start:stop]
        width = lengths[rows[0]]
        out[rows, :width] = _score_block(p, conditions[rows], ids[rows, :width], lengths[rows])
    return out


def check_noise_step(noise_step: int) -> NoiseSchedule:
    """The schedule a noised pass corrupts with; raises unless ``noise_step`` lies on it."""
    schedule = make_schedule()
    if not 0 <= noise_step <= schedule.num_steps:
        raise ValueError(f"noise_step {noise_step} outside the schedule's [0, {schedule.num_steps}]")
    return schedule


def _noised_conditions(conditions: np.ndarray, seeds: list, noise_step: int, schedule: NoiseSchedule) -> np.ndarray:
    """Condition ``i`` corrupted to ``noise_step`` of ``schedule`` with ``seeds[i]``."""
    return np.stack([corrupt(c, noise_step, schedule, seed) for c, seed in zip(conditions, seeds)])


def noised_dependence(
    p: ModelParams,
    conditions: np.ndarray,
    ids: np.ndarray,
    lengths: np.ndarray,
    p_clean: np.ndarray,
    seeds: list,
    noise_step: int,
) -> tuple[np.ndarray, np.ndarray]:
    """The noised teacher-forced pass and the dependence of every token.

    Condition ``i`` is corrupted to ``noise_step`` with ``seeds[i]``.
    ``p_clean`` is the clean pass as ``teacher_forced_probs`` returns it.
    Returns ``(p_noisy, d)``, shaped as ``ids`` and zero past each length.
    """
    noisy = _noised_conditions(conditions, seeds, noise_step, check_noise_step(noise_step))
    p_noisy = teacher_forced_probs(p, noisy, ids, lengths)
    return p_noisy, dependence_array(p_clean, p_noisy)


def check_max_len(max_len: int) -> None:
    if max_len < 2:
        raise ValueError(f"max_len must be >= 2, got {max_len}")


def generate_batch(
    p: ModelParams, conditions: np.ndarray, max_len: int = 40
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Greedy decode for a batch of conditions: after BOS, up to EOS or ``max_len`` tokens in all.

    Returns ``(tokens, lengths, probs)``: the (n, T) emitted tokens, how
    many each row emitted, and the (n, T) probability the model gave each
    emitted token, both arrays zero past each length.  Each probability is
    computed as ``_output_layer`` computes it, so it has the bits
    ``teacher_forced_probs`` gives the decoded tokens; the token is the
    argmax of the unshifted logits.  Each step runs only the rows that have
    not yet emitted EOS, and never fewer than two while the batch has two:
    a row that is done stays in as padding, since a lone row's matmuls
    round differently.
    """
    check_max_len(max_len)
    conditions = np.asarray(conditions, dtype=np.float64)
    b = conditions.shape[0]
    gates = _gates(p)
    h = _cell_forward(gates, np.zeros((b, p.d_hid)), _cond_embed(p, conditions))
    tokens = np.zeros((b, max_len - 1), dtype=np.int64)
    probs = np.zeros((b, max_len - 1))
    lengths = np.full(b, max_len - 1)
    rows = np.arange(b)  # batch row -> input row
    live = np.ones(b, dtype=bool)
    current = np.full(b, synth.BOS_ID, dtype=np.int64)
    for step in range(max_len - 1):
        h = _cell_forward(gates, h, p.emb[current])
        logits = h[None] @ p.w_out
        logits += p.b_out
        current = logits[0].argmax(axis=1)
        _, step_p, _ = _softmax_at(logits, current[None])
        # a padding row writes past its length, which is cleared below
        tokens[rows, step], probs[rows, step] = current, step_p[0]
        ended = live & (current == synth.EOS_ID)
        if not ended.any():
            continue
        lengths[rows[ended]] = step + 1
        live &= ~ended
        if not live.any():
            break
        keep = live.copy()
        if keep.sum() == 1 and keep.size > 1:
            keep[np.flatnonzero(~keep)[0]] = True
        h, rows, live, current = h[keep], rows[keep], live[keep], current[keep]
    width = int(lengths.max(initial=0))
    past = np.arange(width) >= lengths[:, None]
    tokens, probs = tokens[:, :width], probs[:, :width]
    tokens[past] = 0
    probs[past] = 0.0
    return tokens, lengths, probs


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 2
    batch_size: int = 128
    learning_rate: float = 3e-3
    seed: int = 42
    reweight: ReweightConfig = field(default_factory=ReweightConfig)
    noise_step: int = DEFAULT_NOISE_STEP
    d_emb: int = D_EMB
    d_hid: int = D_HID

    def __post_init__(self) -> None:
        if self.epochs < 1 or self.batch_size < 1:
            raise ValueError("epochs and batch_size must be >= 1")
        if not self.learning_rate > 0.0:
            raise ValueError(f"learning_rate must be > 0, got {self.learning_rate}")
        check_noise_step(self.noise_step)


@dataclass(frozen=True)
class TrainLogRecord:
    step: int
    loss: float
    mean_w_pos: float
    mean_w_inv: float
    mean_w_neg: float


class _Adam:
    """Adam on a flat parameter vector (``ModelParams.flat``), one moment entry per parameter.

    A step allocates nothing: every temporary lives in buffers made once.
    """

    def __init__(self, size: int, lr: float, beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        self.lr, self.beta1, self.beta2, self.eps, self.t = lr, beta1, beta2, eps, 0
        self.m = np.zeros(size)
        self.v = np.zeros(size)
        self._tmp, self._update = np.empty(size), np.empty(size)

    def step(self, theta: np.ndarray, g: np.ndarray) -> None:
        """Update the flat parameters ``theta`` in place from their flat gradient ``g``."""
        self.t += 1
        b1c = 1.0 - self.beta1 ** self.t
        b2c = 1.0 - self.beta2 ** self.t
        tmp, update = self._tmp, self._update
        m, v = self.m, self.v
        m *= self.beta1
        m += np.multiply(g, 1.0 - self.beta1, out=tmp)
        v *= self.beta2
        np.multiply(g, g, out=tmp)
        tmp *= 1.0 - self.beta2
        v += tmp
        np.divide(m, b1c, out=update)
        update *= self.lr
        np.divide(v, b2c, out=tmp)
        np.sqrt(tmp, out=tmp)
        tmp += self.eps
        update /= tmp
        theta -= update


def batch_weights(
    fwd: _ForwardCache, d: np.ndarray, cfg: ReweightConfig
) -> tuple[np.ndarray, dict[TokenClass, float]]:
    """A re-weighted step's (B, T) weights and the mean weight of each class."""
    weights = training_weights(d, fwd.lengths, cfg)
    return weights, _class_means(weights, d, fwd.mask)


def _class_means(weights: np.ndarray, d: np.ndarray, mask: np.ndarray) -> dict[TokenClass, float]:
    """Mean weight of the tokens in each dependence class; NaN for an empty class."""
    codes = classify_array(d)
    means = {}
    for code, cls in enumerate(CLASS_BY_CODE):
        sel = mask & (codes == code)
        means[cls] = float(weights[sel].mean()) if sel.any() else float("nan")
    return means


def train(corpus: synth.Corpus, cfg: TrainConfig) -> tuple[ModelParams, list[TrainLogRecord]]:
    """Train on a corpus's captions; deterministic in ``(corpus, cfg)``.

    Every batch runs a clean teacher-forced pass.  Once
    ``reweighting_active`` holds (never in vanilla mode, otherwise from
    ``start_fraction`` of the total steps on), a batch also corrupts its
    conditions, runs them in the same forward as the clean rows, weights
    each token by its dependence and logs the mean weight of each
    dependence class.  Before that every weight is exactly 1, nothing is
    corrupted and the class means are logged as NaN.  Each noise draw is
    seeded by ``(seed, step, scene_id)``, so skipping some steps changes no
    other step's draw.

    The returned parameters are the uniform average of the iterates that
    steps ``total_steps // 2`` through ``total_steps - 1`` (counting from
    0) produce: Polyak-Ruppert tail averaging.  At a constant step size
    the last iterate keeps jumping around the optimum by as much as the
    gradient noise allows, so it is a draw from that noise; the average
    over the tail varies far less from seed to seed.  The average only
    reads the trajectory: the steps, the losses and the log are those of
    the plain run, and a one-step run returns its only iterate.

    Every step writes into one ``_Workspace``, sized for the largest batch
    (doubled if a step can be re-weighted) and the longest caption.
    """
    if not len(corpus):
        raise ValueError("cannot train on an empty corpus")
    v_obj = corpus.features.shape[1]
    vocab = synth.vocab_size(v_obj)
    init = init_params(vocab, v_obj, seed=derive_seed(cfg.seed, "init"), d_emb=cfg.d_emb, d_hid=cfg.d_hid)
    theta = init.flat()
    params = init.views(theta)
    opt = _Adam(theta.size, cfg.learning_rate)
    schedule = check_noise_step(cfg.noise_step)

    n = len(corpus)
    steps_per_epoch = (n + cfg.batch_size - 1) // cfg.batch_size
    total_steps = cfg.epochs * steps_per_epoch
    average_from = total_steps // 2
    rows = min(cfg.batch_size, n) * (2 if reweighting_active(cfg.reweight, (total_steps - 1) / total_steps) else 1)
    ws = _Workspace(params, rows, int(corpus.lengths.max()) - 1)
    tail_sum = np.zeros_like(theta)
    unweighted_means = dict.fromkeys(TokenClass, float("nan"))
    log: list[TrainLogRecord] = []
    global_step = 0
    for epoch in range(cfg.epochs):
        order = rng_for(cfg.seed, "shuffle", epoch).permutation(n)
        for start in range(0, n, cfg.batch_size):
            idx = order[start : start + cfg.batch_size]
            features = corpus.features[idx]
            # the captions after BOS, cut to the longest in the batch
            lengths = corpus.lengths[idx] - 1
            ids = corpus.captions[idx, 1 : 1 + lengths.max()]

            if reweighting_active(cfg.reweight, global_step / total_steps):
                seeds = [derive_seed(cfg.seed, "noise", global_step, sid) for sid in corpus.scene_ids[idx]]
                noisy = _noised_conditions(features, seeds, cfg.noise_step, schedule)
                b = len(idx)
                if b > 1:  # in a batch of two or more rows, no row's bits depend on the others
                    conds = np.concatenate([features, noisy])
                    both = _forward_batch(params, conds, np.tile(ids, (2, 1)), np.tile(lengths, 2), ws)
                    fwd, p_noisy = both.head(b), both.target_p[b:]
                else:  # a lone row rounds differently from a pair; through ws its noised pass would clobber fwd
                    fwd = _forward_batch(params, features, ids, lengths, ws)
                    p_noisy = _forward_batch(params, noisy, ids, lengths).target_p
                d = dependence_array(np.where(fwd.mask, fwd.target_p, 0.0), np.where(fwd.mask, p_noisy, 0.0))
                weights, means = batch_weights(fwd, d, cfg.reweight)
            else:
                fwd = _forward_batch(params, features, ids, lengths, ws)
                weights = fwd.mask.astype(np.float64)
                means = unweighted_means
            loss, _ = _loss_and_grads(params, features, fwd, weights)  # the gradients are ws.grad
            if not math.isfinite(loss):
                raise TrainingDiverged(f"non-finite loss {loss} at step {global_step}")
            opt.step(theta, ws.grad)
            if global_step >= average_from:
                tail_sum += theta

            log.append(
                TrainLogRecord(
                    step=global_step,
                    loss=loss,
                    mean_w_pos=means[TokenClass.IMAGE_POSITIVE],
                    mean_w_inv=means[TokenClass.IMAGE_INVARIANT],
                    mean_w_neg=means[TokenClass.IMAGE_NEGATIVE],
                )
            )
            global_step += 1
    tail_sum /= total_steps - average_from
    return params.views(tail_sum), log


def write_train_log(log: list[TrainLogRecord], path: str | os.PathLike) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("step,loss,mean_w_pos,mean_w_inv,mean_w_neg\n")
        for rec in log:
            fh.write(
                f"{rec.step},{rec.loss!r},{rec.mean_w_pos!r},{rec.mean_w_inv!r},{rec.mean_w_neg!r}\n"
            )


def save_params(p: ModelParams, path: str | os.PathLike, test_frac: float, split_seed: int) -> None:
    """Versioned JSON checkpoint with a shape header per block and the train/test split it trained on."""
    payload = {
        "format": CKPT_FORMAT,
        "version": CKPT_VERSION,
        "test_frac": test_frac,
        "split_seed": split_seed,
        "vocab_size": p.vocab_size,
        "v_obj": p.v_obj,
        "d_emb": p.d_emb,
        "d_hid": p.d_hid,
        "blocks": {
            name: {"shape": list(arr.shape), "data": arr.ravel().tolist()}
            for name, arr in p.blocks().items()
        },
    }
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(payload, fh, sort_keys=True, separators=(",", ":"))
        fh.write("\n")


def load_params(path: str | os.PathLike) -> tuple[ModelParams, float, int]:
    """The params of a ``save_params`` checkpoint, and its split's ``test_frac`` and ``split_seed``."""
    where = os.fspath(path)
    with open(path, "r", encoding="utf-8") as fh:
        try:
            payload = json.load(fh)
        except ValueError as exc:  # also a JSON integer past int()'s digit limit, which is not a JSONDecodeError
            raise ValueError(f"{where}: invalid JSON: {getattr(exc, 'msg', exc)}") from exc
    if not isinstance(payload, dict) or payload.get("format") != CKPT_FORMAT:
        raise ValueError(f"{where}: not a {CKPT_FORMAT} checkpoint")
    if payload.get("version") != CKPT_VERSION:
        raise ValueError(f"{where}: unsupported checkpoint version {payload.get('version')!r}")
    test_frac, split_seed = payload.get("test_frac"), payload.get("split_seed")
    if not (type(test_frac) is float and 0.0 < test_frac < 1.0):
        raise ValueError(f"{where}: checkpoint test_frac {test_frac!r} is not a number in (0, 1)")
    if type(split_seed) is not int:
        raise ValueError(f"{where}: checkpoint split_seed {split_seed!r} is not an integer")
    dims = [payload.get(k) for k in ("vocab_size", "v_obj", "d_emb", "d_hid")]
    if not all(isinstance(x, int) and not isinstance(x, bool) and x > 0 for x in dims):
        raise ValueError(f"{where}: checkpoint dimensions {dims} are not positive integers")
    stored = payload.get("blocks")
    if not isinstance(stored, dict):
        raise ValueError(f"{where}: checkpoint blocks must be a JSON object, got {type(stored).__name__}")
    blocks = {}
    for name, shape in _block_shapes(*dims).items():
        entry = stored.get(name)
        if not isinstance(entry, dict):
            raise ValueError(f"{where}: checkpoint block {name!r} is missing or not an object")
        if entry.get("shape") != list(shape):
            raise ValueError(f"{where}: block {name!r} has shape {entry.get('shape')}, expected {list(shape)}")
        data = entry.get("data")
        size = math.prod(shape)
        # a JSON boolean loads as bool and a string as str, both of which numpy would cast
        if not (isinstance(data, list) and len(data) == size and set(map(type, data)) <= {int, float}):
            raise ValueError(f"{where}: block {name!r}: data must be a list of {size} JSON numbers")
        try:
            blocks[name] = np.array(data, dtype=np.float64).reshape(shape)
        except OverflowError as exc:  # a JSON integer past the float range
            raise ValueError(f"{where}: block {name!r}: {exc}") from exc
        if not np.isfinite(blocks[name]).all():
            raise ValueError(f"{where}: block {name!r} holds a number that is not finite")
    return ModelParams(**blocks), test_frac, split_seed
