"""Outside-in span tracer for the visdep benchmark.

Spans are recorded by wrapping the names that the CLI stages look up at
call time, in the namespace of the module that *imports* them (for example
``toymodel.corrupt`` or ``cli.generate_batch``), plus ``_Adam.step`` on its
class.  Nothing under ``src/`` is edited.  Every span records its parent, so
a teacher-forced forward called from ``train`` (the noisy pass) is told apart
from one called from ``score_corpus`` or ``run_eval`` (scoring).

A hook whose target no longer exists (a later refactor renamed or fused it)
is recorded as absent; every metric that depends on it is then left out of
the report instead of being reported from partial counts.
"""

from __future__ import annotations

import importlib
import json
from collections import defaultdict
from time import perf_counter

import numpy as np

TRAIN = "toymodel.train"
FORWARD_CLEAN = "toymodel.forward_clean"
FORWARD_NOISY = "toymodel.forward_noisy"
FORWARD_SCORE = "toymodel.forward_score"

# Layers reported as ``<name>.self_s``; those also in CALL_LAYERS add ``.calls``.
SELF_LAYERS = (
    FORWARD_CLEAN, FORWARD_NOISY, "toymodel.backward", "toymodel.optimizer",
    "toymodel.weights", "toymodel.trainlog", TRAIN, FORWARD_SCORE,
    "toymodel.decode", "toymodel.ckpt_io",
    "diffusion.corrupt", "seeding.derive_seed", "dependence.profile_trace",
    "reweight.training_weights", "trace.TokenTrace", "trace.write_traces",
    "filtering.score_corpus", "filtering.apply_filter",
    "halleval.evaluate", "halleval.class_object_counts", "halleval.co_occurrence",
    "synth.generate_corpus", "synth.write_corpus", "synth.read_corpus",
    "synth.train_test_split",
    "cli.run_eval", "cli.synth", "cli.train", "cli.filter", "cli.eval",
)
CALL_LAYERS = (FORWARD_CLEAN, FORWARD_NOISY, FORWARD_SCORE) + SELF_LAYERS[10:]
# Ratios and the hook layers each one is computed from.
RATIOS = {
    "toymodel.pad_share": ("toymodel._forward_batch",),
    "toymodel.decode.live_share": ("toymodel.decode",),
    "reweight.weighted_share": ("toymodel.weights", FORWARD_NOISY),
}


def layer_metric_units() -> dict[str, str]:
    """Every per-layer metric name the tracer can emit, with its unit."""
    units = {f"{name}.self_s": "s" for name in SELF_LAYERS}
    units.update({f"{name}.calls": "count" for name in CALL_LAYERS})
    units.update({name: "ratio" for name in RATIOS})
    return units


def _module(name: str):
    """``visdep.<name>``, or None when a refactor removed it (its hooks are then absent)."""
    try:
        return importlib.import_module(f"visdep.{name}")
    except ImportError:
        return None


class Tracer:
    """Records spans in memory while installed; restores every hook on exit."""

    def __init__(self) -> None:
        self.spans: list = []  # (name, parent index or -1, start, end)
        self.stack: list[int] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.hooked: set[str] = set()
        self.absent: list[str] = []  # hook targets that no longer exist
        self.incomplete: set[str] = set()  # layers with an absent hook target
        self._undo: list = []

    # -- recording ----------------------------------------------------------

    def parent_name(self) -> str | None:
        return self.spans[self.stack[-1]][0] if self.stack else None

    def call(self, name, fn, args, kwargs):
        idx = len(self.spans)
        self.spans.append((name, self.stack[-1] if self.stack else -1, 0.0, 0.0))
        self.stack.append(idx)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            self.stack.pop()
            self.spans[idx] = (name, self.spans[idx][1], start, end)

    # -- installation ---------------------------------------------------------

    def hook(self, owner, attr: str, layer: str, after=None) -> None:
        """Wrap ``owner.attr`` in a span named ``layer``; ``after(result, args, kwargs)`` counts."""
        self.hook_by_parent(owner, attr, (layer,), lambda parent: layer, after)

    def hook_by_parent(self, owner, attr: str, layers: tuple[str, ...], choose, after=None) -> None:
        """Like ``hook`` but the span name, one of ``layers``, is ``choose(parent_name)``.

        ``choose`` returning None records no span (the work belongs to the
        enclosing span) but still runs ``after``.
        """
        fn = getattr(owner, attr, None)
        if fn is None:
            self.absent.append(f"{getattr(owner, '__name__', 'missing')}.{attr}")
            self.incomplete.update(layers)
            return

        def wrapper(*args, **kwargs):
            name = choose(self.parent_name())
            result = fn(*args, **kwargs) if name is None else self.call(name, fn, args, kwargs)
            if after is not None:
                after(result, args, kwargs)
            return result

        setattr(owner, attr, wrapper)
        self._undo.append((owner, attr, fn))
        self.hooked.update(layers)

    def install(self) -> "Tracer":
        cli, filtering, synth, toymodel = (_module(name) for name in ("cli", "filtering", "synth", "toymodel"))

        def count_pad(result, args, kwargs):
            targets = kwargs["targets"] if "targets" in kwargs else args[2]
            lengths = [len(t) for t in targets]
            self.counts["slots"] += len(lengths) * max(lengths)
            self.counts["filled"] += sum(lengths)

        def count_live(result, args, kwargs):
            steps = max(len(s) for s in result) - 1
            self.counts["row_steps"] += len(result) * steps
            self.counts["live_steps"] += sum(len(s) - 1 for s in result)

        def count_weighted(result, args, kwargs):
            w = np.asarray(result[0])
            # padding is 0 and gated weights are exactly 1; anything else is re-weighted
            self.counts["weighted_steps"] += bool(np.any((w != 0.0) & (w != 1.0)))

        def clean_or_none(parent):
            return FORWARD_CLEAN if parent == TRAIN else None

        def noisy_or_score(parent):
            return FORWARD_NOISY if parent == TRAIN else FORWARD_SCORE

        self.hook_by_parent(
            toymodel, "_forward_batch", ("toymodel._forward_batch", FORWARD_CLEAN), clean_or_none, count_pad
        )
        for mod in (toymodel, filtering, cli):
            self.hook_by_parent(mod, "teacher_forced_probs", (FORWARD_NOISY, FORWARD_SCORE), noisy_or_score)
        self.hook(toymodel, "_loss_and_grads", "toymodel.backward")
        self.hook(getattr(toymodel, "_Adam", None), "step", "toymodel.optimizer")
        self.hook(toymodel, "batch_weights", "toymodel.weights", count_weighted)
        self.hook(toymodel, "_class_means", "toymodel.trainlog")
        self.hook(cli, "write_train_log", "toymodel.trainlog")
        self.hook(cli, "train", TRAIN)
        self.hook(cli, "generate_batch", "toymodel.decode", count_live)
        self.hook(cli, "save_params", "toymodel.ckpt_io")
        self.hook(cli, "load_params", "toymodel.ckpt_io")
        for mod in (toymodel, filtering, cli):
            self.hook(mod, "corrupt", "diffusion.corrupt")
            self.hook(mod, "derive_seed", "seeding.derive_seed")
            self.hook(mod, "profile_trace", "dependence.profile_trace")
            self.hook(mod, "TokenTrace", "trace.TokenTrace")
        self.hook(toymodel, "training_weights", "reweight.training_weights")
        self.hook(cli, "write_traces", "trace.write_traces")
        self.hook(cli, "score_corpus", "filtering.score_corpus")
        self.hook(cli, "apply_filter", "filtering.apply_filter")
        for attr in ("evaluate", "class_object_counts", "co_occurrence"):
            self.hook(cli, attr, f"halleval.{attr}")
        # cli reaches these through the ``synth`` module object
        for attr in ("generate_corpus", "write_corpus", "read_corpus", "train_test_split"):
            self.hook(synth, attr, f"synth.{attr}")
        self.hook(cli, "run_eval", "cli.run_eval")
        for stage in ("synth", "train", "filter", "eval"):
            self.hook(cli, f"cmd_{stage}", f"cli.{stage}")
        return self

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- reporting ------------------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        """Self time and call count per layer, plus the ratios, for hooked layers only."""
        self_s: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        for name, parent, start, end in self.spans:
            dur = end - start
            self_s[name] += dur
            calls[name] += 1
            if parent >= 0:
                self_s[self.spans[parent][0]] -= dur
        complete = self.hooked - self.incomplete
        out: dict[str, float] = {}
        for name in SELF_LAYERS:
            if name in complete:
                out[f"{name}.self_s"] = self_s.get(name, 0.0)
        for name in CALL_LAYERS:
            if name in complete:
                out[f"{name}.calls"] = calls.get(name, 0)
        c = self.counts
        ratios = {
            "toymodel.pad_share": (c["slots"] - c["filled"], c["slots"]),
            "toymodel.decode.live_share": (c["live_steps"], c["row_steps"]),
            "reweight.weighted_share": (c["weighted_steps"], calls.get(FORWARD_NOISY, 0)),
        }
        for name, needs in RATIOS.items():
            if all(layer in complete for layer in needs):
                num, den = ratios[name]
                out[name] = num / den if den else 0.0
        return out

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, parent, start, end in self.spans:
                fh.write(json.dumps([name, parent, start, end]) + "\n")
