"""Token traces: per-token probabilities under clean and noised conditioning.

A trace records, for one teacher-forced or generated sequence, the
probability of each token under the model's clean conditioning input and
under a noise-corrupted replacement of it.  Traces are exchanged as
JSON-lines files so that probability dumps from external models can be
analyzed with the same tooling.

File layout: the first line is a header object
``{"format": "visdep-trace", "version": 1, "noise_step": <int>, ...}``
followed by one record per line with keys ``sample_id``, ``tokens``,
``surfaces``, ``p_clean``, ``p_noisy`` and ``eos_index``.  Probabilities
are stored as plain JSON floats, which round-trip doubles exactly.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

FORMAT_NAME = "visdep-trace"
FORMAT_VERSION = 1


class TraceError(ValueError):
    """Malformed trace record or trace file."""


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise TraceError(msg)


@dataclass(frozen=True)
class TokenTrace:
    """One sequence with parallel token ids, surfaces and probability pairs.

    ``eos_index``, when set, marks the terminal EOS token and must point
    at the last position.
    """

    sample_id: str
    tokens: tuple[int, ...]
    surfaces: tuple[str, ...]
    p_clean: tuple[float, ...]
    p_noisy: tuple[float, ...]
    eos_index: int | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "tokens", tuple(self.tokens))
        object.__setattr__(self, "surfaces", tuple(self.surfaces))
        object.__setattr__(self, "p_clean", tuple(float(p) for p in self.p_clean))
        object.__setattr__(self, "p_noisy", tuple(float(p) for p in self.p_noisy))
        sid = self.sample_id
        _require(isinstance(sid, str) and sid != "", "sample_id must be a non-empty string")
        n = len(self.tokens)
        _require(n >= 1, f"trace {sid!r}: must contain at least one token")
        _require(
            len(self.surfaces) == n and len(self.p_clean) == n and len(self.p_noisy) == n,
            f"trace {sid!r}: tokens/surfaces/p_clean/p_noisy lengths differ",
        )
        for i, t in enumerate(self.tokens):
            if not isinstance(t, int) or isinstance(t, bool) or t < 0:
                raise TraceError(f"trace {sid!r}: tokens[{i}] = {t!r} is not a non-negative integer")
        for name in ("p_clean", "p_noisy"):
            for i, p in enumerate(getattr(self, name)):
                if not math.isfinite(p) or p < 0.0 or p > 1.0:
                    raise TraceError(f"trace {sid!r}: {name}[{i}] = {p!r} outside [0, 1]")
        if self.eos_index is not None:
            if not isinstance(self.eos_index, int) or isinstance(self.eos_index, bool):
                raise TraceError(f"trace {sid!r}: eos_index must be an integer or null")
            _require(
                self.eos_index == n - 1,
                f"trace {sid!r}: eos_index {self.eos_index} is not the last position {n - 1}",
            )

    def __len__(self) -> int:
        return len(self.tokens)

    def to_record(self) -> dict:
        return {
            "sample_id": self.sample_id,
            "tokens": list(self.tokens),
            "surfaces": list(self.surfaces),
            "p_clean": list(self.p_clean),
            "p_noisy": list(self.p_noisy),
            "eos_index": self.eos_index,
        }

    @classmethod
    def from_record(cls, record: dict) -> "TokenTrace":
        _require(isinstance(record, dict), "trace record must be a JSON object")
        missing = {"sample_id", "tokens", "surfaces", "p_clean", "p_noisy"} - record.keys()
        _require(not missing, f"trace record missing keys: {sorted(missing)}")
        sid = record["sample_id"]
        # JSON enters here: a boolean is not an integer, and a string is not a number
        for name, kinds, what in (
            ("tokens", {int}, "an integer"),
            ("surfaces", {str}, "a string"),
            ("p_clean", {int, float}, "a number"),
            ("p_noisy", {int, float}, "a number"),
        ):
            values = record[name]
            _require(isinstance(values, list), f"trace {sid!r}: {name} must be a list")
            if not kinds.issuperset(map(type, values)):
                i = next(i for i, v in enumerate(values) if type(v) not in kinds)
                raise TraceError(f"trace {sid!r}: {name}[{i}] = {values[i]!r} is not {what}")
        return cls(
            sample_id=sid,
            tokens=record["tokens"],
            surfaces=record["surfaces"],
            p_clean=record["p_clean"],
            p_noisy=record["p_noisy"],
            eos_index=record.get("eos_index"),
        )


@dataclass(frozen=True)
class TraceFile:
    """An ordered collection of traces plus the noise step that produced them."""

    noise_step: int
    traces: tuple[TokenTrace, ...] = ()
    generator: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "traces", tuple(self.traces))
        if not isinstance(self.noise_step, int) or isinstance(self.noise_step, bool) or self.noise_step < 0:
            raise TraceError(f"noise_step must be a non-negative integer, got {self.noise_step!r}")
        seen: set[str] = set()
        for tr in self.traces:
            _require(tr.sample_id not in seen, f"duplicate sample_id {tr.sample_id!r}")
            seen.add(tr.sample_id)

    def __len__(self) -> int:
        return len(self.traces)

    def records(self):
        return (tr.to_record() for tr in self.traces)


@dataclass(frozen=True, eq=False)
class TraceArrays:
    """Traces as padded arrays, row ``i`` one trace: what ``write_traces`` writes
    without a TokenTrace per row.

    Construction checks every row's ids, tokens and probabilities as
    TokenTrace and TraceFile check them, once over the arrays; entries past
    each row's length are ignored.
    """

    noise_step: int
    sample_ids: np.ndarray   # (n,) str
    tokens: np.ndarray       # (n, T) int
    lengths: np.ndarray      # (n,) in [1, T]
    surfaces: np.ndarray     # (n, T) str
    p_clean: np.ndarray      # (n, T)
    p_noisy: np.ndarray      # (n, T)
    ends_at_eos: np.ndarray  # (n,) bool: the last token is EOS, recorded as ``eos_index``
    generator: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        seen: set[str] = set()
        for sid in self.sample_ids:
            _require(isinstance(sid, str) and sid != "", "sample_id must be a non-empty string")
            _require(sid not in seen, f"duplicate sample_id {sid!r}")
            seen.add(sid)
        width = self.tokens.shape[1]
        _require(np.all((self.lengths >= 1) & (self.lengths <= width)), "every trace needs a token")
        within = np.arange(width) < self.lengths[:, None]
        for name, ok, what in (
            ("tokens", self.tokens >= 0, "is not a non-negative integer"),
            ("p_clean", (self.p_clean >= 0.0) & (self.p_clean <= 1.0), "outside [0, 1]"),
            ("p_noisy", (self.p_noisy >= 0.0) & (self.p_noisy <= 1.0), "outside [0, 1]"),
        ):
            bad = within & ~ok
            if bad.any():
                i, t = np.argwhere(bad)[0]
                value = getattr(self, name)[i, t].item()
                raise TraceError(f"trace {self.sample_ids[i]!r}: {name}[{t}] = {value!r} {what}")

    def records(self):
        rows = zip(
            self.sample_ids,
            self.lengths.tolist(),
            self.tokens.tolist(),
            self.surfaces.tolist(),
            self.p_clean.tolist(),
            self.p_noisy.tolist(),
            self.ends_at_eos.tolist(),
        )
        for sid, n, tokens, surfaces, clean, noisy, eos in rows:
            yield {
                "sample_id": sid,
                "tokens": tokens[:n],
                "surfaces": surfaces[:n],
                "p_clean": clean[:n],
                "p_noisy": noisy[:n],
                "eos_index": n - 1 if eos else None,
            }


def _dumps(obj: dict) -> str:
    return json.dumps(obj, ensure_ascii=False, sort_keys=True, separators=(",", ":"))


def write_traces(trace_file: TraceFile | TraceArrays, path: str | os.PathLike) -> None:
    """Serialize to JSON-lines; identical traces produce identical bytes in either form."""
    header = {"format": FORMAT_NAME, "version": FORMAT_VERSION, "noise_step": trace_file.noise_step}
    if trace_file.generator:
        header["generator"] = trace_file.generator
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(_dumps(header) + "\n")
        for record in trace_file.records():
            fh.write(_dumps(record) + "\n")


def read_traces(path: str | os.PathLike) -> TraceFile:
    """Parse a trace file, rejecting malformed lines with their line number."""
    with open(path, "r", encoding="utf-8", newline="\n") as fh:
        # Split strictly on newlines: str.splitlines() would also break on
        # unicode separators such as \x85 that may occur inside surfaces.
        lines = [line.rstrip("\r") for line in fh.read().split("\n")]
    while lines and lines[-1].strip() == "":
        lines.pop()
    if not lines:
        return TraceFile(noise_step=0)

    def parse(lineno: int, text: str) -> dict:
        try:
            obj = json.loads(text)
        except json.JSONDecodeError as exc:
            raise TraceError(f"{os.fspath(path)}:{lineno}: invalid JSON: {exc.msg}") from exc
        if not isinstance(obj, dict):
            raise TraceError(f"{os.fspath(path)}:{lineno}: expected a JSON object")
        return obj

    header = parse(1, lines[0])
    if header.get("format") != FORMAT_NAME:
        raise TraceError(f"{os.fspath(path)}:1: missing or unknown format marker (expected {FORMAT_NAME!r})")
    if header.get("version") != FORMAT_VERSION:
        raise TraceError(f"{os.fspath(path)}:1: unsupported version {header.get('version')!r}")
    if "noise_step" not in header:
        raise TraceError(f"{os.fspath(path)}:1: header lacks noise_step")
    traces = []
    for lineno, text in enumerate(lines[1:], start=2):
        if text.strip() == "":
            continue
        record = parse(lineno, text)
        try:
            traces.append(TokenTrace.from_record(record))
        except TraceError as exc:
            raise TraceError(f"{os.fspath(path)}:{lineno}: {exc}") from exc
    return TraceFile(
        noise_step=header["noise_step"],
        traces=tuple(traces),
        generator=header.get("generator", {}),
    )
