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
    """One line of a trace file, checked: parallel token ids, surfaces and probability pairs.

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
            if t >= 2**63:
                raise TraceError(f"trace {sid!r}: tokens[{i}] = {t} does not fit in 64 bits")
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


@dataclass(frozen=True, eq=False)
class TraceArrays:
    """Traces as padded arrays, row ``i`` one trace: what ``read_traces`` returns
    and ``write_traces`` writes.

    Construction checks the noise step, and every row's ids, tokens and
    probabilities as TokenTrace checks them, once over the arrays; entries
    past each row's length are ignored.
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
        if not isinstance(self.noise_step, int) or isinstance(self.noise_step, bool) or self.noise_step < 0:
            raise TraceError(f"noise_step must be a non-negative integer, got {self.noise_step!r}")
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


def write_traces(trace_file: TraceArrays, path: str | os.PathLike) -> None:
    """Serialize to JSON-lines; identical traces produce identical bytes."""
    header = {"format": FORMAT_NAME, "version": FORMAT_VERSION, "noise_step": trace_file.noise_step}
    if trace_file.generator:
        header["generator"] = trace_file.generator
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(_dumps(header) + "\n")
        for record in trace_file.records():
            fh.write(_dumps(record) + "\n")


def _pad(rows: list, dtype, fill) -> np.ndarray:
    out = np.full((len(rows), max(map(len, rows), default=0)), fill, dtype=dtype)
    for i, row in enumerate(rows):
        out[i, : len(row)] = row
    return out


def read_traces(path: str | os.PathLike) -> TraceArrays:
    """Parse a trace file into padded arrays, rejecting malformed lines with their line number."""
    where = os.fspath(path)
    with open(path, "r", encoding="utf-8", newline="\n") as fh:
        # Split strictly on newlines: str.splitlines() would also break on
        # unicode separators such as \x85 that may occur inside surfaces.
        lines = [line.rstrip("\r") for line in fh.read().split("\n")]
    while lines and lines[-1].strip() == "":
        lines.pop()

    def parse(lineno: int, text: str) -> dict:
        try:
            obj = json.loads(text)
        except ValueError as exc:  # also a JSON integer past int()'s digit limit, which is not a JSONDecodeError
            raise TraceError(f"{where}:{lineno}: invalid JSON: {getattr(exc, 'msg', exc)}") from exc
        if not isinstance(obj, dict):
            raise TraceError(f"{where}:{lineno}: expected a JSON object")
        return obj

    header = {"noise_step": 0}
    if lines:
        header = parse(1, lines[0])
        if header.get("format") != FORMAT_NAME:
            raise TraceError(f"{where}:1: missing or unknown format marker (expected {FORMAT_NAME!r})")
        if header.get("version") != FORMAT_VERSION:
            raise TraceError(f"{where}:1: unsupported version {header.get('version')!r}")
        if "noise_step" not in header:
            raise TraceError(f"{where}:1: header lacks noise_step")
    traces: list[TokenTrace] = []
    first_on: dict[str, int] = {}
    for lineno, text in enumerate(lines[1:], start=2):
        if text.strip() == "":
            continue
        record = parse(lineno, text)
        try:
            tr = TokenTrace.from_record(record)
        except (OverflowError, TraceError) as exc:  # OverflowError: a JSON integer probability past the float range
            raise TraceError(f"{where}:{lineno}: {exc}") from exc
        if tr.sample_id in first_on:
            raise TraceError(
                f"{where}:{lineno}: duplicate sample_id {tr.sample_id!r} (first on line {first_on[tr.sample_id]})"
            )
        first_on[tr.sample_id] = lineno
        traces.append(tr)
    try:
        return TraceArrays(
            noise_step=header["noise_step"],
            sample_ids=np.array([tr.sample_id for tr in traces], dtype=object),
            tokens=_pad([tr.tokens for tr in traces], np.int64, 0),
            lengths=np.array([len(tr.tokens) for tr in traces], dtype=np.int64),
            surfaces=_pad([tr.surfaces for tr in traces], object, ""),
            p_clean=_pad([tr.p_clean for tr in traces], np.float64, 0.0),
            p_noisy=_pad([tr.p_noisy for tr in traces], np.float64, 0.0),
            ends_at_eos=np.array([tr.eos_index is not None for tr in traces], dtype=bool),
            generator=header.get("generator", {}),
        )
    except TraceError as exc:  # every line passed above: what is left is the header's noise step
        raise TraceError(f"{where}:1: {exc}") from exc
