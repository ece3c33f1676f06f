"""Tests for the JSON-lines token trace format."""

import json
import os

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from visdep.trace import (
    FORMAT_NAME,
    FORMAT_VERSION,
    TokenTrace,
    TraceArrays,
    TraceError,
    TraceFile,
    read_traces,
    write_traces,
)


def make_trace(sample_id="s0", n=3, eos=False, rng=None):
    if rng is None:
        rng = np.random.default_rng(42)
    return TokenTrace(
        sample_id=sample_id,
        tokens=tuple(int(t) for t in rng.integers(0, 100, size=n)),
        surfaces=tuple(f"tok{i}" for i in range(n)),
        p_clean=tuple(float(p) for p in rng.uniform(0, 1, size=n)),
        p_noisy=tuple(float(p) for p in rng.uniform(0, 1, size=n)),
        eos_index=n - 1 if eos else None,
    )


class TestTokenTraceValidation:
    def test_minimal_trace(self):
        trace = TokenTrace(
            sample_id="a",
            tokens=(5,),
            surfaces=("cat",),
            p_clean=(0.5,),
            p_noisy=(0.25,),
        )
        assert len(trace) == 1
        assert trace.eos_index is None

    def test_empty_sample_id_rejected(self):
        with pytest.raises(TraceError):
            make_trace(sample_id="")

    def test_zero_tokens_rejected(self):
        with pytest.raises(TraceError):
            TokenTrace("a", (), (), (), ())

    def test_length_mismatch_rejected(self):
        with pytest.raises(TraceError):
            TokenTrace("a", (1, 2), ("x",), (0.5, 0.5), (0.5, 0.5))

    def test_negative_token_rejected(self):
        with pytest.raises(TraceError):
            TokenTrace("a", (-1,), ("x",), (0.5,), (0.5,))

    def test_boolean_token_rejected(self):
        with pytest.raises(TraceError):
            TokenTrace("a", (True,), ("x",), (0.5,), (0.5,))

    @pytest.mark.parametrize("bad", [1.2, -0.01, float("nan")])
    def test_probability_out_of_range_names_the_field(self, bad):
        with pytest.raises(TraceError, match="p_clean"):
            TokenTrace("a", (1,), ("x",), (bad,), (0.5,))
        with pytest.raises(TraceError, match="p_noisy"):
            TokenTrace("a", (1,), ("x",), (0.5,), (bad,))

    def test_eos_index_must_be_last(self):
        with pytest.raises(TraceError):
            TokenTrace("a", (1, 2), ("x", "y"), (0.5, 0.5), (0.5, 0.5), eos_index=0)

    @pytest.mark.parametrize("bad", [1.0, True, "1"])
    def test_non_integer_eos_index_rejected(self, bad):
        with pytest.raises(TraceError, match="eos_index must be an integer"):
            TokenTrace("a", (1, 2), ("x", "y"), (0.5, 0.5), (0.5, 0.5), eos_index=bad)

    def test_eos_index_at_last_accepted(self):
        trace = TokenTrace("a", (1, 2), ("x", "y"), (0.5, 0.5), (0.5, 0.5), eos_index=1)
        assert trace.eos_index == 1


class TestTraceFileValidation:
    def test_duplicate_sample_ids_rejected(self):
        with pytest.raises(TraceError, match="duplicate"):
            TraceFile(noise_step=900, traces=(make_trace("a"), make_trace("a")))

    def test_negative_noise_step_rejected(self):
        with pytest.raises(TraceError):
            TraceFile(noise_step=-1)

    def test_non_integer_noise_step_rejected(self):
        with pytest.raises(TraceError):
            TraceFile(noise_step=900.0)

    def test_len_counts_traces(self):
        tf = TraceFile(noise_step=0, traces=(make_trace("a"), make_trace("b")))
        assert len(tf) == 2


def make_arrays(n=6, width=9, seed=3, **overrides):
    """Random padded traces; past each length every array holds junk, which must be ignored."""
    rng = np.random.default_rng(seed)
    fields = dict(
        noise_step=700,
        sample_ids=np.array([f"s{i}" for i in range(n)], dtype=object),
        tokens=rng.integers(0, 60, size=(n, width)),
        lengths=rng.integers(1, width + 1, size=n),
        surfaces=np.array([[f"w{j}\u00e9" for j in range(width)]] * n, dtype=object),
        p_clean=rng.uniform(0, 1, size=(n, width)),
        p_noisy=rng.uniform(0, 1, size=(n, width)),
        ends_at_eos=rng.random(n) < 0.5,
        generator={"source": "test"},
    )
    fields["lengths"][0] = width
    past = np.arange(width) >= fields["lengths"][:, None]
    fields["tokens"][past] = -5
    fields["p_clean"][past] = np.nan
    fields["p_noisy"][past] = 7.0
    return {**fields, **overrides}


class TestTraceArrays:
    def test_writes_the_bytes_of_the_equal_trace_file(self, tmp_path):
        arrays = make_arrays()
        rows = []
        for i, n in enumerate(arrays["lengths"].tolist()):
            rows.append(
                TokenTrace(
                    sample_id=arrays["sample_ids"][i],
                    tokens=arrays["tokens"][i, :n].tolist(),
                    surfaces=arrays["surfaces"][i, :n].tolist(),
                    p_clean=arrays["p_clean"][i, :n].tolist(),
                    p_noisy=arrays["p_noisy"][i, :n].tolist(),
                    eos_index=n - 1 if arrays["ends_at_eos"][i] else None,
                )
            )
        tf = TraceFile(noise_step=700, traces=rows, generator={"source": "test"})
        write_traces(tf, tmp_path / "file.jsonl")
        write_traces(TraceArrays(**arrays), tmp_path / "arrays.jsonl")
        assert (tmp_path / "arrays.jsonl").read_bytes() == (tmp_path / "file.jsonl").read_bytes()
        assert read_traces(tmp_path / "arrays.jsonl").traces == tf.traces

    @pytest.mark.parametrize(
        "edit,message",
        [
            (lambda a: a["p_clean"].__setitem__((2, 0), 1.5), "trace 's2': p_clean\\[0\\] = 1.5 outside \\[0, 1\\]"),
            (lambda a: a["p_noisy"].__setitem__((0, 8), np.nan), "trace 's0': p_noisy\\[8\\] = nan outside"),
            (lambda a: a["p_clean"].__setitem__((4, 0), -0.25), "trace 's4': p_clean\\[0\\] = -0.25 outside"),
            (lambda a: a["tokens"].__setitem__((1, 0), -1), "trace 's1': tokens\\[0\\] = -1 is not a non-negative"),
            (lambda a: a["sample_ids"].__setitem__(3, "s1"), "duplicate sample_id 's1'"),
            (lambda a: a["sample_ids"].__setitem__(3, ""), "sample_id must be a non-empty string"),
            (lambda a: a["lengths"].__setitem__(3, 0), "every trace needs a token"),
        ],
        ids=["p-clean-high", "p-noisy-nan", "p-clean-negative", "negative-token", "duplicate-id", "empty-id",
             "no-token"],
    )
    def test_rejects_what_a_token_trace_rejects(self, edit, message):
        arrays = make_arrays()
        edit(arrays)
        with pytest.raises(TraceError, match=message):
            TraceArrays(**arrays)


class TestRoundTrip:
    def test_single_trace_identity(self, tmp_path):
        path = tmp_path / "traces.jsonl"
        original = TraceFile(noise_step=900, traces=(make_trace(eos=True),))
        write_traces(original, path)
        assert read_traces(path) == original

    def test_hundred_random_traces_identity(self, tmp_path):
        rng = np.random.default_rng(42)
        traces = tuple(
            make_trace(f"s{i}", n=int(rng.integers(1, 30)), eos=bool(rng.integers(2)), rng=rng)
            for i in range(100)
        )
        original = TraceFile(noise_step=500, traces=traces, generator={"model": "toy"})
        path = tmp_path / "traces.jsonl"
        write_traces(original, path)
        assert read_traces(path) == original

    def test_write_is_deterministic(self, tmp_path):
        tf = TraceFile(noise_step=900, traces=(make_trace("a"), make_trace("b")))
        p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        write_traces(tf, p1)
        write_traces(tf, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_utf8_surfaces_preserved(self, tmp_path):
        trace = TokenTrace(
            sample_id="séance",
            tokens=(1, 2),
            surfaces=("café", "猫"),
            p_clean=(0.5, 0.5),
            p_noisy=(0.1, 0.9),
        )
        path = tmp_path / "traces.jsonl"
        write_traces(TraceFile(noise_step=0, traces=(trace,)), path)
        restored = read_traces(path)
        assert restored.traces[0].surfaces == ("café", "猫")
        assert restored.traces[0].sample_id == "séance"

    @settings(max_examples=25, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        data=st.lists(
            st.tuples(
                st.integers(0, 10_000),
                st.text(min_size=0, max_size=8),
                st.floats(0.0, 1.0, allow_nan=False),
                st.floats(0.0, 1.0, allow_nan=False),
            ),
            min_size=1,
            max_size=12,
        ),
        noise_step=st.integers(0, 1000),
    )
    def test_property_round_trip(self, tmp_path, data, noise_step):
        tokens, surfaces, clean, noisy = zip(*data)
        trace = TokenTrace("h", tokens, surfaces, clean, noisy)
        original = TraceFile(noise_step=noise_step, traces=(trace,))
        path = tmp_path / "h.jsonl"
        write_traces(original, path)
        assert read_traces(path) == original


class TestReadErrors:
    def _write(self, tmp_path, lines):
        path = tmp_path / "bad.jsonl"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return path

    def _header(self, **overrides):
        header = {"format": FORMAT_NAME, "version": FORMAT_VERSION, "noise_step": 900}
        header.update(overrides)
        return json.dumps(header)

    def test_empty_file_yields_zero_traces(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("", encoding="utf-8")
        tf = read_traces(path)
        assert len(tf) == 0

    def test_invalid_json_reports_line_number(self, tmp_path):
        path = self._write(tmp_path, [self._header(), "{not json"])
        with pytest.raises(TraceError, match=":2"):
            read_traces(path)

    def test_wrong_format_marker(self, tmp_path):
        path = self._write(tmp_path, [self._header(format="other")])
        with pytest.raises(TraceError, match="format"):
            read_traces(path)

    def test_wrong_version(self, tmp_path):
        path = self._write(tmp_path, [self._header(version=99)])
        with pytest.raises(TraceError, match="version"):
            read_traces(path)

    def test_missing_noise_step(self, tmp_path):
        header = {"format": FORMAT_NAME, "version": FORMAT_VERSION}
        path = self._write(tmp_path, [json.dumps(header)])
        with pytest.raises(TraceError, match="noise_step"):
            read_traces(path)

    def test_record_with_bad_probability_reports_line(self, tmp_path):
        record = {
            "sample_id": "a",
            "tokens": [1],
            "surfaces": ["x"],
            "p_clean": [1.5],
            "p_noisy": [0.5],
        }
        path = self._write(tmp_path, [self._header(), json.dumps(record)])
        with pytest.raises(TraceError, match=":2.*p_clean"):
            read_traces(path)

    @pytest.mark.parametrize(
        "edit,message",
        [
            ({"p_clean": ["0.5"]}, r"p_clean\[0\] = '0.5' is not a number"),
            ({"p_noisy": [True]}, r"p_noisy\[0\] = True is not a number"),
            ({"tokens": [1.0]}, r"tokens\[0\] = 1.0 is not an integer"),
            ({"surfaces": [7]}, r"surfaces\[0\] = 7 is not a string"),
            ({"tokens": 1}, "tokens must be a list"),
        ],
        ids=["string-probability", "boolean-probability", "float-token", "integer-surface", "scalar-tokens"],
    )
    def test_record_of_the_wrong_json_type_reports_line(self, tmp_path, edit, message):
        record = {"sample_id": "a", "tokens": [1], "surfaces": ["x"], "p_clean": [0.5], "p_noisy": [0.5], **edit}
        path = self._write(tmp_path, [self._header(), json.dumps(record)])
        with pytest.raises(TraceError, match="bad.jsonl:2: trace 'a': " + message):
            read_traces(path)

    def test_record_that_is_not_an_object_reports_line(self, tmp_path):
        path = self._write(tmp_path, [self._header(), "[1, 2]"])
        with pytest.raises(TraceError, match=":2: expected a JSON object"):
            read_traces(path)

    def test_record_missing_key_rejected(self, tmp_path):
        record = {"sample_id": "a", "tokens": [1]}
        path = self._write(tmp_path, [self._header(), json.dumps(record)])
        with pytest.raises(TraceError, match="missing"):
            read_traces(path)

    def test_missing_file_raises_oserror(self, tmp_path):
        with pytest.raises(OSError):
            read_traces(tmp_path / "nope.jsonl")


class TestWriteErrors:
    def test_unwritable_path_raises_oserror(self, tmp_path):
        tf = TraceFile(noise_step=0, traces=(make_trace(),))
        with pytest.raises(OSError):
            write_traces(tf, tmp_path / "no_such_dir" / "t.jsonl")
