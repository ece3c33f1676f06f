"""Tests for the JSON-lines token trace format."""

import hashlib
import json

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
    read_traces,
    write_traces,
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
        assert trace.tokens == (5,)
        assert trace.eos_index is None

    def test_empty_sample_id_rejected(self):
        with pytest.raises(TraceError):
            TokenTrace("", (1,), ("x",), (0.5,), (0.5,))

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


def write_lines(path, records, **header):
    """A trace file written by hand: the header (noise step 900 unless given), then ``records``."""
    header = {"format": FORMAT_NAME, "version": FORMAT_VERSION, "noise_step": 900, **header}
    path.write_text("\n".join(json.dumps(v) for v in [header, *records]) + "\n", encoding="utf-8")
    return path


def trace_record(sample_id, tokens=(1,), surfaces=("x",), p_clean=(0.5,), p_noisy=(0.5,)):
    """One trace line as a JSON object."""
    return {"sample_id": sample_id, "tokens": list(tokens), "surfaces": list(surfaces),
            "p_clean": list(p_clean), "p_noisy": list(p_noisy)}


class TestTraceFileValidation:
    """What a trace file may not hold across its lines; ``read_traces`` names the file and line."""

    def test_duplicate_sample_ids_rejected(self, tmp_path):
        path = write_lines(tmp_path / "t.jsonl", [trace_record("a"), trace_record("b"), trace_record("a")])
        with pytest.raises(TraceError, match=r"t\.jsonl:4: duplicate sample_id 'a' \(first on line 2\)"):
            read_traces(path)

    def test_negative_noise_step_rejected(self, tmp_path):
        path = write_lines(tmp_path / "t.jsonl", [trace_record("a")], noise_step=-1)
        with pytest.raises(TraceError, match=r"t\.jsonl:1: noise_step must be a non-negative integer, got -1"):
            read_traces(path)
        with pytest.raises(TraceError, match="noise_step must be a non-negative integer, got -1"):
            TraceArrays(**make_arrays(noise_step=-1))

    def test_non_integer_noise_step_rejected(self, tmp_path):
        for bad in (900.0, "9", True):
            path = write_lines(tmp_path / "t.jsonl", [trace_record("a")], noise_step=bad)
            with pytest.raises(TraceError, match=rf"t\.jsonl:1: noise_step must be a non-negative integer, got {bad!r}"):
                read_traces(path)
            with pytest.raises(TraceError, match="noise_step"):
                TraceArrays(**make_arrays(noise_step=bad))

    def test_len_counts_traces(self, tmp_path):
        tf = read_traces(write_lines(tmp_path / "t.jsonl", [trace_record("a"), trace_record("b")]))
        assert tf.sample_ids.tolist() == ["a", "b"]
        assert tf.lengths.tolist() == [1, 1]


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


def assert_same_traces(a, b):
    """Equal header fields, and equal arrays of equal dtypes within each row's length."""
    assert (a.noise_step, a.generator) == (b.noise_step, b.generator)
    for name in ("sample_ids", "lengths", "ends_at_eos", "tokens", "surfaces", "p_clean", "p_noisy"):
        x, y = getattr(a, name), getattr(b, name)
        assert x.dtype == y.dtype, name
        if x.ndim == 2:
            x, y = (v[np.arange(v.shape[1]) < a.lengths[:, None]] for v in (x, y))
        assert np.array_equal(x, y), name


class TestTraceArrays:
    def test_writes_pinned_bytes(self, tmp_path):
        """The writer's bytes for fixed traces: non-ASCII surfaces written raw,
        junk past each length left out, and both ``eos_index`` forms."""
        arrays = make_arrays()
        assert 0 < np.count_nonzero(arrays["ends_at_eos"]) < len(arrays["ends_at_eos"])
        write_traces(TraceArrays(**arrays), tmp_path / "t.jsonl")
        digest = hashlib.sha256((tmp_path / "t.jsonl").read_bytes()).hexdigest()
        assert digest == "bd85c492afcc4428528c6e9bb1014723685bfccdd065c76e6496b3cda66c9651"

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


probability = st.floats(0.0, 1.0)


@st.composite
def trace_arrays(draw):
    """Padded traces of any shape, with junk past each length, as ``run_eval`` types them."""
    rows = draw(
        st.lists(
            st.tuples(
                st.text(min_size=1, max_size=6),
                st.lists(st.tuples(st.integers(0, 2**63 - 1), st.text(max_size=6), probability, probability),
                         min_size=1, max_size=8),
                st.booleans(),
            ),
            max_size=5,
            unique_by=lambda row: row[0],
        )
    )
    lengths = np.array([len(tokens) for _, tokens, _ in rows], dtype=np.int64)
    width = max(lengths, default=0) + draw(st.integers(0, 2))
    tokens = np.full((len(rows), width), -5, dtype=np.int64)
    surfaces = np.full((len(rows), width), "junk", dtype=object)
    p_clean = np.full((len(rows), width), np.nan)
    p_noisy = np.full((len(rows), width), 7.0)
    for i, (_, row, _) in enumerate(rows):
        tokens[i, : len(row)], surfaces[i, : len(row)], p_clean[i, : len(row)], p_noisy[i, : len(row)] = zip(*row)
    return TraceArrays(
        noise_step=draw(st.integers(0, 1000)),
        sample_ids=np.array([sid for sid, _, _ in rows], dtype=object),
        tokens=tokens,
        lengths=lengths,
        surfaces=surfaces,
        p_clean=p_clean,
        p_noisy=p_noisy,
        ends_at_eos=np.array([eos for _, _, eos in rows], dtype=bool),
        generator=draw(st.sampled_from([{}, {"source": "h\u00e9\x85"}])),
    )


class TestRoundTrip:
    def test_single_trace_identity(self, tmp_path):
        path = tmp_path / "traces.jsonl"
        original = TraceArrays(**make_arrays(n=1, noise_step=900, ends_at_eos=np.array([True])))
        write_traces(original, path)
        assert_same_traces(read_traces(path), original)

    def test_hundred_random_traces_identity(self, tmp_path):
        original = TraceArrays(**make_arrays(n=100, width=30, seed=42, noise_step=500, generator={"model": "toy"}))
        path = tmp_path / "traces.jsonl"
        write_traces(original, path)
        assert_same_traces(read_traces(path), original)

    def test_write_is_deterministic(self, tmp_path):
        tf = TraceArrays(**make_arrays())
        p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        write_traces(tf, p1)
        write_traces(tf, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_utf8_surfaces_preserved(self, tmp_path):
        path = tmp_path / "traces.jsonl"
        write_lines(path, [trace_record("séance", (1, 2), ("café", "猫"), (0.5, 0.5), (0.1, 0.9))], noise_step=0)
        restored = read_traces(path)
        assert restored.surfaces[0].tolist() == ["café", "猫"]
        assert restored.sample_ids[0] == "séance"

    @settings(max_examples=25, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(original=trace_arrays())
    def test_property_round_trip(self, tmp_path, original):
        """Read back, the arrays match within each length with the same dtypes,
        and writing them again gives the same bytes."""
        first, second = tmp_path / "first.jsonl", tmp_path / "second.jsonl"
        write_traces(original, first)
        restored = read_traces(first)
        assert_same_traces(restored, original)
        write_traces(restored, second)
        assert second.read_bytes() == first.read_bytes()


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
        assert len(tf.sample_ids) == 0

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
            ({"tokens": [2**70]}, rf"tokens\[0\] = {2**70} does not fit in 64 bits"),
        ],
        ids=["string-probability", "boolean-probability", "float-token", "integer-surface", "scalar-tokens",
             "token-past-int64"],
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
        tf = TraceArrays(**make_arrays())
        with pytest.raises(OSError):
            write_traces(tf, tmp_path / "no_such_dir" / "t.jsonl")
