"""End-to-end tests for the command-line pipeline."""

import csv
import json

import pytest

import visdep.toymodel as toymodel
from visdep.cli import main
from visdep.diffusion import DEFAULT_NOISE_STEP
from visdep.filtering import load_manifest
from visdep.synth import read_corpus, vocab_size
from visdep.toymodel import init_params, load_params, save_params
from visdep.trace import read_traces

from test_trace import trace_record, write_lines


def run_cli(*argv) -> int:
    return main([str(a) for a in argv])


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """synth -> train -> eval executed once and shared read-only."""
    root = tmp_path_factory.mktemp("cli")
    data, mle, ev = root / "data", root / "mle", root / "eval"
    assert run_cli("synth", "--scenes", 80, "--seed", 42, "--out-dir", data) == 0
    assert (
        run_cli(
            "train", "--corpus", data / "corpus.jsonl", "--epochs", 1,
            "--batch-size", 16, "--lr", 0.01, "--seed", 7, "--out-dir", mle,
        )
        == 0
    )
    assert (
        run_cli(
            "eval", "--corpus", data / "corpus.jsonl", "--ckpt", mle / "ckpt.json",
            "--seed", 7, "--out-dir", ev,
        )
        == 0
    )
    return root


class TestSynth:
    def test_writes_corpus_and_run_record(self, pipeline):
        corpus = read_corpus(pipeline / "data" / "corpus.jsonl")
        assert len(corpus) == 80
        run = json.loads((pipeline / "data" / "run.json").read_text())
        assert run["command"] == "synth"
        assert run["config"]["scenes"] == 80

    def test_rerun_is_byte_identical(self, pipeline, tmp_path):
        assert run_cli("synth", "--scenes", 80, "--seed", 42, "--out-dir", tmp_path) == 0
        (sidecar,) = (pipeline / "data").glob("corpus.jsonl.*.npy")
        for name in ("corpus.jsonl", sidecar.name):
            assert (tmp_path / name).read_bytes() == (pipeline / "data" / name).read_bytes()

    def test_seed_changes_corpus(self, pipeline, tmp_path):
        assert run_cli("synth", "--scenes", 80, "--seed", 43, "--out-dir", tmp_path) == 0
        assert (tmp_path / "corpus.jsonl").read_bytes() != (
            pipeline / "data" / "corpus.jsonl"
        ).read_bytes()


class TestTrain:
    def test_writes_checkpoint_and_log(self, pipeline):
        params = load_params(pipeline / "mle" / "ckpt.json")
        assert params.v_obj == 40
        log = (pipeline / "mle" / "trainlog.csv").read_text().splitlines()
        assert log[0] == "step,loss,mean_w_pos,mean_w_inv,mean_w_neg"
        assert len(log) == 1 + 4  # 64 training scenes / batch 16, one epoch

    def test_manifest_restricts_training_set(self, pipeline, tmp_path, capsys):
        corpus = pipeline / "data" / "corpus.jsonl"
        fdir = tmp_path / "filter"
        assert (
            run_cli(
                "filter", "--corpus", corpus, "--ckpt", pipeline / "mle" / "ckpt.json",
                "--strategy", "highest", "--frac", 0.25, "--seed", 7, "--out-dir", fdir,
            )
            == 0
        )
        manifest = load_manifest(fdir / "manifest.json")
        assert len(manifest.removed) == 16  # round(0.25 * 64) scored training scenes
        assert len(manifest.kept) == 48
        capsys.readouterr()
        assert (
            run_cli(
                "train", "--corpus", corpus, "--manifest", fdir / "manifest.json",
                "--epochs", 1, "--batch-size", 16, "--lr", 0.01, "--seed", 7,
                "--out-dir", tmp_path / "restricted",
            )
            == 0
        )
        assert "(48 training scenes" in capsys.readouterr().out
        assert (tmp_path / "restricted" / "ckpt.json").exists()

    def test_manifest_scored_on_another_split_is_rejected(self, pipeline, tmp_path, capsys):
        """A manifest must cover exactly the training split it restricts;
        one scored with another --split-seed would silently drop scenes."""
        corpus = pipeline / "data" / "corpus.jsonl"
        fdir = tmp_path / "filter"
        assert (
            run_cli(
                "filter", "--corpus", corpus, "--ckpt", pipeline / "mle" / "ckpt.json",
                "--strategy", "highest", "--frac", 0.25, "--split-seed", 5, "--out-dir", fdir,
            )
            == 0
        )
        capsys.readouterr()
        code = run_cli(
            "train", "--corpus", corpus, "--manifest", fdir / "manifest.json",
            "--epochs", 1, "--batch-size", 16, "--out-dir", tmp_path / "restricted",
        )
        assert code == 3
        assert "not this training split" in capsys.readouterr().err
        assert not (tmp_path / "restricted" / "ckpt.json").exists()


class TestEval:
    def test_report_fields(self, pipeline):
        report = json.loads((pipeline / "eval" / "report.json").read_text())
        for key in ("chair_s", "chair_i", "recall", "mean_len", "n_samples"):
            assert key in report
        assert report["n_samples"] == 16

    def test_traces_cover_test_split(self, pipeline):
        tf = read_traces(pipeline / "eval" / "traces.jsonl")
        assert len(tf.sample_ids) == 16
        assert tf.noise_step == 900

    def test_class_counts_csv_shape(self, pipeline):
        lines = (pipeline / "eval" / "class_counts.csv").read_text().splitlines()
        assert lines[0] == "class,grounded,hallucinated"
        assert len(lines) == 4

    def test_cooccurrence_csv_shape(self, pipeline):
        lines = (pipeline / "eval" / "cooccurrence.csv").read_text().splitlines()
        assert lines[0] == "class,bucket,count"
        # window 3 -> buckets 0..3, plus beyond / absent / fraction_within
        assert len(lines) == 1 + 3 * 7

    def test_rerun_is_byte_identical(self, pipeline, tmp_path):
        assert (
            run_cli(
                "eval", "--corpus", pipeline / "data" / "corpus.jsonl",
                "--ckpt", pipeline / "mle" / "ckpt.json", "--seed", 7,
                "--out-dir", tmp_path,
            )
            == 0
        )
        for name in ("traces.jsonl", "report.json", "class_counts.csv", "cooccurrence.csv"):
            assert (tmp_path / name).read_bytes() == (
                pipeline / "eval" / name
            ).read_bytes()


class TestTeacherForcedPasses:
    """``eval`` takes its clean probabilities from the decode, so its one
    teacher-forced pass is the noised one; ``filter`` runs a clean and a
    noised pass over the training half."""

    @pytest.mark.parametrize("stage,rows", [("eval", [16]), ("filter", [64, 64])])
    def test_counts_the_passes(self, pipeline, tmp_path, monkeypatch, stage, rows):
        import visdep.cli as cli
        import visdep.filtering as filtering

        real, calls = toymodel.teacher_forced_probs, []

        def counting(params, conditions, ids, lengths):
            calls.append(len(lengths))
            return real(params, conditions, ids, lengths)

        for module in (toymodel, filtering, cli):
            monkeypatch.setattr(module, "teacher_forced_probs", counting)
        extra = ["--strategy", "lowest", "--frac", 0.25] if stage == "filter" else []
        code = run_cli(
            stage, "--corpus", pipeline / "data" / "corpus.jsonl", "--ckpt", pipeline / "mle" / "ckpt.json",
            *extra, "--seed", 7, "--out-dir", tmp_path,
        )
        assert code == 0
        assert calls == rows
        if stage == "eval":
            assert (tmp_path / "traces.jsonl").read_bytes() == (pipeline / "eval" / "traces.jsonl").read_bytes()


class TestSplitSeed:
    """Every stage splits with --split-seed, whatever its --seed."""

    def test_eval_with_another_seed_sees_no_training_scene(self, pipeline, tmp_path, monkeypatch):
        import visdep.cli as cli

        corpus = pipeline / "data" / "corpus.jsonl"
        trained_on = []
        real_train = cli.train

        def recording_train(corpus, cfg):
            trained_on.extend(corpus.scene_ids)
            return real_train(corpus, cfg)

        monkeypatch.setattr(cli, "train", recording_train)
        assert (
            run_cli(
                "train", "--corpus", corpus, "--epochs", 1, "--batch-size", 16, "--lr", 0.01,
                "--seed", 2, "--out-dir", tmp_path / "train",
            )
            == 0
        )
        assert (
            run_cli(
                "eval", "--corpus", corpus, "--ckpt", tmp_path / "train" / "ckpt.json",
                "--seed", 42, "--out-dir", tmp_path / "eval",
            )
            == 0
        )
        assert (
            run_cli(
                "filter", "--corpus", corpus, "--ckpt", tmp_path / "train" / "ckpt.json",
                "--strategy", "lowest", "--frac", 0.1, "--seed", 42, "--out-dir", tmp_path / "filter",
            )
            == 0
        )
        evaluated = read_traces(tmp_path / "eval" / "traces.jsonl").sample_ids.tolist()
        assert len(trained_on) == 64 and len(evaluated) == 16
        assert set(evaluated).isdisjoint(trained_on)
        assert set(load_manifest(tmp_path / "filter" / "manifest.json").scores) == set(trained_on)
        for stage in ("train", "eval", "filter"):
            assert json.loads((tmp_path / stage / "run.json").read_text())["config"]["split_seed"] == 42

    def test_split_seed_moves_the_split(self, pipeline, tmp_path):
        corpus = pipeline / "data" / "corpus.jsonl"
        ckpt = pipeline / "mle" / "ckpt.json"
        for split_seed in (42, 5):
            assert (
                run_cli(
                    "eval", "--corpus", corpus, "--ckpt", ckpt, "--seed", 7,
                    "--split-seed", split_seed, "--out-dir", tmp_path / str(split_seed),
                )
                == 0
            )
        ids = [set(read_traces(tmp_path / str(s) / "traces.jsonl").sample_ids) for s in (42, 5)]
        assert ids[0] == set(read_traces(pipeline / "eval" / "traces.jsonl").sample_ids)
        assert ids[0] != ids[1]
        run = json.loads((tmp_path / "5" / "run.json").read_text())
        assert run["config"]["split_seed"] == 5


class TestAnalyze:
    def test_one_row_per_token(self, pipeline, tmp_path):
        traces = pipeline / "eval" / "traces.jsonl"
        assert run_cli("analyze", "--traces", traces, "--out-dir", tmp_path) == 0
        lines = (tmp_path / "analysis.csv").read_text().splitlines()
        assert lines[0] == "sample_id,t,surface,p_clean,p_noisy,d,class"
        total_tokens = read_traces(traces).lengths.sum()
        assert len(lines) == 1 + total_tokens
        first = lines[1].split(",")
        assert first[1] == "0"
        assert first[-1] in {"positive", "invariant", "negative"}

    def test_sample_id_with_csv_specials_is_quoted(self, tmp_path):
        """An id holding a comma, a quote or a newline is quoted like a
        surface, so every row parses to 7 fields; a plain id stays bare."""
        ids = ["plain", 'x,"y', "line\nbreak"]
        src = tmp_path / "traces.jsonl"
        write_lines(src, [trace_record(sid, (5, 6), ("a", 'b"c'), (0.5, 0.2), (0.1, 0.4)) for sid in ids])
        assert run_cli("analyze", "--traces", src, "--out-dir", tmp_path) == 0
        text = (tmp_path / "analysis.csv").read_text()
        assert "\nplain,0,\"a\"," in text
        with open(tmp_path / "analysis.csv", newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        assert all(len(row) == 7 for row in rows)
        assert [row[0] for row in rows[1:]] == [sid for sid in ids for _ in range(2)]
        assert [row[2] for row in rows[1:3]] == ["a", 'b"c']


class TestPlot:
    def test_trace_chart_has_two_bars_per_token(self, tmp_path):
        n = 12
        trace = trace_record(
            "tr0",
            tokens=range(1, n + 1),
            surfaces=(f"w{i}" for i in range(n)),
            p_clean=((i + 1) / (n + 1) for i in range(n)),
            p_noisy=((n - i) / (n + 1) for i in range(n)),
        )
        src = tmp_path / "traces.jsonl"
        write_lines(src, [trace], noise_step=500)
        out = tmp_path / "plots"
        assert run_cli("plot", "--traces", src, "--out-dir", out) == 0
        svg = (out / "trace_tr0.svg").read_text()
        assert svg.count('class="bar"') == 2 * n
        assert svg.count('class="legend"') == 3
        for label in ("positive", "invariant", "negative"):
            assert label in svg

    @pytest.mark.parametrize("sample_id", ["../escaped", "sub/dir", ".."])
    def test_rejects_an_id_that_is_not_a_file_name(self, tmp_path, capsys, sample_id):
        src = tmp_path / "traces.jsonl"
        write_lines(src, [trace_record("ok"), trace_record(sample_id)])
        out = tmp_path / "out" / "plots"
        assert run_cli("plot", "--traces", src, "--out-dir", out) == 3
        assert repr(sample_id) in capsys.readouterr().err
        assert list(out.iterdir()) == []

    def test_score_histogram_artifacts(self, pipeline, tmp_path):
        fdir = tmp_path / "filter"
        assert (
            run_cli(
                "filter", "--corpus", pipeline / "data" / "corpus.jsonl",
                "--ckpt", pipeline / "mle" / "ckpt.json", "--strategy", "lowest",
                "--frac", 0.1, "--seed", 7, "--out-dir", fdir,
            )
            == 0
        )
        out = tmp_path / "plots"
        assert run_cli("plot", "--manifest", fdir / "manifest.json", "--out-dir", out) == 0
        assert (out / "score_hist.svg").read_text().count('class="bar"') == 30
        hist = (out / "score_hist.csv").read_text().splitlines()
        assert hist[0] == "bin_lo,bin_hi,count"
        assert len(hist) == 1 + 30
        assert sum(int(row.split(",")[2]) for row in hist[1:]) == 64

    def test_requires_some_input(self, tmp_path, capsys):
        assert run_cli("plot", "--out-dir", tmp_path) == 2
        assert "plot requires" in capsys.readouterr().err


class TestExitCodes:
    def test_missing_required_argument(self):
        assert run_cli("train") == 2

    def test_unknown_command(self):
        assert run_cli("frobnicate") == 2

    def test_optimizer_flag_is_gone(self, pipeline):
        assert run_cli("train", "--corpus", pipeline / "data" / "corpus.jsonl", "--optimizer", "adam") == 2

    def test_missing_input_file(self, tmp_path, capsys):
        code = run_cli(
            "train", "--corpus", tmp_path / "absent.jsonl", "--out-dir", tmp_path
        )
        assert code == 3
        assert "error:" in capsys.readouterr().err

    def test_malformed_corpus(self, tmp_path, capsys):
        bad = tmp_path / "corpus.jsonl"
        bad.write_text("not json\n", encoding="utf-8")
        assert run_cli("train", "--corpus", bad, "--out-dir", tmp_path) == 3

    def test_caption_token_outside_the_vocabulary_is_not_written(self, tmp_path, monkeypatch, capsys):
        import visdep.cli as cli

        generate = cli.synth.generate_corpus

        def bad(cfg):
            corpus = generate(cfg)
            corpus.captions[1, 2] = vocab_size(40)
            return corpus

        monkeypatch.setattr(cli.synth, "generate_corpus", bad)
        assert run_cli("synth", "--scenes", 3, "--out-dir", tmp_path) == 3
        assert "scene 'scene-000001': caption token 53 outside [0, 53)" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_repeated_scene_id_is_a_data_error(self, pipeline, tmp_path, capsys):
        lines = (pipeline / "data" / "corpus.jsonl").read_text(encoding="utf-8").splitlines()[:20]
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_text("\n".join(lines + lines[:1]) + "\n", encoding="utf-8")
        code = run_cli(
            "filter", "--corpus", corpus, "--ckpt", pipeline / "mle" / "ckpt.json",
            "--strategy", "lowest", "--frac", 0.1, "--out-dir", tmp_path / "filter",
        )
        assert code == 3
        assert "corpus.jsonl:21: duplicate scene_id 'scene-000000'" in capsys.readouterr().err

    def test_boolean_object_id_is_a_data_error(self, pipeline, tmp_path, capsys):
        lines = (pipeline / "data" / "corpus.jsonl").read_text(encoding="utf-8").splitlines()[:20]
        record = json.loads(lines[4])
        record["true_objects"][0] = True
        lines[4] = json.dumps(record)
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_text("\n".join(lines) + "\n", encoding="utf-8")
        code = run_cli(
            "eval", "--corpus", corpus, "--ckpt", pipeline / "mle" / "ckpt.json", "--out-dir", tmp_path / "eval",
        )
        assert code == 3
        assert "corpus.jsonl:5: scene 'scene-000004': true_objects holds True, not an integer" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "stage,mismatch",
        [
            pytest.param("filter", "features", id="filter"),
            pytest.param("eval", "features", id="eval"),
            pytest.param("filter", "vocabulary", id="filter-vocabulary"),
            pytest.param("eval", "vocabulary", id="eval-vocabulary"),
        ],
    )
    def test_checkpoint_for_another_feature_length_is_a_data_error(
        self, pipeline, tmp_path, monkeypatch, capsys, stage, mismatch
    ):
        import visdep.cli as cli

        if mismatch == "features":
            assert run_cli("synth", "--scenes", 40, "--objects", 50, "--out-dir", tmp_path / "data") == 0
            corpus, ckpt = tmp_path / "data" / "corpus.jsonl", pipeline / "mle" / "ckpt.json"
            expected = ["ckpt.json: checkpoint takes 40 features per scene", "corpus.jsonl has 50"]
        else:
            corpus, ckpt = pipeline / "data" / "corpus.jsonl", tmp_path / "ckpt.json"
            save_params(init_params(30, 40, seed=0), ckpt)
            expected = [f"ckpt.json: checkpoint has 30 tokens, but 40 objects take {vocab_size(40)}"]
        monkeypatch.setattr(cli, "score_corpus", lambda *a, **k: pytest.fail("scored with a mismatched checkpoint"))
        monkeypatch.setattr(cli, "run_eval", lambda *a, **k: pytest.fail("evaluated with a mismatched checkpoint"))
        extra = ["--strategy", "lowest", "--frac", 0.1] if stage == "filter" else []
        code = run_cli(stage, "--corpus", corpus, "--ckpt", ckpt, *extra, "--out-dir", tmp_path / "out")
        assert code == 3
        err = capsys.readouterr().err
        for line in expected:
            assert line in err

    @pytest.mark.parametrize("stage", ["analyze", "plot"])
    @pytest.mark.parametrize(
        "records,noise_step,message",
        [
            ([trace_record("a"), trace_record("b"), trace_record("a")], 900,
             ":4: duplicate sample_id 'a' (first on line 2)"),
            ([trace_record("a")], -1, ":1: noise_step must be a non-negative integer, got -1"),
            ([trace_record("a")], "9", ":1: noise_step must be a non-negative integer, got '9'"),
            ([trace_record("a")], True, ":1: noise_step must be a non-negative integer, got True"),
            ([trace_record("a"), trace_record("b", tokens=(2**70,))], 900,
             f":3: trace 'b': tokens[0] = {2**70} does not fit in 64 bits"),
        ],
        ids=["duplicate-id", "negative-noise-step", "string-noise-step", "boolean-noise-step", "token-past-int64"],
    )
    def test_trace_file_rejection_names_file_and_line(self, tmp_path, capsys, stage, records, noise_step, message):
        src = tmp_path / "traces.jsonl"
        write_lines(src, records, noise_step=noise_step)
        assert run_cli(stage, "--traces", src, "--out-dir", tmp_path / "out") == 3
        assert f"error: TraceError: {src}{message}" in capsys.readouterr().err
        assert not (tmp_path / "out" / "run.json").exists()

    @pytest.mark.parametrize("stage", ["analyze", "plot"])
    @pytest.mark.parametrize(
        "number,message",
        [
            ("1" + "0" * 400, ":2: int too large to convert to float"),
            ("1" + "0" * 5000, ":2: invalid JSON: Exceeds the limit (4300 digits)"),
        ],
        ids=["past-float-range", "past-digit-limit"],
    )
    def test_oversized_trace_number_names_file_and_line(self, tmp_path, capsys, stage, number, message):
        src = write_lines(tmp_path / "traces.jsonl", [trace_record("a", p_clean=(0.123456789,))])
        src.write_text(src.read_text(encoding="utf-8").replace("0.123456789", number), encoding="utf-8")
        assert run_cli(stage, "--traces", src, "--out-dir", tmp_path / "out") == 3
        assert f"error: TraceError: {src}{message}" in capsys.readouterr().err

    @pytest.mark.parametrize("target", ["corpus", "ckpt"])
    def test_integer_past_the_digit_limit_names_the_file(self, pipeline, tmp_path, capsys, target):
        """json.loads raises a plain ValueError for such an integer, not a JSONDecodeError."""
        corpus, ckpt = tmp_path / "corpus.jsonl", tmp_path / "ckpt.json"
        lines = (pipeline / "data" / "corpus.jsonl").read_text(encoding="utf-8").splitlines()[:20]
        payload = json.loads((pipeline / "mle" / "ckpt.json").read_text(encoding="utf-8"))
        if target == "corpus":
            record = json.loads(lines[1])
            record["feature"][0] = 0.123456789
            lines[1] = json.dumps(record)
        else:
            next(iter(payload["blocks"].values()))["data"][0] = 0.123456789
        huge = "1" + "0" * 5000
        corpus.write_text("\n".join(lines).replace("0.123456789", huge) + "\n", encoding="utf-8")
        ckpt.write_text(json.dumps(payload).replace("0.123456789", huge), encoding="utf-8")
        assert run_cli("eval", "--corpus", corpus, "--ckpt", ckpt, "--out-dir", tmp_path / "out") == 3
        where = f"{corpus}:2" if target == "corpus" else f"{ckpt}"
        assert f"error: ValueError: {where}: invalid JSON: Exceeds the limit (4300 digits)" in capsys.readouterr().err

    def test_empty_trace_file(self, tmp_path, capsys):
        empty = tmp_path / "traces.jsonl"
        empty.write_text("", encoding="utf-8")
        assert run_cli("plot", "--traces", empty, "--out-dir", tmp_path) == 3
        assert "no traces" in capsys.readouterr().err

    def test_divergence_exit_code(self, pipeline, tmp_path, monkeypatch, capsys):
        """A non-finite loss at any step must surface as exit code 4.

        The toy model's bounded activations make a natural blow-up
        unreachable, so the failure is injected at the loss boundary.
        """

        def explode(params, conditions, fwd, weights):
            return float("nan"), None

        monkeypatch.setattr(toymodel, "_loss_and_grads", explode)
        code = run_cli(
            "train", "--corpus", pipeline / "data" / "corpus.jsonl",
            "--epochs", 1, "--batch-size", 16, "--out-dir", tmp_path,
        )
        assert code == 4
        assert "diverged" in capsys.readouterr().err


class TestSweep:
    def test_axis_rows_and_subruns(self, pipeline, tmp_path):
        assert (
            run_cli(
                "sweep", "--corpus", pipeline / "data" / "corpus.jsonl",
                "--axis", "tau", "--values", 0.0, 1.0, "--loss", "wneg",
                "--epochs", 1, "--batch-size", 16, "--lr", 0.01, "--seed", 7,
                "--out-dir", tmp_path,
            )
            == 0
        )
        rows = (tmp_path / "sweep.csv").read_text().splitlines()
        assert rows[0] == "value,chair_s,chair_i,recall,mean_len"
        assert len(rows) == 3
        for sub in ("tau-0", "tau-1"):
            assert (tmp_path / sub / "ckpt.json").exists()
            assert (tmp_path / sub / "report.json").exists()
        run = json.loads((tmp_path / "run.json").read_text())
        assert run["command"] == "sweep"
        assert run["config"]["values"] == [0.0, 1.0]
        train_run = json.loads((pipeline / "mle" / "run.json").read_text())
        assert set(run["config"]) == set(train_run["config"]) - {"manifest"} | {"axis", "values", "max_len"}

    @pytest.mark.parametrize(
        "axis,values,field",
        [
            ("tau", (0.25, 2.0), lambda cfg: cfg.reweight.tau),
            ("start-frac", (0.25, 0.75), lambda cfg: cfg.reweight.start_fraction),
            ("noise-step", (100, 900), lambda cfg: cfg.noise_step),
        ],
        ids=["tau", "start-frac", "noise-step"],
    )
    def test_each_value_reaches_its_config_field(self, pipeline, tmp_path, monkeypatch, axis, values, field):
        import visdep.cli as cli

        params = load_params(pipeline / "mle" / "ckpt.json")
        configs = []

        def recording_train(scenes, cfg):
            configs.append(cfg)
            return params, []

        monkeypatch.setattr(cli, "train", recording_train)
        code = run_cli(
            "sweep", "--corpus", pipeline / "data" / "corpus.jsonl", "--axis", axis,
            "--values", *values, "--seed", 7, "--out-dir", tmp_path,
        )
        assert code == 0
        assert [field(cfg) for cfg in configs] == list(values)
        for value in values:
            noise_step = read_traces(tmp_path / f"{axis}-{value:g}" / "traces.jsonl").noise_step
            assert noise_step == (value if axis == "noise-step" else DEFAULT_NOISE_STEP)

    @pytest.mark.parametrize("value", [900.5, float("inf"), float("nan")])
    def test_rejects_a_non_integer_noise_step(self, pipeline, tmp_path, monkeypatch, capsys, value):
        import visdep.cli as cli

        monkeypatch.setattr(cli, "train", lambda scenes, cfg: pytest.fail("trained on a bad value"))
        code = run_cli(
            "sweep", "--corpus", pipeline / "data" / "corpus.jsonl", "--axis", "noise-step",
            "--values", 100, value, "--out-dir", tmp_path / "out",
        )
        assert code == 2
        assert "integer" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("values", [(0.5, 0.5), (0.25, 0.250000001)], ids=["repeated", "same-name"])
    def test_rejects_values_that_share_a_sub_run_name(self, pipeline, tmp_path, monkeypatch, capsys, values):
        """Both values would write one ``tau-<value:g>`` sub-run and two rows of one label."""
        import visdep.cli as cli

        monkeypatch.setattr(cli.synth, "read_corpus", lambda path: pytest.fail("read the corpus first"))
        monkeypatch.setattr(cli, "train", lambda scenes, cfg: pytest.fail("trained on a repeated name"))
        code = run_cli(
            "sweep", "--corpus", pipeline / "data" / "corpus.jsonl", "--axis", "tau",
            "--values", *values, "--out-dir", tmp_path / "out",
        )
        assert code == 2
        assert f"share a sub-run name: ['tau-{values[0]:g}', 'tau-{values[0]:g}']" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_rejects_a_bad_value_before_any_training(self, pipeline, tmp_path, monkeypatch, capsys):
        import visdep.cli as cli

        monkeypatch.setattr(cli, "train", lambda scenes, cfg: pytest.fail("trained before checking every value"))
        code = run_cli(
            "sweep", "--corpus", pipeline / "data" / "corpus.jsonl", "--axis", "tau",
            "--values", 0.5, -1, "--out-dir", tmp_path / "out",
        )
        assert code == 3
        assert "tau" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


class TestFlagsCheckedBeforeReading:
    """A bad flag value exits 3 with its check's message before the corpus is read."""

    @pytest.mark.parametrize(
        "argv,message",
        [
            (["eval", "--noise-step", 1001], "noise_step 1001 outside the schedule's [0, 1000]"),
            (["eval", "--max-len", 1], "max_len must be >= 2, got 1"),
            (["filter", "--frac", 0], "fraction must lie in (0, 1), got 0.0"),
            (["filter", "--frac", 0.1, "--noise-step", 1001], "noise_step 1001 outside the schedule's [0, 1000]"),
            (["train", "--tau", -1], "tau must be a finite non-negative real, got -1.0"),
            (["train", "--noise-step", 1001], "noise_step 1001 outside the schedule's [0, 1000]"),
            (["sweep", "--axis", "tau", "--values", 0.5, "--max-len", 1], "max_len must be >= 2, got 1"),
            (["sweep", "--axis", "noise-step", "--values", 1001], "noise_step 1001 outside the schedule's [0, 1000]"),
        ],
        ids=["eval-noise-step", "eval-max-len", "filter-frac", "filter-noise-step", "train-tau", "train-noise-step",
             "sweep-max-len", "sweep-noise-step"],
    )
    def test_exits_without_reading_the_corpus(self, pipeline, tmp_path, monkeypatch, capsys, argv, message):
        import visdep.cli as cli

        monkeypatch.setattr(cli.synth, "read_corpus", lambda path: pytest.fail("read the corpus first"))
        stage, *flags = argv
        inputs = ["--corpus", pipeline / "data" / "corpus.jsonl"]
        if stage in ("eval", "filter"):
            inputs += ["--ckpt", pipeline / "mle" / "ckpt.json"]
        if stage == "filter":
            inputs += ["--strategy", "lowest"]
        assert run_cli(stage, *inputs, *flags, "--out-dir", tmp_path / "out") == 3
        assert message in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


_SPLIT_KEYS = {"test_frac", "split_seed"}
_TRAIN_KEYS = {"corpus", "loss", "tau", "start_frac", "eos_floor", "noise_step", "epochs", "batch_size", "lr"}
# run.json's config keys: every flag a command parses, under its dest name, but --out-dir
RUN_KEYS = {
    "synth": {"seed", "scenes", "objects", "halluc_rate", "jitter"},
    "train": {"seed", "manifest"} | _TRAIN_KEYS | _SPLIT_KEYS,
    "analyze": {"seed", "traces"},
    "filter": {"seed", "corpus", "ckpt", "strategy", "frac", "noise_step"} | _SPLIT_KEYS,
    "eval": {"seed", "corpus", "ckpt", "noise_step", "max_len"} | _SPLIT_KEYS,
    "sweep": {"seed", "axis", "values", "max_len"} | _TRAIN_KEYS | _SPLIT_KEYS,
    "plot": {"seed", "traces", "manifest"},
}


@pytest.fixture(scope="module")
def stage_runs(pipeline, tmp_path_factory):
    """Output directory by name: the pipeline's synth, train and eval, plus
    filter, train --manifest --no-eos-floor, analyze, sweep and plot run once each."""
    root = tmp_path_factory.mktemp("stages")
    corpus, ckpt = pipeline / "data" / "corpus.jsonl", pipeline / "mle" / "ckpt.json"
    manifest, traces = root / "filter" / "manifest.json", pipeline / "eval" / "traces.jsonl"
    small_train = ("--epochs", 1, "--batch-size", 16, "--lr", 0.01)
    runs = {
        "filter": ("filter", "--corpus", corpus, "--ckpt", ckpt, "--strategy", "lowest", "--frac", 0.25),
        "noeos": ("train", "--corpus", corpus, "--manifest", manifest, "--no-eos-floor", *small_train),
        "analyze": ("analyze", "--traces", traces),
        "sweep": ("sweep", "--corpus", corpus, "--axis", "tau", "--values", 0.5, "--max-len", 8, *small_train),
        "plot": ("plot", "--traces", traces, "--manifest", manifest),
    }
    for name, argv in runs.items():
        assert run_cli(*argv, "--out-dir", root / name) == 0
    return {**{name: pipeline / name for name in ("data", "mle", "eval")}, **{name: root / name for name in runs}}


class TestRunRecords:
    @pytest.mark.parametrize(
        "subdir,command",
        [
            ("data", "synth"), ("mle", "train"), ("eval", "eval"), ("filter", "filter"),
            ("noeos", "train"), ("analyze", "analyze"), ("sweep", "sweep"), ("plot", "plot"),
        ],
    )
    def test_each_stage_records_its_command(self, stage_runs, subdir, command):
        run = json.loads((stage_runs[subdir] / "run.json").read_text())
        assert run["command"] == command
        assert set(run["config"]) == RUN_KEYS[command]

    def test_no_eos_floor_is_recorded_as_eos_floor(self, stage_runs):
        plain = json.loads((stage_runs["mle"] / "run.json").read_text())["config"]
        negated = json.loads((stage_runs["noeos"] / "run.json").read_text())["config"]
        assert plain["eos_floor"] is True and plain["manifest"] is None
        assert negated["eos_floor"] is False
        assert negated["manifest"] == str(stage_runs["filter"] / "manifest.json")
