"""End-to-end command-line tests, driven in-process through main()."""

import csv
import hashlib
import json
import re
import struct
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from pepseq import cli
from pepseq.autodiff import NumericError
from pepseq.cli import main
from pepseq.mgf import parse_mgf, write_mgf
from pepseq.network import Model, ModelConfig
from pepseq.params import load_checkpoint, save_checkpoint
from pepseq.spectra import WATER, AminoAcidTable, Peak, Peptide, simulate_spectrum

from conftest import MISMATCHES, mismatched_store

TINY = [
    "--set", "model.d=16",
    "--set", "model.hidden=32",
    "--set", "model.enc_layers=1",
    "--set", "model.at_layers=1",
    "--set", "model.nat_layers=1",
    "--set", "model.t_max=10",
    "--set", "training.stage1_steps=12",
    "--set", "training.warmup_steps=3",
    "--set", "training.batch_size=3",
    "--set", "training.checkpoint_every=6",
    "--set", "training.finetune_epochs=2",
    "--set", "simulation.n_spectra=6",
    "--set", "simulation.min_len=3",
    "--set", "simulation.max_len=4",
]


def run(*argv):
    return main(list(argv))


def read_csv(path):
    with Path(path).open(newline="") as fh:
        return list(csv.DictReader(fh))


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """simulate -> train -> finetune once; several tests share the artifacts."""
    root = tmp_path_factory.mktemp("pipeline")
    sim, train, ft = root / "sim", root / "train", root / "ft"
    assert run("simulate", "--seed", "5", "--out", str(sim), *TINY) == 0
    assert run(
        "train", "--seed", "5", "--out", str(train),
        "--corpus", str(sim / "spectra.mgf"), *TINY,
    ) == 0
    assert run(
        "finetune", "--seed", "5", "--out", str(ft),
        "--corpus", str(sim / "spectra.mgf"),
        "--checkpoint", str(train / "checkpoint.bin"), *TINY,
    ) == 0
    return root


class TestUsage:
    def test_missing_seed(self, tmp_path, capsys):
        assert run("simulate", "--out", str(tmp_path), *TINY) == 1
        assert "seed" in capsys.readouterr().err

    @pytest.mark.parametrize("seed", [["--seed", "-1"], ["--set", "training.seed=-2"]])
    def test_negative_seed(self, tmp_path, capsys, seed):
        assert run("simulate", "--out", str(tmp_path), *TINY, *seed) == 1
        assert "seed must be at least 0" in capsys.readouterr().err

    def test_bad_set_syntax(self, tmp_path):
        assert run("simulate", "--seed", "1", "--out", str(tmp_path), "--set", "nonsense") == 1

    def test_unknown_set_key(self, tmp_path, capsys):
        code = run("simulate", "--seed", "1", "--out", str(tmp_path), "--set", "model.depth=3")
        assert code == 1
        assert "model.depth" in capsys.readouterr().err

    def test_unknown_decoder(self, tmp_path):
        code = run(
            "decode", "--seed", "1", "--out", str(tmp_path),
            "--mgf", "x.mgf", "--checkpoint", "x.bin",
            "--set", "decoding.decoder=oracle",
        )
        assert code == 1

    def test_missing_config_file(self, tmp_path):
        code = run(
            "simulate", "--seed", "1", "--out", str(tmp_path),
            "--config", str(tmp_path / "absent.ini"),
        )
        assert code == 1

    def test_argparse_errors_mapped_to_one(self, tmp_path):
        assert run("simulate") == 1  # --out missing
        assert run("frobnicate", "--out", str(tmp_path)) == 1

    def test_bad_value_type(self, tmp_path):
        code = run(
            "simulate", "--seed", "1", "--out", str(tmp_path),
            "--set", "simulation.n_spectra=many",
        )
        assert code == 1


class TestSimulate:
    def test_deterministic_and_annotated(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert run("simulate", "--seed", "9", "--out", str(a), *TINY) == 0
        assert run("simulate", "--seed", "9", "--out", str(b), *TINY) == 0
        mgf_a = (a / "spectra.mgf").read_bytes()
        assert mgf_a == (b / "spectra.mgf").read_bytes()
        assert (a / "manifest.json").read_bytes() == (b / "manifest.json").read_bytes()

        spectra = parse_mgf(mgf_a.decode())
        assert len(spectra) == 6
        assert all(s.truth is not None for s in spectra)
        assert all(3 <= len(s.truth) <= 4 for s in spectra)

    def test_different_seed_changes_corpus(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert run("simulate", "--seed", "1", "--out", str(a), *TINY) == 0
        assert run("simulate", "--seed", "2", "--out", str(b), *TINY) == 0
        assert (a / "spectra.mgf").read_bytes() != (b / "spectra.mgf").read_bytes()

    def test_config_file_and_override_precedence(self, tmp_path):
        ini = tmp_path / "run.ini"
        ini.write_text("[simulation]\nn_spectra = 3\nmin_len = 3\nmax_len = 3\n")
        out = tmp_path / "out"
        code = run(
            "simulate", "--seed", "4", "--out", str(out), "--config", str(ini),
            "--set", "simulation.n_spectra=2",
        )
        assert code == 0
        assert len(parse_mgf((out / "spectra.mgf").read_text())) == 2

    def test_set_wins_over_flag(self, tmp_path):
        code = run(
            "simulate", "--seed", "4", "--out", str(tmp_path), *TINY,
            "--n", "2", "--set", "simulation.n_spectra=3",
        )
        assert code == 0
        assert len(parse_mgf((tmp_path / "spectra.mgf").read_text())) == 3

    @pytest.mark.parametrize("min_len, max_len", [(6, 5), (0, 5)])
    def test_bad_length_range_is_usage_error(self, tmp_path, capsys, min_len, max_len):
        code = run(
            "simulate", "--seed", "1", "--out", str(tmp_path), *TINY,
            "--set", f"simulation.min_len={min_len}", "--set", f"simulation.max_len={max_len}",
        )
        assert code == 1
        assert "usage error" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_peptides_longer_than_decoder_grid_rejected(self, tmp_path):
        code = run(
            "simulate", "--seed", "1", "--out", str(tmp_path), *TINY,
            "--set", "simulation.max_len=9",
        )
        assert code == 1


class TestTrain:
    def test_missing_corpus_is_data_error(self, tmp_path):
        code = run(
            "train", "--seed", "1", "--out", str(tmp_path),
            "--corpus", str(tmp_path / "absent.mgf"), *TINY,
        )
        assert code == 2

    def test_metrics_schema_and_annealing_column(self, pipeline):
        rows = read_csv(pipeline / "train" / "metrics.csv")
        assert len(rows) == 12
        assert rows[0]["stage"] == "1"
        assert float(rows[0]["lambda"]) == 0.0
        lams = [float(r["lambda"]) for r in rows]
        assert lams == sorted(lams)
        assert [r["step"] for r in rows] == [str(i) for i in range(1, 13)]

    def test_deterministic_checkpoint(self, pipeline, tmp_path):
        again = tmp_path / "train2"
        assert run(
            "train", "--seed", "5", "--out", str(again),
            "--corpus", str(pipeline / "sim" / "spectra.mgf"), *TINY,
        ) == 0
        assert (again / "checkpoint.bin").read_bytes() == (
            pipeline / "train" / "checkpoint.bin"
        ).read_bytes()

    def test_resume_continues_step_numbering(self, pipeline, tmp_path):
        # The schedule and annealing span stage1_steps, so a run resumes only
        # under its own total; resuming a finished run has no step left.
        out = tmp_path / "resumed"
        ckpt = pipeline / "train" / "checkpoint.bin"
        code = run(
            "train", "--seed", "5", "--out", str(out),
            "--corpus", str(pipeline / "sim" / "spectra.mgf"), "--resume", str(ckpt), *TINY,
        )
        assert code == 0
        assert read_csv(out / "metrics.csv") == []
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["resumed_from_step"] == 12 and manifest["steps"] == 0
        assert (out / "checkpoint.bin").read_bytes() == ckpt.read_bytes()

    def test_numeric_abort_maps_to_exit_three(self, tmp_path, monkeypatch, pipeline):
        def boom(model, batch, state):
            raise NumericError("synthetic blow-up")

        monkeypatch.setattr("pepseq.cli.train_stage1_step", boom)
        code = run(
            "train", "--seed", "5", "--out", str(tmp_path / "t"),
            "--corpus", str(pipeline / "sim" / "spectra.mgf"), *TINY,
        )
        assert code == 3

    def test_target_longer_than_t_max_is_data_error(self, tmp_path, capsys):
        # TINY sets t_max=10, so 9 residues exceed t_max - 2.
        long = simulate_spectrum(Peptide.from_string("GASPVTLNK"), seed=1, spectrum_id="long9")
        corpus = tmp_path / "long.mgf"
        corpus.write_text(write_mgf([long]))
        code = run(
            "train", "--seed", "1", "--out", str(tmp_path / "t"),
            "--corpus", str(corpus), *TINY,
        )
        assert code == 2
        assert "long9" in capsys.readouterr().err

    def test_batch_with_no_feasible_ctc_row_trains(self, tmp_path):
        # 22 A's need 43 CTC frames of the 24: the NAT loss is the constant,
        # and its zero gradient still reaches every NAT parameter.
        spectrum = simulate_spectrum(Peptide.from_string("A" * 22), seed=1, spectrum_id="a22")
        corpus = tmp_path / "a22.mgf"
        corpus.write_text(write_mgf([spectrum]))
        code = run("train", "--seed", "1", "--out", str(tmp_path / "t"), "--corpus", str(corpus), *TINY,
                   "--set", "model.t_max=24", "--set", "training.batch_size=1",
                   "--set", "training.stage1_steps=2", "--set", "training.warmup_steps=0")
        assert code == 0
        assert [r["nat_loss"] for r in read_csv(tmp_path / "t" / "metrics.csv")] == ["10000.0"] * 2


class TestFinetune:
    def test_manifest_asserts_frozen_partitions(self, pipeline):
        manifest = json.loads((pipeline / "ft" / "manifest.json").read_text())
        assert manifest["frozen_partitions_unchanged"] is True
        assert manifest["epochs"] == 2
        rows = read_csv(pipeline / "ft" / "metrics.csv")
        assert len(rows) == 4  # 2 epochs x ceil(6/3) batches
        assert all(r["stage"] == "2" for r in rows)

    def test_zero_epochs_passes_checkpoint_through(self, pipeline, tmp_path):
        out = tmp_path / "ft0"
        code = run(
            "finetune", "--seed", "5", "--out", str(out),
            "--corpus", str(pipeline / "sim" / "spectra.mgf"),
            "--checkpoint", str(pipeline / "train" / "checkpoint.bin"),
            *TINY, "--set", "training.finetune_epochs=0",
        )
        assert code == 0
        assert (out / "checkpoint.bin").read_bytes() == (
            pipeline / "train" / "checkpoint.bin"
        ).read_bytes()
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["frozen_partitions_unchanged"] is True
        header = (pipeline / "ft" / "metrics.csv").read_bytes().splitlines(keepends=True)[0]
        assert (out / "metrics.csv").read_bytes() == header

    def test_zero_epochs_passes_version_1_checkpoint_through(self, pipeline, tmp_path):
        fixture = Path(__file__).resolve().parents[1] / "bench" / "fixture" / "trained.ckpt"
        out = tmp_path / "ft0"
        code = run(
            "finetune", "--seed", "5", "--out", str(out),
            "--corpus", str(pipeline / "sim" / "spectra.mgf"),
            "--checkpoint", str(fixture), *TINY, "--set", "training.finetune_epochs=0",
        )
        assert code == 0
        assert (out / "checkpoint.bin").read_bytes() == fixture.read_bytes()

    def test_missing_checkpoint_is_data_error(self, pipeline, tmp_path):
        code = run(
            "finetune", "--seed", "5", "--out", str(tmp_path / "x"),
            "--corpus", str(pipeline / "sim" / "spectra.mgf"),
            "--checkpoint", str(tmp_path / "absent.bin"), *TINY,
        )
        assert code == 2


@pytest.mark.parametrize("command, step_name", [
    ("train", "train_stage1_step"),  # 12 steps
    ("finetune", "finetune_stage2_step"),  # 4 epochs x 2 batches = 8 steps
])
def test_resumed_run_equals_unbroken_run(pipeline, tmp_path, monkeypatch, command, step_name):
    args = [
        "--seed", "5", *TINY, "--corpus", str(pipeline / "sim" / "spectra.mgf"),
        "--set", "training.finetune_epochs=4",
        "--set", f"paths.checkpoint={pipeline / 'train' / 'checkpoint.bin'}",
    ]
    whole, broken, resumed = tmp_path / "whole", tmp_path / "broken", tmp_path / "resumed"
    assert run(command, "--out", str(whole), *args) == 0

    real_step, calls = getattr(cli, step_name), []

    def crash_at_step_seven(*step_args):
        calls.append(step_args)
        if len(calls) == 7:
            raise NumericError("synthetic blow-up")
        return real_step(*step_args)

    with monkeypatch.context() as m:
        m.setattr(f"pepseq.cli.{step_name}", crash_at_step_seven)
        assert run(command, "--out", str(broken), *args) == 3
    # checkpoint_every=6 left the step-6 checkpoint behind.
    assert run(command, "--out", str(resumed), *args, "--resume", str(broken / "checkpoint.bin")) == 0

    assert (resumed / "checkpoint.bin").read_bytes() == (whole / "checkpoint.bin").read_bytes()
    rows = read_csv(resumed / "metrics.csv")
    assert rows[0]["step"] == "7"
    assert rows == read_csv(whole / "metrics.csv")[6:]


def test_longer_finetune_resume_equals_unbroken_run(pipeline, tmp_path):
    # Stage 2 runs at a constant learning rate with no annealing, so the
    # pipeline's 2-epoch fine-tune may go on to 4 epochs.
    args = [
        "finetune", "--seed", "5", *TINY, "--corpus", str(pipeline / "sim" / "spectra.mgf"),
        "--checkpoint", str(pipeline / "train" / "checkpoint.bin"),
        "--set", "training.finetune_epochs=4",
    ]
    whole, resumed = tmp_path / "whole", tmp_path / "resumed"
    assert run(*args, "--out", str(whole)) == 0
    assert run(*args, "--out", str(resumed), "--resume", str(pipeline / "ft" / "checkpoint.bin")) == 0
    assert (resumed / "checkpoint.bin").read_bytes() == (whole / "checkpoint.bin").read_bytes()
    rows = read_csv(resumed / "metrics.csv")
    assert [r["step"] for r in rows] == ["5", "6", "7", "8"]
    assert rows == read_csv(whole / "metrics.csv")[4:]


@pytest.mark.parametrize("command, resume", [
    ("train", "ft"),  # a fine-tuned checkpoint cannot resume stage 1
    ("finetune", "train"),  # nor a stage-1 checkpoint stage 2
    ("train", "absent"),
    ("finetune", "absent"),
])
def test_resume_from_wrong_stage_or_missing_file_is_data_error(
    pipeline, tmp_path, capsys, command, resume
):
    path = pipeline / resume / "checkpoint.bin"
    code = run(
        command, "--seed", "5", "--out", str(tmp_path / "out"), *TINY,
        "--corpus", str(pipeline / "sim" / "spectra.mgf"),
        "--set", f"paths.checkpoint={pipeline / 'train' / 'checkpoint.bin'}",
        "--resume", str(path), "--set", "training.stage1_steps=15",
    )
    assert code == 2
    assert str(path) in capsys.readouterr().err


@pytest.mark.parametrize("command, change, field", [
    ("train", ["--set", "training.batch_size=2"], "batch_size"),
    ("train", ["--set", "training.base_lr=1e-2"], "base_lr"),
    ("train", "corpus", "corpus_sha256"),
    ("finetune", ["--set", "training.finetune_lr=1e-3"], "finetune_lr"),
    ("train", ["--set", "training.stage1_steps=15"], "stage1_steps"),
])
def test_resume_under_other_settings_is_data_error(pipeline, tmp_path, capsys, command, change, field):
    corpus = pipeline / "sim" / "spectra.mgf"
    if change == "corpus":
        spectra = parse_mgf(corpus.read_text(), AminoAcidTable())
        corpus = tmp_path / "other.mgf"
        corpus.write_text(write_mgf(spectra[:-1]))
        change = []
    resume = pipeline / ("train" if command == "train" else "ft") / "checkpoint.bin"
    code = run(
        command, "--seed", "5", "--out", str(tmp_path / "out"), *TINY,
        "--corpus", str(corpus), "--resume", str(resume),
        "--set", "training.finetune_epochs=3", *change,
    )
    assert code == 2
    err = capsys.readouterr().err
    assert field in err and str(resume) in err


@pytest.mark.parametrize("command", ["train", "finetune"])
def test_the_recorded_corpus_hash_is_of_the_bytes_trained_on(pipeline, tmp_path, monkeypatch, command):
    # The corpus changes on disk right after it is parsed: the checkpoint
    # must still record the hash of the bytes the run parsed and trained on.
    corpus = tmp_path / "corpus.mgf"
    original = (pipeline / "sim" / "spectra.mgf").read_bytes()
    corpus.write_bytes(original)
    parse = cli.parse_mgf

    def parse_then_rewrite(*args, **kwargs):
        spectra = parse(*args, **kwargs)
        corpus.write_bytes(original.replace(b"\n", b"\r\n"))
        return spectra

    monkeypatch.setattr(cli, "parse_mgf", parse_then_rewrite)
    out = tmp_path / "out"
    stage1 = ["--checkpoint", str(pipeline / "train" / "checkpoint.bin")] * (command == "finetune")
    assert run(command, "--seed", "5", "--out", str(out), *TINY, "--corpus", str(corpus), *stage1) == 0
    assert corpus.read_bytes() != original
    _, blob = load_checkpoint(str(out / "checkpoint.bin"))
    assert blob[command]["settings"]["corpus_sha256"] == hashlib.sha256(original).hexdigest()


def test_resume_from_checkpoint_without_recorded_settings(pipeline, tmp_path):
    store, blob = load_checkpoint(str(pipeline / "train" / "checkpoint.bin"))
    del blob["train"]["settings"]
    old = tmp_path / "old.bin"
    save_checkpoint(str(old), store, blob)
    code = run(
        "train", "--seed", "5", "--out", str(tmp_path / "out"), *TINY,
        "--corpus", str(pipeline / "sim" / "spectra.mgf"), "--resume", str(old),
        "--set", "training.stage1_steps=18", "--set", "training.batch_size=2",
    )
    assert code == 0


def test_resume_from_checkpoint_without_adamw_record(pipeline, tmp_path, monkeypatch):
    # Version 1 checkpoints hold no AdamW record; they resume with fresh
    # moments, so no saved step is compared with next_step. The run's own
    # checkpoints note that AdamW began at step 6, and an interrupted run
    # resumed from them ends as the unbroken one does.
    store, blob = load_checkpoint(str(pipeline / "train" / "checkpoint.bin"))
    del blob["optimizer"]
    blob["train"]["next_step"] = 6
    old = tmp_path / "v1.bin"
    save_checkpoint(str(old), store, blob)
    data = old.read_bytes()
    old.write_bytes(data[:4] + struct.pack("<I", 1) + data[8:])  # the version field
    args = ["--seed", "5", *TINY, "--corpus", str(pipeline / "sim" / "spectra.mgf"),
            "--set", "training.checkpoint_every=2"]
    whole, broken, resumed = tmp_path / "whole", tmp_path / "broken", tmp_path / "resumed"
    assert run("train", "--out", str(whole), *args, "--resume", str(old)) == 0
    rows = read_csv(whole / "metrics.csv")
    assert [r["step"] for r in rows] == [str(k) for k in range(7, 13)]

    real_step, calls = cli.train_stage1_step, []

    def crash_at_step_nine(*step_args):
        calls.append(step_args)
        if len(calls) == 3:
            raise NumericError("synthetic blow-up")
        return real_step(*step_args)

    with monkeypatch.context() as m:
        m.setattr("pepseq.cli.train_stage1_step", crash_at_step_nine)
        assert run("train", "--out", str(broken), *args, "--resume", str(old)) == 3
    _, cut = load_checkpoint(str(broken / "checkpoint.bin"))
    assert cut["train"]["next_step"] == 8 and cut["optimizer"]["step"] == 2
    assert cut["train"]["optimizer_from"] == 6
    assert run("train", "--out", str(resumed), *args, "--resume", str(broken / "checkpoint.bin")) == 0
    assert (resumed / "checkpoint.bin").read_bytes() == (whole / "checkpoint.bin").read_bytes()
    assert read_csv(resumed / "metrics.csv") == rows[2:]


@pytest.mark.parametrize("command, edit, field", [
    ("train", lambda blob: blob.update(train=[blob["train"]]), "'train' is not an object"),
    ("train", lambda blob: blob["train"].update(settings=[]), "'train.settings' is not an object"),
    ("train", lambda blob: blob["train"].update(next_step="abc"), "'train.next_step'"),
    ("train", lambda blob: blob["train"].update(next_step=-2), "'train.next_step'"),
    ("train", lambda blob: blob["train"].update(next_step=1.7), "'train.next_step'"),
    ("finetune", lambda blob: blob.update(finetune=None), "'finetune' is not an object"),
    ("finetune", lambda blob: blob["finetune"].update(next_step=True), "'finetune.next_step'"),
    # Every checkpoint the program writes has the AdamW step equal to the
    # stage's next step less optimizer_from; AdamW's bias correction reads it.
    ("train", lambda blob: blob["optimizer"].update(step=0),
     "'optimizer.step' is 0, not train.next_step 12 - train.optimizer_from 0"),
    ("finetune", lambda blob: blob["optimizer"].update(step=9),
     "'optimizer.step' is 9, not finetune.next_step 4 - finetune.optimizer_from 0"),
    ("train", lambda blob: blob["train"].update(optimizer_from=13),
     "'train.optimizer_from' must be an integer from 0 to 12, got 13"),
    ("finetune", lambda blob: blob["finetune"].update(optimizer_from="0"), "'finetune.optimizer_from'"),
], ids=["train-list", "settings-list", "next-step-text", "next-step-negative", "next-step-float",
        "finetune-null", "next-step-bool", "optimizer-step-behind", "optimizer-step-ahead",
        "optimizer-from-past-next-step", "optimizer-from-text"])
def test_bad_resume_metadata_is_data_error(pipeline, tmp_path, capsys, command, edit, field):
    resume = pipeline / ("train" if command == "train" else "ft") / "checkpoint.bin"
    store, blob = load_checkpoint(str(resume))
    edit(blob)
    bad = tmp_path / "bad.bin"
    save_checkpoint(str(bad), store, blob)
    code = run(
        command, "--seed", "5", "--out", str(tmp_path / "out"), *TINY,
        "--corpus", str(pipeline / "sim" / "spectra.mgf"), "--resume", str(bad),
    )
    assert code == 2
    err = capsys.readouterr().err
    assert f"resume checkpoint {bad}: metadata field {field}" in err


class TestDecode:
    def test_greedy_predictions_cover_corpus(self, pipeline, tmp_path):
        out = tmp_path / "dec"
        code = run(
            "decode", "--seed", "5", "--out", str(out),
            "--mgf", str(pipeline / "sim" / "spectra.mgf"),
            "--checkpoint", str(pipeline / "ft" / "checkpoint.bin"), *TINY,
        )
        assert code == 0
        rows = read_csv(out / "predictions.csv")
        assert len(rows) == 6
        assert {r["decoder"] for r in rows} == {"at-greedy"}
        assert all(r["feasible_flag"] in {"true", "false"} for r in rows)

    def test_beam_width_one_equals_greedy(self, pipeline, tmp_path):
        greedy, beam = tmp_path / "g", tmp_path / "b"
        common = [
            "--mgf", str(pipeline / "sim" / "spectra.mgf"),
            "--checkpoint", str(pipeline / "ft" / "checkpoint.bin"), *TINY,
        ]
        assert run("decode", "--seed", "5", "--out", str(greedy), *common) == 0
        assert run(
            "decode", "--seed", "5", "--out", str(beam),
            "--decoder", "at-beam", "--beam", "1", *common,
        ) == 0
        g = read_csv(greedy / "predictions.csv")
        b = read_csv(beam / "predictions.csv")
        for rg, rb in zip(g, b):
            assert rg["predicted_sequence"] == rb["predicted_sequence"]
            assert rg["confidence"] == rb["confidence"]

    def test_nat_pmc_decoder_runs_and_flags(self, pipeline, tmp_path):
        out = tmp_path / "pmc"
        code = run(
            "decode", "--seed", "5", "--out", str(out),
            "--mgf", str(pipeline / "sim" / "spectra.mgf"),
            "--checkpoint", str(pipeline / "ft" / "checkpoint.bin"),
            "--decoder", "nat-pmc", *TINY, "--set", "decoding.pmc_bin=0.05",
        )
        assert code == 0
        rows = read_csv(out / "predictions.csv")
        assert len(rows) == 6
        assert all(r["feasible_flag"] in {"true", "false"} for r in rows)

    def test_nat_pmc_decoder_at_default_bin(self, pipeline, tmp_path):
        out = tmp_path / "pmc"
        code = run(
            "decode", "--seed", "5", "--out", str(out),
            "--mgf", str(pipeline / "sim" / "spectra.mgf"),
            "--checkpoint", str(pipeline / "ft" / "checkpoint.bin"),
            "--decoder", "nat-pmc", *TINY,
        )
        assert code == 0
        table = AminoAcidTable()
        truth = {s.spectrum_id: s for s in parse_mgf((pipeline / "sim" / "spectra.mgf").read_text(), table)}
        rows = read_csv(out / "predictions.csv")
        assert [r["spectrum_id"] for r in rows] == list(truth)
        assert any(r["feasible_flag"] == "true" for r in rows)
        for r in rows:
            if r["feasible_flag"] == "true":
                # Within the 0.1 Da window, plus half a 0.001 Da bin per residue.
                peptide = Peptide.from_string(r["predicted_sequence"])
                target = truth[r["spectrum_id"]].neutral_mass - WATER
                assert abs(table.residue_mass(peptide) - target) <= 0.1 + 0.0005 * (len(peptide) + 2)

    def test_vocabulary_mismatch_rejected(self, pipeline, tmp_path):
        other = AminoAcidTable(entries=(("A", 71.03711), ("G", 57.02146)))
        cfg = ModelConfig(d=16, hidden=32, enc_layers=1, at_layers=1, nat_layers=1, t_max=10)
        model = Model.build(cfg, other, seed=0)
        bad = tmp_path / "bad.bin"
        save_checkpoint(str(bad), model.store, model.metadata())
        code = run(
            "decode", "--seed", "5", "--out", str(tmp_path / "out"),
            "--mgf", str(pipeline / "sim" / "spectra.mgf"),
            "--checkpoint", str(bad), *TINY,
        )
        assert code == 2

    def test_charge_outside_model_range_is_data_error(self, pipeline, tmp_path, capsys):
        spectrum = simulate_spectrum(Peptide.from_string("GASP"), seed=2, spectrum_id="s000")
        high = parse_mgf(write_mgf([spectrum]).replace(f"CHARGE={spectrum.charge}+", "CHARGE=11+"))
        mgf = tmp_path / "charge11.mgf"
        mgf.write_text(write_mgf(high))
        code = run(
            "decode", "--seed", "5", "--out", str(tmp_path / "out"),
            "--mgf", str(mgf),
            "--checkpoint", str(pipeline / "ft" / "checkpoint.bin"), *TINY,
        )
        assert code == 2
        assert "s000" in capsys.readouterr().err

        # A finite PEPMASS whose neutral mass overflows to inf at charge 2.
        huge = tmp_path / "huge.mgf"
        huge.write_text("BEGIN IONS\nTITLE=huge\nPEPMASS=1e308\nCHARGE=2+\nSEQ=GASP\n"
                        "200.0 1.0\nEND IONS\n")
        checkpoint = ["--checkpoint", str(pipeline / "ft" / "checkpoint.bin")]
        for command, args in [*(("decode", ["--mgf", str(huge), *checkpoint, "--decoder", decoder])
                                for decoder in cli.DECODERS),
                              ("train", ["--corpus", str(huge)])]:
            code = run(command, "--seed", "5", "--out", str(tmp_path / command), *args, *TINY)
            assert code == 2
            err = capsys.readouterr().err
            assert f"{huge}: spectrum 'huge'" in err and "no finite mass" in err

    @pytest.mark.parametrize("peak", ["100.0 nan", "100.0 inf", "nan 1.0"])
    def test_non_finite_peak_is_data_error(self, pipeline, tmp_path, capsys, peak):
        mgf = tmp_path / "bad.mgf"
        mgf.write_text(
            "BEGIN IONS\nTITLE=odd\nPEPMASS=400.0\nCHARGE=2+\n200.0 1.0\n"
            f"{peak}\nEND IONS\n"
        )
        code = run(
            "decode", "--seed", "5", "--out", str(tmp_path / "out"),
            "--mgf", str(mgf),
            "--checkpoint", str(pipeline / "ft" / "checkpoint.bin"), *TINY,
        )
        assert code == 2
        assert "line 6" in capsys.readouterr().err

    def test_paired_encoding_checkpoint_is_data_error(self, pipeline, tmp_path):
        cfg = ModelConfig(d=16, hidden=32, enc_layers=1, at_layers=1, nat_layers=1, t_max=10)
        model = Model.build(cfg, AminoAcidTable(), seed=0)
        blob = model.metadata()
        blob["model"]["paired_encoding"] = True
        bad = tmp_path / "paired.bin"
        save_checkpoint(str(bad), model.store, blob)
        code = run(
            "decode", "--seed", "5", "--out", str(tmp_path / "out"),
            "--mgf", str(pipeline / "sim" / "spectra.mgf"),
            "--checkpoint", str(bad), *TINY,
        )
        assert code == 2

    @pytest.mark.parametrize("edit", sorted(MISMATCHES))
    def test_checkpoint_not_matching_its_config_is_data_error(self, pipeline, tmp_path, capsys, edit):
        store, blob = load_checkpoint(str(pipeline / "ft" / "checkpoint.bin"))
        bad = tmp_path / f"{edit}.bin"
        save_checkpoint(str(bad), mismatched_store(store, edit), blob)
        code = run(
            "decode", "--seed", "5", "--out", str(tmp_path / "out"),
            "--mgf", str(pipeline / "sim" / "spectra.mgf"),
            "--checkpoint", str(bad), *TINY,
        )
        assert code == 2
        err = capsys.readouterr().err
        assert MISMATCHES[edit] in err and "Traceback" not in err

    def test_other_encoder_wavelength_checkpoint_is_data_error(self, pipeline, tmp_path, capsys):
        cfg = ModelConfig(d=16, hidden=32, enc_layers=1, at_layers=1, nat_layers=1, t_max=10)
        model = Model.build(cfg, AminoAcidTable(), seed=0)
        blob = model.metadata()
        blob["model"]["mz_v_max"] = 5000.0
        bad = tmp_path / "wavelength.bin"
        save_checkpoint(str(bad), model.store, blob)
        code = run(
            "decode", "--seed", "5", "--out", str(tmp_path / "out"),
            "--mgf", str(pipeline / "sim" / "spectra.mgf"),
            "--checkpoint", str(bad), *TINY,
        )
        assert code == 2
        assert "mz_v_max" in capsys.readouterr().err


def _json(blob):
    return json.dumps(blob, sort_keys=True).encode()


@pytest.mark.parametrize("edit, named", [
    pytest.param(lambda meta: _json(meta)[:-1], "metadata is not JSON", id="broken-json"),
    pytest.param(lambda meta: b"[1, 2]", "metadata is a JSON list", id="json-list"),
    pytest.param(lambda meta: _json({**meta, "model": {**meta["model"], "d": "64"}}),
                 "model field 'd' must be an integer", id="d-as-text"),
    pytest.param(lambda meta: _json({**meta, "model": {**meta["model"], "depth": 3}}),
                 "unknown model field 'depth'", id="unknown-model-field"),
    pytest.param(lambda meta: _json({k: v for k, v in meta.items() if k != "model"}),
                 'no "model" object', id="no-model"),
    pytest.param(lambda meta: _json(meta).replace(b"vocabulary", b"vocabul\xffry"),
                 "metadata is not UTF-8", id="non-utf8-metadata"),
    pytest.param((b"enc/charge_emb", b"enc/charg\xff_emb"), "array 0 name is not UTF-8",
                 id="non-utf8-array-name"),
    pytest.param((b"enc/layer0.ln1.bias", b"enc/layer0.ln1.gain"),
                 "array 2 name 'enc/layer0.ln1.gain' appears twice", id="repeated-array-name"),
    pytest.param(lambda meta: _json({**meta, "finetuned": "false"}),
                 "metadata field 'finetuned' must be true or false, got 'false'", id="finetuned-text"),
    pytest.param(lambda meta: _json({**meta, "finetuned": 1}),
                 "metadata field 'finetuned' must be true or false, got 1", id="finetuned-number"),
    pytest.param(lambda meta: _json({**meta, "frozen": {**meta["frozen"], "at": "false"}}),
                 "metadata field 'frozen.at' must be true or false, got 'false'", id="frozen-text"),
    pytest.param((b"enc/charge_emb", b"encXcharge_emb"),
                 "array name 'encXcharge_emb' has no partition prefix", id="no-partition-prefix"),
    pytest.param(b"\0", "1 trailing bytes after metadata", id="trailing-byte"),
])
def test_bad_checkpoint_metadata_is_data_error(pipeline, tmp_path, capsys, edit, named):
    """``edit`` rewrites the metadata dict as JSON bytes, is an (old, new)
    pair of bytes of the same length that renames an array in place, or is
    bytes appended after the metadata."""
    cfg = ModelConfig(d=16, hidden=32, enc_layers=1, at_layers=1, nat_layers=1, t_max=10)
    model = Model.build(cfg, AminoAcidTable(), seed=0)
    good = tmp_path / "good.bin"
    save_checkpoint(str(good), model.store, model.metadata())
    _, meta = load_checkpoint(str(good))
    data, old = good.read_bytes(), _json(meta)
    assert data.endswith(struct.pack("<I", len(old)) + old)  # the metadata closes the file
    if isinstance(edit, tuple):
        data = data.replace(*edit, 1)
    elif isinstance(edit, bytes):
        data += edit
    else:
        new = edit(meta)
        data = data[:-len(old) - 4] + struct.pack("<I", len(new)) + new
    bad = tmp_path / "bad.bin"
    bad.write_bytes(data)
    code = run("decode", "--seed", "5", "--out", str(tmp_path / "out"),
               "--mgf", str(pipeline / "sim" / "spectra.mgf"), "--checkpoint", str(bad), *TINY)
    assert code == 2
    err = capsys.readouterr().err
    assert f"checkpoint {bad}" in err and named in err


@pytest.mark.parametrize("command, edit, field", [
    ("train", lambda blob: blob["optimizer"].update(step="x"),
     "'optimizer.step' must be an integer of at least 0, got 'x'"),
    ("train", lambda blob: blob["optimizer"]["m"].update({"at/out.b": np.zeros(2)}),
     "'optimizer.m' has array 'at/out.b' of shape (2,)"),
    ("train", lambda blob: blob["optimizer"]["v"].update({"at/out.b": np.zeros((1, 2))}),
     "'optimizer.v' has array 'at/out.b' of shape (1, 2)"),
    ("finetune", lambda blob: blob["optimizer"]["v"].pop("at/tok_emb"),
     "'optimizer.m' has array 'at/tok_emb', optimizer.v does not"),
    ("train", lambda blob: [blob["optimizer"][kind].update({"at/extra": np.zeros(2)}) for kind in "mv"],
     "'optimizer.m' has array 'at/extra', which names no model parameter"),
    ("train", None, "'optimizer' is missing, but the file has moment arrays"),
    ("finetune", None, "'optimizer' is missing, but the file has moment arrays"),
], ids=["optimizer-step-text", "moment-m-shape", "moment-v-shape", "moment-unpaired",
        "moment-unknown", "train-record-missing", "finetune-record-missing"])
def test_bad_adamw_record_is_checkpoint_error(pipeline, tmp_path, capsys, command, edit, field):
    """The checkpoint reader checks the AdamW record as it loads, so every
    command that reads the file exits 2 naming it. ``edit`` changes the
    loaded record before it is saved again; None drops the record from the
    metadata bytes and keeps the moment arrays."""
    good = pipeline / ("train" if command == "train" else "ft") / "checkpoint.bin"
    bad = tmp_path / "bad.bin"
    store, blob = load_checkpoint(str(good))
    if edit is None:
        data, old = good.read_bytes(), _json({**blob, "optimizer": {"step": blob["optimizer"]["step"]}})
        assert data.endswith(struct.pack("<I", len(old)) + old)  # the metadata closes the file
        del blob["optimizer"]
        bad.write_bytes(data[:-len(old) - 4] + struct.pack("<I", len(_json(blob))) + _json(blob))
    else:
        edit(blob)
        save_checkpoint(str(bad), store, blob)
    corpus = pipeline / "sim" / "spectra.mgf"
    for argv in ([command, "--corpus", corpus, "--resume", bad],
                 ["decode", "--mgf", corpus, "--checkpoint", bad]):
        code = run(*map(str, argv), "--seed", "5", "--out", str(tmp_path / "out"), *TINY)
        assert code == 2
        assert f"checkpoint {bad}: metadata field {field}" in capsys.readouterr().err


@pytest.mark.parametrize("command, args", [
    ("decode", ["--decoder", "at-beam", "--beam", "0"]),
    ("decode", ["--set", "decoding.max_len=-1"]),
    ("decode", ["--decoder", "nat-pmc", "--set", "decoding.pmc_bin=0"]),
    ("decode", ["--decoder", "nat-pmc", "--set", "decoding.pmc_bin=200"]),  # a residue is 0 bins
    ("decode", ["--decoder", "nat-pmc", "--tol", "-1"]),
    ("finetune", ["--set", "training.finetune_lr=-1"]),
    ("finetune", ["--set", "training.checkpoint_every=0"]),
    ("decode", ["--decoder", "nat-pmc", "--tol", "nan"]),
    ("decode", ["--decoder", "nat-pmc", "--tol", "inf"]),
    ("train", ["--set", "training.base_lr=nan"]),
    ("finetune", ["--set", "training.finetune_lr=inf"]),
    ("simulate", ["--set", "simulation.mz_sigma=nan"]),
    ("simulate", ["--set", "simulation.drop_prob=nan"]),
    # each setting with a least value in cli.SETTINGS, just under it
    ("train", ["--set", "training.stage1_steps=0"]),
    ("train", ["--set", "training.batch_size=0"]),
    ("simulate", ["--set", "simulation.n_spectra=0"]),
    ("simulate", ["--set", "simulation.min_len=0"]),
    ("finetune", ["--set", "training.finetune_epochs=-1"]),
    ("train", ["--set", "training.warmup_steps=-1"]),
    ("train", ["--set", "model.d=0"]),
    ("train", ["--set", "model.t_max=0"]),
    ("simulate", ["--set", "simulation.mz_sigma=1e200"]),  # pushes a peak below m/z 0
])
def test_bad_decode_and_finetune_settings_are_usage_errors(pipeline, tmp_path, capsys, command, args):
    corpus = str(pipeline / "sim" / "spectra.mgf")
    inputs = {
        "decode": ["--mgf", corpus, "--checkpoint", str(pipeline / "ft" / "checkpoint.bin")],
        "finetune": ["--corpus", corpus, "--checkpoint", str(pipeline / "train" / "checkpoint.bin")],
        "train": ["--corpus", corpus],
        "simulate": [],
    }[command]
    out = tmp_path / "out"
    assert run(command, "--seed", "5", "--out", str(out), *TINY, *inputs, *args) == 1
    flag, value = args[-2:]  # the last flag sets the bad value
    flags = {f: key for f, key, _ in cli._COMMANDS[command][2]}
    key = value.partition("=")[0] if flag == "--set" else flags[flag]
    err = capsys.readouterr().err
    assert "usage error" in err and key in err
    assert list(out.iterdir()) == []  # rejected before any work


def test_every_default_converts_and_meets_its_bound():
    for section, keys in cli.SETTINGS.items():
        for key, (default, kind, least) in keys.items():
            value = kind(default)
            assert least is None or value >= least, f"{section}.{key}"


def test_readme_settings_table_matches_settings():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    rows = re.findall(r"^\| `(\w+)\.(\w+)` \| (.*) \| (\w+) \| (.*) \|$", readme, re.MULTILINE)
    table = {(section, key): (default, kind, least) for section, key, default, kind, least in rows}
    want = {
        (section, key): (f"`{default}`" if default else "", kind.__name__,
                         "—" if least is None else f"`{least}`")
        for section, keys in cli.SETTINGS.items()
        for key, (default, kind, least) in keys.items()
    }
    assert table == want


@pytest.mark.parametrize("command", ["train", "decode"])
def test_all_zero_intensities_is_data_error(pipeline, tmp_path, capsys, command):
    spectrum = simulate_spectrum(Peptide.from_string("GASP"), seed=2, spectrum_id="dark")
    dark = replace(spectrum, peaks=tuple(Peak(p.mz, 0.0) for p in spectrum.peaks))
    mgf = tmp_path / "dark.mgf"
    mgf.write_text(write_mgf([dark]))
    inputs = {
        "train": ["--corpus", str(mgf)],
        "decode": ["--mgf", str(mgf), "--checkpoint", str(pipeline / "ft" / "checkpoint.bin")],
    }[command]
    code = run(command, "--seed", "5", "--out", str(tmp_path / "out"), *TINY, *inputs)
    assert code == 2
    assert "dark" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["finetune", "decode"])
def test_repeated_spectrum_id_is_data_error(pipeline, tmp_path, capsys, command):
    # Two different spectra under one TITLE: a feature cache keyed on the id
    # would serve the first one's features for the second.
    spectra = [simulate_spectrum(Peptide.from_string(p), seed=i, spectrum_id="s000")
               for i, p in enumerate(["YYIEWDGD", "DSFSHSY"])]
    mgf = tmp_path / "twice.mgf"
    mgf.write_text(write_mgf(spectra))
    checkpoint = pipeline / ("train" if command == "finetune" else "ft") / "checkpoint.bin"
    source = "--corpus" if command == "finetune" else "--mgf"
    out = tmp_path / "out"
    code = run(command, "--seed", "5", "--out", str(out), *TINY,
               source, str(mgf), "--checkpoint", str(checkpoint))
    assert code == 2
    err = capsys.readouterr().err
    assert "'s000'" in err and "more than once" in err
    assert not (out / "checkpoint.bin").exists() and not (out / "predictions.csv").exists()


class TestEval:
    def make_truth_predictions(self, pipeline, path, mutate=False):
        spectra = parse_mgf((pipeline / "sim" / "spectra.mgf").read_text())
        with path.open("w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(
                ["spectrum_id", "predicted_sequence", "confidence", "decoder", "feasible_flag"]
            )
            for i, s in enumerate(spectra):
                seq = str(s.truth)
                if mutate and i % 2 == 0:
                    seq = ""
                writer.writerow([s.spectrum_id, seq, -0.01 * (i + 1), "at-greedy", "true"])
        return len(spectra)

    def test_self_eval_is_perfect(self, pipeline, tmp_path):
        preds = tmp_path / "preds.csv"
        n = self.make_truth_predictions(pipeline, preds)
        out = tmp_path / "eval"
        code = run(
            "eval", "--seed", "5", "--out", str(out),
            "--predictions", str(preds),
            "--truth", str(pipeline / "sim" / "spectra.mgf"), *TINY,
        )
        assert code == 0
        summary = read_csv(out / "summary.csv")[0]
        assert float(summary["aa_precision"]) == 1.0
        assert float(summary["peptide_recall"]) == 1.0
        assert len(read_csv(out / "per_spectrum.csv")) == n
        curve = read_csv(out / "curve.csv")
        assert float(curve[-1]["coverage"]) == 1.0
        assert float(curve[-1]["value"]) == 1.0

    def test_curve_final_row_matches_summary_recall(self, pipeline, tmp_path):
        preds = tmp_path / "preds.csv"
        self.make_truth_predictions(pipeline, preds, mutate=True)
        out = tmp_path / "eval"
        code = run(
            "eval", "--seed", "5", "--out", str(out),
            "--predictions", str(preds),
            "--truth", str(pipeline / "sim" / "spectra.mgf"), *TINY,
        )
        assert code == 0
        summary = read_csv(out / "summary.csv")[0]
        curve = read_csv(out / "curve.csv")
        assert float(curve[-1]["value"]) == float(summary["peptide_recall"])
        assert 0.0 < float(summary["peptide_recall"]) < 1.0

    def test_a_residue_both_passes_match_counts_once_in_precision(self, tmp_path):
        # L against IGL: the left pass pairs L with I, the right pass with L.
        truth = tmp_path / "truth.mgf"
        truth.write_text(write_mgf([simulate_spectrum(Peptide.from_string("IGL"), seed=1,
                                                      spectrum_id="s1")]))
        preds = tmp_path / "preds.csv"
        preds.write_text("spectrum_id,predicted_sequence,confidence,decoder,feasible_flag\n"
                         "s1,L,-0.5,at-greedy,true\n")
        out = tmp_path / "eval"
        code = run("eval", "--seed", "5", "--out", str(out), "--predictions", str(preds),
                   "--truth", str(truth), *TINY)
        assert code == 0
        assert float(read_csv(out / "summary.csv")[0]["aa_precision"]) == 1.0
        row = read_csv(out / "per_spectrum.csv")[0]
        assert (row["matched_aa"], row["predicted_aa"], row["truth_aa"]) == ("1", "1", "3")

    def test_unknown_id_is_data_error(self, pipeline, tmp_path, capsys):
        preds = tmp_path / "preds.csv"
        preds.write_text(
            "spectrum_id,predicted_sequence,confidence\nghost-001,GA,-0.5\n"
        )
        code = run(
            "eval", "--seed", "5", "--out", str(tmp_path / "out"),
            "--predictions", str(preds),
            "--truth", str(pipeline / "sim" / "spectra.mgf"), *TINY,
        )
        assert code == 2
        assert f"data error: {preds}: predictions for unknown spectra: ghost-001" in capsys.readouterr().err

    def test_malformed_predictions_csv(self, pipeline, tmp_path):
        preds = tmp_path / "preds.csv"
        preds.write_text("who,knows\n1,2\n")
        code = run(
            "eval", "--seed", "5", "--out", str(tmp_path / "out"),
            "--predictions", str(preds),
            "--truth", str(pipeline / "sim" / "spectra.mgf"), *TINY,
        )
        assert code == 2

    def test_residue_outside_vocabulary_names_file_and_line(self, pipeline, tmp_path, capsys):
        preds = tmp_path / "pred.csv"
        preds.write_text("spectrum_id,predicted_sequence,confidence\nsynth-00000,PEPZIDE,-1.0\n")
        code = run("eval", "--seed", "5", "--out", str(tmp_path / "out"), "--predictions", str(preds),
                   "--truth", str(pipeline / "sim" / "spectra.mgf"), *TINY)
        assert code == 2
        assert f"{preds} line 2: unknown residue symbol 'Z'" in capsys.readouterr().err

    def test_a_field_over_the_csv_size_limit_is_data_error(self, pipeline, tmp_path, capsys):
        preds = tmp_path / "preds.csv"
        preds.write_text(f"spectrum_id,predicted_sequence,confidence\nsynth-00000,{'G' * 200_000},-1.0\n")
        code = run("eval", "--seed", "5", "--out", str(tmp_path / "out"), "--predictions", str(preds),
                   "--truth", str(pipeline / "sim" / "spectra.mgf"), *TINY)
        assert code == 2
        assert f"data error: {preds} line 2: field larger than field limit" in capsys.readouterr().err

    def test_nan_confidence_is_data_error(self, tmp_path, capsys):
        # A NaN sorts anywhere, so it would put the correct NaN row ahead of
        # the wrong -0.1 one at the start of the curve. -inf is a valid
        # confidence: eval gives it to a missing prediction.
        sim = tmp_path / "sim"
        assert run("simulate", "--seed", "1", "--n", "3", "--out", str(sim)) == 0
        spectra = parse_mgf((sim / "spectra.mgf").read_text())
        wrong = "G" if str(spectra[2].truth) != "G" else "A"

        def evaluate(first_confidence):
            preds = tmp_path / "preds.csv"
            preds.write_text(
                "spectrum_id,predicted_sequence,confidence\n"
                f"{spectra[0].spectrum_id},{spectra[0].truth},{first_confidence}\n"
                f"{spectra[1].spectrum_id},{spectra[1].truth},-0.5\n"
                f"{spectra[2].spectrum_id},{wrong},-0.1\n"
            )
            return run("eval", "--seed", "5", "--out", str(tmp_path / "out"),
                       "--predictions", str(preds), "--truth", str(sim / "spectra.mgf"), *TINY)

        assert evaluate("nan") == 2
        err = capsys.readouterr().err
        assert "line 2" in err and "NaN" in err
        assert evaluate("-inf") == 0
        first = read_csv(tmp_path / "out" / "curve.csv")[0]
        assert (float(first["coverage"]), float(first["value"])) == (1 / 3, 0.0)


class TestBadInput:
    """Undecodable or malformed input files end in their exit code, with a
    message that names the file and, where there is one, the line."""

    @pytest.mark.parametrize("command", ["train", "decode"])
    def test_non_utf8_mgf_is_data_error(self, pipeline, tmp_path, capsys, command):
        text = (pipeline / "sim" / "spectra.mgf").read_bytes()
        mgf = tmp_path / "latin1.mgf"
        mgf.write_bytes(text.replace(b"TITLE=synth-00000", b"TITLE=synth-0000\xe9", 1))
        line = text[:text.index(b"TITLE=synth-00000")].count(b"\n") + 1
        inputs = {
            "train": ["--corpus", str(mgf)],
            "decode": ["--mgf", str(mgf), "--checkpoint", str(pipeline / "ft" / "checkpoint.bin")],
        }[command]
        code = run(command, "--seed", "5", "--out", str(tmp_path / "out"), *TINY, *inputs)
        assert code == 2
        assert f"{mgf} line {line}: not UTF-8" in capsys.readouterr().err

    def test_mgf_parse_error_names_the_file(self, pipeline, tmp_path, capsys):
        mgf = tmp_path / "bad.mgf"
        mgf.write_text("BEGIN IONS\nTITLE=odd\nPEPMASS=400.0\nCHARGE=2+\n200.0 1.0\n100.0 nan\nEND IONS\n")
        code = run("decode", "--seed", "5", "--out", str(tmp_path / "out"), *TINY,
                   "--mgf", str(mgf), "--checkpoint", str(pipeline / "ft" / "checkpoint.bin"))
        assert code == 2
        assert f"{mgf} line 6: peak values must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["train", "decode"])
    def test_a_repeated_mgf_header_is_data_error(self, pipeline, tmp_path, capsys, command):
        text = (pipeline / "sim" / "spectra.mgf").read_text()
        mgf = tmp_path / "twice.mgf"
        mgf.write_text(text.replace("CHARGE=2+\n", "CHARGE=2+\nCHARGE=3+\n", 1))
        line = text[:text.index("CHARGE=2+\n")].count("\n") + 2
        inputs = {
            "train": ["--corpus", str(mgf)],
            "decode": ["--mgf", str(mgf), "--checkpoint", str(pipeline / "ft" / "checkpoint.bin")],
        }[command]
        code = run(command, "--seed", "5", "--out", str(tmp_path / "out"), *TINY, *inputs)
        assert code == 2
        assert f"{mgf} line {line}: second CHARGE header" in capsys.readouterr().err

    def test_non_utf8_config_is_usage_error(self, tmp_path, capsys):
        ini = tmp_path / "run.ini"
        ini.write_bytes(b"[model]\nd = 16\n# caf\xe9\n")
        code = run("simulate", "--seed", "5", "--out", str(tmp_path / "out"), "--config", str(ini))
        assert code == 1
        assert f"{ini} line 3: not UTF-8" in capsys.readouterr().err

    def test_non_utf8_predictions_is_data_error(self, pipeline, tmp_path, capsys):
        preds = tmp_path / "preds.csv"
        preds.write_bytes(b"spectrum_id,predicted_sequence,confidence\nsynth-00000,G\xc1,-0.5\n")
        code = run("eval", "--seed", "5", "--out", str(tmp_path / "out"), "--predictions", str(preds),
                   "--truth", str(pipeline / "sim" / "spectra.mgf"), *TINY)
        assert code == 2
        assert f"{preds} line 2: not UTF-8" in capsys.readouterr().err

    def test_predictions_row_shorter_than_its_header_is_data_error(self, pipeline, tmp_path, capsys):
        preds = tmp_path / "preds.csv"
        preds.write_text("spectrum_id,predicted_sequence,confidence\nsynth-00000,GA,-0.5\nsynth-00001,GA\n")
        code = run("eval", "--seed", "5", "--out", str(tmp_path / "out"), "--predictions", str(preds),
                   "--truth", str(pipeline / "sim" / "spectra.mgf"), *TINY)
        assert code == 2
        assert f"{preds} line 3: fewer fields" in capsys.readouterr().err

    @pytest.mark.parametrize("rows, error", [
        ("synth-00000,GA,-0.5\nsynth-00001,GA,-0.5,at-greedy\n",
         "line 3: more fields than the 3 columns of the header"),
        ("synth-00000,GA,-0.5\nsynth-00001,GA,-0.5\nsynth-00000,AG,-0.7\n",
         "line 4: duplicate prediction for spectrum synth-00000 (first at line 2)"),
    ], ids=["long-row", "repeated-id"])
    def test_bad_predictions_row_names_file_and_line(self, pipeline, tmp_path, capsys, rows, error):
        preds = tmp_path / "preds.csv"
        preds.write_text("spectrum_id,predicted_sequence,confidence\n" + rows)
        code = run("eval", "--seed", "5", "--out", str(tmp_path / "out"), "--predictions", str(preds),
                   "--truth", str(pipeline / "sim" / "spectra.mgf"), *TINY)
        assert code == 2
        assert f"data error: {preds} {error}" in capsys.readouterr().err

    @pytest.mark.parametrize("case", [
        "unknown-section", "heads-not-dividing-d", "decode-without-mgf", "mgf-without-spectra",
        "resume-past-shorter-finetune", "warmup-as-long-as-the-run", "resume-under-other-model-d",
        "missing-predictions", "charge-zero", "empty-seq",
    ])
    def test_bad_run_input_names_its_cause(self, pipeline, tmp_path, capsys, case):
        corpus, ft = pipeline / "sim" / "spectra.mgf", pipeline / "ft" / "checkpoint.bin"
        ini, mgf, absent = tmp_path / "run.ini", tmp_path / "bad.mgf", tmp_path / "absent.csv"
        block = "BEGIN IONS\nTITLE=odd\nPEPMASS=400.0\nCHARGE={}\n{}200.0 1.0\nEND IONS\n"
        decode_mgf = ["decode", "--mgf", mgf, "--checkpoint", ft]
        argv, code, error = {
            "unknown-section": (["simulate", "--config", ini], 1,
                                f"usage error: config file {ini}: unknown section [nonsense]"),
            "heads-not-dividing-d": (["train", "--corpus", corpus, "--set", "model.heads=3"], 1,
                                     "usage error: bad model.d or model.heads: heads must be "
                                     "positive and divide d: d 16, heads 3"),
            "decode-without-mgf": (["decode", "--checkpoint", ft], 1,
                                   "usage error: paths.mgf is required for this command"),
            "mgf-without-spectra": (decode_mgf, 2, f"data error: no spectra in {mgf}"),
            "resume-past-shorter-finetune": (
                ["finetune", "--corpus", corpus, "--checkpoint", pipeline / "train" / "checkpoint.bin",
                 "--resume", ft, "--set", "training.finetune_epochs=1"], 2,
                f"data error: resume checkpoint {ft} is already past step 2 (4)"),
            "warmup-as-long-as-the-run": (["train", "--corpus", corpus, "--set", "training.warmup_steps=12"],
                                          1, "warmup_steps 12 must be less than total_steps 12"),
            "resume-under-other-model-d": (
                ["train", "--corpus", corpus, "--resume", pipeline / "train" / "checkpoint.bin",
                 "--set", "model.d=8"], 2,
                "data error: resume checkpoint's model shape differs from the config"),
            "missing-predictions": (["eval", "--predictions", absent, "--truth", corpus], 2,
                                    f"data error: predictions file not found: {absent}"),
            "charge-zero": (decode_mgf, 2, f"data error: {mgf} line 4: charge must be positive, got '0+'"),
            "empty-seq": (decode_mgf, 2, f"data error: {mgf} line 5: SEQ must not be empty"),
        }[case]
        ini.write_text("[nonsense]\nx = 1\n")
        mgf.write_text({"charge-zero": block.format("0+", ""),
                        "empty-seq": block.format("2+", "SEQ=\n")}.get(case, "\n"))  # else no blocks
        command, *args = map(str, argv)
        assert run(command, "--seed", "5", "--out", str(tmp_path / "out"), *TINY, *args) == code
        assert error in capsys.readouterr().err

    def test_out_naming_a_file_is_usage_error(self, tmp_path, capsys):
        taken = tmp_path / "taken"
        taken.write_text("keep\n")
        assert run("simulate", "--seed", "5", "--out", str(taken), *TINY) == 1
        assert f"--out {taken}" in capsys.readouterr().err
        assert taken.read_text() == "keep\n" and list(tmp_path.iterdir()) == [taken]

    @pytest.mark.parametrize("command, name", [
        ("simulate", "spectra.mgf"), ("simulate", "manifest.json"),
        ("train", "metrics.csv"), ("train", "checkpoint.bin"), ("train", "checkpoint.bin.tmp"),
        ("train", "manifest.json"),
        ("finetune", "metrics.csv"), ("finetune", "checkpoint.bin"), ("finetune", "manifest.json"),
        ("finetune-0", "metrics.csv"), ("finetune-0", "checkpoint.bin"), ("finetune-0", "manifest.json"),
        ("decode", "predictions.csv"), ("decode", "manifest.json"),
        ("eval", "summary.csv"), ("eval", "per_spectrum.csv"), ("eval", "curve.csv"),
        ("eval", "manifest.json"),
    ])
    def test_an_output_that_cannot_be_written_is_usage_error(self, pipeline, tmp_path, capsys,
                                                             command, name):
        # A directory in the file's place: root ignores chmod, not this. checkpoint.bin is
        # written beside the target and renamed over it (a directory there fails the rename);
        # finetune-0 is a zero-epoch finetune, which copies its checkpoint through.
        mgf, preds = pipeline / "sim" / "spectra.mgf", tmp_path / "preds.csv"
        first = parse_mgf(mgf.read_text())[0]
        preds.write_text(f"spectrum_id,predicted_sequence,confidence\n{first.spectrum_id},{first.truth},-1.0\n")
        stage1 = ["--corpus", str(mgf), "--checkpoint", str(pipeline / "train" / "checkpoint.bin")]
        inputs = {
            "simulate": [],
            "train": ["--corpus", str(mgf)],
            "finetune": stage1,
            "finetune-0": [*stage1, "--set", "training.finetune_epochs=0"],
            "decode": ["--mgf", str(mgf), "--checkpoint", str(pipeline / "ft" / "checkpoint.bin")],
            "eval": ["--predictions", str(preds), "--truth", str(mgf)],
        }[command]
        out = tmp_path / "out"
        (out / name).mkdir(parents=True)
        assert run(command.removesuffix("-0"), "--seed", "5", "--out", str(out), *TINY, *inputs) == 1
        named = out / name.removesuffix(".tmp")
        assert f"usage error: {named}: cannot write the output file (Is a directory)" in capsys.readouterr().err
        for other in ("checkpoint.bin", "metrics.csv"):  # train and finetune refuse before any step
            if other != name:
                assert not (out / other).exists()


def test_manifests_record_provenance(pipeline):
    # Hashes differ across commands (the paths section is part of the effective
    # config); what matters is that each manifest pins command, seed, and hash.
    for d, command in (("sim", "simulate"), ("train", "train"), ("ft", "finetune")):
        manifest = json.loads((pipeline / d / "manifest.json").read_text())
        assert manifest["command"] == command
        assert manifest["seed"] == 5
        digest = manifest["config_sha256"]
        assert len(digest) == 64 and set(digest) <= set("0123456789abcdef")
