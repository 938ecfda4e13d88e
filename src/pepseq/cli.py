"""Command-line pipeline: simulate → train → finetune → decode → eval.

Configuration lives in an INI file with [model], [training], [simulation],
[decoding], and [paths] sections; every key can be overridden on the
command line with --set section.key=value, and every command records the
SHA-256 of its effective configuration in a JSON manifest next to its
outputs. A seed is mandatory (--seed or training.seed) and every command
is deterministic given (config, seed).

Exit codes: 0 success, 1 usage/config problems (an output that cannot be
written included), 2 data problems (missing or malformed files, id
mismatches, vocabulary clashes), 3 numeric failure during training.
"""

from __future__ import annotations

import argparse
import configparser
import contextlib
import csv
import errno
import hashlib
import io
import itertools
import json
import logging
import os
import shutil
import sys
from pathlib import Path

import numpy as np

from .autodiff import NumericError
from .decoding import PMCConfig, beam_search_at, greedy_at_decode, nat_pmc_decode
from .metrics import corpus_eval, precision_coverage
from .mgf import MGFParseError, parse_mgf, write_mgf
from .network import Model, ModelConfig, check_spectrum
from .optim import OptimizerState
from .params import CheckpointError, load_checkpoint, save_checkpoint, staging_path
from .spectra import (
    AminoAcidTable,
    NoiseConfig,
    Peptide,
    Spectrum,
    VocabularyError,
    random_peptide,
    simulate_spectrum,
)
from .training import (
    AnnealSchedule,
    FeatureCache,
    LRConfig,
    TrainState,
    finetune_stage2_step,
    train_stage1_step,
)

log = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3

DECODERS = ("at-greedy", "at-beam", "nat-pmc")

# Every setting, as section -> key -> (default text, type, least value). A
# least value bounds one key; None leaves its range to the config object that
# takes it (NoiseConfig, LRConfig, PMCConfig) or to the command. The config
# objects also check the bounds that compare keys: ModelConfig an even d that
# heads divides, LRConfig a warm-up shorter than the run.
SETTINGS: dict[str, dict[str, tuple[str, type, int | float | None]]] = {
    "model": {
        "d": ("64", int, 2),
        "heads": ("2", int, 1),
        "hidden": ("128", int, 1),
        "enc_layers": ("2", int, 1),
        "at_layers": ("2", int, 1),
        "nat_layers": ("2", int, 1),
        "t_max": ("24", int, 1),
    },
    "training": {
        "seed": ("", str, None),  # --seed or this one is required
        "stage1_steps": ("2000", int, 1),
        "finetune_epochs": ("200", int, 0),
        "base_lr": ("5e-4", float, None),
        "finetune_lr": ("1e-4", float, 0.0),
        "warmup_steps": ("100", int, 0),
        "batch_size": ("10", int, 1),
        "checkpoint_every": ("500", int, 1),
    },
    "simulation": {
        "n_spectra": ("100", int, 1),
        "min_len": ("5", int, 1),
        "max_len": ("12", int, None),
        "mz_sigma": ("0.0", float, None),
        "drop_prob": ("0.0", float, None),
        "n_noise_peaks": ("0", int, None),
    },
    "decoding": {
        "decoder": ("at-greedy", str, None),
        "beam_width": ("5", int, 1),
        "pmc_tolerance": ("0.1", float, None),
        "pmc_bin": ("0.001", float, None),
        "max_len": ("0", int, 0),  # 0 means ModelConfig.max_residues
    },
    "paths": {
        key: ("", str, None)
        for key in ("corpus", "checkpoint", "resume", "mgf", "predictions", "truth")
    },
}


class UsageError(Exception):
    pass


class DataError(Exception):
    pass


def _open_text(path: Path, error: type[Exception], newline: str | None = None,
               data: bytes | None = None) -> io.StringIO:
    """``path`` as UTF-8 text, read as ``open(path, newline=newline)`` reads
    it, from ``data`` when its bytes are already read; bytes that are not
    UTF-8 raise ``error`` naming the file and line."""
    data = path.read_bytes() if data is None else data
    try:
        return io.StringIO(data.decode("utf-8"), newline=newline)
    except UnicodeDecodeError as e:
        line = data.count(b"\n", 0, e.start) + 1
        raise error(f"{path} line {line}: not UTF-8 text ({e.reason})") from e


@contextlib.contextmanager
def _output(path: Path):
    """Around the code that writes the output file ``path``: an OSError
    there, say a directory in the file's place, is a usage error naming the
    file, as an ``--out`` that cannot be made is."""
    try:
        yield path
    except OSError as e:
        raise UsageError(f"{path}: cannot write the output file ({e.strerror})") from e


def _write_csv(path: Path, header, rows) -> None:
    with _output(path), path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


class RunConfig:
    """Merged defaults + INI file + --set overrides, plus the seed."""

    def __init__(self, parser: configparser.ConfigParser, seed: int):
        self._cp = parser
        self.seed = seed

    @classmethod
    def load(cls, config_path: str | None, sets: list[str], seed_flag: int | None) -> "RunConfig":
        cp = configparser.ConfigParser(interpolation=None)
        cp.read_dict({section: {key: spec[0] for key, spec in keys.items()}
                      for section, keys in SETTINGS.items()})
        if config_path is not None:
            path = Path(config_path)
            if not path.is_file():
                raise UsageError(f"config file not found: {path}")
            try:
                cp.read_file(_open_text(path, UsageError), source=str(path))
            except configparser.Error as e:
                raise UsageError(f"bad config file: {e}") from e
            for section in cp.sections():
                if section not in SETTINGS:
                    raise UsageError(f"config file {path}: unknown section [{section}]")
                for option in cp[section]:
                    if option not in SETTINGS[section]:
                        raise UsageError(f"config file {path}: unknown key {section}.{option}")
        for item in sets:
            key, sep, value = item.partition("=")
            section, dot, option = key.partition(".")
            if not sep or not dot or not section or not option:
                raise UsageError(f"--set expects section.key=value, got {item!r}")
            if section not in SETTINGS or option not in SETTINGS[section]:
                raise UsageError(f"unknown config key {section}.{option}")
            cp[section][option] = value
        seed_text = cp["training"]["seed"]
        if seed_flag is not None:
            seed = seed_flag
        elif seed_text:
            try:
                seed = int(seed_text)
            except ValueError as e:
                raise UsageError(f"training.seed must be an integer, got {seed_text!r}") from e
        else:
            raise UsageError("a seed is required (--seed N or training.seed in the config)")
        if seed < 0:
            raise UsageError(f"the seed must be at least 0, got {seed}")
        cp["training"]["seed"] = str(seed)
        return cls(cp, seed)

    def value(self, section: str, key: str):
        """``section.key`` as its type. Text that does not convert, a float
        that is not finite, or a value under the key's least value is a
        usage error that names the key."""
        _, kind, least = SETTINGS[section][key]
        text = self._cp[section][key]
        try:
            value = kind(text)
            if kind is float and not np.isfinite(value):
                raise ValueError("not finite")
        except ValueError as e:
            raise UsageError(f"bad value for {section}.{key}: {text!r}") from e
        if least is not None and value < least:
            raise UsageError(f"{section}.{key} must be at least {least}, got {value}")
        return value

    def section(self, name: str) -> dict:
        """Every setting of section ``name``, each read as ``value`` reads it."""
        return {key: self.value(name, key) for key in SETTINGS[name]}

    def model_config(self) -> ModelConfig:
        try:
            return ModelConfig(**self.section("model"))
        except ValueError as e:
            raise UsageError(f"bad model.d or model.heads: {e}") from e

    def canonical(self) -> str:
        lines = []
        for section in sorted(SETTINGS):
            for option in sorted(SETTINGS[section]):
                lines.append(f"{section}.{option}={self._cp.get(section, option)}")
        return "\n".join(lines) + "\n"

    def sha256(self) -> str:
        return hashlib.sha256(self.canonical().encode()).hexdigest()


def _require_path(cfg: RunConfig, option: str, what: str) -> Path:
    text = cfg.value("paths", option)
    if not text:
        raise UsageError(f"paths.{option} is required for this command ({what})")
    return Path(text)


def _read_corpus(path: Path, table: AminoAcidTable, require_truth: bool,
                 max_residues: int | None = None) -> tuple[list[Spectrum], str]:
    """Parse an MGF corpus and reject the spectra ``check_spectrum`` rejects;
    returns the spectra and the SHA-256 of the one read they came from.

    Spectrum ids must be unique: fine-tuning caches features by id, and
    evaluation joins predictions to truths by id.
    """
    if not path.is_file():
        raise DataError(f"spectra file not found: {path}")
    data = path.read_bytes()
    try:
        spectra = parse_mgf(_open_text(path, DataError, data=data).read(), table=table)
    except MGFParseError as e:
        raise DataError(f"{path} {e}") from e
    if not spectra:
        raise DataError(f"no spectra in {path}")
    seen = set()
    for s in spectra:
        if s.spectrum_id in seen:
            raise DataError(f"{path}: spectrum id {s.spectrum_id!r} appears more than once")
        seen.add(s.spectrum_id)
        try:
            check_spectrum(s, max_residues)
        except ValueError as e:
            raise DataError(f"{path}: {e}") from e
    if require_truth:
        missing = [s.spectrum_id for s in spectra if s.truth is None]
        if missing:
            raise DataError(
                f"{path}: spectra without SEQ annotations: {', '.join(missing[:5])}"
                + ("…" if len(missing) > 5 else "")
            )
    return spectra, hashlib.sha256(data).hexdigest()


def _write_manifest(out: Path, command: str, cfg: RunConfig, extra: dict) -> None:
    manifest = {
        "command": command,
        "seed": cfg.seed,
        "config_sha256": cfg.sha256(),
    }
    manifest.update(extra)
    with _output(out / "manifest.json") as path:
        path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")


def _batches(n: int, size: int, rng: np.random.Generator):
    """Endless stream of index batches, reshuffled each full pass."""
    while True:
        order = rng.permutation(n)
        for k in range(0, n, size):
            yield [int(i) for i in order[k : k + size]]


def _load_model(path: Path, table: AminoAcidTable) -> tuple[Model, dict]:
    if not path.is_file():
        raise DataError(f"checkpoint not found: {path}")
    store, blob = load_checkpoint(str(path))
    if blob.get("vocabulary") != table.to_dict():
        raise DataError(
            f"checkpoint {path} was trained with a different residue vocabulary"
        )
    try:
        return Model.from_checkpoint_blob(store, blob), blob
    except ValueError as e:
        raise DataError(f"checkpoint {path}: {e}") from e


# ---------------------------------------------------------------------------
# commands


def cmd_simulate(cfg: RunConfig, out: Path) -> int:
    table = AminoAcidTable()
    sim = cfg.section("simulation")
    n, min_len, max_len = sim.pop("n_spectra"), sim.pop("min_len"), sim.pop("max_len")
    try:
        noise = NoiseConfig(**sim)
    except ValueError as e:
        raise UsageError(f"bad simulation config: {e}") from e
    if min_len > max_len:
        raise UsageError(
            f"simulation lengths need min_len <= max_len, got {min_len} and {max_len}"
        )
    cap = ModelConfig(t_max=cfg.value("model", "t_max")).max_residues
    if max_len > cap:
        raise UsageError(
            f"simulation.max_len {max_len} exceeds t_max - 2 = {cap}; "
            "such peptides could not be trained on"
        )
    rng = np.random.default_rng(cfg.seed)
    spectra = []
    for i in range(n):
        pep = random_peptide(rng, min_len, max_len, table)
        try:
            spectra.append(
                simulate_spectrum(
                    pep,
                    seed=int(rng.integers(1 << 30)),
                    noise=noise,
                    spectrum_id=f"synth-{i:05d}",
                    table=table,
                )
            )
        except ValueError as e:  # m/z noise wide enough to push a peak to m/z <= 0
            raise UsageError(f"bad simulation.mz_sigma {noise.mz_sigma}: {e}") from e
    with _output(out / "spectra.mgf") as path:
        path.write_text(write_mgf(spectra))
    _write_manifest(out, "simulate", cfg, {
        "n_spectra": n,
        "outputs": {"mgf": "spectra.mgf"},
    })
    print(f"wrote {n} spectra to {out / 'spectra.mgf'}")
    return EXIT_OK


METRICS_COLUMNS = ("step", "stage", "at_loss", "nat_loss", "lambda", "lr")
# eval reads the first three
PREDICTION_COLUMNS = ("spectrum_id", "predicted_sequence", "confidence", "decoder", "feasible_flag")


def _stage_settings(cfg: RunConfig, stage: str, corpus_sha256: str) -> dict:
    """The settings that shape a stage's batch stream, learning rate and
    annealing, with the hash of the corpus bytes the stage trains on; a
    resumed run must match them. A longer fine-tune is allowed: stage 2 runs
    at a constant learning rate with no annealing."""
    keys = {"train": ("batch_size", "base_lr", "warmup_steps", "stage1_steps"),
            "finetune": ("batch_size", "finetune_lr")}[stage]
    return {"seed": cfg.seed, **{key: cfg.value("training", key) for key in keys},
            "corpus_sha256": corpus_sha256}


def _resume_point(resume: str, model: Model, blob: dict, stage: str, total: int,
                  settings: dict) -> tuple[int, dict]:
    """(next step, saved AdamW state) of a ``stage`` run resumed from the
    checkpoint ``resume`` whose model is ``model`` and blob ``blob``; (0, {})
    for a fresh run. A saved AdamW step must be the stage's next step less
    the step its moments began at (``optimizer_from``, 0 unless an earlier
    run resumed from a checkpoint without an AdamW record);
    ``load_checkpoint`` has checked the rest of that record. Checkpoints
    written before the settings or that record existed are not checked."""
    if not resume:
        return 0, {}
    if model.finetuned != (stage == "finetune"):
        kind = "a fine-tuned" if model.finetuned else "a stage-1"
        raise DataError(f"{stage} cannot resume from {resume}: it is {kind} checkpoint")

    def bad(field: str, what: str) -> DataError:
        return DataError(f"resume checkpoint {resume}: metadata field {field!r} {what}")

    record, optimizer = blob.get(stage, {}), blob.get("optimizer", {})
    if not isinstance(record, dict):
        raise bad(stage, "is not an object")
    if not isinstance(record.get("settings", {}), dict):
        raise bad(f"{stage}.settings", "is not an object")
    for key, value in record.get("settings", {}).items():
        if settings.get(key) != value:
            raise DataError(
                f"{stage} cannot resume from {resume}: it ran with {key}={value!r}, "
                f"this run has {settings.get(key)!r}"
            )
    start = record.get("next_step", 0)
    if type(start) is not int or start < 0:
        raise bad(f"{stage}.next_step", f"must be an integer of at least 0, got {start!r}")
    first = record.get("optimizer_from", 0)
    if type(first) is not int or not 0 <= first <= start:
        raise bad(f"{stage}.optimizer_from", f"must be an integer from 0 to {start}, got {first!r}")
    if optimizer and optimizer["step"] != start - first:
        raise bad("optimizer.step", f"is {optimizer['step']}, not {stage}.next_step {start} "
                                    f"- {stage}.optimizer_from {first}")
    if start > total:
        raise DataError(f"resume checkpoint {resume} is already past step {total} ({start})")
    return start, optimizer


def _save(out: Path, model: Model, opt: OptimizerState, stage: str, record: dict,
          carried: dict | None = None) -> None:
    """Write the checkpoint with ``stage``'s ``record`` after the ``carried``
    records; the record notes as ``optimizer_from`` the step AdamW's count
    began at when that is not 0 (a resume from a version-1 checkpoint)."""
    if record["next_step"] != opt.step:
        record = {**record, "optimizer_from": record["next_step"] - opt.step}
    optimizer = {"step": opt.step, "m": opt.m, "v": opt.v}
    with _output(out / "checkpoint.bin") as path:
        save_checkpoint(str(path), model.store,
                        model.metadata({**(carried or {}), stage: record, "optimizer": optimizer}))


def _run_stage(out: Path, step, corpus: list[Spectrum], batches, start: int, total: int,
               every: int, save) -> list[dict]:
    """The step loop of both training stages; returns the metrics rows.

    Each step draws one batch, so a run resumed at ``start`` skips the
    ``start`` batches drawn before it and then sees what an unbroken run
    would. ``save(next_step)`` runs every ``every`` steps and at the end. On
    a numeric abort the exception propagates (exit code 3) and the last
    periodic checkpoint, if any, stays on disk untouched. A directory in
    place of an output, or of the ``staging_path`` the checkpoint is written
    to first, is the usage error writing it would be, before any step.
    """
    ckpt = out / "checkpoint.bin"
    staged = Path(staging_path(str(ckpt)))
    for path in (ckpt, staged, out / "metrics.csv", out / "manifest.json"):
        if path.is_dir():
            with _output(ckpt if path == staged else path):
                raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR))
    rows = []
    with _output(out / "metrics.csv") as path, path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(METRICS_COLUMNS)
        for i, batch in enumerate(itertools.islice(batches, start, total), start + 1):
            rows.append(step([corpus[j] for j in batch]))
            writer.writerow([rows[-1][c] for c in METRICS_COLUMNS])
            if i % every == 0:
                save(i)
    save(total)
    return rows


def cmd_train(cfg: RunConfig, out: Path) -> int:
    table = AminoAcidTable()
    corpus_path, model_cfg = _require_path(cfg, "corpus", "training spectra"), cfg.model_config()
    corpus, digest = _read_corpus(corpus_path, table, require_truth=True,
                                  max_residues=model_cfg.max_residues)
    settings = _stage_settings(cfg, "train", digest)
    total = settings["stage1_steps"]
    every = cfg.value("training", "checkpoint_every")
    try:
        lr_cfg = LRConfig(settings["base_lr"], settings["warmup_steps"], total)
    except ValueError as e:
        raise UsageError(
            f"bad training.base_lr, training.warmup_steps or training.stage1_steps: {e}"
        ) from e

    resume = cfg.value("paths", "resume")
    if resume:
        model, blob = _load_model(Path(resume), table)
        if model.cfg != model_cfg:
            raise DataError("resume checkpoint's model shape differs from the config")
    else:
        model, blob = Model.build(model_cfg, table, seed=cfg.seed), {}
    start, optimizer = _resume_point(resume, model, blob, "train", total, settings)
    opt = OptimizerState(lr=lr_cfg.base_lr, **optimizer)
    state = TrainState(model, opt, AnnealSchedule(total), lr_cfg, step=start)
    _run_stage(
        out, lambda b: train_stage1_step(model, b, state), corpus,
        _batches(len(corpus), settings["batch_size"], np.random.default_rng([cfg.seed, 1])),
        start, total, every,
        lambda n: _save(out, model, opt, "train", {"next_step": n, "settings": settings}),
    )
    _write_manifest(out, "train", cfg, {
        "steps": total - start,
        "resumed_from_step": start,
        "outputs": {"checkpoint": "checkpoint.bin", "metrics": "metrics.csv"},
    })
    print(f"trained {total - start} steps; checkpoint at {out / 'checkpoint.bin'}")
    return EXIT_OK


def cmd_finetune(cfg: RunConfig, out: Path) -> int:
    table = AminoAcidTable()
    epochs = cfg.value("training", "finetune_epochs")
    every = cfg.value("training", "checkpoint_every")
    corpus_path = _require_path(cfg, "corpus", "training spectra")
    corpus, digest = _read_corpus(corpus_path, table, require_truth=True)
    settings = _stage_settings(cfg, "finetune", digest)
    batch_size = settings["batch_size"]
    total = epochs * -(-len(corpus) // batch_size)  # whole passes over the corpus
    resume = cfg.value("paths", "resume")
    ckpt_in = Path(resume) if resume else _require_path(cfg, "checkpoint", "stage-1 checkpoint")
    model, blob = _load_model(ckpt_in, table)
    start, optimizer = _resume_point(resume, model, blob, "finetune", total, settings)

    frozen = {p: model.store.snapshot(p) for p in ("enc", "nat")}
    for p in frozen:
        model.store.freeze(p)
    opt = OptimizerState(lr=settings["finetune_lr"], **optimizer)
    state = TrainState(model, opt, AnnealSchedule(1), LRConfig(), step=start)
    cache = FeatureCache(model)
    ckpt_out = out / "checkpoint.bin"

    def save(next_step: int) -> None:
        if epochs:
            counters = {"epochs": epochs, "next_step": next_step, "settings": settings}
            _save(out, model, opt, "finetune", counters, {"train": blob.get("train", {})})
        elif ckpt_in.resolve() != ckpt_out.resolve():
            with _output(ckpt_out):  # nothing trained: pass the bytes through
                shutil.copyfile(ckpt_in, ckpt_out)

    rows = _run_stage(
        out, lambda b: finetune_stage2_step(model, b, state, cache), corpus,
        _batches(len(corpus), batch_size, np.random.default_rng([cfg.seed, 2])),
        start, total, every, save,
    )
    unchanged = all(np.array_equal(frozen[p][k], t.values)
                    for p in frozen for k, t in model.store.partition_items(p))
    _write_manifest(out, "finetune", cfg, {
        "epochs": epochs,
        "frozen_partitions_unchanged": unchanged,
        "at_loss_first": rows[0]["at_loss"] if rows else None,
        "at_loss_last": rows[-1]["at_loss"] if rows else None,
        "outputs": {"checkpoint": "checkpoint.bin", "metrics": "metrics.csv"},
    })
    if not unchanged:
        raise DataError("frozen partitions drifted during fine-tuning")
    print(f"fine-tuned {epochs} epochs; checkpoint at {ckpt_out}")
    return EXIT_OK


def cmd_decode(cfg: RunConfig, out: Path) -> int:
    dec = cfg.section("decoding")
    decoder, tol, bin_width = dec["decoder"], dec["pmc_tolerance"], dec["pmc_bin"]
    if decoder not in DECODERS:
        raise UsageError(f"decoding.decoder must be one of {', '.join(DECODERS)}; got {decoder!r}")
    table = AminoAcidTable()
    try:
        PMCConfig(0.0, tol, bin_width).residue_bins(table)
    except ValueError as e:
        raise UsageError(f"bad decoding.pmc_tolerance or decoding.pmc_bin: {e}") from e
    spectra, _ = _read_corpus(_require_path(cfg, "mgf", "spectra to decode"), table, require_truth=False)
    model, _ = _load_model(_require_path(cfg, "checkpoint", "model checkpoint"), table)
    max_len = dec["max_len"] or model.cfg.max_residues

    rows = []
    for s in spectra:
        if decoder == "nat-pmc":
            result, conf = nat_pmc_decode(model, s, tolerance=tol, bin_width=bin_width)
            peptide, flag = result.peptide, result.feasible
        else:
            r = (greedy_at_decode(model, s, max_len=max_len) if decoder == "at-greedy"
                 else beam_search_at(model, s, width=dec["beam_width"], max_len=max_len)[0])
            peptide, conf, flag = r.peptide, r.confidence, r.finished
        rows.append((s.spectrum_id, str(peptide), conf, decoder, str(bool(flag)).lower()))

    pred_path = out / "predictions.csv"
    _write_csv(pred_path, PREDICTION_COLUMNS, rows)
    _write_manifest(out, "decode", cfg, {
        "decoder": decoder,
        "n_spectra": len(rows),
        "outputs": {"predictions": "predictions.csv"},
    })
    print(f"decoded {len(rows)} spectra with {decoder}; predictions at {pred_path}")
    return EXIT_OK


def _read_predictions(path: Path, table: AminoAcidTable) -> list[tuple[str, Peptide, float]]:
    if not path.is_file():
        raise DataError(f"predictions file not found: {path}")
    reader = csv.DictReader(_open_text(path, DataError, newline=""))
    try:  # a line the csv module rejects: a field over its size limit, say
        required = PREDICTION_COLUMNS[:3]
        if reader.fieldnames is None or not set(required) <= set(reader.fieldnames):
            raise DataError(f"{path}: predictions CSV must have columns {sorted(required)}")
        preds, first_line = [], {}
        for row in reader:
            line = reader.line_num
            if None in row.values() or None in row:  # DictReader files extra fields under None
                raise DataError(f"{path} line {line}: {'more' if None in row else 'fewer'} fields than "
                                f"the {len(reader.fieldnames)} columns of the header")
            sid = row["spectrum_id"]
            if sid in first_line:
                raise DataError(f"{path} line {line}: duplicate prediction for spectrum {sid} "
                                f"(first at line {first_line[sid]})")
            first_line[sid] = line
            try:
                pep = Peptide.from_string(row["predicted_sequence"])
                table.ids_of(pep)  # each residue must be in the vocabulary
                conf = float(row["confidence"])
                if np.isnan(conf):  # -inf stays: it marks a missing prediction
                    raise ValueError("confidence is NaN")
            except (VocabularyError, ValueError) as e:
                raise DataError(f"{path} line {line}: {e}") from e
            preds.append((sid, pep, conf))
    except csv.Error as e:  # DictReader counts a line once its row is read: ask its reader
        raise DataError(f"{path} line {reader.reader.line_num}: {e}") from e
    return preds


def cmd_eval(cfg: RunConfig, out: Path) -> int:
    table = AminoAcidTable()
    pred_path = _require_path(cfg, "predictions", "decoder output")
    preds = _read_predictions(pred_path, table)
    truth_spectra, _ = _read_corpus(_require_path(cfg, "truth", "annotated spectra"), table,
                                    require_truth=True)
    truths = {s.spectrum_id: s.truth for s in truth_spectra}
    try:
        report = corpus_eval(preds, truths, table)
    except ValueError as e:
        raise DataError(f"{pred_path}: {e}") from e
    curve = precision_coverage(report)

    _write_csv(out / "summary.csv", ["aa_precision", "peptide_recall"],
               [[report.aa_precision, report.peptide_recall]])
    _write_csv(out / "per_spectrum.csv",
               ["spectrum_id", "confidence", "peptide_correct", "matched_aa", "predicted_aa", "truth_aa"],
               [[r.spectrum_id, r.confidence, str(r.peptide_correct).lower(),
                 r.matched_aa, r.predicted_aa, r.truth_aa] for r in report.rows])
    _write_csv(out / "curve.csv", ["coverage", "value"], curve.points)
    _write_manifest(out, "eval", cfg, {
        "aa_precision": report.aa_precision,
        "peptide_recall": report.peptide_recall,
        "n_spectra": len(report.rows),
        "outputs": {
            "summary": "summary.csv",
            "per_spectrum": "per_spectrum.csv",
            "curve": "curve.csv",
        },
    })
    print(
        f"aa_precision={report.aa_precision:.4f} peptide_recall={report.peptide_recall:.4f} "
        f"over {len(report.rows)} spectra"
    )
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument plumbing


class _Parser(argparse.ArgumentParser):
    """argparse that signals usage problems instead of exiting with code 2."""

    def error(self, message):
        raise UsageError(message)


def _add_shared(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", help="INI config file")
    sub.add_argument("--seed", type=int, help="run seed (overrides training.seed)")
    sub.add_argument("--out", required=True, help="output directory (created if missing)")
    sub.add_argument(
        "--set",
        action="append",
        default=[],
        metavar="SECTION.KEY=VALUE",
        help="override a config value; repeatable",
    )


# Each command: (function, help, [(flag, config key it sets, help)]). Flag
# values are strings here; RunConfig.value checks them.
_COMMANDS = {
    "simulate": (cmd_simulate, "generate an annotated synthetic corpus", [
        ("--n", "simulation.n_spectra", "number of spectra"),
    ]),
    "train": (cmd_train, "stage-1 joint training from scratch", [
        ("--corpus", "paths.corpus", "annotated MGF"),
        ("--resume", "paths.resume", "continue from this checkpoint"),
    ]),
    "finetune": (cmd_finetune, "stage-2 fine-tuning of the sequential decoder", [
        ("--corpus", "paths.corpus", "annotated MGF"),
        ("--checkpoint", "paths.checkpoint", "stage-1 checkpoint"),
        ("--resume", "paths.resume", "continue from this fine-tuning checkpoint"),
    ]),
    "decode": (cmd_decode, "predict peptides for an MGF", [
        ("--mgf", "paths.mgf", "spectra to decode"),
        ("--checkpoint", "paths.checkpoint", "model checkpoint"),
        ("--decoder", "decoding.decoder", ", ".join(DECODERS)),
        ("--beam", "decoding.beam_width", "beam width"),
        ("--tol", "decoding.pmc_tolerance", "nat-pmc mass tolerance in Da"),
    ]),
    "eval": (cmd_eval, "score predictions against annotated truth", [
        ("--predictions", "paths.predictions", "decoder output CSV"),
        ("--truth", "paths.truth", "annotated MGF"),
    ]),
}


def build_parser() -> _Parser:
    parser = _Parser(prog="pepseq", description=__doc__.splitlines()[0])
    subs = parser.add_subparsers(dest="command", required=True)
    for command, (_, command_help, flags) in _COMMANDS.items():
        p = subs.add_parser(command, help=command_help)
        _add_shared(p)
        for flag, key, flag_help in flags:
            p.add_argument(flag, dest=key, help=f"{flag_help} ({key})")
    return parser


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        flags = [f"{key}={value}" for key, value in vars(args).items()
                 if "." in key and value is not None]
        cfg = RunConfig.load(args.config, flags + args.set, args.seed)  # a later --set wins
        out = Path(args.out)
        try:
            out.mkdir(parents=True, exist_ok=True)
        except OSError as e:
            raise UsageError(f"--out {out}: cannot make the output directory ({e.strerror})") from e
        return _COMMANDS[args.command][0](cfg, out)
    except UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except (DataError, CheckpointError, VocabularyError, FileNotFoundError) as e:
        print(f"data error: {e}", file=sys.stderr)
        return EXIT_DATA
    except NumericError as e:
        print(f"numeric failure: {e}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
