"""Seeded fuzz of the command line. Each input file is mutated at random and
run in process through ``cli.main``: MGF spectra through decode (every
decoder) and train, precursors through nat-pmc, the bytes of checkpoint
headers, array names and dims through decode, checkpoint metadata, AdamW
moment shapes and AdamW records through ``--resume``, predictions through eval
and config files through simulate. Every run must end in a documented exit code (0 ok, 1 usage,
2 data, 3 numeric) and raise nothing."""

import json
import math
import random
import struct

import numpy as np
import pytest

from pepseq.cli import DECODERS, main
from pepseq.params import load_checkpoint, save_checkpoint

SMALL = [
    "--seed", "5",
    "--set", "model.d=16",
    "--set", "model.hidden=32",
    "--set", "model.enc_layers=1",
    "--set", "model.at_layers=1",
    "--set", "model.nat_layers=1",
    "--set", "model.t_max=10",
    "--set", "training.stage1_steps=2",
    "--set", "training.warmup_steps=1",
    "--set", "training.batch_size=2",
    "--set", "training.checkpoint_every=1",
    "--set", "training.finetune_epochs=1",
    "--set", "simulation.n_spectra=4",
    "--set", "simulation.min_len=3",
    "--set", "simulation.max_len=4",
]
# Values that replace a field of a mutated line: malformed, out of range,
# non-finite, and precursors far beyond any peptide the model can emit (a
# PEPMASS of 1e308 has a neutral mass that overflows at charge 2 and up).
VALUES = ["", "x", "-1", "0", "1", "0.5", "nan", "inf", "-inf", "2+", "0+", "10+", "11+", "GA",
          "GZ", "3000", "500000", "1e200", "1e308", "BEGIN IONS", "END IONS", "TITLE=dup",
          "100.0 0.0"]
JSON_VALUES = [None, True, -1, 0, 2, 1.7, 10**12, "x", "", [], {}, [1], {"a": 1}]


def run(*argv):
    code = main([str(a) for a in argv])
    assert code in (0, 1, 2, 3)
    return code


def mutate(rng, lines):
    """``lines`` with one to three edits: a deletion, a duplicate, a swap,
    one field of a line replaced (a line splits at its first ``=``, ``,`` or
    space), or, twice as often, the value of a ``KEY=VALUE`` line replaced."""
    lines = list(lines)
    for _ in range(rng.randint(1, 3)):
        if not lines:
            break
        k, op = rng.randrange(len(lines)), rng.randrange(6)
        if op == 0:
            del lines[k]
        elif op == 1:
            lines.insert(k, rng.choice(lines))
        elif op == 2:
            j = rng.randrange(len(lines))
            lines[k], lines[j] = lines[j], lines[k]
        elif op == 3 or not (keyed := [i for i, line in enumerate(lines) if "=" in line]):
            sep = next((s for s in "=, " if s in lines[k]), " ")
            fields = lines[k].split(sep)
            fields[rng.randrange(len(fields))] = rng.choice(VALUES)
            lines[k] = sep.join(fields)
        else:
            k = rng.choice(keyed)
            lines[k] = lines[k].partition("=")[0] + "=" + rng.choice(VALUES)
    return lines


def mutate_text(rng, path, out):
    out.write_text("\n".join(mutate(rng, path.read_text().splitlines())) + "\n")
    return out


def layout(data):
    """(offset, length) of the header (magic, version, array count) and of
    each array's name and of its rank and dims in checkpoint bytes, and the
    offset of the metadata length that follows the arrays."""
    (count,) = struct.unpack_from("<I", data, 8)
    pos, spans = 12, [(0, 12)]
    for _ in range(count):
        (n,) = struct.unpack_from("<H", data, pos)
        rank = data[pos + 2 + n]
        dims = struct.unpack_from(f"<{rank}I", data, pos + 3 + n)
        spans += [(pos + 2, n), (pos + 2 + n, 1 + 4 * rank)]
        pos += 3 + n + 4 * rank + 8 * math.prod(dims)
    return spans, pos


def mutate_bytes(rng, data):
    """Checkpoint bytes with one byte of the header, of an array name or of
    an array's rank and dims set at random."""
    start, n = rng.choice(layout(data)[0])
    k = start + rng.randrange(n)
    return data[:k] + bytes([rng.randrange(256)]) + data[k + 1:]


def mutate_metadata(rng, data):
    """Checkpoint bytes with one value of the closing metadata JSON replaced
    or deleted, or, one time in ten, the JSON text cut short."""
    _, pos = layout(data)
    meta = json.loads(data[pos + 4:])
    if rng.random() < 0.1:
        text = json.dumps(meta).encode()
        text = text[:rng.randrange(len(text))]
    else:
        node = meta  # descend from a random top-level field
        key = rng.choice(list(node))
        while isinstance(node[key], (dict, list)) and node[key] and rng.random() < 0.7:
            node = node[key]
            key = rng.choice(list(node) if isinstance(node, dict) else range(len(node)))
        if isinstance(node, dict) and rng.random() < 0.25:
            del node[key]
        else:
            node[key] = rng.choice(JSON_VALUES)
        text = json.dumps(meta).encode()
    return data[:pos] + struct.pack("<I", len(text)) + text


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """simulate -> train -> finetune -> decode once; the fuzz mutates their files."""
    root = tmp_path_factory.mktemp("fuzz")
    assert run("simulate", "--out", root / "sim", *SMALL) == 0
    mgf = root / "sim" / "spectra.mgf"
    assert run("train", "--out", root / "train", "--corpus", mgf, *SMALL) == 0
    assert run("finetune", "--out", root / "ft", "--corpus", mgf,
               "--checkpoint", root / "train" / "checkpoint.bin", *SMALL) == 0
    assert run("decode", "--out", root / "dec", "--mgf", mgf,
               "--checkpoint", root / "ft" / "checkpoint.bin", *SMALL) == 0
    return root


def test_mutated_mgf_through_decode_and_train(runs, tmp_path):
    rng = random.Random(1)
    for i in range(30):
        mgf = mutate_text(rng, runs / "sim" / "spectra.mgf", tmp_path / f"{i}.mgf")
        for decoder in DECODERS:
            run("decode", "--out", tmp_path / f"{decoder}{i}", "--mgf", mgf, *SMALL,
                "--checkpoint", runs / "ft" / "checkpoint.bin", "--decoder", decoder)
        run("train", "--out", tmp_path / f"train{i}", "--corpus", mgf, *SMALL)


def test_value_mutated_precursors_through_nat_pmc(runs, tmp_path):
    # Precursor masses from 10 Da to 1e301 Da: nat-pmc's arrays grow with
    # the target mass, so one it cannot reach must end before they are made.
    rng = random.Random(6)
    lines = (runs / "sim" / "spectra.mgf").read_text().splitlines()
    for i in range(10):
        mgf = tmp_path / f"{i}.mgf"
        mgf.write_text("".join(
            f"PEPMASS={10 ** rng.uniform(1, 300):.6g}\n" if line.startswith("PEPMASS=")
            else f"CHARGE={rng.randint(1, 10)}+\n" if line.startswith("CHARGE=")
            else line + "\n" for line in lines))
        assert run("decode", "--out", tmp_path / f"dec{i}", "--mgf", mgf, *SMALL,
                   "--checkpoint", runs / "ft" / "checkpoint.bin", "--decoder", "nat-pmc") == 0


def test_mutated_checkpoint_bytes_through_decode(runs, tmp_path):
    rng = random.Random(2)
    data = (runs / "ft" / "checkpoint.bin").read_bytes()
    for i in range(40):
        ckpt = tmp_path / f"{i}.bin"
        ckpt.write_bytes(mutate_bytes(rng, data))
        run("decode", "--out", tmp_path / f"dec{i}", "--mgf", runs / "sim" / "spectra.mgf",
            "--checkpoint", ckpt, *SMALL)


def test_mutated_metadata_through_decode_and_resume(runs, tmp_path):
    rng = random.Random(3)
    mgf = runs / "sim" / "spectra.mgf"
    for i in range(60):
        stage = ("train", "ft")[i % 2]
        ckpt = tmp_path / f"{i}.bin"
        ckpt.write_bytes(mutate_metadata(rng, (runs / stage / "checkpoint.bin").read_bytes()))
        command = "decode" if i % 3 == 0 else ("train", "finetune")[i % 2]
        inputs = (["--mgf", mgf, "--checkpoint", ckpt] if command == "decode"
                  else ["--corpus", mgf, "--resume", ckpt])
        run(command, "--out", tmp_path / f"out{i}", *inputs, *SMALL)


def test_misshapen_moments_through_resume(runs, tmp_path):
    # One saved AdamW moment gets another shape than its parameter, and the
    # run resumes before its last step, so it would update with that moment.
    rng = random.Random(7)
    for i in range(8):
        command, stage = (("train", "train"), ("finetune", "ft"))[i % 2]
        store, blob = load_checkpoint(str(runs / stage / "checkpoint.bin"))
        record = blob[command]
        record["next_step"] = rng.randrange(record["next_step"])
        moments = blob["optimizer"][rng.choice("mv")]
        key = rng.choice(sorted(moments))
        shape = moments[key].shape
        moments[key] = np.zeros(rng.choice([shape[:-1], shape + (1,), shape[:-1] + (shape[-1] + 1,)]))
        ckpt = tmp_path / f"{i}.bin"
        save_checkpoint(str(ckpt), store, blob)
        assert run(command, "--out", tmp_path / f"out{i}", "--corpus", runs / "sim" / "spectra.mgf",
                   "--resume", ckpt, *SMALL) == 2


def test_adamw_record_through_resume(runs, tmp_path):
    # The run resumes before its last step, with its AdamW record dropped
    # while the moment arrays stay, or with the record's step 1 to 3 off the
    # stage's next step: either would update with another bias correction
    # than the unbroken run's.
    rng = random.Random(8)
    for i in range(8):
        command, stage = (("train", "train"), ("finetune", "ft"))[i % 2]
        data = (runs / stage / "checkpoint.bin").read_bytes()
        _, pos = layout(data)
        meta = json.loads(data[pos + 4:])
        meta[command]["next_step"] = start = rng.randrange(meta[command]["next_step"])
        if rng.random() < 0.5:
            del meta["optimizer"]
        else:
            meta["optimizer"]["step"] = start + rng.choice([-3, -2, -1, 1, 2, 3])
        text = json.dumps(meta).encode()
        ckpt = tmp_path / f"{i}.bin"
        ckpt.write_bytes(data[:pos] + struct.pack("<I", len(text)) + text)
        assert run(command, "--out", tmp_path / f"out{i}", "--corpus", runs / "sim" / "spectra.mgf",
                   "--resume", ckpt, *SMALL) == 2


def test_mutated_predictions_through_eval(runs, tmp_path):
    rng = random.Random(4)
    for i in range(30):
        preds = mutate_text(rng, runs / "dec" / "predictions.csv", tmp_path / f"{i}.csv")
        run("eval", "--out", tmp_path / f"eval{i}", "--predictions", preds,
            "--truth", runs / "sim" / "spectra.mgf", *SMALL)


def test_mutated_config_through_simulate(runs, tmp_path):
    base = tmp_path / "base.ini"
    base.write_text("[model]\nd = 16\nt_max = 10\n[training]\nseed = 5\n"
                    "[simulation]\nn_spectra = 3\nmin_len = 3\nmax_len = 4\n"
                    "mz_sigma = 0.01\ndrop_prob = 0.1\nn_noise_peaks = 2\n")
    rng = random.Random(5)
    for i in range(30):
        ini = mutate_text(rng, base, tmp_path / f"{i}.ini")
        run("simulate", "--out", tmp_path / f"sim{i}", "--config", ini)
