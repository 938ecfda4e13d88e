"""Tests of tools/: two runs of identity.py on two fixture spectra print the
same digest for every part, identity.py --against names the one part a
changed tree computes differently and quotes how far a part's floats moved,
and pairs.py summarizes canned runs and runs stub benchmarks in alternating
pairs."""

import importlib.util
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

from numpy.testing import assert_allclose

ROOT = Path(__file__).resolve().parents[1]


def test_identity_digests_repeat_and_cover_every_part():
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    cmd = [sys.executable, str(ROOT / "tools" / "identity.py"), "--limit", "2"]
    runs = [subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)
            for _ in range(2)]
    for run in runs:
        assert run.returncode == 0, run.stderr[-2000:]
    assert runs[0].stdout == runs[1].stdout
    lines = [line.split() for line in runs[0].stdout.splitlines()]
    assert [part for part, _ in lines] == [
        f"{decoder}/{checkpoint}" for checkpoint in ("trained", "untrained")
        for decoder in ("greedy", "beam5", "nat-pmc")
    ] + ["beam5-pool/trained", "beam5-pool/untrained", "train/trained", "train/untrained", "build",
         "mgf"]
    assert all(re.fullmatch("[0-9a-f]{64}", digest) for _, digest in lines)


def test_identity_against_a_tree_names_the_part_that_differs(tmp_path):
    # A tree whose new models draw their weights at another scale: only the
    # freshly built checkpoint differs, the fixture checkpoints' parts do not.
    shutil.copytree(ROOT / "src", tmp_path / "src", ignore=shutil.ignore_patterns("__pycache__"))
    network = tmp_path / "src" / "pepseq" / "network.py"
    text = network.read_text()
    assert text.count("rng.normal(0.0, 0.02,") == 1
    network.write_text(text.replace("rng.normal(0.0, 0.02,", "rng.normal(0.0, 0.03,"))
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    cmd = [sys.executable, str(ROOT / "tools" / "identity.py"), "--limit", "1",
           "--against", str(tmp_path / "src")]
    run = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)
    assert run.returncode == 1, run.stderr[-2000:]
    lines = [line.split() for line in run.stdout.splitlines()]
    assert len(lines) == 12 and all(len(fields) == 4 for fields in lines)
    assert [(part, verdict) for part, ours, theirs, verdict in lines if ours != theirs] == [("build", "DIFF")]
    assert all(verdict == "same" for part, _, _, verdict in lines if part != "build")


def test_identity_against_a_tree_quotes_how_far_its_floats_moved(tmp_path):
    # A tree whose stage-1 rows report the AT loss larger by a relative
    # 2**-40: only the train parts differ, and only in that float field.
    shutil.copytree(ROOT / "src", tmp_path / "src", ignore=shutil.ignore_patterns("__pycache__"))
    training = tmp_path / "src" / "pepseq" / "training.py"
    text = training.read_text()
    old = '"at_loss": float(at_loss.values),'
    assert text.count(old) == 1
    training.write_text(text.replace(old, '"at_loss": float(at_loss.values) * (1 + 2**-40),'))
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    cmd = [sys.executable, str(ROOT / "tools" / "identity.py"), "--limit", "2",
           "--against", str(tmp_path / "src")]
    run = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)
    assert run.returncode == 1, run.stderr[-2000:]
    differ = {fields[0]: fields[3:] for fields in map(str.split, run.stdout.splitlines())
              if fields[3] != "same"}
    assert set(differ) == {"train/trained", "train/untrained"}
    for verdict, gap in differ.values():
        assert verdict == "DIFF" and gap.startswith("max_rel=")
        assert_allclose(float(gap.removeprefix("max_rel=")), 2**-40, rtol=1e-3)  # 3 digits


def test_float_gap_reads_only_float_fields():
    identity = load_tool("identity")
    ours = ["s1 ACD 0x1.0000000000000p+0 True", "s2 EF -inf False"]
    assert identity.float_gap(ours, ours) == 0.0
    assert identity.float_gap(ours, ["s1 ACD 0x1.0000000000001p+0 True", ours[1]]) == 2**-52 / (1 + 2**-52)
    assert identity.float_gap(ours, [ours[0], "s2 EF -0x1.0p+3 False"]) == float("inf")
    assert identity.float_gap(["a 0x0.0p+0"], ["a -0x0.0p+0"]) == 0.0
    assert identity.float_gap(ours, ["s1 ACE 0x1.0000000000000p+0 True", ours[1]]) is None  # a peptide
    assert identity.float_gap(ours, [ours[0], "s2 EF -inf True"]) is None
    assert identity.float_gap(["file 401e2c0b"], ["file 401e2c0c"]) is None  # hex digits, no float
    assert identity.float_gap(ours, ours[:1]) is None


def load_tool(name):
    spec = importlib.util.spec_from_file_location(name, ROOT / "tools" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def load_pairs():
    return load_tool("pairs")


def test_pairs_summary_of_canned_runs():
    pairs = load_pairs()
    metrics = [{"name": "greedy_ms_per_spectrum", "better": "lower", "bound": 0.25},
               {"name": "peak_rss_mb", "better": "lower", "bound": 0.1},
               {"name": "recall", "better": "higher", "bound": 0.1}]
    parent = {1: (10.0, 60.0, 0.5), 2: (12.0, 60.0, 0.5), 3: (14.0, 60.0, 0.5), 4: (16.0, 60.0, 0.5),
              5: (11.0, 60.0, 0.5)}
    change = {1: (8.0, 70.0, 0.5), 2: (13.0, 70.0, 0.75), 3: (11.0, 70.0, 0.25), 4: (12.0, 70.0, 0.5)}
    runs = [{"workload": "w", "seed": seed, "side": side, "failed": int(side == "change" and seed == 4),
             "attempted": 9, "metrics": {"greedy_ms_per_spectrum": g, "peak_rss_mb": rss, "recall": r}}
            for side, values in (("parent", parent), ("change", change))
            for seed, (g, rss, r) in values.items()]
    runs.append({"workload": "w", "seed": 5, "side": "change", "exit": 1, "stderr": "boom"})
    out = pairs.summarize(runs, metrics)["w"]
    # Seed 5 has no change result, so its pair counts nowhere.
    assert out["seeds"] == [1, 2, 3, 4] and out["failed"] == [[0, 0], [0, 0], [0, 0], [0, 1]]
    greedy = out["summary"]["greedy_ms_per_spectrum"]
    assert greedy["parent_q1_median_q3"] == [11.5, 13.0, 14.5]
    assert greedy["change_q1_median_q3"] == [10.25, 11.5, 12.25]
    assert greedy["median_change_pct"] == 100.0 * (11.5 - 13.0) / 13.0
    assert greedy["pairs_change_lower"] == greedy["pairs_change_better"] == 3
    assert greedy["pairs"] == 4 and greedy["within_bound"]
    rss = out["summary"]["peak_rss_mb"]
    assert rss["pairs_change_lower"] == 0 and not rss["within_bound"]  # +16.7 % past its 0.1 bound
    # Higher is better for recall; the two tied pairs count for neither side.
    recall = out["summary"]["recall"]
    assert recall["pairs_change_lower"] == 1 and recall["pairs_change_better"] == 1
    assert recall["within_bound"]

    claim = pairs.claim_result(pairs.summarize(runs, metrics), "w", metrics[0], 10.0)
    assert claim["pairs_change_better"] == 3 and claim["parent_iqr"] == 3.0
    assert claim["median_gap"] == 1.5 and claim["failed_operations"] == 1 and not claim["met"]
    assert pairs.claim_result(pairs.summarize(runs, metrics), "w", metrics[2], 0.0)["pairs_change_better"] == 1
    assert pairs.parse_seeds("7-9") == [7, 8, 9] and pairs.parse_seeds("4") == [4]


def test_pairs_marks_a_metric_unresolved_when_the_parent_spread_passes_its_bound():
    pairs = load_pairs()

    def row(parent, change, bound, better="lower"):
        runs = [{"workload": "w", "seed": seed, "side": side, "failed": 0, "attempted": 1,
                 "metrics": {"m": value}}
                for side, values in (("parent", parent), ("change", change))
                for seed, value in enumerate(values)]
        return pairs.summarize(runs, [{"name": "m", "better": better, "bound": bound}])["w"]["summary"]["m"]

    parent = [10.0, 12.0, 14.0, 16.0]  # IQR 3.0, 23 % of the median 13.0
    assert not row(parent, [11.0, 13.0, 12.0, 14.0], 0.25)["unresolved"]  # spread within the bound
    assert row(parent, [11.0, 13.0, 12.0, 14.0], 0.2)["unresolved"]
    assert not row(parent, [9.0, 8.0, 7.0, 9.5], 0.2)["unresolved"]  # every change run wins
    assert row(parent, [9.0, 8.0, 7.0, 10.0], 0.2)["unresolved"]  # a tie with a parent run is no win
    assert not row(parent, [17.0, 18.0, 20.0, 16.5], 0.2, better="higher")["unresolved"]
    assert row(parent, [17.0, 18.0, 20.0, 15.0], 0.2, better="higher")["unresolved"]
    assert not row([10.0] * 4, [12.0] * 4, 0.1)["unresolved"]  # no spread: the bound decides


# A stand-in for bench/run.py: it logs its tree and seed, and prints a details
# line and a result line with every end-to-end metric at a fixed value. The
# change tree's run of seed 1 fails instead, and the parent tree's run of seed
# 2 exits 0 with no result line.
STUB_RUN = """
import json, sys
from pathlib import Path

args = dict(zip(sys.argv[1::2], sys.argv[2::2]))
side, seed = Path.cwd().name, int(args["--seed"])
with open(Path.cwd().parent / "order.log", "a") as log:
    log.write(f"{side} {seed}\\n")
if side == "change" and seed == 1:
    print("stub failure", file=sys.stderr)
    sys.exit(3)
if side == "parent" and seed == 2:
    print("stub output cut short")
    sys.exit(0)
names = [m["name"] for m in json.loads(Path("BENCHMARK.json").read_text())["end_to_end"]]
print(json.dumps({"facts": {"nproc": 1, "python": "stub", "numpy": "stub", "blas": "stub",
                            "threads": {}}}))
value = 10.0 if side == "parent" else 9.0
print(json.dumps({"failed": 0, "attempted": 5, "metrics": {n: {"value": value} for n in names}}))
"""


def test_pairs_alternates_sides_and_keeps_a_failed_run(tmp_path):
    pairs = load_pairs()
    for side in pairs.SIDES:
        (tmp_path / side / "bench").mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", tmp_path / side)
        (tmp_path / side / "bench" / "run.py").write_text(STUB_RUN)
    out = tmp_path / "BENCH.json"
    assert pairs.main([str(tmp_path / "parent"), str(tmp_path / "change"), "--workload", "train",
                       "--seeds", "0-2", "--claim", "train:greedy_ms_per_spectrum:5",
                       "--out", str(out)]) == 0
    # Pairs 0 and 2 run the parent first, pair 1 the change first.
    assert (tmp_path / "order.log").read_text().splitlines() == [
        "parent 0", "change 0", "change 1", "parent 1", "parent 2", "change 2"]
    result = json.loads(out.read_text())
    failed, malformed = [r for r in result["runs"] if "metrics" not in r]
    assert failed == {"workload": "train", "seed": 1, "side": "change", "exit": 3,
                      "stderr": "stub failure\n"}
    assert malformed.pop("malformed").startswith("no details line and JSON result")
    assert malformed == {"workload": "train", "seed": 2, "side": "parent", "exit": 0,
                         "stdout": "stub output cut short\n"}
    train = result["workloads"]["train"]
    assert train["seeds"] == [0] and train["failed"] == [[0, 0]]  # pairs 1 and 2 count nowhere
    assert {row["pairs"] for row in train["summary"].values()} == {1}
    assert train["summary"]["greedy_ms_per_spectrum"]["median_change_pct"] == -10.0
    # The file has the shape of the checked-in BENCH_20.json.
    bench20 = json.loads((ROOT / "BENCH_20.json").read_text())
    assert set(result) == {"command", "machine", "order", "workloads", "runs", "claim_result"}
    assert set(result) <= set(bench20)
    assert set(train) == set(bench20["workloads"]["train"])
    assert set(bench20["runs"][0]) <= set(result["runs"][0])
