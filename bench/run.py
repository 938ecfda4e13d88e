"""Benchmark of pepseq: training steps, AT decoding and nat-pmc decoding.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a repository checkout. Workloads are ``train``,
``decode-trained`` and ``decode-untrained`` (README.md says why each
exists). Every run verifies the fixture's sha256 sums, then starts the
interpreter directly for each child, one at a time, with one BLAS and
OpenMP thread:

* four set-up children, which only set the workload up (set-up samples),
  half of them before the other children and half after;
* the main child: greedy and beam-5 decoding and stage-1 and stage-2
  training steps, interleaved for ``--seconds`` seconds in fixed shares;
* the nat-pmc child, which decodes spectra of the PMC band at the default
  0.001 Da bin until ``--seconds`` have passed, at least one, with a memory
  probe child just before and just after it.

Each op time is scaled by a probe of the machine's speed taken around it:
in the same child for the main child's operations (``worker.Calibrator``),
in the probe children for nat-pmc (``worker.MemoryProbe``). README.md says
why.

With ``--trace 1`` the main and nat-pmc children run twice, untraced and
traced, and the per-layer metrics and the tracing overhead are reported;
otherwise the end-to-end metrics are. One line of run details (machine
facts, operation counts, recalls, any failed checks) precedes the result,
which is the last line of standard output.

Exit codes: 0 with a result, 1 when a child fails or runs out of time, 2
when the program or the reference is missing, 3 when the fixture does not
match its recorded sha256 sums.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

import worker

# Set-up children run half before and half after the timed children, so
# the median of set-up times spans the run.
SETUP_CHILDREN = 4
# Every child is killed once the run has taken this long, so that a run
# ends within three minutes.
DEADLINE_S = 170.0
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
# Median times of the calibration kernel (worker.Calibrator) and of the
# memory probe's kernel (worker.MemoryProbe) on the 2-CPU machine the
# benchmark was defined on. Reported times are scaled to this speed; see
# README.md.
CALIB_REF_MS = 1.35
MEMORY_PROBE_REF_MS = 90.0

END_TO_END_UNITS = {
    "setup_s": "s",
    "stage1_step_ms": "ms",
    "stage2_step_ms": "ms",
    "greedy_ms_per_spectrum": "ms",
    "beam_ms_per_spectrum": "ms",
    "pmc_ms_per_spectrum": "ms",
    "peak_rss_mb": "MB",
    "pmc_peak_rss_mb": "MB",
}
# Timed phase -> the end-to-end metric that is its median op time.
PHASE_METRIC = {
    "stage1": "stage1_step_ms",
    "stage2": "stage2_step_ms",
    "greedy": "greedy_ms_per_spectrum",
    "beam": "beam_ms_per_spectrum",
    "pmc": "pmc_ms_per_spectrum",
}
PER_LAYER_UNITS = {
    "autodiff.backward_ms": "ms",
    "autodiff.backward_ms_stage2": "ms",
    "autodiff.tensors_per_step": "count",
    "spectra.encode_float_calls_per_step": "count",
    "spectra.encode_float_ms_per_step": "ms",
    "spectra.encode_float_calls_per_spectrum": "count",
    "network.encoder_ms_per_step": "ms",
    "network.nat_ms_per_step": "ms",
    "network.at_ms_per_step": "ms",
    "network.at_forward_calls_per_step": "count",
    "network.at_forward_calls_per_spectrum.greedy": "count",
    "network.at_forward_calls_per_spectrum.beam": "count",
    "network.at_ms_per_spectrum.greedy": "ms",
    "network.at_ms_per_spectrum.beam": "ms",
    "network.nat_ms_per_spectrum": "ms",
    "training.ctc_ms_per_step": "ms",
    "training.step_self_ms": "ms",
    "training.feature_cache_hit_ratio": "ratio",
    "optim.adamw_ms_per_step": "ms",
    "optim.adamw_ms_per_step_stage2": "ms",
    "params.load_checkpoint_ms": "ms",
    "mgf.parse_ms": "ms",
    "decoding.greedy_self_ms_per_spectrum": "ms",
    "decoding.beam_self_ms_per_spectrum": "ms",
    "decoding.pmc_dp_ms_per_spectrum": "ms",
    "decoding.pmc_feasible_ratio": "ratio",
    "metrics.eval_ms": "ms",
    "metrics.greedy_recall": "ratio",
    "metrics.beam_recall": "ratio",
    "metrics.pmc_recall": "ratio",
    **{f"trace.unattributed_share.{phase}": "ratio" for phase in PHASE_METRIC},
    **{f"trace.overhead_ms.{metric}": "ms" for metric in PHASE_METRIC.values()},
}


def die(message: str, code: int) -> None:
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(code)


def verify_fixture() -> dict:
    sums = {}
    for line in (worker.FIXTURE / "SHA256SUMS").read_text().splitlines():
        digest, name = line.split()
        actual = hashlib.sha256((worker.FIXTURE / name).read_bytes()).hexdigest()
        if actual != digest:
            die(f"fixture {name} has sha256 {actual}, expected {digest}", 3)
        sums[name] = digest
    return sums


class Children:
    def __init__(self, args):
        self.args = args
        self.deadline = time.monotonic() + DEADLINE_S
        self.env = {**os.environ, **THREAD_ENV, "PYTHONDONTWRITEBYTECODE": "1"}

    def run(self, role: str, trace: int = 0) -> dict:
        a = self.args
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            die(f"out of time before the {role} child", 1)
        cmd = [sys.executable, str(worker.BENCH / "worker.py"), role,
               "--workload", a.workload, "--seed", str(a.seed), "--seconds", str(a.seconds),
               "--trace", str(trace), "--spawned-at", repr(time.monotonic())]
        try:
            done = subprocess.run(cmd, cwd=worker.BENCH.parent, env=self.env,
                                  capture_output=True, text=True, timeout=remaining)
        except subprocess.TimeoutExpired:
            die(f"the {role} child ran past the {DEADLINE_S:.0f} s deadline", 1)
        if done.returncode != 0:
            die(f"the {role} child exited with {done.returncode}:\n{done.stderr[-3000:]}", 1)
        return json.loads(done.stdout.strip().splitlines()[-1])

    def run_pmc(self, trace: int = 0) -> dict:
        """The nat-pmc child between two memory probes; each decode's
        ``calib`` is their mean."""
        before = self.run("probe")["probe_s"]
        result = self.run("pmc", trace)
        after = self.run("probe")["probe_s"]
        result["calib"]["pmc"] = [(before + after) / 2] * len(result["times"]["pmc"])
        return result


def median_ms(times: list[float]) -> float:
    return 1000.0 * statistics.median(times)


def at_reference_speed(phase: str, times: list[float], calib: list[float]) -> float:
    """Median over operations of the op time in ms, each scaled by how much
    slower than the reference the phase's probe kernel ran around it."""
    ref_ms = MEMORY_PROBE_REF_MS if phase == "pmc" else CALIB_REF_MS
    return ref_ms * statistics.median(t / c for t, c in zip(times, calib))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(worker.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        die("--seed must be non-negative and --seconds positive", 2)

    root = worker.BENCH.parent
    if not (root / "src" / "pepseq" / "__init__.py").is_file():
        die(f"no pepseq sources under {root / 'src'}; run from a repository checkout", 2)
    if not worker.REFERENCE.is_file():
        die(f"missing {worker.REFERENCE}", 2)
    fixture = verify_fixture()

    children = Children(args)
    n_setup = 0 if args.trace else SETUP_CHILDREN // 2
    setups = [children.run("setup") for _ in range(n_setup)]
    plain = [children.run("main"), children.run_pmc()]
    traced = [children.run("main", 1), children.run_pmc(1)] if args.trace else []
    setups += [children.run("setup") for _ in range(n_setup)]
    everything = setups + plain + traced
    attempted = sum(r.get("attempted", 0) for r in everything)
    failed = sum(r.get("failed", 0) for r in everything)

    main_run, pmc_run = plain
    times = {**main_run["times"], **pmc_run["times"]}
    calib = {**main_run["calib"], **pmc_run["calib"]}
    main_calib = [c for cs in main_run["calib"].values() for c in cs]
    details = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "facts": {**main_run["facts"], "fixture_sha256": fixture},
        "operations": {phase: len(t) for phase, t in times.items()},
        "calibration_ms": {phase: median_ms(c) for phase, c in calib.items()},
        "unscaled_ms": {PHASE_METRIC[k]: median_ms(t) for k, t in times.items()},
        "recall": {**main_run["recall"], **pmc_run["recall"]},
        "failures": [m for r in everything for m in r.get("failures", [])],
    }
    if setups:
        details["unscaled_setup_s"] = statistics.median(r["setup_s"] for r in setups + [main_run])
    print(json.dumps(details))

    if args.trace:
        main_traced, pmc_traced = traced
        values = {**main_traced["layers"], **pmc_traced["layers"]}
        for phase, metric in PHASE_METRIC.items():
            # Both runs of one seed start with the same operations; compare those.
            plain_run, traced_run = (pmc_run, pmc_traced) if phase == "pmc" else (main_run, main_traced)
            n = min(len(plain_run["times"][phase]), len(traced_run["times"][phase]))
            values[f"trace.overhead_ms.{metric}"] = (
                at_reference_speed(phase, traced_run["times"][phase][:n], traced_run["calib"][phase])
                - at_reference_speed(phase, plain_run["times"][phase][:n], plain_run["calib"][phase]))
        units = PER_LAYER_UNITS
    else:
        values = {metric: at_reference_speed(phase, times[phase], calib[phase])
                  for phase, metric in PHASE_METRIC.items()}
        values["setup_s"] = (statistics.median(r["setup_s"] for r in setups + [main_run])
                             * CALIB_REF_MS / median_ms(main_calib))
        values["peak_rss_mb"] = main_run["rss_mb"]
        values["pmc_peak_rss_mb"] = pmc_run["rss_mb"]
        units = END_TO_END_UNITS
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": unit} for k, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
