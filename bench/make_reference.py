"""Write reference.json: the outputs the checks in worker.py compare against.

The reference records the program's outputs on every benchmark input:
greedy and beam-5 decodes of the 50 fixture spectra and nat-pmc decodes of
the PMC band, for both checkpoints, and per-spectrum stage-1 and stage-2
losses plus two-step trajectories for each workload's training corpus. It is
made once, by the code the benchmark was defined on, so that later code is
checked against it rather than against itself. Run from the repository root
(about four minutes on one core):

    OPENBLAS_NUM_THREADS=1 python3 bench/make_reference.py
"""

from __future__ import annotations

import json
import sys

import worker

sys.path.insert(0, str(worker.BENCH.parent / "src"))


def main() -> None:
    from pepseq import decoding

    ref = {"decode": {}, "pmc": {}, "training": {}}
    for name, spec in worker.WORKLOADS.items():
        ctx = worker.Context(name, "main")
        weights = ctx.ckpt.split(".")[0]
        if weights not in ref["decode"]:
            model = ctx.model
            greedy, beam = {}, {}
            for s in ctx.decode_spectra:
                greedy[s.spectrum_id] = worker.greedy_record(
                    decoding.greedy_at_decode(model, s, max_len=ctx.max_len))
                beam[s.spectrum_id] = worker.beam_record(
                    decoding.beam_search_at(model, s, width=worker.BEAM_WIDTH,
                                            max_len=ctx.max_len))
            ref["decode"][weights] = {"greedy": greedy, "beam": beam}
            ref["pmc"][weights] = {
                s.spectrum_id: worker.pmc_record(decoding.nat_pmc_decode(
                    model, s, tolerance=worker.PMC_TOLERANCE, bin_width=worker.PMC_BIN)[0])
                for s in ctx.decode_spectra if s.spectrum_id in worker.PMC_BAND
            }
            print(f"{weights}: decodes done", flush=True)
        trainer = worker.Trainer(ctx.model)
        key = f"{weights}/{spec['corpus']}"
        ref["training"][key] = {
            **trainer.sample_losses(ctx.train_spectra),
            "trajectories": trainer.trajectories(ctx.train_spectra),
        }
        print(f"{key}: losses done", flush=True)
    (worker.BENCH / "reference.json").write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
