"""Span tracing by wrapping public names of the pepseq modules.

Each wrapped name is replaced where its callers look it up (a module global
or a class attribute), so the program itself is untouched. A call records a
span with its start, end and the span that was open when it began. Spans
stay in memory until ``take`` reduces each finished top-level span to
per-name call counts, total times and self times (a span's duration minus
the durations of the spans directly inside it), outside any timed region.
``Tensor`` construction is counted, not timed. Wrapping lasts for the life
of the process.
"""

from __future__ import annotations

import time


class Span:
    __slots__ = ("name", "start", "end", "children", "tensors")

    def __init__(self, name: str):
        self.name = name
        self.children: list[Span] = []


class Root:
    """A finished top-level span, reduced to per-name totals."""

    __slots__ = ("name", "seconds", "tensors", "by_name")

    def __init__(self, span: Span):
        self.name = span.name
        self.seconds = span.end - span.start
        self.tensors = span.tensors
        # name -> [calls, total seconds, self seconds]; the root is included.
        self.by_name: dict[str, list] = {}
        stack = [span]
        while stack:
            sp = stack.pop()
            dur = sp.end - sp.start
            rec = self.by_name.setdefault(sp.name, [0, 0.0, 0.0])
            rec[0] += 1
            rec[1] += dur
            rec[2] += dur - sum(c.end - c.start for c in sp.children)
            stack.extend(sp.children)

    def calls(self, name: str) -> int:
        return self.by_name.get(name, (0, 0.0, 0.0))[0]

    def total_ms(self, name: str) -> float:
        return 1000.0 * self.by_name.get(name, (0, 0.0, 0.0))[1]

    def self_ms(self, name: str) -> float:
        return 1000.0 * self.by_name.get(name, (0, 0.0, 0.0))[2]


class Tracer:
    def __init__(self):
        self.tensors = 0
        self._stack: list[Span] = []
        self._roots: list[Span] = []

    def wrap(self, owner, attr: str, name: str) -> None:
        """Replace ``owner.attr`` by a traced version recording spans named ``name``."""
        original = getattr(owner, attr)
        stack = self._stack
        tracer = self

        def traced(*args, **kwargs):
            span = Span(name)
            first_tensor = tracer.tensors
            stack.append(span)
            span.start = time.perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                span.tensors = tracer.tensors - first_tensor
                stack.pop()
                if stack:
                    stack[-1].children.append(span)
                else:
                    tracer._roots.append(span)

        setattr(owner, attr, traced)

    def count_constructions(self, cls) -> None:
        """Count every ``cls(...)`` construction in ``self.tensors``."""
        original = cls.__init__
        tracer = self

        def init(obj, *args, **kwargs):
            tracer.tensors += 1
            original(obj, *args, **kwargs)

        cls.__init__ = init

    def take(self) -> list[Root]:
        """Top-level spans finished since the last call, reduced."""
        roots, self._roots = self._roots, []
        return [Root(span) for span in roots]


def install(tracer: Tracer) -> None:
    """Wrap the layer boundaries the per-layer metrics are made of."""
    from pepseq import autodiff, decoding, metrics, mgf, network, params, spectra, training

    for owner, attr, name in (
        (spectra, "encode_float", "spectra.encode_float"),
        (network, "encode_float", "spectra.encode_float"),
        (network, "embed_peak", "spectra.embed_peak"),
        (network.Model, "encode_spectrum", "network.encoder"),
        (network.Model, "nat_forward", "network.nat"),
        (network.Model, "at_forward", "network.at"),
        (autodiff, "backward", "autodiff.backward"),
        (training, "ctc_loss", "training.ctc"),
        (training, "adamw_step", "optim.adamw"),
        (training.FeatureCache, "get", "training.feature_cache_get"),
        (training, "train_stage1_step", "training.stage1_step"),
        (training, "finetune_stage2_step", "training.stage2_step"),
        (decoding, "greedy_at_decode", "decoding.greedy"),
        (decoding, "beam_search_at", "decoding.beam"),
        (decoding, "nat_pmc_decode", "decoding.nat_pmc"),
        (decoding, "pmc_decode", "decoding.pmc_dp"),
        (params, "load_checkpoint", "params.load_checkpoint"),
        (mgf, "parse_mgf", "mgf.parse"),
        (metrics, "corpus_eval", "metrics.eval"),
    ):
        tracer.wrap(owner, attr, name)
    tracer.count_constructions(autodiff.Tensor)
