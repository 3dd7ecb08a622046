"""In-memory span tracing of gravsim's public functions, driven from outside the package.

A traced function is rebound, for the duration of a `with rebound(...)`
block, at every module attribute of the gravsim package that refers to it,
so that callers resolving the name at call time (for example
`gravsim.protocol.attack_round` inside `run_session`) go through a timing
wrapper. Spans are kept in memory as (name, start, end, parent) tuples;
self time is derived afterwards as a span's duration minus the part of it
that its child spans cover. Every binding is restored when the block ends,
also when it ends with an exception.
"""

from __future__ import annotations

import functools
import sys
import time
from contextlib import contextmanager

# (module, attribute path, span name). The attribute path may name a method
# as "Class.method". A target missing from the imported package is skipped,
# so a function that a later version removes reports 0 calls.
TARGETS = (
    ("gravsim.config", "load_config", "config.load_config"),
    ("gravsim.config", "RunConfig.with_overrides", "config.with_overrides"),
    ("gravsim.protocol", "run_session", "protocol.run_session"),
    ("gravsim.attack", "attack_round", "attack.attack_round"),
    ("gravsim.attack", "sense", "attack.sense"),
    ("gravsim.attack", "infer_alice_state", "attack.infer_alice_state"),
    ("gravsim.attack", "analytic_accuracy", "attack.analytic_accuracy"),
    ("gravsim.attack", "monte_carlo_accuracy", "attack.monte_carlo_accuracy"),
    ("gravsim.gravity", "general_field", "gravity.general_field"),
    ("gravsim.qubits", "prepare", "qubits.prepare"),
    ("gravsim.qubits", "eve_dual_basis_measure", "qubits.eve_dual_basis_measure"),
    ("gravsim.qubits", "bob_measure", "qubits.bob_measure"),
    ("gravsim.analysis", "sweep", "analysis.sweep"),
    ("gravsim.analysis", "exclusion_limit", "analysis.exclusion_limit"),
    ("gravsim.analysis", "min_detectable_b", "analysis.min_detectable_b"),
    ("gravsim.cli", "main", "cli.main"),
)

UNIT_SPAN = "unit"


class Tracer:
    """Records one span per call of a wrapped function while `active` is true.

    Spans are (name, start, end, parent index) with parent -1 for a root.
    The tracer follows one thread of calls; it is not meant for code that
    runs traced functions on several threads at once.
    """

    def __init__(self) -> None:
        self.spans: list = []
        self.active = False
        self._current = -1

    def wrap(self, name: str, fn):
        spans = self.spans
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            parent = self._current
            index = len(spans)
            spans.append(None)
            self._current = index
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                spans[index] = (name, start, clock(), parent)
                self._current = parent

        return traced

    def run_unit(self, fn, *args):
        """Call fn(*args) as the root span UNIT_SPAN; returns (result, spans).

        The span list is emptied before the call and handed over after it.
        """
        del self.spans[:]
        self.active = True
        try:
            return self.wrap(UNIT_SPAN, fn)(*args), list(self.spans)
        finally:
            self.active = False
            self._current = -1


def _gravsim_modules() -> list:
    return [
        module
        for name, module in list(sys.modules.items())
        if module is not None and (name == "gravsim" or name.startswith("gravsim."))
    ]


def binding_sites(targets=TARGETS) -> list:
    """(owner, attribute, original, span name) for every place a target is bound.

    A function is bound wherever a gravsim module attribute is the same
    object, which covers `from .x import f` copies; a method is bound on
    its class only.
    """
    sites = []
    modules = _gravsim_modules()
    for module_name, path, span_name in targets:
        owner = sys.modules.get(module_name)
        *outer, attribute = path.split(".")
        for part in outer:
            owner = getattr(owner, part, None)
        original = getattr(owner, attribute, None) if owner is not None else None
        if original is None:
            continue
        if outer:
            sites.append((owner, attribute, original, span_name))
            continue
        for module in modules:
            for name, value in vars(module).items():
                if value is original:
                    sites.append((module, name, original, span_name))
    return sites


@contextmanager
def rebound(tracer: Tracer, targets=TARGETS):
    """Route every binding of the targets through tracer wrappers inside the block."""
    sites = binding_sites(targets)
    wrappers = {}
    try:
        for owner, attribute, original, span_name in sites:
            if id(original) not in wrappers:
                wrappers[id(original)] = tracer.wrap(span_name, original)
            setattr(owner, attribute, wrappers[id(original)])
        yield sites
    finally:
        for owner, attribute, original, _ in sites:
            setattr(owner, attribute, original)


def self_times(spans) -> list[float]:
    """Self time of each span: its duration minus the union of its children.

    Children are clipped to the parent's interval before their union is
    taken, so overlapping children (from concurrent work) are not counted
    twice and a child that outlives its parent is charged only inside it.
    """
    children: dict[int, list] = {}
    for name, start, end, parent in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    result = []
    for index, (name, start, end, parent) in enumerate(spans):
        covered = 0.0
        reach = start
        for child_start, child_end in sorted(children.get(index, ())):
            lo = max(child_start, reach)
            hi = min(child_end, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        result.append((end - start) - covered)
    return result
