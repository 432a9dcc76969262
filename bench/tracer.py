"""Per-layer spans for a traced pass, recorded from outside the program.

`Tracer.install` wraps the public functions of each hornkit module, and the
public methods of its public classes, at every module attribute that refers
to them (so `hornkit.solver.persistent_solutions` and
`hornkit.cli.persistent_solutions` share one wrapper), plus the callback of
every CLI command.  A span's self time is its duration minus the part its
child spans cover; it is added to its module's layer and, for the functions
in NAMED and the same-layer helpers they call, to a metric of their own.  The tracer's own bookkeeping is taken
off the clock it measures spans with.  `remove` restores every original.
"""

from __future__ import annotations

import sys
from collections import defaultdict
from time import perf_counter
from types import FunctionType

LAYERS = ("cli", "system", "polygon", "counting", "atomic", "series", "solver",
          "operators", "puiseux")

# Helpers called once per lattice point or per term.  Wrapping them would
# cost more than they do; their time shows in their callers' self time, as
# does that of everything in `hornkit.lattice` and of `Fraction`.
UNWRAPPED = {"operators.eval_factors", "operators.AffineFactor.eval",
             "puiseux.format_rational", "puiseux.parse_rational"}

NAMED = {
    "series.grow_component": "series.grow",
    "series.harvest_polynomials": "series.harvest",
    "series.series_from_submatrix": "series.table",
    "series.branch_base_points": "series.branch_points",
    "solver.persistent_solutions": "solver.persistent",
    "solver.check_constructive": "solver.constructive",
    "solver.independent_dimension": "solver.independent",
    "operators.is_solution": "operators.verify",
}


def _count_grow(tr: "Tracer", args, kwargs, result) -> None:
    tr.counts["series.grow.calls"] += 1
    if tr.depth["series.harvest"]:
        tr.counts["series.harvest.starts"] += 1
    if result is None:  # resonant collision
        return
    tr.counts["series.grow.points"] += len(result.values)
    tr.counts["series.grow.escaped"] += bool(result.exceeded)
    bits = max((max(v.numerator.bit_length(), v.denominator.bit_length())
                for v in result.values.values()), default=0)
    tr.maxima["series.grow.coeff_bits_max"] = max(tr.maxima["series.grow.coeff_bits_max"], bits)


def _count_harvest(tr: "Tracer", args, kwargs, result) -> None:
    tr.counts["series.harvest.calls"] += 1
    for r in result or ():
        tr.counts[f"series.harvest.{r.outcome}"] += 1


def _count_persistent(tr: "Tracer", args, kwargs, result) -> None:
    tr.counts["solver.persistent.calls"] += 1


def _count_verify(tr: "Tracer", args, kwargs, result) -> None:
    tr.counts["operators.verify.calls"] += 1
    f = args[0] if args else kwargs["f"]
    tr.counts["operators.verify.terms"] += len(f.terms)


COUNTERS = {
    "series.grow_component": _count_grow,
    "series.harvest_polynomials": _count_harvest,
    "solver.persistent_solutions": _count_persistent,
    "operators.is_solution": _count_verify,
}


class Tracer:
    def __init__(self):
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self.maxima: dict[str, int] = defaultdict(int)
        self.depth: dict[str, int] = defaultdict(int)
        self.present: set[str] = set()  # layers and NAMED metrics that exist
        self._stack: list[list] = []  # [virtual start, child span total, layer, metric]
        self._excluded = 0.0
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, layer: str, qual: str, fn):
        own_name = NAMED.get(qual)
        counter = COUNTERS.get(qual)
        stack, self_s, depth = self._stack, self.self_s, self.depth

        def traced(*args, **kwargs):
            # A function without a metric of its own adds its self time to
            # the metric of the innermost enclosing span of its own layer.
            named = own_name
            if named is None and stack and stack[-1][2] == layer:
                named = stack[-1][3]
            frame = [perf_counter() - self._excluded, 0.0, layer, named]
            stack.append(frame)
            if own_name:
                depth[own_name] += 1
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                leave = perf_counter()
                span = leave - self._excluded - frame[0]
                stack.pop()
                own = span - frame[1]
                self_s[layer] += own
                if named:
                    self_s[named] += own
                if own_name:
                    depth[own_name] -= 1
                if stack:
                    stack[-1][1] += span
                if counter:
                    counter(self, args, kwargs, result)
                self._excluded += perf_counter() - leave

        return traced

    def _patch(self, owner, name: str, value) -> None:
        self._patches.append((owner, name, vars(owner)[name]))
        setattr(owner, name, value)

    def install(self):
        """Wrap the loaded hornkit package; return the traced `cli.main`."""
        modules = {n: m for n, m in list(sys.modules.items())
                   if n == "hornkit" or n.startswith("hornkit.")}
        wrappers: dict = {}
        for layer in LAYERS:
            mod = modules.get(f"hornkit.{layer}")
            if mod is None:
                continue
            self.present.add(layer)
            for name, obj in list(vars(mod).items()):
                qual = f"{layer}.{name}"
                if name.startswith("_") or qual in UNWRAPPED or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if isinstance(obj, FunctionType):
                    wrappers[obj] = self._wrap(layer, qual, obj)
                    if qual in NAMED:
                        self.present.add(NAMED[qual])
                elif isinstance(obj, type):
                    self._wrap_methods(layer, qual, obj)
        for obj in modules.values():
            for name, value in list(vars(obj).items()):
                if isinstance(value, FunctionType) and value in wrappers:
                    self._patch(obj, name, wrappers[value])
        cli = modules["hornkit.cli"]
        for command in cli.main.commands.values():
            self._patch(command, "callback", self._wrap("cli", f"cli.{command.name}", command.callback))
        return self._wrap("cli", "cli.main", cli.main)

    def _wrap_methods(self, layer: str, qual: str, cls: type) -> None:
        for name, member in list(vars(cls).items()):
            mqual = f"{qual}.{name}"
            if name.startswith("_") or mqual in UNWRAPPED:
                continue
            if isinstance(member, staticmethod):
                self._patch(cls, name, staticmethod(self._wrap(layer, mqual, member.__func__)))
            elif isinstance(member, classmethod):
                self._patch(cls, name, classmethod(self._wrap(layer, mqual, member.__func__)))
            elif isinstance(member, FunctionType):
                self._patch(cls, name, self._wrap(layer, mqual, member))

    def remove(self) -> None:
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)
