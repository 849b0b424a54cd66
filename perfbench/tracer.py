"""Spans and counters around the layers of sympt, recorded from outside.

Nothing under src/ knows about this module.  install() replaces the named
functions of each layer module in every loaded ``sympt`` module that holds
them (so ``from .plcore import inverse_pl`` in thompson is covered too), and
patches a few methods on their classes.  Each call then leaves a span
(name, start, end, parent) in memory; hot, tiny calls only bump counters.
summarize() turns the spans into calls, busy time and self time, where self
time is a span's duration minus the time its direct child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from collections import defaultdict
# the layers run in this process, so its own CPU clock is enough here
from time import process_time

# Functions timed as spans, by layer module.  Some are wrapped only so that
# their time is not booked as self time of the layer that calls them.
SPANS = {
    "words": ("check_suite", "evaluate"),
    "plcore": ("compose_pl", "inverse_pl"),
    "thompson": ("dyadic_compose", "treepair_compose", "plaut_to_dyadic",
                 "dyadic_to_plaut", "vector_to_dyadic", "dyadic_to_vector",
                 "cfp_generators", "plaut_to_treepair", "treepair_to_plaut",
                 "dyadic_to_treepair", "treepair_to_dyadic"),
    "birational": ("word_equals_identity", "compose_bir", "reduce_fraction"),
    "picard": ("word_acts_as_identity", "gamma_action", "mu_Wq_action",
               "mu_Wq_inverse", "v_membership"),
    "quantum": ("word_acts_as_identity", "q_apply", "q_apply_inverse",
                "make_config"),
}

LAYERS = ("words", "plcore", "thompson", "birational", "picard", "quantum")


class Tracer:
    """In-memory span and counter store for one traced phase."""

    def __init__(self):
        # each span is [name, start, end, parent index, outermost of its name]
        self.spans: list[list] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.maxima: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self._active: dict[str, int] = defaultdict(int)

    def call(self, name, fn, *args, after=None, **kwargs):
        """Run fn inside a span called name; after(result) sees the result."""
        spans, stack, active = self.spans, self._stack, self._active
        span = [name, 0.0, 0.0, stack[-1] if stack else -1, active[name] == 0]
        stack.append(len(spans))
        spans.append(span)
        active[name] += 1
        span[1] = process_time()
        try:
            result = fn(*args, **kwargs)
        finally:
            span[2] = process_time()
            stack.pop()
            active[name] -= 1
        if after is not None:
            after(result)
        return result

    def wrap(self, name, fn, after=None):
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, after=after, **kwargs)
        return functools.wraps(fn)(traced)

    def note_max(self, name, value):
        if value > self.maxima[name]:
            self.maxima[name] = value

    def summarize(self) -> dict:
        """Per span name: calls, busy_s (outermost spans only) and self_s;
        per layer: self_s; plus the total time of the root spans."""
        spans = self.spans
        covered = [0.0] * len(spans)
        for _, start, end, parent, _ in spans:
            if parent >= 0:
                covered[parent] += end - start
        names: dict[str, dict] = defaultdict(
            lambda: {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
        layer_self = dict.fromkeys(LAYERS, 0.0)
        root_s = 0.0
        for i, (name, start, end, parent, outer) in enumerate(spans):
            row = names[name]
            row["calls"] += 1
            if outer:
                row["busy_s"] += end - start
            own = end - start - covered[i]
            row["self_s"] += own
            layer = name.split(".", 1)[0]
            if layer in layer_self:
                layer_self[layer] += own
            if parent < 0:
                root_s += end - start
        return {"names": dict(names), "layer_self_s": layer_self,
                "root_s": root_s}

    def write(self, path) -> None:
        """Write every span and counter as JSON (times relative to the
        first span)."""
        index: dict[str, int] = {}
        base = self.spans[0][1] if self.spans else 0.0
        rows = [[index.setdefault(name, len(index)), round(start - base, 7),
                 round(end - base, 7), parent]
                for name, start, end, parent, _ in self.spans]
        doc = {"fields": ["name", "start_s", "end_s", "parent"],
               "names": list(index), "spans": rows,
               "counts": dict(self.counts), "maxima": dict(self.maxima)}
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(doc, separators=(",", ":")))


def _replace(old, new) -> None:
    for name, module in list(sys.modules.items()):
        if name == "sympt" or name.startswith("sympt."):
            for attr, value in list(vars(module).items()):
                if value is old:
                    setattr(module, attr, new)


def install(tracer: Tracer) -> None:
    """Wrap the layer functions of the already imported sympt modules."""
    mods = {name: importlib.import_module("sympt." + name) for name in LAYERS}
    counts = tracer.counts

    def dyadic_bits(d):
        tracer.note_max("thompson.denominator_bits", max(
            x.denominator.bit_length() for pt in d.points for x in pt))

    def resamples(verdict):
        counts["quantum.singular_resamples"] += (
            verdict["evidence"]["singular_resamples"])

    after = {
        "plcore.compose_pl":
            lambda f: tracer.note_max("plcore.breakpoints", len(f.rays)),
        "thompson.dyadic_compose": dyadic_bits,
        "thompson.treepair_compose":
            lambda t: tracer.note_max("thompson.tree_leaves", t.leaf_count),
        "quantum.word_acts_as_identity": resamples,
    }
    for layer, names in SPANS.items():
        for fname in names:
            old = getattr(mods[layer], fname)
            key = layer + "." + fname
            _replace(old, tracer.wrap(key, old, after.get(key)))

    picard, birational = mods["picard"], mods["birational"]
    picard.PicOperator.__call__ = tracer.wrap(
        "picard.PicOperator.call", picard.PicOperator.__call__)

    picvec_init = picard.PicVec.__init__

    def counted_picvec_init(self, *args, **kwargs):
        picvec_init(self, *args, **kwargs)
        counts["picard.picvec_built"] += 1
        tracer.note_max("picard.terms", len(self.terms))

    picard.PicVec.__init__ = counted_picvec_init

    apply_mod = birational.BirMap.apply_mod

    def counted_apply_mod(self, *args, **kwargs):
        counts["birational.apply_mod.calls"] += 1
        return apply_mod(self, *args, **kwargs)

    birational.BirMap.apply_mod = counted_apply_mod

    apply_word_mod = birational._apply_word_mod

    def counted_apply_word_mod(*args, **kwargs):
        counts["birational.sample_attempts"] += 1
        try:
            return apply_word_mod(*args, **kwargs)
        except ZeroDivisionError:
            counts["birational.pole_rejections"] += 1
            raise

    _replace(apply_word_mod, counted_apply_word_mod)
