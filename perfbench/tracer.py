"""Spans around calls into ribbonfold's public functions.

The tracer replaces a function with a wrapper in every ribbonfold module
that holds it, including the modules that import it from another one, so
a call from one layer into another nests inside the caller's span.  Spans
stay in memory until the run ends.  A span's self time is its duration
minus the durations of its child spans.
"""

from __future__ import annotations

import json
import time
from typing import Callable, Dict, List, Optional, Sequence

MODULES = ("fold_core", "constructions", "formulas", "knot_id", "render", "cli")

# (module, function, span name, size of one call from (args, result))
TARGETS = (
    ("constructions", "build", "constructions.build", None),
    ("fold_core", "layout_from_centerline", "fold_core.layout_from_centerline", None),
    ("fold_core", "unfold", "fold_core.unfold", None),
    ("fold_core", "layout", "fold_core.layout", lambda args, out: len(out.panels)),
    ("knot_id", "extract_diagram", "knot_id.extract_diagram",
     lambda args, out: out.crossing_count),
    ("knot_id", "alexander_polynomial", "knot_id.alexander_polynomial",
     lambda args, out: args[0].crossing_count - 1),
    ("formulas", "quotient_table", "formulas.quotient_table", None),
    ("render", "to_svg", "render.to_svg", lambda args, out: len(out)),
)


class Span:
    __slots__ = ("name", "parent", "start", "end", "size", "note")

    def __init__(self, name: str, parent: int, note: Optional[str]):
        self.name = name
        self.parent = parent
        self.start = time.perf_counter()
        self.end = self.start
        self.size = None
        self.note = note


class Tracer:
    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._stack: List[int] = []
        self._undo: List[Callable[[], None]] = []

    def call(self, name: str, fn, args, kwargs, size=None, note=None):
        index = len(self.spans)
        span = Span(name, self._stack[-1] if self._stack else -1, note)
        self.spans.append(span)
        self._stack.append(index)
        try:
            out = fn(*args, **kwargs)
        finally:
            span.end = time.perf_counter()
            self._stack.pop()
        if size is not None:
            span.size = size(args, out)
        return out

    def _wrap(self, name: str, fn, size):
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs, size)
        return traced

    def _wrap_cli_main(self, fn):
        def traced(argv):
            return self.call("cli." + argv[0], fn, (argv,), {}, note=" ".join(argv))
        return traced

    def _replace_everywhere(self, rf, original, wrapper) -> None:
        for holder in [rf] + [getattr(rf, name) for name in MODULES]:
            for attr, value in list(vars(holder).items()):
                if value is original:
                    setattr(holder, attr, wrapper)
                    self._undo.append(
                        lambda h=holder, a=attr, v=value: setattr(h, a, v))

    def install(self, rf) -> None:
        for module, attr, name, size in TARGETS:
            original = getattr(getattr(rf, module), attr)
            self._replace_everywhere(rf, original, self._wrap(name, original, size))
        main = rf.cli.main
        self._replace_everywhere(rf, main, self._wrap_cli_main(main))
        program = rf.fold_core.FoldProgram
        to_json = program.__dict__["to_json"]
        from_json = program.__dict__["from_json"]
        program.to_json = self._wrap("fold_core.json", to_json, None)
        program.from_json = classmethod(
            self._wrap("fold_core.json", from_json.__func__, None))
        self._undo.append(lambda: setattr(program, "to_json", to_json))
        self._undo.append(lambda: setattr(program, "from_json", from_json))

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()

    # --------------------------------------------------------- summaries

    def totals(self) -> Dict[str, Dict[str, float]]:
        """Calls, self seconds and summed size per span name."""
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent >= 0:
                child_time[span.parent] += span.end - span.start
        out: Dict[str, Dict[str, float]] = {}
        for span, children in zip(self.spans, child_time):
            entry = out.setdefault(span.name, {"calls": 0, "self_s": 0.0, "size": 0})
            entry["calls"] += 1
            entry["self_s"] += (span.end - span.start) - children
            entry["size"] += span.size or 0
        return out

    def calls_under(self, name: str, flag: str, child: str) -> float:
        """Mean number of ``child`` spans inside each ``name`` span whose
        note contains ``flag``; 0 when there is no such span."""
        children: Dict[int, List[int]] = {}
        for index, span in enumerate(self.spans):
            children.setdefault(span.parent, []).append(index)
        counts = []
        for index, span in enumerate(self.spans):
            if span.name != name or flag not in (span.note or "").split():
                continue
            count = 0
            todo = list(children.get(index, ()))
            while todo:
                sub = todo.pop()
                count += self.spans[sub].name == child
                todo.extend(children.get(sub, ()))
            counts.append(count)
        return sum(counts) / len(counts) if counts else 0.0

    def dump(self, path: str) -> None:
        rows = [
            {"name": s.name, "parent": s.parent, "start": s.start, "end": s.end,
             "size": s.size, "note": s.note}
            for s in self.spans
        ]
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(rows, handle)


def per_layer_metrics(tracer: Tracer, passes: int) -> Dict[str, Sequence]:
    """The per-layer metrics as name -> (value, unit), per traced pass."""
    totals = tracer.totals()

    def total(name: str, field: str) -> float:
        return totals.get(name, {}).get(field, 0) / passes

    out = {}
    for name in ("knot_id.alexander_polynomial", "knot_id.extract_diagram",
                 "fold_core.layout"):
        out[name + ".calls"] = (total(name, "calls"), "count")
    out["knot_id.alexander_polynomial.minor_rows"] = (
        total("knot_id.alexander_polynomial", "size"), "count")
    out["knot_id.crossings"] = (total("knot_id.extract_diagram", "size"), "count")
    out["fold_core.panels"] = (total("fold_core.layout", "size"), "count")
    out["render.svg_bytes"] = (total("render.to_svg", "size"), "bytes")
    for name in ("knot_id.alexander_polynomial", "knot_id.extract_diagram",
                 "constructions.build", "fold_core.layout_from_centerline",
                 "fold_core.unfold", "fold_core.layout", "fold_core.json",
                 "render.to_svg", "formulas.quotient_table", "cli.table",
                 "cli.build", "cli.render", "cli.verify", "cli.identify"):
        out[name + ".self_s"] = (total(name, "self_s"), "s")
    for child, label in (("fold_core.layout", "layout_calls"),
                         ("knot_id.extract_diagram", "extract_calls"),
                         ("knot_id.alexander_polynomial", "alexander_calls")):
        out["cli.identify." + label] = (
            tracer.calls_under("cli.identify", "--expected", child), "count")
    out["cli.verify.layout_calls"] = (
        tracer.calls_under("cli.verify", "--knot-check", "fold_core.layout"), "count")
    return out
