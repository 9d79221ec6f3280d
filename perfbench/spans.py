"""In-memory spans around regcap's public functions, recorded from outside.

``Recorder`` keeps spans (name, start, end, parent, run id) in a list and
writes them out once, at the end. ``Instrumentation`` swaps wrappers into
the caller-side module attributes (``regcap.engine.rwa_portfolio`` and the
like) and swaps the originals back when removed, so untraced work in the
same process runs the unmodified functions. Functions called once per
exposure are not given a span per call: each parent span keeps a count and
a total time for them instead.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager

# Functions the engine calls once per exposure.
PER_EXPOSURE = frozenset(
    {"irb.params_for_exposure", "irb.evaluate_weight", "irb.rwa_irb"}
)


class Span:
    __slots__ = ("id", "name", "parent", "run", "start", "end", "calls")

    def __init__(self, id: int, name: str, parent: int | None, run: str,
                 start: float) -> None:
        self.id, self.name, self.parent, self.run = id, name, parent, run
        self.start = start
        self.end = 0.0
        self.calls: dict[str, list] = {}  # name -> [count, seconds]


class Recorder:
    def __init__(self, run: str = "setup") -> None:
        self.run = run
        self.spans: list[Span] = []
        self._stack: list[Span] = []

    def begin(self, name: str) -> Span:
        parent = self._stack[-1].id if self._stack else None
        span = Span(len(self.spans), name, parent, self.run, time.perf_counter())
        self.spans.append(span)
        self._stack.append(span)
        return span

    def finish(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        span = self.begin(name)
        try:
            yield span
        finally:
            self.finish(span)

    def wrap(self, name: str, fn):
        if name in PER_EXPOSURE:
            def counted(*args, **kwargs):
                start = time.perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    entry = self._stack[-1].calls.setdefault(name, [0, 0.0])
                    entry[0] += 1
                    entry[1] += time.perf_counter() - start
            return counted

        def spanned(*args, **kwargs):
            span = self.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.finish(span)
        return spanned

    def records(self) -> list[dict]:
        return [
            {
                "id": s.id, "name": s.name, "parent": s.parent, "run": s.run,
                "start": s.start, "end": s.end,
                "calls": {k: {"count": c, "seconds": t} for k, (c, t) in s.calls.items()},
            }
            for s in self.spans
        ]

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.records(), handle)


def self_times(records: list[dict]) -> dict[str, dict]:
    """Per span name: total self seconds and the number of spans or calls.

    A span's self time is its duration less its child spans and its
    aggregated per-exposure calls; aggregated calls are their own names.
    """
    covered: dict[int, float] = {}
    for record in records:
        aggregated = sum(c["seconds"] for c in record["calls"].values())
        covered[record["id"]] = covered.get(record["id"], 0.0) + aggregated
        if record["parent"] is not None:
            covered[record["parent"]] = (
                covered.get(record["parent"], 0.0) + record["end"] - record["start"]
            )
    totals: dict[str, dict] = {}
    for record in records:
        entry = totals.setdefault(record["name"], {"seconds": 0.0, "count": 0})
        entry["seconds"] += record["end"] - record["start"] - covered.get(record["id"], 0.0)
        entry["count"] += 1
        for name, call in record["calls"].items():
            entry = totals.setdefault(name, {"seconds": 0.0, "count": 0})
            entry["seconds"] += call["seconds"]
            entry["count"] += call["count"]
    return totals


class Instrumentation:
    """Wrappers for every attribute, in the given modules, bound to a target."""

    def __init__(self, recorder: Recorder, modules, targets: dict) -> None:
        self._saved = []
        for module in modules:
            for attr, value in list(vars(module).items()):
                name = targets.get(id(value))
                if name is not None and callable(value):
                    self._saved.append((module, attr, value))
                    setattr(module, attr, recorder.wrap(name, value))

    def remove(self) -> None:
        for module, attr, value in reversed(self._saved):
            setattr(module, attr, value)
        self._saved.clear()


def regcap_targets():
    """The modules whose attributes are patched and the functions to span.

    Only caller-side modules are patched, so a function's internal calls to
    its own module (``rwa_irb`` calling ``evaluate_weight``) stay inside its
    span rather than nesting a second one.
    """
    from regcap import cli, config, engine, fileio, oprisk, reporting

    spanned = {
        "config": (config, ("load_config",)),
        "fileio": (fileio, ("load_portfolio", "load_income", "load_risk_weights",
                            "load_ccf", "load_betas")),
        "model": (fileio, ("validate_portfolio",)),
        "engine": (engine, ("run_compute", "run_compare", "run_disclose",
                            "resolve_tables")),
        "standardized": (engine, ("rwa_portfolio",)),
        "irb": (engine, ("params_for_exposure", "evaluate_weight", "rwa_irb",
                         "risk_weight_function")),
        "oprisk": (oprisk, ("average_gross_income", "bia_capital", "tsa_capital",
                            "advanced_hook")),
        "aggregation": (engine, ("compliance",)),
        "reporting": (reporting, ("render_compute_text", "compute_document",
                                  "render_json", "render_compare_text",
                                  "compare_document", "render_disclosure_text",
                                  "disclosure_document")),
    }
    targets = {}
    for layer, (module, names) in spanned.items():
        for name in names:
            targets[id(getattr(module, name))] = f"{layer}.{name}"
    return (cli, config, engine, fileio, reporting), targets
