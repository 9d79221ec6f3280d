"""Child-process side of the benchmark: set up regcap, then price or invoke.

Run from a generated workload directory (``portfolio.csv``, ``income.csv``,
``regcap.cfg`` and any table files, as bookgen writes them) with regcap's
``src`` on the path.

``setup``  set up, print ``ready``, wait for stdin to close (set-up probe).
``book``   set up, then price the book in a closed loop for ``--seconds``,
           untraced with reference passes around each stage, or alternating
           untraced and traced reports, without them, with ``--traced``;
           write a JSON summary to ``--out``.
``cli``    one traced ``regcap.cli.main`` invocation; spans go to ``--spans``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import resource
import sys
import time
from contextlib import nullcontext
from pathlib import Path

import irbfn
import reference
import spans

# Reports per run at the least, however long they take: three untraced ones,
# so that even a slow book gives a run three samples, and one untraced and
# traced pair for the overhead ratio.
MIN_REPORTS = 3
TRACED_MIN_REPORTS = 2


class Book:
    """A set-up, ready-to-price book workload."""

    def __init__(self, capital: str, recorder=None) -> None:
        span = recorder.span if recorder else (lambda name: nullcontext())
        with span("cli.import"):
            import regcap.cli  # noqa: F401  the program's entry module
        from regcap import config, engine, fileio, irb, model, money, reporting

        self.modules = (config, engine, fileio, reporting)
        instrumentation = (
            spans.Instrumentation(recorder, *spans.regcap_targets()) if recorder else None
        )
        try:
            self.config = config.load_config("regcap.cfg")
            self.tables = engine.resolve_tables(self.config)
            self.weight_fn = irbfn.CountingWeight()
            if self.config.credit_approach is not config.CreditApproach.STANDARDIZED:
                with span("irb.register_risk_weight_function"):
                    irb.register_risk_weight_function(
                        self.config.irb_function, self.weight_fn
                    )
        finally:
            if instrumentation:
                instrumentation.remove()
        self.capital = model.CapitalBase(
            money.Money.from_decimal(capital, self.config.currency)
        )

    def report(self, reference=None):
        """Files to finished text report plus JSON document, stage by stage.

        Returns the result, the text, the JSON document and the seconds each
        stage took. ``reference``, if given, runs before each stage and after
        the last one, outside the stages' time.
        """
        config, engine, fileio, reporting = self.modules
        stages = []

        def stage(work):
            if reference:
                reference()
            start = time.perf_counter()
            value = work()
            stages.append(time.perf_counter() - start)
            return value

        portfolio, income = stage(lambda: (
            fileio.load_portfolio("portfolio.csv", self.config.currency),
            fileio.load_income("income.csv", self.config.currency),
        ))
        result = stage(lambda: engine.run_compute(
            self.config, portfolio, self.capital, income, None, self.tables
        ))
        text = stage(lambda: reporting.render_compute_text(result))
        document = stage(lambda: reporting.compute_document(result))
        document = stage(lambda: reporting.render_json(document))
        if reference:
            reference()
        return result, text, document, stages


def digest(text: str, document: str) -> str:
    return hashlib.sha256(text.encode() + b"\0" + document.encode()).hexdigest()


def run_book(args) -> dict:
    recorder = spans.Recorder() if args.traced else None
    book = Book(args.capital, recorder)
    gate_calls = book.weight_fn.calls
    summary = {
        # reports: {"traced", "failed", "seconds", "digest", "exit_status",
        # "stages", "passes"}: the seconds of each stage and of each
        # reference pass around them (untraced reports only).
        "reports": [],
        "outputs": {},  # digest -> [text file, json file]
        "errors": [],
        "reference_digests": set(),
    }
    deadline = time.perf_counter() + args.seconds
    number = 0
    last = None
    while True:
        last = None  # drop the previous result before collecting
        gc.collect()
        traced = args.traced and number % 2 == 1
        meter = None if args.traced else reference.Meter()
        if traced:
            recorder.run = f"report-{number}"
            instrumentation = spans.Instrumentation(recorder, *spans.regcap_targets())
        try:
            with recorder.span("perfbench.report") if traced else nullcontext():
                result, text, document, stages = book.report(meter)
        except Exception as exc:  # a failed report is counted, not fatal
            summary["errors"].append(f"{type(exc).__name__}: {exc}")
            summary["reports"].append({"traced": traced, "failed": True})
            result = None
        finally:
            if traced:
                instrumentation.remove()
        if result is not None:
            key = digest(text, document)
            if key not in summary["outputs"]:
                paths = [f"out-{len(summary['outputs'])}.txt",
                         f"out-{len(summary['outputs'])}.json"]
                Path(paths[0]).write_text(text, encoding="utf-8")
                Path(paths[1]).write_text(document, encoding="utf-8")
                summary["outputs"][key] = paths
            summary["reports"].append({
                "traced": traced, "seconds": sum(stages), "digest": key,
                "exit_status": result.exit_status, "failed": False,
            })
            if meter:
                summary["reports"][-1].update(stages=stages, passes=meter.times)
                summary["reference_digests"] |= meter.digests
            last = (result, key)
            del text, document
        del result
        number += 1
        enough = number >= (TRACED_MIN_REPORTS if args.traced else MIN_REPORTS)
        if enough and time.perf_counter() >= deadline:
            break
    summary["rerender_identical"] = last is not None and rerender_digest(book, last[0]) == last[1]
    summary.update(
        weight_fn_calls=book.weight_fn.calls - gate_calls,
        peak_rss_kb=peak_rss_kb(),
        reference_digests=sorted(summary["reference_digests"]),
    )
    if recorder is not None:
        recorder.write("spans.json")
    return summary


def peak_rss_kb() -> int:
    """This process's own peak RSS.

    ``VmHWM`` counts only the memory mapped since exec; ``ru_maxrss`` would
    also count the memory of the parent at the moment it spawned this process.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def rerender_digest(book: Book, result) -> str:
    reporting = book.modules[3]
    text = reporting.render_compute_text(result)
    return digest(text, reporting.render_json(reporting.compute_document(result)))


def run_cli(args) -> int:
    recorder = spans.Recorder(run="invocation")
    with recorder.span("cli.import"):
        import regcap.cli as cli
    instrumentation = spans.Instrumentation(recorder, *spans.regcap_targets())
    command = args.argv[0]
    try:
        with recorder.span(f"cli.{command}"):
            status = cli.main(args.argv)
    finally:
        instrumentation.remove()
        recorder.write(args.spans)
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    sub = parser.add_subparsers(dest="mode", required=True)
    setup = sub.add_parser("setup")
    book = sub.add_parser("book")
    for mode in (setup, book):
        mode.add_argument("--capital", required=True)
    book.add_argument("--seconds", type=float, required=True)
    book.add_argument("--traced", action="store_true")
    book.add_argument("--out", required=True)
    cli = sub.add_parser("cli")
    cli.add_argument("--spans", required=True)
    cli.add_argument("argv", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    if args.mode == "setup":
        Book(args.capital)
        sys.stdout.write("ready\n")
        sys.stdout.flush()
        sys.stdin.read()
        return 0
    if args.mode == "book":
        summary = run_book(args)
        Path(args.out).write_text(json.dumps(summary), encoding="utf-8")
        return 0
    if args.argv and args.argv[0] == "--":
        args.argv = args.argv[1:]
    return run_cli(args)


if __name__ == "__main__":
    sys.exit(main())
