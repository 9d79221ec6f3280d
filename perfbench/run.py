"""regcap benchmark: price seeded synthetic books, check them exactly, time them.

Usage, from the root of a checkout (regcap's sources in ``src/regcap``):

    python3 perfbench/run.py --workload irb_book_100k --seed 1 --seconds 20 --trace 0

Workloads: irb_book_100k and std_book_100k (in-process, files to text report
plus JSON document) and cli_small (``python -m regcap.cli`` invocations).
``BENCHMARK.json`` gates irb_book_100k and cli_small; std_book_100k is for
runs by hand, so that the gated runs fit their time budget.
``--trace 0`` times untraced runs and prints the end-to-end metrics;
``--trace 1`` makes a traced run, writes its spans under ``.perfbench_out/``
and prints the per-layer metrics. Every report is checked against the
independent oracle outside the timed region. The last line of the output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import bookgen
import oracle
import reference
import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKER = HERE / "worker.py"
LAUNCHER = HERE / "launcher.py"
SETUP_PROBES = 30  # half before the timed loop, half after it
CLI_MIN_INVOCATIONS = 100  # so that ten samples lie beyond the p90
CLI_TRACED_ROTATIONS = 6
CHILD_TIMEOUT = 170
SHORT_CAPITAL = "1.00"  # own funds for the compute that must exit 1

# Per-layer metrics: name -> (unit, span names whose self times it sums).
# "us/exposure" metrics divide by the exposures each span (or aggregated
# per-exposure call) covered; "ms" metrics are medians over the setups,
# reports or invocations in which the spans occur, and 0 where none do.
LAYERS = {
    "cli.import_ms": ("ms", ("cli.import",)),
    "config.load_config_ms": ("ms", ("config.load_config",)),
    "cli.compute_ms": ("ms", ("cli.compute",)),
    "cli.compare_ms": ("ms", ("cli.compare",)),
    "cli.disclose_ms": ("ms", ("cli.disclose",)),
    "cli.validate_ms": ("ms", ("cli.validate",)),
    "fileio.load_tables_ms": (
        "ms", ("fileio.load_risk_weights", "fileio.load_ccf", "fileio.load_betas"),
    ),
    "fileio.load_portfolio_us_per_exposure": ("us/exposure", ("fileio.load_portfolio",)),
    "fileio.load_income_ms": ("ms", ("fileio.load_income",)),
    "model.validate_portfolio_us_per_exposure": (
        "us/exposure", ("model.validate_portfolio",),
    ),
    "standardized.rwa_portfolio_us_per_exposure": (
        "us/exposure", ("standardized.rwa_portfolio",),
    ),
    "irb.credit_us_per_exposure": (
        "us/exposure", ("irb.params_for_exposure", "irb.evaluate_weight", "irb.rwa_irb"),
    ),
    "irb.register_gate_ms": ("ms", ("irb.register_risk_weight_function",)),
    "engine.run_compute_self_us_per_exposure": ("us/exposure", ("engine.run_compute",)),
    "oprisk.charge_ms": (
        "ms", ("oprisk.average_gross_income", "oprisk.bia_capital",
               "oprisk.tsa_capital", "oprisk.advanced_hook"),
    ),
    "aggregation.compliance_ms": ("ms", ("aggregation.compliance",)),
    "reporting.render_text_us_per_exposure": (
        "us/exposure", ("reporting.render_compute_text",),
    ),
    "reporting.compute_document_us_per_exposure": (
        "us/exposure", ("reporting.compute_document",),
    ),
    "reporting.render_json_us_per_exposure": ("us/exposure", ("reporting.render_json",)),
}
# Counts and ratios from the traced run: name -> unit.
COUNTS = {
    "irb.weight_fn_calls_per_exposure": "count",
    "standardized.distinct_factor_pairs": "count",
    "reporting.text_bytes": "bytes",
    "reporting.json_bytes": "bytes",
    "fileio.portfolio_bytes": "bytes",
    "trace.overhead_ratio": "ratio",
}


class Outcome:
    """Attempted and failed reports, the problems found, and the metrics."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.metrics: dict[str, dict] = {}
        self.notes: dict[str, str] = {}
        self.table: list[str] = []

    def metric(self, name: str, value: float, unit: str, note: str = "") -> None:
        self.metrics[name] = {"value": value, "unit": unit}
        if note:
            self.notes[name] = note


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def percentile(values: list[float], share: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * share // 1))
    return ordered[int(rank) - 1]


# ---------------------------------------------------------------------------
# Set-up time


def probe_setup(inputs: bookgen.Inputs, probes: int) -> list[float]:
    """Fresh interpreter to ready-to-price, timed from outside, several times."""
    samples = []
    for _ in range(probes):
        start = time.perf_counter()
        child = subprocess.Popen(
            [sys.executable, str(WORKER), "setup", "--capital", inputs.capital],
            cwd=inputs.directory, env=child_env(), text=True,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
        )
        line = child.stdout.readline()
        samples.append(time.perf_counter() - start)
        child.stdin.close()
        child.stdout.close()
        if child.wait(CHILD_TIMEOUT) != 0 or line != "ready\n":
            raise RuntimeError(f"set-up probe failed: {line!r}")
    return samples


# ---------------------------------------------------------------------------
# Book workloads


def run_book(inputs: bookgen.Inputs, seconds: float, traced: bool, outcome: Outcome) -> dict:
    """One child prices the book in a closed loop; the oracle checks its outputs."""
    out = inputs.directory / "summary.json"
    command = [sys.executable, str(WORKER), "book", "--capital", inputs.capital,
               "--seconds", str(seconds), "--out", str(out)]
    if traced:
        command.append("--traced")
    subprocess.run(command, cwd=inputs.directory, env=child_env(), check=True,
                   timeout=CHILD_TIMEOUT)
    summary = json.loads(out.read_text(encoding="utf-8"))
    check_book(inputs, summary, outcome)
    return summary


def check_book(inputs: bookgen.Inputs, summary: dict, outcome: Outcome) -> None:
    """Count the book run's reports and their failures, checked by the oracle.

    Every report's output must also be the same as the first report's.
    """
    spec = inputs.spec
    exp = oracle.expected(oracle.Run(
        portfolio=str(inputs.directory / bookgen.PORTFOLIO),
        income=str(inputs.directory / bookgen.INCOME),
        capital_units=oracle.cell_units(inputs.capital),
        irb=spec.irb,
        bank_policy=spec.bank_policy,
        oprisk=spec.oprisk,
    ))
    verdicts = {}
    for key, (text_name, json_name) in summary["outputs"].items():
        text = (inputs.directory / text_name).read_text(encoding="utf-8")
        document = (inputs.directory / json_name).read_text(encoding="utf-8")
        verdicts[key] = verdict(
            lambda doc: oracle.check_compute_document(doc, exp)
            + oracle.check_compute_text(text, exp),
            document,
        )
        outcome.problems += verdicts[key]
    outcome.problems += summary["errors"]
    outcome.problems += reference_problems(summary["reference_digests"], reference.PASS_ROWS)
    if not summary["rerender_identical"]:
        outcome.problems.append("two renders of one result differ")
    reports = summary["reports"]
    first_digest = None
    for number, report in enumerate(reports):
        outcome.attempted += 1
        if report["failed"]:
            outcome.failed += 1
            continue
        bad = bool(verdicts[report["digest"]])
        first_digest = first_digest or report["digest"]
        if report["digest"] != first_digest:
            outcome.problems.append(f"report {number}: output differs from the first report")
            bad = True
        if report["exit_status"] != exp.exit_status:
            outcome.problems.append(f"report {number}: exit status "
                                    f"{report['exit_status']}, expected {exp.exit_status}")
            bad = True
        if number == len(reports) - 1 and not summary["rerender_identical"]:
            bad = True
        outcome.failed += bad


def reference_problems(digests: list[str], rows: int) -> list[str]:
    """The reference passes must all have given the known output."""
    if not digests:
        return []
    wanted = reference.work(rows)
    return [f"reference pass of {rows} rows gave {d[:12]}, expected {wanted[:12]}"
            for d in digests if d != wanted]


def verdict(check, document: str | None) -> list[str]:
    """The oracle's problems with one output; unreadable output is a problem too."""
    try:
        return check(json.loads(document) if document else None)
    except (KeyError, TypeError, ValueError) as exc:
        return [f"unreadable output ({exc!r})"]


def book_end_to_end(summary: dict, outcome: Outcome, exposures: int) -> None:
    reports = [r for r in summary["reports"] if not r["failed"]]
    if not reports:  # every report failed: nothing to time, correct is false
        return
    seconds = statistics.median(r["seconds"] for r in reports)
    paced = [exposures / reference.paced(r["stages"], r["passes"]) for r in reports]
    outcome.metric("exposures_per_ref", statistics.median(paced), "1/ref",
                   f"median of {len(reports)} reports of {exposures} exposures,"
                   f" each stage against the reference passes beside it")
    outcome.metric("peak_rss_mb", summary["peak_rss_kb"] / 1024, "MB",
                   "one child process")
    outcome.notes["exposures_per_s"] = (
        f"{exposures / seconds:.1f} 1/s, at the median of {len(reports)} reports"
    )
    outcome.notes["report_p50_ms"] = (
        f"{seconds * 1000:.1f} ms, median of {len(reports)} reports"
    )


# ---------------------------------------------------------------------------
# cli_small


def cli_rotation(inputs: bookgen.Inputs) -> list[tuple[str, list[str], int]]:
    """(label, argv, expected exit status) for one rotation of invocations."""
    common = ["--config", bookgen.CONFIG, "--portfolio", bookgen.PORTFOLIO,
              "--income", bookgen.INCOME]
    return [
        ("compute", ["compute", *common, "--capital", inputs.capital,
                     "--json-out", "out-{n}.json"], 0),
        ("compare", ["compare", *common, "--capital", inputs.capital,
                     "--json-out", "out-{n}.json"], 0),
        ("disclose", ["disclose", *common, "--capital", inputs.capital,
                      "--json-out", "out-{n}.json"], 0),
        ("validate", ["validate", *common], 0),
        ("compute_short", ["compute", *common, "--capital", SHORT_CAPITAL,
                           "--json-out", "out-{n}.json"], 1),
    ]


def cli_checker(inputs: bookgen.Inputs):
    """Oracle checks for each rotation label, given stdout and the JSON file."""
    spec = inputs.spec
    base = dict(portfolio=str(inputs.directory / bookgen.PORTFOLIO),
                bank_policy=spec.bank_policy)
    income = str(inputs.directory / bookgen.INCOME)
    capital = oracle.cell_units(inputs.capital)
    full_run = oracle.Run(income=income, capital_units=capital, oprisk=spec.oprisk, **base)
    full = oracle.expected(full_run)
    credit_only = oracle.expected(
        oracle.Run(income=None, capital_units=capital, oprisk=None, **base)
    )
    short = oracle.expected(oracle.Run(
        income=income, capital_units=oracle.cell_units(SHORT_CAPITAL),
        oprisk=spec.oprisk, **base,
    ))
    delta = oracle.money_text(full.min_required - credit_only.min_required)

    def check(label: str, stdout: str, document: dict | None) -> list[str]:
        if label in ("compute", "compute_short"):
            exp = full if label == "compute" else short
            return (oracle.check_compute_document(document, exp)
                    + oracle.check_compute_text(stdout, exp))
        if label == "compare":
            problems = oracle.check_compare_document(document, full, credit_only)
            sign = "+" if not delta.startswith("-") else ""
            wanted = ("additional capital required by the full regime: "
                      f"{sign}{oracle.grouped_money_text(oracle.cell_units(delta))}")
            if wanted not in stdout.splitlines():
                problems.append(f"compare text lacks {wanted!r}")
            return problems
        if label == "disclose":
            problems = oracle.check_disclosure_document(document, full, spec.period)
            if f"period:            {spec.period}" not in stdout.splitlines():
                problems.append("disclosure text lacks its period")
            return problems
        return oracle.check_validate_text(stdout, full_run)

    return check


def run_cli(inputs: bookgen.Inputs, seconds: float, traced: bool,
            outcome: Outcome) -> dict:
    """Rotations of invocations, one at a time, then every output checked.

    ``launcher.py`` runs the closed loop and times each invocation from spawn
    to exit. An untraced run starts each rotation with a reference
    invocation (``reference.py``), which paces the rotation. A traced run
    follows each untraced invocation with the same invocation under
    ``worker.py cli``, which records spans.
    """
    directory = inputs.directory
    statuses, rotation = {}, []
    if not traced:
        rotation.append(("reference", [sys.executable, str(HERE / "reference.py"),
                                       str(reference.CLI_ROWS)]))
    for label, argv, status in cli_rotation(inputs):
        statuses[label] = status
        rotation.append((label, [sys.executable, "-m", "regcap.cli", *argv]))
        if traced:
            rotation.append((f"{label}+spans", [sys.executable, str(WORKER), "cli",
                                                "--spans", "spans-{n}.json", "--", *argv]))
    plan = {
        "rotation": rotation,
        "seconds": seconds,
        "minimum": len(rotation) * (
            CLI_TRACED_ROTATIONS if traced else -(-CLI_MIN_INVOCATIONS // len(statuses))
        ),
        "out": "launched.json",
    }
    (directory / "plan.json").write_text(json.dumps(plan), encoding="utf-8")
    subprocess.run([sys.executable, str(LAUNCHER), "plan.json"], cwd=directory,
                   env=child_env(), check=True, timeout=CHILD_TIMEOUT)
    records = json.loads((directory / "launched.json").read_text(encoding="utf-8"))

    check = cli_checker(inputs)
    wanted_reference = reference.work(reference.CLI_ROWS)
    verdicts: dict[tuple[str, str], list[str]] = {}
    first_digest: dict[str, str] = {}
    summary = {"plain": [], "traced": [], "spans": [], "peak_rss_kb": [], "reference": [],
               "exposures": inputs.spec.exposures, "rotation_size": len(statuses)}
    for number, record in enumerate(records):
        label = record["label"].removesuffix("+spans")
        stdout = (directory / f"stdout-{number}.txt").read_text(encoding="utf-8")
        stderr = (directory / f"stderr-{number}.txt").read_text(encoding="utf-8")
        if label == "reference":  # the benchmark's own, not an attempt
            if (record["status"], stdout, stderr) != (0, wanted_reference + "\n", ""):
                outcome.problems.append(
                    f"reference invocation {number}: exit {record['status']},"
                    f" stdout {stdout[:20]!r}, stderr {stderr.strip()[:200]!r}")
            summary["reference"].append(record["seconds"])
            continue
        json_out = directory / f"out-{number}.json"
        document = json_out.read_text(encoding="utf-8") if json_out.exists() else None
        key = hashlib.sha256((stdout + "\0" + (document or "")).encode()).hexdigest()
        if (label, key) not in verdicts:
            verdicts[(label, key)] = verdict(
                lambda doc: check(label, stdout, doc), document
            )
            outcome.problems += verdicts[(label, key)]
        extra = []
        if key != first_digest.setdefault(label, key):
            extra.append(f"{label}: output differs from the first {label}")
        if record["status"] != statuses[label]:
            extra.append(f"{label}: exit {record['status']}, expected {statuses[label]}")
        if stderr:
            extra.append(f"{label}: stderr {stderr.strip()[:200]!r}")
        outcome.problems += extra
        outcome.attempted += 1
        outcome.failed += bool(verdicts[(label, key)] or extra)
        if label == "compute":
            summary["compute_text"], summary["compute_json"] = stdout, document
        if record["label"] != label:
            spans_records = json.loads(
                (directory / f"spans-{number}.json").read_text(encoding="utf-8")
            )
            for span in spans_records:
                span["run"] = f"invocation-{number}"
            summary["spans"].append(spans_records)
            summary["traced"].append(record["seconds"])
        else:
            summary["plain"].append(record["seconds"])
            summary["peak_rss_kb"].append(record["peak_rss_kb"])
    return summary


def cli_end_to_end(summary: dict, outcome: Outcome) -> None:
    """Whole rotations, so that every subcommand feeds each figure.

    Each rotation is paced by the reference invocation that starts it.
    """
    plain, size = summary["plain"], summary["rotation_size"]
    n = len(plain)
    starts = range(0, n - size + 1, size)
    rotations = [sum(plain[i:i + size]) for i in starts]
    exposures = summary["exposures"] * size
    paced = [exposures * ref / rotation
             for ref, rotation in zip(summary["reference"], rotations)]
    outcome.metric("exposures_per_ref", statistics.median(paced), "1/ref",
                   f"{size} invocations on {summary['exposures']} exposures over their"
                   f" reference invocation, median of {len(paced)} rotations")
    outcome.notes["exposures_per_s"] = (
        f"{exposures / statistics.median(rotations):.1f} 1/s, at the median of"
        f" {len(rotations)} rotations"
    )
    peaks = [max(summary["peak_rss_kb"][i:i + size]) for i in starts]
    outcome.metric("peak_rss_mb", statistics.median(peaks) / 1024, "MB",
                   f"median of {len(peaks)} rotations' largest peaks")
    for name, share in (("cli_p50_ms", 0.5), ("cli_p90_ms", 0.9)):
        outcome.notes[name] = (
            f"{percentile(plain, share) * 1000:.1f} ms, of {n} invocations"
        )


# ---------------------------------------------------------------------------
# Per-layer metrics from spans


def layer_metrics(groups: list[list[dict]], exposures: int) -> dict[str, float]:
    """Per-layer self times from span groups (one setup, report or invocation each)."""
    totals = [spans.self_times(records) for records in groups]
    values: dict[str, float] = {}
    for metric, (unit, names) in LAYERS.items():
        samples = []
        for group in totals:
            present = [group[name] for name in names if name in group]
            if not present:
                continue
            seconds = sum(entry["seconds"] for entry in present)
            if unit == "ms":
                samples.append(seconds * 1000)
                continue
            # Exposures covered: one per aggregated call, a book per span.
            calls = present[0]["count"]
            visits = calls if names[0] in spans.PER_EXPOSURE else calls * exposures
            samples.append(seconds * 1e6 / visits)
        values[metric] = statistics.median(samples) if samples else 0.0
    return values


def self_time_table(groups: list[list[dict]]) -> list[str]:
    """Mean self time per span name and its share of the spanned time.

    The set-up group and the work groups (reports or invocations) get one
    table each; the base of each share is the mean time their root spans cover.
    """
    lines = []
    for title, chosen in (
        ("set-up", [g for g in groups if g[0]["run"] == "setup"]),
        ("per report or invocation", [g for g in groups if g[0]["run"] != "setup"]),
    ):
        if not chosen:
            continue
        totals: dict[str, float] = {}
        for records in chosen:
            for name, entry in spans.self_times(records).items():
                totals[name] = totals.get(name, 0.0) + entry["seconds"]
        covered = sum(r["end"] - r["start"] for g in chosen for r in g if r["parent"] is None)
        lines.append(f"self time {title}: share of {covered / len(chosen) * 1000:.1f} ms"
                     f" spanned, mean of {len(chosen)}")
        for name, seconds in sorted(totals.items(), key=lambda item: -item[1]):
            lines.append(f"    {name:<40} {seconds / len(chosen) * 1000:12.2f} ms"
                         f" {seconds / covered:8.1%}")
    return lines


def split_runs(records: list[dict]) -> list[list[dict]]:
    groups: dict[str, list[dict]] = {}
    for record in records:
        groups.setdefault(record["run"], []).append(record)
    return list(groups.values())


def write_spans(workload: str, seed: int, groups: list[list[dict]]) -> Path:
    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"{workload}-seed{seed}-spans.json"
    path.write_text(json.dumps([r for g in groups for r in g]), encoding="utf-8")
    return path


# ---------------------------------------------------------------------------


def print_table(workload: str, seed: int, outcome: Outcome) -> None:
    ratio = outcome.failed / outcome.attempted if outcome.attempted else 1.0
    print(f"regcap benchmark: workload {workload}, seed {seed}")
    for name, metric in outcome.metrics.items():
        note = outcome.notes.get(name, "")
        print(f"  {name:<44} {metric['value']:>14.4f} {metric['unit']:<12} {note}")
    for name in ("exposures_per_s", "report_p50_ms", "cli_p50_ms", "cli_p90_ms", "spans"):
        if name in outcome.notes:
            print(f"  {name:<44} {outcome.notes[name]}")
    print(f"  {'failed_ratio':<44} {ratio:>14.4f} {'ratio':<12} "
          f"{outcome.failed} of {outcome.attempted} failed")
    for line in outcome.table:
        print(f"  {line}")
    for problem in outcome.problems[:20]:
        print(f"  problem: {problem}")


def run(workload: str, seed: int, seconds: float, trace: bool) -> Outcome:
    workdir = ROOT / ".perfbench_work" / f"{workload}-seed{seed}-{os.getpid()}"
    outcome = Outcome()
    try:
        inputs = bookgen.generate(workload, seed, workdir)
        # Set-up probes on both sides of the timed loop meet more of the
        # machine's slow and fast phases; the fastest probe is the set-up cost.
        probes = 0 if trace else SETUP_PROBES
        setup = probe_setup(inputs, probes // 2)
        if workload == "cli_small":
            summary = run_cli(inputs, seconds, trace, outcome)
        else:
            summary = run_book(inputs, seconds, trace, outcome)
        setup += probe_setup(inputs, probes - probes // 2)
        if not trace:
            outcome.metric("setup_s", min(setup), "s",
                           f"fastest of {len(setup)} fresh interpreters")
            if workload == "cli_small":
                cli_end_to_end(summary, outcome)
            else:
                book_end_to_end(summary, outcome, inputs.spec.exposures)
            return outcome
        traced_metrics(workload, seed, inputs, summary, outcome)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return outcome


def traced_metrics(workload, seed, inputs, summary, outcome) -> None:
    exposures = inputs.spec.exposures
    if workload == "cli_small":
        groups = summary["spans"]
        plain, traced = summary["plain"], summary["traced"]
        counts = {"irb.weight_fn_calls_per_exposure": 0.0}
    else:
        records = json.loads((inputs.directory / "spans.json").read_text(encoding="utf-8"))
        groups = split_runs(records)
        done = [r for r in summary["reports"] if not r["failed"]]
        plain = [r["seconds"] for r in done if not r["traced"]]
        traced = [r["seconds"] for r in done if r["traced"]]
        reports = len(summary["reports"])
        counts = {
            "irb.weight_fn_calls_per_exposure":
                summary["weight_fn_calls"] / (reports * exposures),
        }
    for name, value in layer_metrics(groups, exposures).items():
        outcome.metric(name, value, LAYERS[name][0])
    sizes = output_sizes(workload, inputs, summary)
    counts.update(sizes)
    counts["fileio.portfolio_bytes"] = (inputs.directory / bookgen.PORTFOLIO).stat().st_size
    counts["trace.overhead_ratio"] = statistics.median(traced) / statistics.median(plain)
    for name, unit in COUNTS.items():
        outcome.metric(name, float(counts[name]), unit)
    outcome.notes["trace.overhead_ratio"] = (
        f"median of {len(traced)} traced over median of {len(plain)} untraced"
    )
    outcome.table = self_time_table(groups)
    path = write_spans(workload, seed, groups)
    outcome.notes["spans"] = f"{sum(map(len, groups))} spans in {path.relative_to(ROOT)}"


def output_sizes(workload, inputs, summary) -> dict[str, int]:
    """Sizes of one compute report's text and JSON, and its distinct factor pairs."""
    if workload == "cli_small":
        text, document = summary["compute_text"], summary["compute_json"]
    else:
        text_name, json_name = next(iter(summary["outputs"].values()))
        text = (inputs.directory / text_name).read_text(encoding="utf-8")
        document = (inputs.directory / json_name).read_text(encoding="utf-8")
    lines = json.loads(document)["credit"]["lines"]
    return {
        "reporting.text_bytes": len(text.encode()),
        "reporting.json_bytes": len(document.encode()),
        "standardized.distinct_factor_pairs": len(
            {(line["ccf"], line["weight"]) for line in lines if "ccf" in line}
        ),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(bookgen.SPECS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "regcap" / "__init__.py").is_file():
        sys.stderr.write(f"perfbench: no regcap sources under {SRC}\n")
        return 2
    # Byte-compile up front, as an installed package is, so that no timed
    # interpreter start pays for compiling regcap.
    for directory in (SRC / "regcap", HERE):
        compileall.compile_dir(str(directory), quiet=1)
    outcome = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print_table(args.workload, args.seed, outcome)
    print(json.dumps({
        "correct": outcome.failed == 0 and not outcome.problems,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": outcome.metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
