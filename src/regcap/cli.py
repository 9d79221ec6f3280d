"""Command-line surface.

Subcommands: compute, compare, disclose, dump-tables, validate. Flags mirror
config-file keys and override them one by one. Exit status: 0 when every
computed compliance flag holds, 1 on non-compliance, 2 on usage, input or
config errors, on a report that cannot be written whole, and on any
unexpected failure.
"""

from __future__ import annotations

import argparse
import contextlib
import errno
import gc
import io
import os
import sys
from pathlib import Path

from .config import SETTINGS, EngineConfig, Regime, load_config
from .engine import (
    resolve_tables,
    run_compare,
    run_compute,
    run_disclose,
)
from .errors import ConfigError, RegcapError, UsageError
from .fileio import (
    dump_betas,
    dump_ccf,
    dump_risk_weights,
    load_income,
    load_portfolio,
    write_whole,
)
from .model import _CONTROL_CHARACTER, CapitalBase, Portfolio
from .money import Money
from .oprisk import IncomeHistory
from .reporting import (
    compare_document,
    compute_document,
    disclosure_document,
    json_chunks,
    render_compare_text,
    render_compute_text,
    render_disclosure_text,
)

# True only for a type checker: importing typing would cost every cold start
TYPE_CHECKING = False
if TYPE_CHECKING:
    from typing import NoReturn


class _Parser(argparse.ArgumentParser):
    """argparse's parser, but a usage error raises UsageError, so that main
    prints it as one labelled line, instead of printing the usage block and
    exiting. --help still prints argparse's text and exits 0; the text goes
    through _write, so help that cannot be written fails as a report does."""

    def error(self, message: str) -> NoReturn:
        raise UsageError(message)

    def _print_message(self, message: str, file=None) -> None:
        _write(file, message)


def _add_run_inputs(parser: argparse.ArgumentParser, need_capital: bool) -> None:
    group = parser.add_argument_group("run inputs")
    group.add_argument("--portfolio", required=True, help="portfolio file (CSV)")
    group.add_argument("--income", help="three-year income statement file (CSV)")
    if need_capital:
        group.add_argument(
            "--capital", required=True, help="total own funds, decimal amount"
        )
        group.add_argument("--tier1", help="core own funds (with --tier2)")
        group.add_argument("--tier2", help="supplementary own funds (with --tier1)")
        group.add_argument("--market-charge", help="market capital charge, decimal")
        group.add_argument("--json-out", help="also write the machine document here")


def _overrides(args: argparse.Namespace) -> dict[str, str]:
    """Config values given as flags; they win over the file key by key."""
    values = {s.key: getattr(args, s.flag[2:].replace("-", "_")) for s in SETTINGS}
    return {key: value for key, value in values.items() if value is not None}


def _money_arg(text: str, currency: str, flag: str) -> Money:
    try:
        return Money.from_decimal(text, currency)
    except ValueError as exc:
        raise ConfigError(f"{flag}: {exc}") from exc


def _capital_base(args: argparse.Namespace, currency: str) -> CapitalBase:
    total = _money_arg(args.capital, currency, "--capital")
    tier1 = _money_arg(args.tier1, currency, "--tier1") if args.tier1 is not None else None
    tier2 = _money_arg(args.tier2, currency, "--tier2") if args.tier2 is not None else None
    return CapitalBase(total_own_funds=total, tier1=tier1, tier2=tier2)


def _config_from_args(args: argparse.Namespace) -> EngineConfig:
    return load_config(args.config, _overrides(args))


def _run_inputs(
    args: argparse.Namespace,
) -> tuple[EngineConfig, Portfolio, CapitalBase, IncomeHistory | None, Money | None]:
    """The positional arguments of run_compute and run_compare.

    validate takes no capital flags; it prices against zero own funds.
    """
    config = _config_from_args(args)
    portfolio = load_portfolio(args.portfolio, config.currency)
    income = load_income(args.income, config.currency) if args.income is not None else None
    if "capital" not in args:
        return config, portfolio, CapitalBase(Money.zero(config.currency)), income, None
    capital = _capital_base(args, config.currency)
    market = None
    if args.market_charge is not None:
        market = _money_arg(args.market_charge, config.currency, "--market-charge")
        if market.is_negative:
            raise ConfigError(
                f"--market-charge: must be non-negative, got {args.market_charge!r}"
            )
    return config, portfolio, capital, income, market


def _cmd_compute(args: argparse.Namespace) -> tuple[int, str]:
    result = run_compute(*_run_inputs(args))
    # the document first: a run that cannot write it prints no report
    if args.json_out is not None:
        write_whole(args.json_out, json_chunks(compute_document(result)))
    return result.exit_status, render_compute_text(result)


def _cmd_compare(args: argparse.Namespace) -> tuple[int, str]:
    comparison = run_compare(*_run_inputs(args))
    if args.json_out is not None:
        write_whole(args.json_out, json_chunks(compare_document(comparison)))
    return comparison.exit_status, render_compare_text(comparison)


def _cmd_disclose(args: argparse.Namespace) -> tuple[int, str]:
    result = run_compute(*_run_inputs(args))
    disclosure = run_disclose(result)
    if args.json_out is not None:
        write_whole(args.json_out, json_chunks(disclosure_document(disclosure)))
    return result.exit_status, render_disclosure_text(disclosure)


def _cmd_dump_tables(args: argparse.Namespace) -> tuple[int, str]:
    config = _config_from_args(args)
    tables = resolve_tables(config)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    targets = (
        (tables.risk_weights, dump_risk_weights, out_dir / "risk_weights.tbl"),
        (tables.ccf, dump_ccf, out_dir / "ccf.tbl"),
        (tables.betas, dump_betas, out_dir / "betas.tbl"),
    )
    for table, writer, path in targets:
        writer(table, path)
    return 0, "".join(f"wrote {path}\n" for _, _, path in targets)


def _cmd_validate(args: argparse.Namespace) -> tuple[int, str]:
    inputs = _run_inputs(args)
    config, portfolio, _, income, _ = inputs
    # Under the full regime, compare also prices the book with the
    # standardized tables; an IRB book needs those to cover it too.
    (run_compare if config.regime is Regime.BASEL2 else run_compute)(*inputs)
    report = f"portfolio OK: {len(portfolio)} exposure(s)\n"
    if income is not None:
        report += f"income OK: years {income.span()}\n"
    return 0, report + "config OK\n"


# name, help, run inputs (True: with the capital flags, False: without them,
# None: --out-dir instead), handler. build_parser adds them in this order.
_COMMANDS = (
    ("compute", "full capital computation and compliance verdict", True, _cmd_compute),
    ("compare", "credit-only vs full regime, side by side", True, _cmd_compare),
    ("disclose", "semiannual capital-adequacy disclosure document", True,
     _cmd_disclose),
    ("dump-tables", "write the active tables in the loadable schema", None,
     _cmd_dump_tables),
    ("validate", "parse and validate input files without computing", False,
     _cmd_validate),
)


def _choice(choices: list[str]):
    """An enum flag's token as Setting.parse reads it, stripped and lowercased,
    when that is one of ``choices``; any other token is left as given, so that
    argparse's invalid-choice error quotes it."""

    def normalized(token: str) -> str:
        lowered = token.strip().lower()
        return lowered if lowered in choices else token

    return normalized


def build_parser() -> argparse.ArgumentParser:
    shared = argparse.ArgumentParser(add_help=False)  # every command's config flags
    group = shared.add_argument_group("configuration overrides")
    group.add_argument("--config", help="config file path (else $REGCAP_CONFIG)")
    for setting in SETTINGS:
        if setting.parser is bool:
            group.add_argument(
                setting.flag, action="store_const", const="true", help=setting.help
            )
        else:
            choices = setting.choices
            group.add_argument(
                setting.flag, choices=choices, help=setting.help,
                type=None if choices is None else _choice(choices),
            )
    parser = _Parser(
        prog="regcap",
        description=(
            "Regulatory-capital engine: credit and operational risk charges,"
            " solvency ratios, supervisory adjustments, and disclosure reports."
        ),
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    for name, help_text, need_capital, handler in _COMMANDS:
        command = subparsers.add_parser(name, help=help_text, parents=[shared])
        if need_capital is None:
            command.add_argument("--out-dir", default=".", help="target directory")
        else:
            _add_run_inputs(command, need_capital)
        command.set_defaults(handler=handler)
    return parser


# The flags that name a file or a directory. An empty one is refused, with
# its flag named, before anything is read or written: Path("") is the working
# directory, which dump-tables would write its tables into.
_PATH_FLAGS = ("--config", "--portfolio", "--income", "--json-out", "--out-dir")


def _write(stream, text: str) -> None:
    """Write ``text`` to ``stream`` whole and flush it, or raise OSError.

    Unbuffered (``python -u``), a stream drops what a short write leaves over,
    so its file is written here until it has taken every byte. A stream that
    failed is pointed at os.devnull, since the interpreter's flush at exit
    would fail again and change the exit status. A text that the stream's
    encoding cannot take fails before any of it is written.
    """
    if stream is None:  # its descriptor was closed before start, so Python set None
        raise OSError(errno.EBADF, os.strerror(errno.EBADF))
    try:
        raw = getattr(stream, "buffer", None)
        if isinstance(raw, io.RawIOBase):
            data = memoryview(text.encode(stream.encoding, stream.errors))
            while data:
                data = data[raw.write(data):]
        else:
            stream.write(text)
            stream.flush()
    except UnicodeEncodeError as exc:
        raise OSError(f"the output cannot be encoded: {exc}") from None
    except OSError:
        with contextlib.suppress(OSError):  # a stream with no descriptor is left alone
            os.dup2(os.open(os.devnull, os.O_WRONLY), stream.fileno())
        raise


# Each control character as repr writes it, for str.translate.
_ESCAPES = {ord(ch): repr(ch)[1:-1] for ch in _CONTROL_CHARACTER}


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        for flag in _PATH_FLAGS:
            if getattr(args, flag[2:].replace("-", "_"), None) == "":
                raise ConfigError(f"{flag}: not a path: ''")
        status, report = args.handler(args)
        _write(sys.stdout, report)
        return status
    except RegcapError as exc:
        line = f"error [{exc.layer}]: {exc}"
    except OSError as exc:
        line = f"error [input/config]: {exc}"
    except Exception as exc:
        # A fault in regcap or in a registered function, never an input
        # error: one line and exit 2, since exit 1 means a capital shortfall.
        line = f"error [internal]: {type(exc).__name__}: {exc}"
    # A message, or a path or cell text in it, may hold a control character;
    # each is written as repr writes it, so the diagnostic stays one line.
    line = line.translate(_ESCAPES)
    with contextlib.suppress(OSError):  # a diagnostic that stderr cannot take is dropped
        _write(sys.stderr, line + "\n")
    return 2


def run() -> NoReturn:
    """The program behind ``python -m regcap.cli`` and the ``regcap`` script:
    main on the command line, then exit with its status.

    Every byte is written by then: stdout and stderr flushed by _write,
    --json-out closed by write_whole. The freeze moves each object still
    alive, the imported modules' classes and functions among them, into the
    collector's permanent generation, so that the interpreter's full
    collections at exit skip them. Exit still runs its atexit handlers, the
    final flush of stdout and stderr, and module teardown; only cyclic garbage
    still alive at exit is not freed, and CPython never promises __del__ for
    it. main alone never freezes: an in-process caller keeps its collector.
    """
    status = main()
    gc.freeze()
    sys.exit(status)


if __name__ == "__main__":
    run()
