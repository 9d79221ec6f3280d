"""Report rendering: fixed-width text for humans, key-value JSON for machines.

Every report carries a config echo (regime, approaches, policies, table
provenance) so any number in it can be reproduced. Output is deterministic
byte-for-byte for identical inputs: no timestamps, fixed section order,
fixed key order in the machine document. Percentages render with two decimal
places and amounts at minor-unit precision; rounding happens only at render
time, on top of already-exact values.
"""

from __future__ import annotations

from collections.abc import Sequence
from fractions import Fraction

from .aggregation import REFERENCE_ALLOCATION
from .config import CreditApproach, EngineConfig, Regime
from .engine import CompareResult, ComputeResult, DisclosureReport, TableSet
from .model import CapitalBase, CounterpartyClass
from .money import Money, format_percent, units_text
from .oprisk import ApproachKind, BusinessLine, OpRiskApproach
from .standardized import BankOptionPolicy, RiskWeightTable, StandardizedColumns

try:
    # importing json loads its decoder and scanner and compiles their regexes;
    # the writer needs only the C escaper json itself uses
    from _json import encode_basestring_ascii
except ImportError:
    from json.encoder import encode_basestring_ascii

RULE = "=" * 72
LIGHT_RULE = "-" * 72

UNDEFINED_RATIO = "undefined (no risk-bearing assets)"

DISCLOSURE_SCOPE = "single entity"

_CREDIT_LABELS = {
    CreditApproach.STANDARDIZED: "standardized (external ratings)",
    CreditApproach.IRB_FOUNDATION: "internal ratings, foundation",
    CreditApproach.IRB_ADVANCED: "internal ratings, advanced",
}

TSA_FOOTNOTE = (
    "note: income is measured per business line by gross income for every line;"
    " the published per-line activity measures (average assets, volumes) are"
    " not used by the charge formula."
)

NO_INCOME_NOTE = "no income history supplied; operational charge taken as zero"


def _ratio_text(ratio: Fraction | None) -> str:
    return format_percent(ratio) if ratio is not None else UNDEFINED_RATIO


def _status(compliant: bool) -> str:
    return "COMPLIANT" if compliant else "NON-COMPLIANT"


def _oprisk_label(approach: OpRiskApproach) -> str:
    if approach.kind is ApproachKind.BASIC_INDICATOR:
        return "basic indicator (alpha = 15% of average gross income)"
    if approach.kind is ApproachKind.STANDARDIZED:
        return "standardized (per-business-line beta)"
    return f"advanced measurement via registered hook {approach.hook!r}"


# A section is a list of rows that declares each of its facts once. A row is
# (label, key, text, value): the text report prints it as the line
# f"{label:<18} {text}", so its value starts at column 19, and the JSON
# document holds it as the member key: value. A label of None means JSON
# only, a key of None means text only, and a str row is a line of its own.
def _lines(rows: list) -> list[str]:
    return [
        row if isinstance(row, str) else f"{row[0]:<18} {row[2]}"
        for row in rows
        if isinstance(row, str) or row[0] is not None
    ]


def _members(rows: list) -> dict:
    return {row[1]: row[3] for row in rows if not isinstance(row, str) and row[1] is not None}


def _same(label: str | None, key: str | None, text: str) -> tuple:
    return label, key, text, text


def _money(label: str | None, key: str, amount: Money | None) -> tuple:
    """An absent amount gives no text line and a JSON null."""
    if amount is None:
        return None, key, None, None
    return label, key, amount.formatted(), amount.text()


def _ratio(label: str | None, key: str, ratio: Fraction | None) -> tuple:
    """An undefined ratio prints UNDEFINED_RATIO and is null in JSON."""
    return label, key, _ratio_text(ratio), None if ratio is None else format_percent(ratio)


def _bank_policy_note(policy: BankOptionPolicy, table: RiskWeightTable) -> str:
    """The end the policy takes, each weight that end of the table's range
    cells resolves to, in ascending order, and where those cells are. A whole
    percent prints without its ".00", as the built-in table's 50% and 100%
    always have; the built-in shape, two range cells on the bank row, keeps
    its own wording."""
    ranges = {key: cell for key, cell in table.cells.items() if cell.is_range}
    if not ranges:
        return "the weights table has no range cell"
    ends = sorted({cell.resolve(policy) for cell in ranges.values()})
    figures = ", ".join(format_percent(end).replace(".00%", "%") for end in ends)
    resolved = f"resolved to the {policy.key.replace('_', ' ')} ({figures})"
    rows = [row.key for row in CounterpartyClass if any(key[0] is row for key in ranges)]
    if rows == ["bank"] and len(ranges) == 2:
        return f"bank-row range cells {resolved}, both cells together"
    named = rows[0] if len(rows) == 1 else f"{', '.join(rows[:-1])} and {rows[-1]}"
    return (
        f"{len(ranges)} range cell{'s' * (len(ranges) > 1)} on the {named}"
        f" row{'s' * (len(rows) > 1)} {resolved}"
    )


def _config_rows(config: EngineConfig, tables: TableSet) -> list:
    """The text echo leaves out the supervisory keys and, in the credit-only
    regime, the beta table; the JSON lists all three tables."""
    table_rows = [
        _same("weights table:", "risk_weights", tables.risk_weights.source),
        _same("ccf table:", "ccf", tables.ccf.source),
        _same("beta table:", "betas", tables.betas.source),
    ]
    rows = [
        _same("regime:", "regime", config.regime.key),
        ("credit approach:", "credit_approach", _CREDIT_LABELS[config.credit_approach],
         config.credit_approach.key),
        ("bank option:", "bank_option_policy",
         _bank_policy_note(config.bank_policy, tables.risk_weights), config.bank_policy.key),
    ]
    if config.credit_approach is not CreditApproach.STANDARDIZED:
        rows.append(_same("risk-weight fn:", "irb_function", config.irb_function))
    if config.oprisk_approach is not None:  # set in the full regime only
        rows += [
            _same("oprisk approach:", "oprisk_approach", config.oprisk_approach.key),
            _same("negative-GI rule:", "negative_gi_policy", config.negative_gi_policy.key),
        ]
    rows += _lines(table_rows if config.regime is Regime.BASEL2 else table_rows[:2])
    rows.append(_same("currency:", "currency", config.currency))
    override, addon = config.min_ratio_override, config.capital_addon
    rows += [(None, key, None, value) for key, value in (
        ("tables", _members(table_rows)),
        ("min_ratio_override", None if override is None else format_percent(override)),
        ("capital_addon", None if addon is None else addon.text()),
        ("adjustment_justification", config.adjustment_justification),
        ("disclosure_period", config.disclosure_period),
    ) if value]
    return rows


def _capital_rows(capital: CapitalBase) -> list:
    return [
        _money("total own funds:", "total_own_funds", capital.total_own_funds),
        _money("  core (tier 1):", "tier1", capital.tier1),
        _money("  suppl. (tier 2):", "tier2", capital.tier2),
    ]


def _credit_section(result: ComputeResult) -> list[str]:
    credit = result.credit
    view = credit.lines
    lines = ["CREDIT RISK", LIGHT_RULE]
    if result.config.credit_approach is CreditApproach.STANDARDIZED:
        lines.append(f"{'id':<12} {'ccf':>8} {'weight':>8} {'risk-weighted':>18}")
        factors = [f"{key.ccf_text:>8} {key.weight_text:>8}" for key in view.keys]
        lines += [
            f"{exposure_id:<12} {factors[index]} {units_text(units, ','):>18}"
            for exposure_id, index, units in zip(view.ids, view.key_index, view.units)
        ]
    else:
        lines.append(
            f"{'id':<12} {'pd':>8} {'lgd':>8} {'maturity':>9}"
            f" {'weight':>8} {'risk-weighted':>18}"
        )
        lines += [
            f"{exposure_id:<12} {pd:>8} {lgd:>8} {maturity:>9} {weight:>8}"
            f" {units_text(units, ','):>18}{' (off-balance)' if off_balance else ''}"
            for exposure_id, pd, lgd, maturity, weight, units, off_balance in zip(
                view.ids, view.pd_texts, view.lgd_texts, view.maturity_texts,
                view.weight_texts, view.units, view.off_balance,
            )
        ]
    lines.append(f"total risk-weighted assets: {credit.total_rwa.formatted()}")
    return lines


def _oprisk_rows(result: ComputeResult) -> list:
    """The JSON leaves out what the run has no figure for; a run without an
    income history notes why its charge is zero."""
    config, oprisk = result.config, result.oprisk
    approach = config.oprisk_approach
    rows = [
        ("approach:", "approach", _oprisk_label(approach), approach.key),
        (None, "negative_gi_policy", None, config.negative_gi_policy.key),
        _same("note:", "note", NO_INCOME_NOTE) if result.income is None
        else _same("income years:", "income_years", result.income.span()),
    ]
    if oprisk.average_income is not None:
        rows.append(_money("average income:", "average_income", oprisk.average_income))
    if oprisk.tsa is not None:
        charges = oprisk.tsa.per_line
        per_line = [(f"  {line.key:<24}", line.key, f"{charges[line].formatted():>18}",
                     charges[line].text()) for line in BusinessLine]
        rows += _lines(per_line)
        rows += [f"  {TSA_FOOTNOTE}", (None, "per_line", None, _members(per_line))]
    rows.append(_money("operational charge:", "charge", oprisk.charge))
    return rows


def _market_rows(result: ComputeResult) -> list:
    return [_money("market charge (input):", "capital_charge", result.market_charge)]


def _solvency_rows(result: ComputeResult) -> list:
    """The two ratio labels put their values at column 35."""
    report = result.report
    basel2 = result.config.regime is Regime.BASEL2
    cooke_label = "credit-only reference ratio:" if basel2 else "solvency ratio (credit-only):"
    rows = [
        "denominator = credit RWA + 12.5 x market charge + 12.5 x operational charge"
        if basel2 else "denominator = credit RWA (credit-only regime)",
        _money("denominator:", "denominator", report.denominator),
        _ratio("solvency ratio (full denominator):" if basel2 else None, "full_ratio",
               report.mcdonough),
        _ratio(f"{cooke_label:<34}", "credit_only_ratio", report.cooke),
    ]
    shares = report.shares
    if shares is not None:
        shares = {key: format_percent(share) for key, share in sorted(shares.items())}
    if basel2:
        rows.append("denominator shares (data-driven vs published 75/20/5 reference):")
        rows += ["  undefined: the denominator is zero"] if shares is None else [
            f"  {label:<12} {shares[key]:>8}"
            f"   (reference {format_percent(REFERENCE_ALLOCATION[key])})"
            for key, label in (("credit", "credit"), ("oprisk", "operational"),
                               ("market", "market"))
        ]
    surplus = report.surplus
    rows += [
        (None, "shares", None, shares),
        _same("minimum ratio:", "minimum_ratio", format_percent(report.minimum_ratio)),
        _money("capital add-on:" if report.addon.units else None, "capital_addon", report.addon),
        _money("minimum required:", "min_required_capital", report.min_required_capital),
        ("shortfall:" if surplus.is_negative else "surplus:", "surplus",
         (-surplus if surplus.is_negative else surplus).formatted(), surplus.text()),
        ("status:", "compliant", _status(report.compliant), report.compliant),
    ]
    return rows


def _section(title: str, rows: list) -> list[str]:
    return [title, LIGHT_RULE, *_lines(rows)]


def _text(title: str, head: list[str], *sections: list[str] | None) -> str:
    """A text report: the ruled title, the head, then each section that is
    not None after an empty line."""
    parts = [RULE, title, RULE, *head]
    for section in filter(None, sections):
        parts.append("")
        parts += section
    parts += (RULE, "")  # the empty last part ends the text with a newline
    return "\n".join(parts)


def render_compute_text(result: ComputeResult) -> str:
    """The human-readable run report."""
    return _text(
        "REGULATORY CAPITAL REPORT",
        _lines(_config_rows(result.config, result.tables)),
        _credit_section(result),
        result.oprisk and _section("OPERATIONAL RISK", _oprisk_rows(result)),
        _section(
            "SOLVENCY",
            _capital_rows(result.capital) + _market_rows(result) + _solvency_rows(result),
        ),
    )


def compute_document(result: ComputeResult) -> dict:
    """The machine-readable run document: plain JSON-able types, except that
    credit.lines is a _CreditLines, a sequence of one dict per line."""
    config = result.config
    doc: dict = {
        "config": _members(_config_rows(config, result.tables)),
        "credit": {
            "approach": config.credit_approach.key,
            "total_rwa": result.credit.total_rwa.text(),
            "lines": _CreditLines(result.credit.lines),
        },
        "capital": _members(_capital_rows(result.capital)),
        "solvency": _members(_solvency_rows(result)),
    }
    if result.oprisk is not None:
        doc["oprisk"] = _members(_oprisk_rows(result))
    if result.market_charge is not None:
        doc["market"] = _members(_market_rows(result))
    return doc


def _line_texts(view, start: int, stop: int, indent: str):
    """Lines ``start`` to ``stop`` of a credit view as json.dumps(sort_keys=True,
    indent=2) writes them at ``indent``, by one template per approach. Only the
    id is escaped: every other field is ASCII digits, ".", "%" or a literal."""
    cut, inner = slice(start, stop), indent + "  "
    if isinstance(view, StandardizedColumns):
        return (
            f'{indent}{{\n{inner}"amount": "{units_text(units)}",\n'
            f'{inner}"ccf": "{view.keys[index].ccf_text}",\n'
            f'{inner}"id": {encode_basestring_ascii(exposure_id)},\n'
            f'{inner}"weight": "{view.keys[index].weight_text}"\n{indent}}}'
            for exposure_id, index, units in zip(
                view.ids[cut], view.key_index[cut], view.units[cut])
        )
    return (
        f'{indent}{{\n{inner}"amount": "{units_text(units)}",\n'
        f'{inner}"ead": "{units_text(ead)}",\n'
        f'{inner}"id": {encode_basestring_ascii(exposure_id)},\n{inner}"lgd": "{lgd}",\n'
        f'{inner}"maturity_years": "{maturity}",\n'
        f'{inner}"off_balance": {"true" if off_balance else "false"},\n'
        f'{inner}"pd": "{pd}",\n{inner}"weight": "{weight}"\n{indent}}}'
        for exposure_id, pd, lgd, maturity, ead, weight, units, off_balance in zip(
            view.ids[cut], view.pd_texts[cut], view.lgd_texts[cut], view.maturity_texts[cut],
            view.ead_units[cut], view.weight_texts[cut], view.units[cut], view.off_balance[cut],
        )
    )


class _CreditLines(Sequence):
    """A credit view as a sequence of line dicts, each made from its JSON text when
    asked for and kept; json_chunks writes the view by template until one is kept."""

    def __init__(self, view) -> None:
        self.view, self.kept = view, {}

    def __len__(self) -> int:
        return len(self.view.ids)

    def __getitem__(self, index: int) -> dict:
        index = range(len(self))[index]  # an IndexError outside the lines
        if index not in self.kept:
            import json  # only a reader of the lines parses them

            self.kept[index] = json.loads(next(_line_texts(self.view, index, index + 1, "")))
        return self.kept[index]


_CHUNK = 1024  # credit lines joined into one string at a time
_INFINITY = float("inf")


def _pieces(value, indent: str):
    """Yield one JSON value's text, laid out as json.dumps(sort_keys=True,
    indent=2) lays it out. Each finished text is yielded as it is made: no
    container is copied into a text of its own."""
    inner = indent + "  "
    if isinstance(value, str):
        yield encode_basestring_ascii(value)
    elif value is None or value is True or value is False:
        yield "null" if value is None else "true" if value else "false"
    elif isinstance(value, int):
        yield int.__repr__(value)
    elif isinstance(value, float):  # json.dumps's names for the non-finite ones
        yield ("NaN" if value != value else "Infinity" if value == _INFINITY
               else "-Infinity" if value == -_INFINITY else float.__repr__(value))
    elif not isinstance(value, (dict, list, tuple, _CreditLines)):
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")
    elif not value:
        yield "{}" if isinstance(value, dict) else "[]"
    elif isinstance(value, dict):
        separator = "{"
        for key in sorted(value):
            yield f"{separator}\n{inner}{encode_basestring_ascii(key)}: "
            yield from _pieces(value[key], inner)
            separator = ","
        yield f"\n{indent}}}"
    elif isinstance(value, _CreditLines) and not value.kept:
        separator = "[\n"
        for start in range(0, len(value), _CHUNK):
            yield separator
            yield ",\n".join(_line_texts(value.view, start, start + _CHUNK, inner))
            separator = ",\n"
        yield f"\n{indent}]"
    else:
        separator = "["
        for member in value:
            yield f"{separator}\n{inner}"
            yield from _pieces(member, inner)
            separator = ","
        yield f"\n{indent}]"


def json_chunks(document: dict):
    """json.dumps(document, sort_keys=True, indent=2) plus a final newline, byte for
    byte, with credit lines written as a list, in pieces: no text of the whole."""
    yield from _pieces(document, "")
    yield "\n"


def render_json(document: dict) -> str:
    """The text of json_chunks(document), joined once."""
    return "".join(json_chunks(document))


def _reform_markers(result: ComputeResult) -> list[tuple[str, bool, str]]:
    """The (name, applied, note) of each reform marker of a full-regime run."""
    config, oprisk, report = result.config, result.oprisk, result.report
    adjusted = config.adjustment() is not None
    market = "input figure" if result.market_charge.units else "none"
    return [
        ("operational risk enters the denominator", oprisk.charge.units > 0,
         f"charge {oprisk.charge}"),
        ("choice of methods per risk type", True,
         f"credit: {config.credit_approach.key};"
         f" operational: {config.oprisk_approach.key}; market: {market}"),
        ("recognition of risk-mitigation techniques", False, "not modeled by this engine"),
        ("individual supervisory requirements above the floor", adjusted,
         f"minimum ratio {format_percent(report.minimum_ratio)}, add-on {report.addon}"
         if adjusted else "none configured"),
        ("semiannual public disclosure", config.disclosure_period is not None,
         config.disclosure_period or "no period configured"),
    ]


def render_compare_text(comparison: CompareResult) -> str:
    """Side-by-side regime report with the reform markers."""
    credit_only = comparison.credit_only.report
    full = comparison.full.report
    rows = (
        ("", "credit-only", "full"),
        ("credit RWA", comparison.credit_only.credit.total_rwa.formatted(),
         comparison.full.credit.total_rwa.formatted()),
        ("denominator", credit_only.denominator.formatted(), full.denominator.formatted()),
        ("solvency ratio", _ratio_text(credit_only.cooke), _ratio_text(full.mcdonough)),
        ("minimum required", credit_only.min_required_capital.formatted(),
         full.min_required_capital.formatted()),
        ("status", _status(credit_only.compliant), _status(full.compliant)),
    )
    delta = comparison.required_delta
    return _text(
        "REGIME COMPARISON",
        _lines(_config_rows(comparison.full.config, comparison.full.tables)),
        [f"{label:<28}{left:>18}{right:>18}" for label, left, right in rows],
        [f"additional capital required by the full regime:"
         f" {'' if delta.is_negative else '+'}{delta.formatted()}"],
        ["reform markers applied in this run:"] + [
            f"  {'[x]' if applied else '[ ]'} {name}: {note}"
            for name, applied, note in _reform_markers(comparison.full)
        ],
    )


def compare_document(comparison: CompareResult) -> dict:
    return {
        "credit_only": compute_document(comparison.credit_only),
        "full": compute_document(comparison.full),
        "required_delta": comparison.required_delta.text(),
        "novelties": [
            {"name": name, "applied": applied, "note": note}
            for name, applied, note in _reform_markers(comparison.full)
        ],
    }


def _disclosure_rows(disclosure: DisclosureReport) -> list:
    return [
        _same("period:", "period", disclosure.result.config.disclosure_period),
        _same("scope:", "scope", DISCLOSURE_SCOPE),
    ]


def render_disclosure_text(disclosure: DisclosureReport) -> str:
    """The semiannual public document."""
    result = disclosure.result
    config = result.config
    risks = [_same("credit:", None, f"rwa {result.credit.total_rwa.formatted()}"
                   f"  (method: {_CREDIT_LABELS[config.credit_approach]})")]
    if config.regime is Regime.BASEL2:
        risks += [
            _same("market:", None,
                  f"charge {result.market_charge.formatted()}  (method: input figure)"),
            _same("operational:", None, f"charge {result.oprisk.charge.formatted()}"
                  f"  (method: {_oprisk_label(config.oprisk_approach)})"),
        ]
    solvency = {row[1]: row for row in _solvency_rows(result) if not isinstance(row, str)}
    ratio = "full_ratio" if config.regime is Regime.BASEL2 else "credit_only_ratio"
    adequacy = [(label, *solvency[key][1:]) for label, key in (
        ("denominator:", "denominator"), ("solvency ratio:", ratio),
        ("minimum ratio:", "minimum_ratio"), ("minimum required:", "min_required_capital"),
        ("status:", "compliant"),
    )]
    return _text(
        "SEMIANNUAL CAPITAL ADEQUACY DISCLOSURE",
        _lines(_disclosure_rows(disclosure)),
        _section("OWN FUNDS: LEVEL AND STRUCTURE", _capital_rows(result.capital)),
        _section("RISK EXPOSURE AND CAPITAL PER RISK", risks),
        _section("CAPITAL ADEQUACY", adequacy),
        _section("CONFIGURATION ECHO", _config_rows(config, result.tables)),
    )


def disclosure_document(disclosure: DisclosureReport) -> dict:
    return {
        **_members(_disclosure_rows(disclosure)),
        "report": compute_document(disclosure.result),
    }
