"""Report rendering: fixed-width text for humans, key-value JSON for machines.

Every report carries a config echo (regime, approaches, policies, table
provenance) so any number in it can be reproduced. Output is deterministic
byte-for-byte for identical inputs: no timestamps, fixed section order,
fixed key order in the machine document. Percentages render with two decimal
places and amounts at minor-unit precision; rounding happens only at render
time, on top of already-exact values.
"""

from __future__ import annotations

import json
from fractions import Fraction
from json.encoder import encode_basestring_ascii

from .aggregation import REFERENCE_ALLOCATION, CapitalReport
from .config import CreditApproach, EngineConfig, Regime
from .engine import (
    CompareResult,
    ComputeResult,
    DisclosureReport,
    OpRiskResult,
    TableSet,
)
from .model import CapitalBase
from .money import format_percent, units_text
from .oprisk import ApproachKind, BusinessLine, OpRiskApproach

RULE = "=" * 72
LIGHT_RULE = "-" * 72

UNDEFINED_RATIO = "undefined (no risk-bearing assets)"

DISCLOSURE_SCOPE = "single entity"

_CREDIT_LABELS = {
    CreditApproach.STANDARDIZED: "standardized (external ratings)",
    CreditApproach.IRB_FOUNDATION: "internal ratings, foundation",
    CreditApproach.IRB_ADVANCED: "internal ratings, advanced",
}

_BANK_POLICY_NOTES = {
    "low_end": "bank-row range cells resolved to the low end (50%), both cells together",
    "high_end": "bank-row range cells resolved to the high end (100%), both cells together",
}

TSA_FOOTNOTE = (
    "note: income is measured per business line by gross income for every line;"
    " the published per-line activity measures (average assets, volumes) are"
    " not used by the charge formula."
)


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


def _config_echo_lines(config: EngineConfig, tables: TableSet) -> list[str]:
    lines = [
        f"regime:            {config.regime.key}",
        f"credit approach:   {_CREDIT_LABELS[config.credit_approach]}",
        f"bank option:       {_BANK_POLICY_NOTES[config.bank_policy.key]}",
    ]
    if config.credit_approach.uses_irb:
        lines.append(f"risk-weight fn:    {config.irb_function}")
    if config.regime is Regime.BASEL2 and config.oprisk_approach is not None:
        lines.append(f"oprisk approach:   {config.oprisk_approach.key}")
        lines.append(f"negative-GI rule:  {config.negative_gi_policy.key}")
    lines.append(f"weights table:     {tables.risk_weights.source}")
    lines.append(f"ccf table:         {tables.ccf.source}")
    if config.regime is Regime.BASEL2:
        lines.append(f"beta table:        {tables.betas.source}")
    lines.append(f"currency:          {config.currency}")
    return lines


def _capital_lines(capital: CapitalBase) -> list[str]:
    lines = [f"total own funds:   {capital.total_own_funds.formatted()}"]
    if capital.tier1 is not None and capital.tier2 is not None:
        lines.append(f"  core (tier 1):   {capital.tier1.formatted()}")
        lines.append(f"  suppl. (tier 2): {capital.tier2.formatted()}")
    return lines


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


def _oprisk_section(result: OpRiskResult, approach: OpRiskApproach) -> list[str]:
    lines = ["OPERATIONAL RISK", LIGHT_RULE]
    lines.append(f"approach:          {_oprisk_label(approach)}")
    if result.income_span:
        lines.append(f"income years:      {result.income_span}")
    if result.note:
        lines.append(f"note:              {result.note}")
    if result.average_income is not None:
        lines.append(f"average income:    {result.average_income.formatted()}")
    if result.tsa is not None:
        for line in BusinessLine:
            charge = result.tsa.per_line[line]
            lines.append(f"  {line.key:<24} {charge.formatted():>18}")
        lines.append(f"  {TSA_FOOTNOTE}")
    lines.append(f"operational charge: {result.charge.formatted()}")
    return lines


def _shares_lines(report: CapitalReport) -> list[str]:
    lines = ["denominator shares (data-driven vs published 75/20/5 reference):"]
    if report.shares is None:
        lines.append("  undefined: the denominator is zero")
        return lines
    for key, label in (("credit", "credit"), ("oprisk", "operational"),
                       ("market", "market")):
        share = report.shares[key]
        reference = REFERENCE_ALLOCATION[key]
        lines.append(
            f"  {label:<12} {format_percent(share):>8}"
            f"   (reference {format_percent(reference)})"
        )
    return lines


def _solvency_section(result: ComputeResult) -> list[str]:
    report = result.report
    config = result.config
    lines = ["SOLVENCY", LIGHT_RULE]
    lines.extend(_capital_lines(result.capital))
    if config.regime is Regime.BASEL2:
        market = result.market_charge
        lines.append(f"market charge (input): {market.formatted()}")
        lines.append(
            "denominator = credit RWA + 12.5 x market charge"
            " + 12.5 x operational charge"
        )
    else:
        lines.append("denominator = credit RWA (credit-only regime)")
    lines.append(f"denominator:       {report.denominator.formatted()}")
    if config.regime is Regime.BASEL2:
        lines.append(f"solvency ratio (full denominator): {_ratio_text(report.mcdonough)}")
        lines.append(f"credit-only reference ratio:       {_ratio_text(report.cooke)}")
        lines.extend(_shares_lines(report))
    else:
        lines.append(f"solvency ratio (credit-only):      {_ratio_text(report.cooke)}")
    lines.append(f"minimum ratio:     {format_percent(report.minimum_ratio)}")
    if report.addon.units:
        lines.append(f"capital add-on:    {report.addon.formatted()}")
    lines.append(f"minimum required:  {report.min_required_capital.formatted()}")
    surplus_label = "surplus" if not report.surplus.is_negative else "shortfall"
    surplus_amount = (
        report.surplus if not report.surplus.is_negative else -report.surplus
    )
    lines.append(f"{surplus_label + ':':<19}{surplus_amount.formatted()}")
    lines.append(f"status:            {_status(report.compliant)}")
    return lines


def render_compute_text(result: ComputeResult) -> str:
    """The human-readable run report."""
    parts = [RULE, "REGULATORY CAPITAL REPORT", RULE]
    parts.extend(_config_echo_lines(result.config, result.tables))
    parts.append("")
    parts.extend(_credit_section(result))
    parts.append("")
    if result.oprisk is not None:
        parts.extend(_oprisk_section(result.oprisk, result.config.oprisk_approach))
        parts.append("")
    parts.extend(_solvency_section(result))
    parts += (RULE, "")  # the empty last part ends the text with a newline
    return "\n".join(parts)


def _ratio_doc(ratio: Fraction | None) -> str | None:
    return format_percent(ratio) if ratio is not None else None


def _config_doc(config: EngineConfig, tables: TableSet) -> dict:
    doc = {
        "regime": config.regime.key,
        "credit_approach": config.credit_approach.key,
        "bank_option_policy": config.bank_policy.key,
        "currency": config.currency,
        "tables": {
            "risk_weights": tables.risk_weights.source,
            "ccf": tables.ccf.source,
            "betas": tables.betas.source,
        },
    }
    if config.credit_approach.uses_irb:
        doc["irb_function"] = config.irb_function
    if config.oprisk_approach is not None:
        doc["oprisk_approach"] = config.oprisk_approach.key
        doc["negative_gi_policy"] = config.negative_gi_policy.key
    if config.min_ratio_override is not None:
        doc["min_ratio_override"] = format_percent(config.min_ratio_override)
    if config.capital_addon is not None:
        doc["capital_addon"] = config.capital_addon.text()
    if config.adjustment_justification:
        doc["adjustment_justification"] = config.adjustment_justification
    if config.disclosure_period:
        doc["disclosure_period"] = config.disclosure_period
    return doc


def _credit_lines_doc(result: ComputeResult) -> list[dict]:
    view = result.credit.lines
    if result.config.credit_approach is CreditApproach.STANDARDIZED:
        keys = view.keys
        return [
            {
                "id": exposure_id,
                "ccf": keys[index].ccf_text,
                "weight": keys[index].weight_text,
                "amount": units_text(units),
            }
            for exposure_id, index, units in zip(view.ids, view.key_index, view.units)
        ]
    return [
        {
            "id": exposure_id,
            "pd": pd,
            "lgd": lgd,
            "maturity_years": maturity,
            "ead": units_text(ead),
            "weight": weight,
            "amount": units_text(units),
            "off_balance": off_balance,
        }
        for exposure_id, pd, lgd, maturity, ead, weight, units, off_balance in zip(
            view.ids, view.pd_texts, view.lgd_texts, view.maturity_texts,
            view.ead_units, view.weight_texts, view.units, view.off_balance,
        )
    ]


def compute_document(result: ComputeResult) -> dict:
    """The machine-readable run document (plain JSON-able types)."""
    report = result.report
    config = result.config
    credit = result.credit
    doc: dict = {
        "config": _config_doc(config, result.tables),
        "credit": {
            "approach": config.credit_approach.key,
            "total_rwa": credit.total_rwa.text(),
            "lines": _credit_lines_doc(result),
        },
        "capital": {
            "total_own_funds": result.capital.total_own_funds.text(),
            "tier1": (
                result.capital.tier1.text()
                if result.capital.tier1 is not None
                else None
            ),
            "tier2": (
                result.capital.tier2.text()
                if result.capital.tier2 is not None
                else None
            ),
        },
        "solvency": {
            "denominator": report.denominator.text(),
            "full_ratio": _ratio_doc(report.mcdonough),
            "credit_only_ratio": _ratio_doc(report.cooke),
            "minimum_ratio": format_percent(report.minimum_ratio),
            "capital_addon": report.addon.text(),
            "min_required_capital": report.min_required_capital.text(),
            "surplus": report.surplus.text(),
            "compliant": report.compliant,
            "shares": (
                {
                    key: format_percent(share)
                    for key, share in sorted(report.shares.items())
                }
                if report.shares is not None
                else None
            ),
        },
    }
    if result.oprisk is not None:
        oprisk_doc: dict = {
            "approach": config.oprisk_approach.key,
            "negative_gi_policy": config.negative_gi_policy.key,
            "charge": result.oprisk.charge.text(),
        }
        if result.oprisk.average_income is not None:
            oprisk_doc["average_income"] = result.oprisk.average_income.text()
        if result.oprisk.tsa is not None:
            oprisk_doc["per_line"] = {
                line.key: result.oprisk.tsa.per_line[line].text()
                for line in BusinessLine
            }
        if result.oprisk.income_span:
            oprisk_doc["income_years"] = result.oprisk.income_span
        if result.oprisk.note:
            oprisk_doc["note"] = result.oprisk.note
        doc["oprisk"] = oprisk_doc
    if result.market_charge is not None:
        doc["market"] = {"capital_charge": result.market_charge.text()}
    return doc


_LITERALS = {None: "null", True: "true", False: "false"}

# Members of a list whose texts are joined into one string at a time.
_CHUNK = 1024


def _write(value, indent: str, out: list[str], layouts: dict) -> None:
    """Append one JSON value to ``out``, laid out as
    json.dumps(sort_keys=True, indent=2) lays it out.

    Every finished text goes straight into ``out``, so a dict's members
    are never copied into a text of the dict. A list joins what its members
    appended into one string every ``_CHUNK`` members, so the document is
    never held as millions of small fragments.

    ``layouts`` maps a dict's keys, in insertion order, to the indent it
    was last written at and each key in sorted order with the text that
    goes before its value: the dicts of a list of report lines sort their
    keys and escape them once.
    """
    if isinstance(value, str):
        out.append(encode_basestring_ascii(value))
    elif value is None or value is True or value is False:
        out.append(_LITERALS[value])
    elif isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        order = tuple(value)
        layout = layouts.get(order)
        if layout is None or layout[0] != indent:
            keys = sorted(order)
            inner = indent + "  "
            heads = [f",\n{inner}{encode_basestring_ascii(key)}: " for key in keys]
            heads[0] = heads[0][1:]  # no comma before the first member
            layout = layouts[order] = indent, tuple(zip(keys, heads))
        out.append("{")
        for key, head in layout[1]:
            member = value[key]
            # Scalars are written in place, without a call: a report line
            # dict holds little else.
            if isinstance(member, str):
                out.append(head + encode_basestring_ascii(member))
            elif member is None or member is True or member is False:
                out.append(head + _LITERALS[member])
            else:
                out.append(head)
                _write(member, indent + "  ", out, layouts)
        out.append(f"\n{indent}}}")
    elif isinstance(value, (list, tuple)):
        if not value:
            out.append("[]")
            return
        inner = indent + "  "
        separator = f"[\n{inner}"
        following = f",\n{inner}"
        for first in range(0, len(value), _CHUNK):
            start = len(out)
            for member in value[first:first + _CHUNK]:
                out.append(separator)
                _write(member, inner, out, layouts)
                separator = following
            out[start:] = ["".join(out[start:])]
        out.append(f"\n{indent}]")
    else:
        out.append(json.dumps(value))


def render_json(document: dict) -> str:
    """The machine document: byte-identical to json.dumps(document,
    sort_keys=True, indent=2) plus a final newline. The document's text is
    joined exactly once."""
    out: list[str] = []
    _write(document, "", out, {})
    out.append("\n")
    return "".join(out)


def render_compare_text(comparison: CompareResult) -> str:
    """Side-by-side regime report with the reform markers."""
    credit_only = comparison.credit_only.report
    full = comparison.full.report
    parts = [RULE, "REGIME COMPARISON", RULE]
    parts.extend(
        _config_echo_lines(comparison.full.config, comparison.full.tables)
    )
    parts.append("")
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
    parts.extend(f"{label:<28}{left:>18}{right:>18}" for label, left, right in rows)
    parts.append("")
    delta = comparison.required_delta
    sign = "-" if delta.is_negative else "+"
    magnitude = -delta if delta.is_negative else delta
    parts.append(
        f"additional capital required by the full regime: {sign}{magnitude.formatted()}"
    )
    parts.append("")
    parts.append("reform markers applied in this run:")
    for novelty in comparison.novelties:
        box = "[x]" if novelty.applied else "[ ]"
        parts.append(f"  {box} {novelty.name}: {novelty.note}")
    parts += (RULE, "")
    return "\n".join(parts)


def compare_document(comparison: CompareResult) -> dict:
    return {
        "credit_only": compute_document(comparison.credit_only),
        "full": compute_document(comparison.full),
        "required_delta": comparison.required_delta.text(),
        "novelties": [
            {"name": n.name, "applied": n.applied, "note": n.note}
            for n in comparison.novelties
        ],
    }


def render_disclosure_text(disclosure: DisclosureReport) -> str:
    """The semiannual public document; field set is extensible."""
    result = disclosure.result
    report = result.report
    config = result.config
    parts = [RULE, "SEMIANNUAL CAPITAL ADEQUACY DISCLOSURE", RULE]
    parts.append(f"period:            {config.disclosure_period}")
    parts.append(f"scope:             {DISCLOSURE_SCOPE}")
    parts.append("")
    parts.append("OWN FUNDS: LEVEL AND STRUCTURE")
    parts.append(LIGHT_RULE)
    parts.extend(_capital_lines(result.capital))
    parts.append("")
    parts.append("RISK EXPOSURE AND CAPITAL PER RISK")
    parts.append(LIGHT_RULE)
    parts.append(
        f"credit:            rwa {result.credit.total_rwa.formatted()}"
        f"  (method: {_CREDIT_LABELS[config.credit_approach]})"
    )
    if config.regime is Regime.BASEL2:
        market = result.market_charge
        parts.append(
            f"market:            charge {market.formatted()}  (method: input figure)"
        )
        parts.append(
            f"operational:       charge {result.oprisk.charge.formatted()}"
            f"  (method: {_oprisk_label(config.oprisk_approach)})"
        )
    parts.append("")
    parts.append("CAPITAL ADEQUACY")
    parts.append(LIGHT_RULE)
    parts.append(f"denominator:       {report.denominator.formatted()}")
    if config.regime is Regime.BASEL2:
        parts.append(f"solvency ratio:    {_ratio_text(report.mcdonough)}")
    else:
        parts.append(f"solvency ratio:    {_ratio_text(report.cooke)}")
    parts.append(f"minimum ratio:     {format_percent(report.minimum_ratio)}")
    parts.append(f"minimum required:  {report.min_required_capital.formatted()}")
    parts.append(f"status:            {_status(report.compliant)}")
    parts.append("")
    parts.append("CONFIGURATION ECHO")
    parts.append(LIGHT_RULE)
    parts.extend(_config_echo_lines(config, result.tables))
    parts += (RULE, "")
    return "\n".join(parts)


def disclosure_document(disclosure: DisclosureReport) -> dict:
    doc = compute_document(disclosure.result)
    return {
        "period": disclosure.result.config.disclosure_period,
        "scope": DISCLOSURE_SCOPE,
        "report": doc,
    }
