"""Rendering of evaluations and comparisons: text tables, CSV, JSON.

Stored metrics are never altered here; integer half-up rounding of
percentages and indices happens at the string boundary of the text format
only.  Machine formats carry full precision (floats via repr, rationals as
"p/q" strings) and round-trip exactly.
"""

from __future__ import annotations

import csv
import io
import json
from collections import namedtuple
from dataclasses import fields, is_dataclass
from decimal import ROUND_HALF_UP, Decimal
from fractions import Fraction
from functools import cache, partial
from itertools import chain, groupby
from json.encoder import encode_basestring_ascii as json_string
from math import isfinite
from operator import attrgetter, itemgetter, methodcaller
from typing import TYPE_CHECKING, Callable, get_args, get_origin, get_type_hints

import numpy as np

from .engine import BeniPoint, ComparisonReport, ModelEvaluation
from .gains import Bucket, GainsChart, _row_cutoffs
from .rounding import fraction_cell, round_half_up
from .sample import CutOff
from .sample_csv import csv_table

if TYPE_CHECKING:  # imported by the economics functions, which alone use it
    from .economics import CampaignEconomics

CHART_HEADERS = [
    "Bucket", "#Resp", "P'↑max", "P'↑min", "P'↑avg", "PoP'marg", "PoP'cum",
    "BenI'marg", "BenI'cum", "BenI'max", "BenI/max",
]

BUCKET_CSV_HEADER = [
    "bucket_no", "names", "responders", "p_up_max", "p_up_min", "p_up_avg",
    "pop_marginal", "pop_cumulative", "beni_marginal", "beni_cumulative",
    "beni_max_cumulative", "attainment_ratio", "row_cutoff",
]

PROFILE_CSV_HEADER = ["cutoff", "beni", "beni_max", "attainment_ratio"]


def money_str(value: Fraction) -> str:
    """Decimal rendering of an exact money amount, half-up at two places."""
    dec = Decimal(value.numerator) / Decimal(value.denominator)
    dec = dec.quantize(Decimal("0.01"), rounding=ROUND_HALF_UP)
    return format(dec, "f").rstrip("0").rstrip(".") if dec else "0"  # never "-0"


def _cells(template: str, column) -> list[str]:
    """Each value of the column in template, all by one %."""
    return ("\n".join([template] * len(column)) % tuple(column)).split("\n")


def _rounded(columns: list) -> list[list[int]]:
    """Each column rounded half up, as ints (no chart figure comes near 2**63)."""
    return round_half_up(np.array(columns, dtype=np.float64)).astype(np.int64).tolist()


def _table(headers: list[str], columns: list[list[str]]) -> str:
    """The columns under their headers, each cell right-aligned to its column's
    width: one % of a row template, repeated per row, takes the cells row by row."""
    columns = [[header, *column] for header, column in zip(headers, columns)]
    template = "  ".join(f"%{max(map(len, column))}s" for column in columns)
    return "\n".join([template] * len(columns[0])) % tuple(chain.from_iterable(zip(*columns)))


def render_evaluation_text(evaluation: ModelEvaluation) -> str:
    chart = evaluation.gains
    number, _, responders, *units, beni_marginal, pop_marginal = zip(*chart.buckets)
    pop, pops, beni, benis, ceilings, shares = _rounded([
        pop_marginal, chart.pop_cumulative, beni_marginal, chart.beni_cumulative,
        chart.beni_max_cumulative, chart.attainment_ratio])
    # Bucket-unit rank sums (P'↑max, P'↑min, P'↑avg; P↑ sums P'↑avg) print as short decimals.
    p_up, p_down = _cells("%g", [sum(units[2]), chart.p_down_chart])
    approx, exact, low, high = _cells("%d%%", _rounded([
        chart.pop_approx, evaluation.pop_exact, chart.pop_min_variant, chart.pop_max_variant]))
    lines = [
        f"Model: {evaluation.model_id}",
        f"Buckets #B: {chart.bucket_count}   Sample #X: {chart.sample_size}   "
        f"Response rate R(X): {float(chart.base_rate * 100):g}%", "",
        _table(CHART_HEADERS, [
            _cells("%d", number), _cells("%d", responders), *(_cells("%g", u) for u in units),
            _cells("%d%%", pop), _cells("%d%%", pops), _cells("%d", beni), _cells("%d", benis),
            _cells("%d", ceilings), _cells("%d%%", shares)]), "",
        f"P↑ = {p_up}", f"P↓ = {p_down}", f"PoP = P↑/P↓ = {approx}", "",
        f"Score potential, exact ranking: {exact}",
        f"Score potential, chart approx:  {approx}  [min {low}, max {high}]",
    ]
    if evaluation.stretch_target is not None:
        verdict = "met" if evaluation.meets_stretch_target else "below target"
        lines.append(f"Stretch target {evaluation.stretch_target:g}%: {verdict}")
    if evaluation.degeneracy_flags:
        lines.append("Degeneracy: " + ", ".join(sorted(evaluation.degeneracy_flags)))
    beni, ceiling, share = _rounded(list(zip(*evaluation.beni_profile.values())))
    lines += ["", _table(["Cut-off", "BenI", "BenI max", "Attainment"], [
        list(map(str, evaluation.beni_profile)), _cells("%d", beni), _cells("%d", ceiling),
        _cells("%d%%", share)])]
    return "\n".join(lines) + "\n"


# The machine formats follow the fields and annotations of the report
# classes; the annotation picks each value's codec (_codec).  Only the CSV
# column order is written down by hand.
META_CSV_COLUMNS = [
    "model_id", "pop_exact", "pop_approx", "pop_approx_min", "pop_approx_max",
    "stretch_target", "meets_stretch_target", "degeneracy_flags",
    "bucket_count", "sample_size", "base_rate", "spacing", "p_down_chart",
]

# Fields whose CSV column has another name; a cut-off is keyed by its fraction, in JSON too.
FIELD_COLUMNS = {"pop_min_variant": "pop_approx_min", "pop_max_variant": "pop_approx_max",
                 "row_cutoffs": "row_cutoff", "fraction": "cutoff"}


def _flags(v: list) -> frozenset[str]:  # as written: non-empty strings, sorted, each once
    ok = all(type(f) is str and f for f in v) and v == sorted(set(v))
    return frozenset(_expect(v, ok, "a list of strings, non-empty, sorted and each once"))


# kinds: each exact JSON type that load takes, with its name for an error;
# dump: a value to JSON; load: a column (a list) of JSON values of those kinds
# to the list of their values; each None where the value is its own JSON;
# cell: a value, or a tuple's item, to a CSV cell, None where csv.writer's own
# str (repr for a float, "" for None) is the cell; parse: a CSV cell to a value
# (None: the value fills a section of its own).
_Codec = namedtuple("_Codec", "kinds dump load cell parse", defaults=(None,) * 4)


def _exactly(codec: _Codec) -> _Codec:
    """codec, whose parse takes only the cell csv.writer writes for the value."""
    read, write = codec.parse, codec.cell or str  # looked up once: int cells are many
    def parse(text: str):
        if (cell := "" if (value := read(text)) is None else write(value)) != text:
            raise ValueError(f"expected {cell!r}, not {text!r}")
        return value
    return codec._replace(parse=parse)


_BOOLS = {"true": True, "false": False}  # a bool's CSV cells; an empty one is None
_LEAF_CODECS = {
    str: _Codec({str: "a string"}, parse=str),
    int: _exactly(_Codec({int: "an integer"}, parse=int)),
    float: _Codec({float: "a float"}, parse=float),
    bool: _Codec({bool: "true, false"}, cell=lambda v: "true" if v else "false",
                 parse=lambda s: _BOOLS[_expect(s, s in _BOOLS, "true, false or empty")]),
    Fraction: _Codec({str: "a p/q string"}, str, lambda c: list(map(fraction_cell, c)),
                     parse=fraction_cell),
    frozenset[str]: _Codec({list: "a list of strings"}, sorted, lambda c: list(map(_flags, c)),
                           lambda v: ";".join(sorted(v)),
                           lambda s: _flags(s.split(";") if s else [])),
}


@cache
def _fields(cls) -> tuple[tuple[str, object, _Codec], ...]:
    """(name, annotation, codec) of each field of a dataclass or NamedTuple."""
    hints = get_type_hints(cls)
    names = [f.name for f in fields(cls)] if is_dataclass(cls) else cls._fields
    return tuple((name, hints[name], _codec(hints[name])) for name in names)


@cache
def _codec(hint) -> _Codec:
    if hint in _LEAF_CODECS:
        return _LEAF_CODECS[hint]
    args = get_args(hint)
    if type(None) in args:  # X | None: X's codec, where None is null or an empty CSV cell
        item = _codec(next(a for a in args if a is not type(None)))
        dump, cell = (f and partial(_or_none, f) for f in (item.dump, item.cell))
        def load(column: list) -> list:  # X's load of the values other than None
            loaded = iter(item.load([v for v in column if v is not None]))
            return [None if v is None else next(loaded) for v in column]
        return _Codec(item.kinds | {type(None): "null"}, dump, item.load and load, cell,
                      item.parse and (lambda s: None if s == "" else item.parse(s)))
    if get_origin(hint) is tuple:  # tuple[X, ...]: a JSON list; in CSV, a table column
        item = _codec(args[0])
        dump = list if item.dump is None else lambda v: list(map(item.dump, v))
        cell = item.cell and partial(map, item.cell)
        if args[0] is Fraction:  # the row cut-offs of a chart: one column of text, as cached
            dump = cell = _fraction_text
        return _Codec({list: "a list"}, dump, lambda lists: [tuple(_take(item, v)) for v in lists],
                      cell, item.parse)  # each list loads as a column
    if get_origin(hint) is dict:  # dict[K, V]: a list of V objects, each with K's one field
        ((key_field, _, key),) = _fields(args[0])
        name, value = FIELD_COLUMNS.get(key_field, key_field), _codec(args[1])
        def load_entries(entries: list) -> dict:  # from copies, which give up their keys
            entries = [dict(e) for e in _take(value._replace(load=None), entries)]
            keys = map(args[0], _take(key, _values(entries, methodcaller("pop", name))))
            return _once_each(list(zip(keys, _take(value, entries))), name)
        return _Codec({list: "a list"}, lambda m: [
            {name: key.dump(getattr(k, key_field)), **value.dump(v)} for k, v in m.items()],
            lambda profiles: list(map(load_entries, profiles)))
    # A dataclass or NamedTuple: a JSON object of its fields, of which only those with a
    # dump are converted (vars(o) copies faster, but gives the object a __dict__ that slows
    # its reads).  Objects load as the CSV reader builds them: a column per field, one map.
    names, _, codecs = zip(*_fields(hint))
    read, getters = attrgetter(*names), list(map(itemgetter, names))
    dumped = [(i, c.dump) for i, c in enumerate(codecs) if c.dump is not None]
    takes = [partial(_take, c) for c in codecs]

    def dump(o) -> dict:
        values = read(o)
        if dumped:  # else (Bucket, BeniPoint) the values are their own JSON: one zip
            values = list(values)
            for i, convert in dumped:
                values[i] = convert(values[i])
        return dict(zip(names, values))

    def load(docs: list) -> list:  # the keys of every object, then its values
        columns = [_values(docs, get) for get in getters]
        if not set(map(len, docs)) <= {len(names)}:  # each holds its fields, so another key
            unknown = next(doc.keys() - names for doc in docs if len(doc) != len(names))
            raise ValueError(f"unknown key {min(unknown)!r}")
        return list(map(hint, *map(_named, names, takes, columns)))

    return _Codec({dict: "an object"}, dump, load)


def _fraction_text(values: tuple[Fraction, ...]) -> list[str]:
    """Each p/q's str; the row cut-offs of a chart from the text gains keeps beside them."""
    cutoffs, text = _row_cutoffs(len(values))
    return list(text if values == cutoffs else map(str, values))


def _or_none(convert: Callable, value):
    return None if value is None else convert(value)


def _named(name: str, convert: Callable, value):  # errors named by path: "gains: buckets: ..."
    try:
        return convert(value)
    except ValueError as err:
        raise ValueError(f"{name}: {err}") from None


def _take(codec: _Codec, column: list) -> list:
    """The column loaded by the codec, whose kinds it checks once, naming the first other."""
    if not codec.kinds.keys() >= set(map(type, column)):
        for value in column:
            _expect(value, type(value) in codec.kinds, " or ".join(codec.kinds.values()))
    return column if codec.load is None else codec.load(column)


def _values(docs: list[dict], get: Callable) -> list:
    """get of each object, where a KeyError is the key an object lacks."""
    try:
        return list(map(get, docs))
    except KeyError as err:
        raise ValueError(f"lacks the key {err}") from None


def _once_each(pairs: list, name: str) -> dict:
    """A dict of the (key, value) pairs, where no key may come twice."""
    if len(mapping := dict(pairs)) != len(pairs):
        raise ValueError(f"a {name} is listed twice")
    return mapping


def _expect(value, ok: bool, expected: str):
    if not ok:
        raise ValueError(f"expected {expected}, not {value!r}")
    return value


def _section(header: list[str], *owners: tuple[type, Callable]) -> list[tuple]:
    """One CSV section: a (name, codec, column) per name of the header.

    A column holds the one field of its name among the owners (class, rows), where rows
    takes an evaluation to the class's objects in the section's rows; a tuple field holds
    a whole column, which its codec's cell writes whole.  column gives the cells.
    """
    section = []
    for name in header:
        claims = [(rows, f, hint, codec) for cls, rows in owners
                  for f, hint, codec in _fields(cls) if FIELD_COLUMNS.get(f, f) == name]
        if len(claims) != 1:
            raise ValueError(f"the CSV column {name} is claimed by {len(claims)} fields, not 1")
        ((rows, field, hint, codec),) = claims
        section.append((name, codec, _column(rows, attrgetter(field),
                                             get_origin(hint) is tuple, codec.cell)))
    return section


def _column(rows: Callable, get: Callable, whole: bool, cell: Callable | None) -> Callable:
    def column(evaluation: ModelEvaluation):
        values = get(*rows(evaluation)) if whole else map(get, rows(evaluation))
        return values if cell is None else cell(values) if whole else map(cell, values)
    return column


# The meta, bucket and profile sections: each header and its owners (_section).
_CHART = (GainsChart, lambda e: (e.gains,))
_CSV_SECTIONS = (
    (META_CSV_COLUMNS, (ModelEvaluation, lambda e: (e,)), _CHART),
    (BUCKET_CSV_HEADER, (Bucket, attrgetter("gains.buckets")), _CHART),
    (PROFILE_CSV_HEADER, (CutOff, attrgetter("beni_profile")),
     (BeniPoint, lambda e: e.beni_profile.values())),
)


@cache
def _sections() -> tuple[list[tuple], ...]:
    """The sections of _CSV_SECTIONS, built on first use; meta cells load only as written."""
    meta, *tables = (_section(*spec) for spec in _CSV_SECTIONS)
    return ([(name, _exactly(codec), column) for name, codec, column in meta], *tables)


def evaluation_to_dict(evaluation: ModelEvaluation) -> dict:
    return _codec(ModelEvaluation).dump(evaluation)


def evaluation_from_dict(data: dict) -> ModelEvaluation:
    """The evaluation of its JSON document, or of the document evaluate writes with the
    economics flags, whose economics must be those its first three figures give."""
    economic = type(data) is dict and data.keys() == {"economics", "evaluation"}
    evaluation = _take(_codec(ModelEvaluation), [data["evaluation"] if economic else data])[0]
    if economic and not _is_economics_summary(data["economics"]):
        raise ValueError("economics: expected the summary that its first three figures give")
    return evaluation


# How json.dumps spells each JSON leaf: NaN and +-Infinity, never nan or inf.
_JSON_LEAVES = {str: json_string, int: int.__repr__, type(None): lambda _: "null",
                bool: lambda b: "true" if b else "false",
                float: lambda x: float.__repr__(x) if isfinite(x) else json.dumps(x)}


def to_json(data: dict) -> str:
    """json.dumps(data, indent=2, sort_keys=True) and a newline, byte for byte,
    without the pure-Python encoder that json.dumps takes under an indent."""
    return _items([data], "\n")[0] + "\n"


def _items(values, indent: str) -> list[str]:
    """The JSON of each of values, where indent starts each line: a column of one
    leaf type in one pass, objects of one key set a key column at a time into one
    template, each list or tuple as its items' column in brackets, else a value at a time."""
    kinds = set(map(type, values))
    kind = kinds.pop() if len(kinds) == 1 else None
    if f := _JSON_LEAVES.get(kind):  # a finite sum: no float is NaN or +-inf
        return list(map(float.__repr__ if kind is float and isfinite(sum(values)) else f, values))
    inner = indent + "  "
    if kind is dict and (keys := sorted(values[0])) and all(
            v.keys() == values[0].keys() for v in values):
        template = "{" + ",".join(f"{inner}{json_string(key).replace('%', '%%')}: %s"
                                  for key in keys) + indent + "}"
        columns = [_items(list(map(itemgetter(key), values)), inner) for key in keys]
        return [template % row for row in zip(*columns)]
    if kind in (list, tuple):
        return [f"[{inner}{(',' + inner).join(_items(v, inner))}{indent}]" if v else "[]"
                for v in values]
    if len(values) > 1:  # mixed kinds, or objects of other key sets
        return [_items([v], indent)[0] for v in values]
    if kind is dict:  # a lone empty object
        return ["{}"]
    raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")


def evaluation_to_csv(evaluation: ModelEvaluation,
                      economics: CampaignEconomics | None = None) -> str:
    meta, *tables = ([[name, *column(evaluation)] for name, _, column in section]
                     for section in _sections())
    sections = [list(zip(*meta)), *tables]  # each meta column is a row: name,value
    if economics is not None:
        sections.append(list(zip(*_economics_rows(economics))))
    return "\n".join(map(csv_table, sections))  # an empty line between sections


def _economics_rows(economics: CampaignEconomics) -> list[list[str]]:
    """The economics section: the dump's items, with the spreading loss as its loss."""
    summary = economics_summary(economics)
    if (loss := summary["spreading_loss"]) is not None:
        summary["spreading_loss"] = loss["loss"]
    return [[name, "" if value is None else str(value)] for name, value in summary.items()]


def _is_economics(rows: list[list[str]]) -> bool:
    """Whether rows are the economics section written for the figures of their first three."""
    from .economics import CampaignEconomics
    try:
        (_, total), (_, addresses), (_, responders), *_ = rows
        return rows == _economics_rows(
            CampaignEconomics(fraction_cell(total), int(addresses), int(responders)))
    except ValueError:
        return False


def _is_economics_summary(summary) -> bool:
    """Whether summary is, as JSON text, the economics summary of its first three figures."""
    from .economics import CampaignEconomics
    try:
        given = [_take(c, [summary[name]])[0] for name, _, c in _fields(CampaignEconomics)[:3]]
        return to_json(summary) == to_json(economics_summary(CampaignEconomics(*given)))
    except (KeyError, TypeError, ValueError):
        return False


def _read_table(rows: list[list[str]], section: list[tuple]) -> dict[str, list]:
    names = [name for name, _, _ in section]
    if list(rows[0]) != names or any(len(row) != len(names) for row in rows):
        raise ValueError(f"expected a table of the columns {names}")
    cells = list(zip(*rows[1:])) or [()] * len(section)
    return {name: _named(name, list, map(codec.parse, column))
            for (name, codec, _), column in zip(section, cells)}


def _build(cls, columns: dict):
    """One cls per row of the columns named after its fields; a tuple field takes a column."""
    return map(cls, *(
        [tuple(columns[FIELD_COLUMNS.get(field, field)])] if get_origin(hint) is tuple
        else columns[FIELD_COLUMNS.get(field, field)]
        for field, hint, _ in _fields(cls)))


def evaluation_from_csv(text: str) -> ModelEvaluation:
    # Sections are runs of non-empty rows.
    sections = [list(rows) for filled, rows in groupby(csv.reader(io.StringIO(text)), bool)
                if filled]
    _expect(len(sections), len(sections) >= 3, "meta, bucket, and profile sections")
    meta_section, bucket_section, profile_section = _sections()
    for row in sections[0]:
        _expect(",".join(row), len(row) == 2, "a meta row 'name,value'")
    # The meta rows, transposed, are a table of one row.
    meta = _read_table(list(zip(*sections[0])), meta_section)
    table = _read_table(sections[1], bucket_section)
    points = _read_table(sections[2], profile_section)
    (chart,) = _build(GainsChart, {**meta, **table, "buckets": _build(Bucket, table)})
    profile = _once_each(list(zip(_build(CutOff, points), _build(BeniPoint, points))), "cutoff")
    (evaluation,) = _build(ModelEvaluation, {**meta, "gains": [chart], "beni_profile": [profile]})
    for number, rows in enumerate(sections[3:], start=4):
        if number > 4 or not _is_economics(rows):
            raise ValueError(f"section {number}: only the economics section its first three "
                             "rows give may follow the profile")
    return evaluation


def _render(fmt: str, value, text: Callable, to_dict: Callable, to_csv: Callable) -> str:
    renderers = {"text": text, "json": lambda v: to_json(to_dict(v)), "csv": to_csv}
    if fmt not in renderers:
        raise ValueError(f"unknown format {fmt!r}")
    return renderers[fmt](value)


def render_combined_chart(evaluation: ModelEvaluation, fmt: str = "text",
                          economics: CampaignEconomics | None = None) -> str:
    """Render one evaluation as the combined BenI/PoP document, followed by
    the campaign economics when they are given."""
    if economics is None:
        return _render(fmt, evaluation, render_evaluation_text, evaluation_to_dict,
                       evaluation_to_csv)
    return _render(fmt, evaluation,
                   lambda e: f"{render_evaluation_text(e)}\n{render_economics_text(economics)}",
                   lambda e: {"evaluation": evaluation_to_dict(e),
                              "economics": economics_summary(economics)},
                   lambda e: evaluation_to_csv(e, economics))


def comparison_to_csv(report: ComparisonReport) -> str:
    evaluations = report.evaluations  # a row each, under the meta columns up to the flags
    return csv_table([["rank", *report.ranks], *(
        [name, *chain.from_iterable(map(column, evaluations))]
        for name, _, column in _sections()[0][:7])])


def render_comparison_text(report: ComparisonReport) -> str:
    gates = {None: "", True: "met", False: "below"}
    evaluations = report.evaluations
    pops, approxes = _rounded([[e.pop_exact for e in evaluations],
                               [e.gains.pop_approx for e in evaluations]])
    lines = ["Ranking by exact score potential", "", _table(
        ["#", "Model", "PoP", "PoP'", "Target"],
        [_cells("%d", report.ranks), [e.model_id for e in evaluations],
         _cells("%d%%", pops), _cells("%d%%", approxes),
         [gates[e.meets_stretch_target] for e in evaluations]])]
    if report.below_target:
        lines += ["", "Below stretch target: " + ", ".join(report.below_target)]
    return "\n".join(lines) + "\n"


def render_comparison(report: ComparisonReport, fmt: str = "text") -> str:
    return _render(fmt, report, render_comparison_text, _codec(ComparisonReport).dump,
                   comparison_to_csv)


def economics_summary(econ: CampaignEconomics) -> dict:
    """All cost figures for one campaign; exact rationals as strings."""
    from .economics import CampaignEconomics
    return _codec(CampaignEconomics).dump(econ)


def render_economics_text(econ: CampaignEconomics) -> str:
    lines = [
        "Campaign economics",
        f"Total cost: {money_str(econ.total_cost)}   Addresses: {econ.addresses}   "
        f"Responders: {econ.responders}",
        f"Cost per thousand: {money_str(econ.cost_per_thousand)}",
    ]
    if (loss := econ.spreading_loss) is None:
        lines.append("Cost per responder: undefined (no responders)")
    else:
        lines += [f"Cost per responder: {money_str(econ.cost_per_responder)}",
                  "Spreading loss (per action - per responder): "
                  f"{money_str(loss.cost_per_action)} - {money_str(loss.cost_per_responder)}"
                  f" = {money_str(loss.loss)}"]
    return "\n".join(lines) + "\n"
