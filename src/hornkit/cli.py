"""Command-line front end: parse system descriptions, run analyses, and emit
JSON reports or SVG figures.

Exit codes: 0 success, 2 parse/usage error, 3 precondition violation.
Errors are written as JSON objects on stderr.
"""

from __future__ import annotations

import json
import sys
from json.encoder import encode_basestring_ascii as _escape

import click
from click.core import ParameterSource

from .operators import apply_horn
from .puiseux import PuiseuxPolynomial, _parse_int, format_rational
from .render import polygon_svg, supports_svg
from .series import (
    ResonantCollisionError,
    branch_base_points,
    branch_initial_exponent,
    series_from_submatrix,
)
from .solver import (
    SUGGEST_BOUND,
    SUGGEST_WINDOW,
    Report,
    suggest_polynomial_parameters,
    validate_persistence,
)
from .system import HornSystem, check_nonconfluent, enumerate_atomic


def _fail(code: int, message: str):
    json.dump({"error": message}, sys.stderr)
    sys.stderr.write("\n")
    sys.exit(code)


def _load_system(path: str) -> HornSystem:
    try:
        with open(path) as fh:
            data = json.load(fh, parse_int=_parse_int)
        return HornSystem.from_json(data)
    except (OSError, ValueError, KeyError, TypeError, RecursionError) as exc:
        _fail(2, f"cannot parse system file {path}: {exc}")


def _check_window(window: int | None) -> int | None:
    if window is not None and window < 0:
        _fail(2, f"--window must be nonnegative, got {window}")
    return window


def _check_bound(bound: int) -> int:
    if bound < 1:
        _fail(2, f"--bound must be at least 1, got {bound}")
    return bound


def _emit(payload, out: str | None):
    """Write the report `payload` as indent-1 JSON text and a newline
    (`_json_text`)."""
    _write(_json_text(payload), out)


def _json_text(payload) -> str:
    """`json.dumps(payload, indent=1)` and a newline, byte for byte, for a
    payload of str, int, bool, None, list and dict with str keys, in which a
    `_Records` stands for the list of its records' JSON values; any other
    type raises TypeError.  Before Python 3.13 `indent` selects the
    pure-Python encoder, which this one walk into a list of pieces beats
    about 2.5 times; on 3.13, whose encoder is C, the writer is about twice
    as slow, a millisecond or so on the largest reports.  Strings are
    escaped by the encoder's own `encode_basestring_ascii`.  Payloads are
    trees, so cycles are not checked.  The one join at the end makes the
    only full-size copy of the text."""
    parts: list[str] = []
    _put_json(payload, parts, "\n")
    parts.append("\n")
    return "".join(parts)


class _Records:
    """A JSON list of regular records, which `write(items, parts, nl)`
    appends to parts as text, each record at the depth whose line break and
    indent is nl and led by that break, the records after the first by a
    comma too: the solutions of `solve` and `analyze` and the coefficients
    of a series table, written straight from their integers, without a
    dict or a call per record."""

    __slots__ = ("items", "write")

    def __init__(self, items: list, write):
        self.items, self.write = items, write


def _put_json(o, parts: list[str], nl: str):
    """Append the pieces of o, at the depth whose line break and indent is
    nl, to parts.  A str item, the common leaf, is written in place."""
    if isinstance(o, list):
        if not o:
            parts.append("[]")
            return
        inner = nl + " "
        sep = "[" + inner
        for x in o:
            if type(x) is str:
                parts.append(sep + _escape(x))
            else:
                parts.append(sep)
                _put_json(x, parts, inner)
            sep = "," + inner
        parts.append(nl + "]")
    elif isinstance(o, dict):
        if not o:
            parts.append("{}")
            return
        inner = nl + " "
        sep = "{" + inner
        for key, x in o.items():
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            if type(x) is str:
                parts.append(f"{sep}{_escape(key)}: {_escape(x)}")
            else:
                parts.append(f"{sep}{_escape(key)}: ")
                _put_json(x, parts, inner)
            sep = "," + inner
        parts.append(nl + "}")
    elif isinstance(o, str):
        parts.append(_escape(o))
    elif o is None:
        parts.append("null")
    elif o is True:
        parts.append("true")
    elif o is False:
        parts.append("false")
    elif isinstance(o, int):
        parts.append(int.__repr__(o))
    elif type(o) is _Records:
        if not o.items:
            parts.append("[]")
            return
        parts.append("[")
        o.write(o.items, parts, nl + " ")
        parts.append(nl + "]")
    else:
        raise TypeError(f"Object of type {type(o).__name__} is not JSON serializable")


def _write(text: str, out: str | None):
    # not click.echo, whose scan for ANSI codes never changes JSON text
    if out is not None:
        try:
            with open(out, "w") as fh:
                fh.write(text)
        except OSError as exc:
            _fail(2, f"cannot write {out}: {exc}")
    else:
        sys.stdout.write(text)


def _require_nonconfluent(s: HornSystem, allow: bool):
    if not check_nonconfluent(s) and not allow:
        _fail(3, "system is confluent; pass --allow-confluent to proceed")


def _polygon(report: Report):
    try:
        return report.polygon
    except ValueError as exc:  # rows that do not span rank 2
        _fail(3, str(exc))


def _pair_json(v) -> list[str]:
    """An exponent pair as its two rationals' text."""
    return [format_rational(v[0]), format_rational(v[1])]


def _solutions(polys: list, npersistent: int) -> _Records:
    """The solution records of `solve` and `analyze`, {"terms": ...,
    "persistent": ..., "verified": true}, the first npersistent persistent;
    each grown polynomial writes its own terms (`terms_text`)."""
    return _Records([(p, k < npersistent) for k, p in enumerate(polys)], _write_solutions)


def _write_solutions(items: list, parts: list[str], nl: str):
    inner, sep = nl + " ", nl
    for p, persistent in items:
        parts.append(f'{sep}{{{inner}"terms": {p.terms_text(inner)},{inner}"persistent": '
                     f'{"true" if persistent else "false"},{inner}"verified": true{nl}}}')
        sep = "," + nl


class _JsonErrorGroup(click.Group):
    """Click's own usage errors exit 2 with a JSON error, as every other error
    does; bare `hornkit` shows the help and an interrupt exits 1, as in click."""

    def main(self, *args, **kwargs):
        try:
            return super().main(*args, **{**kwargs, "standalone_mode": False})
        except click.exceptions.NoArgsIsHelpError as exc:
            exc.show()
            sys.exit(exc.exit_code)
        except click.ClickException as exc:
            _fail(2, exc.format_message())
        except click.Abort:
            sys.exit("Aborted!")


@click.group(cls=_JsonErrorGroup)
def main():
    """Exact analysis of bivariate nonconfluent Horn hypergeometric systems."""


class _AsciiInt(click.ParamType):
    """An integer option, read as `parse_rational` reads one: ASCII digits
    with an optional sign (`_parse_int`), where int() would also take "1_0",
    spaces and non-ASCII digits."""
    name = "integer"

    def convert(self, value, param, ctx):
        if isinstance(value, int):  # a default
            return value
        try:
            return _parse_int(value)
        except ValueError:
            self.fail(f"{value!r} is not a valid integer.", param, ctx)


_INT = _AsciiInt()


def _window_option(default=None, **kwargs):
    return click.option("--window", type=_INT, default=default,
                        callback=lambda _ctx, _param, w: _check_window(w), **kwargs)


_input_arg = click.argument("input_path", metavar="INPUT.json")
_window_opt = _window_option(help="lattice window radius (default: rank-based)")
_out_opt = click.option("--out", type=click.Path(), default=None,
                        help="write output to a file instead of stdout")


@main.command()
@_input_arg
@_window_opt
@_out_opt
@click.option("--allow-confluent", is_flag=True, default=False)
def analyze(input_path, window, out, allow_confluent):
    """Full analysis report for a system."""
    s = _load_system(input_path)
    _require_nonconfluent(s, allow_confluent)
    report = Report(s, window)
    if not check_nonconfluent(s):
        # confluent systems only get the resonance block
        _emit({"name": s.name, "nonconfluent": False,
               "resonance": _resonance_json(report.resonance)}, out)
        return
    p = _polygon(report)
    _emit({
        "name": s.name,
        "nonconfluent": True,
        "rank": report.rank,
        "persistent_dim": report.persistent_dim,
        "fully_supported_count": report.fully_supported_count,
        "S_per_vertex": report.convergent_counts,
        "polygon": _polygon_json(p),
        "classification": _classification_json(report.classification),
        "resonance": _resonance_json(report.resonance),
        "persistent_solutions": _solutions(report.persistent, len(report.persistent)),
        "harvested_polynomial_count": sum(r.outcome == "finite" for r in report.harvest),
        "independent_polynomial_count": report.independent_count,
        "rank_attained": report.rank_attained,
        "window": report.radius,
    }, out)


def _polygon_json(p) -> dict:
    return {
        "edges": [
            {"direction": [e.direction.a, e.direction.b], "length": e.length,
             "normal": [e.normal.a, e.normal.b]}
            for e in p.edges
        ],
        "vertices": [[v.a, v.b] for v in p.vertices],
    }


def _classification_json(cls) -> dict:
    data = {"kind": cls.kind.value}
    data["segments"] = [
        {"direction": [seg.direction.a, seg.direction.b], "length": seg.length}
        for seg in cls.segments
    ]
    if cls.triangle is not None:
        data["triangle"] = [
            {"direction": [seg.direction.a, seg.direction.b], "length": seg.length}
            for seg in cls.triangle.edges
        ]
    return data


def _resonance_json(res) -> dict:
    return {
        "is_resonant": res.is_resonant,
        "is_maximally_resonant": res.is_maximally_resonant,
        "circuits": [
            {"indices": list(c.indices), "relation": list(c.relation),
             "resonant": c.resonant}
            for c in res.circuits
        ],
    }


@main.command()
@_input_arg
@_out_opt
def rank(input_path, out):
    """Holonomic rank."""
    s = _load_system(input_path)
    _require_nonconfluent(s, False)
    _emit({"name": s.name, "rank": Report(s).rank}, out)


@main.command("classify")
@_input_arg
@_out_opt
def classify_cmd(input_path, out):
    """Polygon construction and shape classification."""
    s = _load_system(input_path)
    _require_nonconfluent(s, False)
    report = Report(s)
    p = _polygon(report)
    _emit({
        "name": s.name,
        "polygon": _polygon_json(p),
        "classification": _classification_json(report.classification),
        "maximally_reducible": report.classification.maximally_reducible,
    }, out)


@main.command()
@_input_arg
@_window_opt
@_out_opt
def solve(input_path, window, out):
    """Persistent and harvested Puiseux polynomial solutions."""
    s = _load_system(input_path)
    report = Report(s, window)
    try:
        rank = report.rank
    except ValueError:
        _fail(3, "solve requires a nonconfluent system or a nondegenerate atomic pair")
    _emit({
        "name": s.name,
        "rank": rank,
        "solutions": _solutions(report.solutions, len(report.persistent)),
        "independent_polynomial_count": report.independent_count,
        "rank_attained": report.rank_attained,
        "exceeds_window_count": sum(r.outcome == "exceeds_window" for r in report.harvest),
        "resonant_collisions": [
            {"subsystem": list(r.subsystem), "branch": r.branch,
             "point": _pair_json(r.collision_point)}
            for r in report.harvest if r.outcome == "resonant_collision"
        ],
        "window": report.radius,
    }, out)


@main.command()
@_input_arg
@click.option("--submatrix", default=None, metavar="I,J",
              help="row index pair (0-based) selecting the atomic subsystem")
@click.option("--branch", type=_INT, default=0, show_default=True)
@_window_option(default=8, show_default=True)
@_out_opt
def series(input_path, submatrix, branch, window, out):
    """Truncated fully supported series tables (or a branch listing)."""
    if submatrix is None:
        ctx = click.get_current_context()
        given = [f"--{name}" for name in ("branch", "window")
                 if ctx.get_parameter_source(name) is not ParameterSource.DEFAULT]
        if given:
            _fail(2, f"--submatrix is required with {' and '.join(given)}, which select a table")
    s = _load_system(input_path)
    _require_nonconfluent(s, False)
    if submatrix is None:
        listing = []
        for sub in enumerate_atomic(s):
            for br, k0 in enumerate(branch_base_points(sub)):
                listing.append({
                    "subsystem": list(sub.indices), "branch": br,
                    "base_point": list(k0),
                    "initial_exponent": _pair_json(branch_initial_exponent(sub, k0)),
                })
        _emit({"name": s.name, "branches": listing}, out)
        return
    try:
        i, j = (_parse_int(x) for x in submatrix.split(","))
    except ValueError:
        _fail(2, f"--submatrix expects 'I,J', got {submatrix!r}")
    try:
        t = series_from_submatrix(s, (i, j), branch, window)
    except ResonantCollisionError as exc:
        _fail(3, str(exc))
    except ValueError as exc:
        _fail(2, str(exc))
    _emit({
        "name": s.name,
        "subsystem": list(t.indices),
        "branch": branch,
        "initial_exponent": _pair_json(t.alpha0),
        "window": window,
        "coefficients": _Records(sorted(t.coeffs.items()), _write_coefficients),
    }, out)


def _write_coefficients(items: list, parts: list[str], nl: str):
    """The records {"offset": [d1, d2], "value": "n" or "n/d"} of a series
    table, from each offset and its pair of `Decimal` integers, which print
    in time linear in their digits.  A value holds only digits, "-" and
    "/", which JSON escaping leaves as they are."""
    i1, i2 = nl + " ", nl + "  "
    # the record's fixed text, between the offsets and the value
    head, mid, tail, end = f'{{{i1}"offset": [{i2}', "," + i2, f'{i1}],{i1}"value": "', f'"{nl}}}'
    sep = nl
    for (d1, d2), (num, den) in items:
        value = str(num) if den == 1 else f"{num}/{den}"
        parts.append(f"{sep}{head}{d1}{mid}{d2}{tail}{value}{end}")
        sep = "," + nl


@main.command()
@_input_arg
@click.option("--solution", "solution_path", required=True, type=click.Path(),
              help="JSON file with a term list or {'terms': [...]}")
@_out_opt
def verify(input_path, solution_path, out):
    """Check a candidate solution exactly; report residual terms if it fails."""
    s = _load_system(input_path)
    try:
        with open(solution_path) as fh:
            data = json.load(fh, parse_int=_parse_int)
        terms = data["terms"] if isinstance(data, dict) else data
        f = PuiseuxPolynomial.from_json(terms)
        if f.is_zero():
            raise ValueError("the zero polynomial is no candidate solution")
    except (OSError, ValueError, KeyError, TypeError, RecursionError) as exc:
        _fail(2, f"cannot parse solution file {solution_path}: {exc}")
    r1 = apply_horn(1, f, s)
    r2 = apply_horn(2, f, s)
    ok = r1.is_zero() and r2.is_zero()
    result = {"name": s.name, "is_solution": ok}
    if ok:
        result["is_persistent"] = validate_persistence(f, s)
    else:
        residuals = []
        for j, r in ((1, r1), (2, r2)):
            for (e1, e2), c in r.sorted_terms()[:5]:
                residuals.append({
                    "equation": j,
                    "exponent": [format_rational(e1), format_rational(e2)],
                    "coefficient": format_rational(c),
                })
        result["residuals"] = residuals
    _emit(result, out)


@main.command("suggest-params")
@_input_arg
@click.option("--bound", type=_INT, default=SUGGEST_BOUND, show_default=True,
              callback=lambda _ctx, _param, b: _check_bound(b))
@_window_option(default=SUGGEST_WINDOW, show_default=True)
@_out_opt
def suggest_params(input_path, bound, window, out):
    """Search for parameters giving a full Puiseux polynomial basis."""
    s = _load_system(input_path)
    _require_nonconfluent(s, False)
    try:
        params = suggest_polynomial_parameters(s, search_bound=bound, window=window)
    except ValueError as exc:
        _fail(3, str(exc))
    if params is None:
        _emit({"name": s.name, "found": False,
               "diagnostic": "no candidate verified within the search bound"}, out)
        return
    _emit({"name": s.name, "found": True,
           "parameters": [format_rational(c) for c in params]}, out)


@main.command()
@_input_arg
@click.option("--what", type=click.Choice(["polygon", "supports"]), required=True)
@_window_opt
@click.option("--out", type=click.Path(), required=True, help="output SVG path")
def render(input_path, what, window, out):
    """Render the polygon or the solution supports as deterministic SVG."""
    s = _load_system(input_path)
    _require_nonconfluent(s, False)
    report = Report(s, window)
    svg = polygon_svg(_polygon(report)) if what == "polygon" else supports_svg(report.solutions)
    _write(svg, out)


if __name__ == "__main__":
    main()
