"""Deterministic SVG diagrams: the lattice polygon with its integer points,
and solution-support plots distinguishing monomial from multi-term supports.

Output is byte-stable: fixed viewbox arithmetic, sorted element order, no
timestamps or randomness.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .polygon import OreSatoPolygon
from .puiseux import PuiseuxPolynomial

_SCALE = 40
_MARGIN = 30


def _fmt(q: Fraction | int | float) -> str:
    f = float(q)
    s = f"{f:.2f}"
    return s


def _header(xmin, ymin, xmax, ymax) -> tuple[list[str], callable]:
    width = float(xmax - xmin) * _SCALE + 2 * _MARGIN
    height = float(ymax - ymin) * _SCALE + 2 * _MARGIN

    def to_px(x, y):
        px = (float(x) - float(xmin)) * _SCALE + _MARGIN
        py = height - ((float(y) - float(ymin)) * _SCALE + _MARGIN)
        return px, py

    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_fmt(width)}" '
        f'height="{_fmt(height)}" viewBox="0 0 {_fmt(width)} {_fmt(height)}">',
        '<rect width="100%" height="100%" fill="white"/>',
    ]
    return lines, to_px


def polygon_svg(p: OreSatoPolygon) -> str:
    xs = [v.a for v in p.vertices]
    ys = [v.b for v in p.vertices]
    xmin, xmax = min(xs) - 1, max(xs) + 1
    ymin, ymax = min(ys) - 1, max(ys) + 1
    out, to_px = _header(xmin, ymin, xmax, ymax)

    for x in range(xmin, xmax + 1):
        for y in range(ymin, ymax + 1):
            px, py = to_px(x, y)
            out.append(
                f'<circle cx="{_fmt(px)}" cy="{_fmt(py)}" r="1.5" fill="#bbbbbb"/>'
            )
    points = " ".join(
        f"{_fmt(to_px(v.a, v.b)[0])},{_fmt(to_px(v.a, v.b)[1])}" for v in p.vertices
    )
    out.append(
        f'<polygon points="{points}" fill="none" stroke="black" stroke-width="2"/>'
    )
    for v in sorted(p.vertices):
        px, py = to_px(v.a, v.b)
        out.append(f'<circle cx="{_fmt(px)}" cy="{_fmt(py)}" r="3" fill="black"/>')
    out.append("</svg>")
    return "\n".join(out) + "\n"


def supports_svg(solutions: list[PuiseuxPolynomial]) -> str:
    """Support diagram: monomial supports as large dots, supports of
    multi-term solutions as small connected dots."""
    pts: list[tuple[Fraction, Fraction, bool]] = []
    for f in solutions:
        mono = f.is_monomial()
        for e in sorted(f.terms):
            pts.append((e[0], e[1], mono))
    if not pts:
        pts = [(Fraction(0), Fraction(0), True)]
    xmin = min(p[0] for p in pts) - 1
    xmax = max(p[0] for p in pts) + 1
    ymin = min(p[1] for p in pts) - 1
    ymax = max(p[1] for p in pts) + 1
    out, to_px = _header(xmin, ymin, xmax, ymax)
    for x in range(math.floor(xmin), math.ceil(xmax) + 1):
        for y in range(math.floor(ymin), math.ceil(ymax) + 1):
            px, py = to_px(x, y)
            out.append(
                f'<circle cx="{_fmt(px)}" cy="{_fmt(py)}" r="1" fill="#dddddd"/>'
            )
    for f in solutions:
        if f.is_monomial():
            continue
        cell = sorted(f.terms)
        path = " ".join(
            f"{_fmt(to_px(e[0], e[1])[0])},{_fmt(to_px(e[0], e[1])[1])}" for e in cell
        )
        out.append(
            f'<polyline points="{path}" fill="none" stroke="#888888" stroke-width="1"/>'
        )
    for x, y, mono in sorted(pts):
        px, py = to_px(x, y)
        r = 4 if mono else 2.5
        color = "black" if mono else "#333333"
        out.append(f'<circle cx="{_fmt(px)}" cy="{_fmt(py)}" r="{r}" fill="{color}"/>')
    out.append("</svg>")
    return "\n".join(out) + "\n"
