"""Test helper: parse the text forms the package writes, HomogPoly.text(),
mono_str and DeformationPoint.to_json.

Only tests read these forms back, so the parsers live here.
"""

import json
import re
from fractions import Fraction

from fermatlines.family import DeformationPoint, FamilyShape
from fermatlines.poly import HomogPoly, mono_degree

_TERM_SPLIT_RE = re.compile(r"(?=[+-])")
_COEFF_RE = re.compile(r"^[+-]?\d+(?:/\d+)?$")
_FACTOR_RE = re.compile(r"^x(\d+)(?:\^(\d+))?$")


def mono_parse(text: str, nvars: int):
    """The exponent tuple of a monomial in the form of mono_str."""
    exps = [0] * nvars
    if text == "1":
        return tuple(exps)
    for factor in text.split("*"):
        mt = _FACTOR_RE.match(factor)
        if not mt:
            raise ValueError("bad monomial factor %r" % factor)
        i = int(mt.group(1))
        if i >= nvars:
            raise ValueError("variable x%d out of range for %d variables" % (i, nvars))
        exps[i] += int(mt.group(2)) if mt.group(2) else 1
    return tuple(exps)


def deformation_from_json(text: str) -> DeformationPoint:
    """The DeformationPoint that DeformationPoint.to_json wrote as `text`."""
    obj = json.loads(text)
    shape = FamilyShape(obj["n"], obj["d"])
    return DeformationPoint(shape, {mono_parse(k, shape.nvars): Fraction(v)
                                    for k, v in obj["t"].items()})


def parse_poly(text: str, nvars: int, degree: int | None = None) -> HomogPoly:
    """Parse the canonical text form produced by HomogPoly.text()."""
    text = text.strip().replace(" ", "")
    if not text:
        raise ValueError("empty polynomial text")
    if text == "0":
        if degree is None:
            raise ValueError("zero polynomial needs an explicit degree")
        return HomogPoly.zero(nvars, degree)
    terms = {}
    for piece in _TERM_SPLIT_RE.split(text):
        if not piece or piece in "+-":
            continue
        sign = 1
        if piece[0] == "+":
            piece = piece[1:]
        elif piece[0] == "-":
            sign = -1
            piece = piece[1:]
        coeff = Fraction(sign)
        factors = piece.split("*")
        if _COEFF_RE.match(factors[0]):
            coeff *= Fraction(factors[0])
            factors = factors[1:]
        m = mono_parse("*".join(factors) if factors else "1", nvars)
        terms[m] = terms.get(m, Fraction(0)) + coeff
    degs = {mono_degree(m) for m in terms}
    if len(degs) > 1:
        raise ValueError("non-homogeneous text")
    deg = degs.pop() if degs else degree
    if degree is not None and deg != degree:
        raise ValueError("declared degree %d does not match text" % degree)
    return HomogPoly(nvars, deg, terms)
