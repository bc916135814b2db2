"""Test helper: parse the canonical text form of HomogPoly.text().

Only tests build polynomials from text, so the parser lives here.
"""

import re
from fractions import Fraction

from fermatlines.poly import HomogPoly, mono_degree, mono_parse

_TERM_SPLIT_RE = re.compile(r"(?=[+-])")
_COEFF_RE = re.compile(r"^[+-]?\d+(?:/\d+)?$")


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
