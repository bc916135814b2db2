"""Points, lines (the length-2 schemes) and restriction to a line.

A Line through two distinct points p, q is parameterized along their
integer points, (s, t) -> s*P + t*Q (see Line), so p sits at (1, 0) and q
at (0, 1).  Restricting a degree-m form along the parameterization yields a
binary form of degree m in (s, t), kept as its plain coefficient list:
entry k multiplies s^(m-k) t^k.  monomial_index and distinct_root_count
read such lists.

Restriction runs on Python ints.  A Line caches, per monomial, the integer
coefficients of prod_i (P_i s + Q_i t)^e_i, and restrict_poly sums a form's
terms {exponents: coefficient} against them: integer terms, such as a
family member's, give integer coefficients.  distinct_root_count ranks the
Bezout matrix of a restriction's core and its derivative, half the size of
their Sylvester matrix.
"""

from __future__ import annotations

from operator import mul

from .errors import DimensionMismatch, LineInHypersurface
from .exact import (Matrix, ZERO, clear_denominators, column_scan, format_fraction, frac,
                    rank_sparse)
from .poly import EulerSection, HomogPoly


class ProjPoint:
    """Projective point, normalized so the first nonzero coordinate is 1.

    `ints` is the point cleared of denominators: the primitive integer
    vector D * coords, D > 0 the lcm of their denominators, whose first
    nonzero entry is D.  Every computation reads `ints`; `coords` serves
    the JSON, repr and equality."""

    __slots__ = ("coords", "ints")

    def __init__(self, coords):
        cs = [frac(x) for x in coords]
        lead = next((x for x in cs if x != 0), None)
        if lead is None:
            raise ValueError("all coordinates vanish")
        self.coords = tuple(x / lead for x in cs)
        self.ints = tuple(clear_denominators(self.coords)[0])

    @property
    def nvars(self) -> int:
        return len(self.ints)

    def is_coordinate_point(self) -> bool:
        return sum(1 for x in self.ints if x) == 1

    def __eq__(self, other):
        return isinstance(other, ProjPoint) and self.coords == other.coords

    def __hash__(self):
        return hash(self.coords)

    def to_json(self):
        return [format_fraction(x) for x in self.coords]

    def __repr__(self):
        return "ProjPoint(%s)" % ", ".join(str(x) for x in self.coords)


def monomial_index(coeffs):
    """k if the binary form with coefficient list `coeffs` is c * s^(m-k) t^k
    with a single nonzero c, else None."""
    nz = [k for k, c in enumerate(coeffs) if c]
    return nz[0] if len(nz) == 1 else None


def distinct_root_count(coeffs) -> int:
    """Number of distinct projective roots over the algebraic closure of the
    binary form with coefficient list `coeffs` (entry k at s^(m-k) t^k).

    Roots at t = 0 and s = 0 are counted off the zero ends; the rest are the
    roots of the core u (ascending in t, degree n, nonzero at both ends),
    whose count is n - deg gcd(u, u') = the rank of the n x n Bezout matrix
    of u and u', with (u(x) u'(y) - u(y) u'(x)) / (x - y) = sum B_ij x^i y^j.
    """
    nz = [k for k, c in enumerate(coeffs) if c]
    if not nz:
        raise ValueError("zero form has no root divisor")
    count = int(nz[0] > 0) + int(nz[-1] < len(coeffs) - 1)
    u, _ = clear_denominators(coeffs[nz[0]: nz[-1] + 1])
    n = len(u) - 1
    du = [k * c for k, c in enumerate(u)][1:]
    u, du = u + [0] * n, du + [0] * (n + 1)
    # B_ij sums u_p u'_q - u_q u'_p over p + q = i + j + 1, q <= min(i, j)
    bezout = [[sum(u[i + j + 1 - q] * du[q] - u[q] * du[i + j + 1 - q]
                   for q in range(min(i, j) + 1)) for j in range(n)] for i in range(n)]
    return count + rank_sparse(bezout)


class Line:
    """Line spanned by two distinct points p and q, with restriction caching.

    It is also the length-2 scheme Z = {p, q}: schemes here are always two
    distinct points; the coincident (non-reduced) case would need jet
    evaluation and no check in this package requires it.

    It is parameterized as s*P + t*Q, with P = Dp * p and Q = Dq * q the
    points' `ints` (Dp, Dq > 0): F(s*P + t*Q) is the
    restriction along s*p + t*q with entry k scaled by Dp^(m-k) Dq^k > 0.
    So every zero test, monomial_index, distinct_root_count and rank read
    off it are those of the rational restriction."""

    def __init__(self, p: ProjPoint, q: ProjPoint):
        if p.nvars != q.nvars:
            raise DimensionMismatch("points in different spaces")
        if p == q:
            raise ValueError("coincident points do not span a line")
        self.p = p
        self.q = q
        self._restricted = {(0,) * p.nvars: (1,)}

    @property
    def nvars(self) -> int:
        return self.p.nvars

    def integer_restriction(self, exps):
        """Integer coefficients of prod_i (P_i s + Q_i t)^e_i, entry k at
        s^(m-k) t^k.

        Cached per monomial; an entry is the entry of the monomial with its
        (first) largest exponent lowered by one, times one linear factor.
        """
        got = self._restricted.get(exps)
        if got is not None:
            return got
        i = exps.index(max(exps))
        lower = self.integer_restriction(exps[:i] + (exps[i] - 1,) + exps[i + 1:])
        a, b = self.p.ints[i], self.q.ints[i]
        out = tuple([x * a + y * b for x, y in zip(lower + (0,), (0,) + lower)])
        self._restricted[exps] = out
        return out


def restrict_poly(terms, degree: int, line: Line):
    """Substitute x = s*P + t*Q into the degree-`degree` form with terms
    {exponents: coefficient} and expand exactly: the coefficient list, entry
    k at s^(m-k) t^k, ints for integer terms."""
    if not terms:
        return [0] * (degree + 1)
    if len(next(iter(terms))) != line.nvars:
        raise DimensionMismatch("polynomial and line live in different spaces")
    coeffs = list(terms.values())
    return [sum(map(mul, coeffs, column))
            for column in zip(*map(line.integer_restriction, terms))]


def restrict_section(sec: EulerSection, line: Line):
    """Component-wise restriction of a section to the line: one coefficient
    list per d/dx_i."""
    return [restrict_poly(c.terms, c.degree, line) for c in sec.components]


def restrict_mod_f(poly: HomogPoly, line: Line, f_poly: HomogPoly):
    """Canonical representative, as a coefficient list, of the restriction
    of `poly` modulo (restriction of f_poly) * (lower-degree binary forms).

    This is remainder-style division generalized to vanishing leading
    coefficients: the multiples of the restricted f span a subspace and the
    result is the echelon-reduction of the restricted polynomial against it.
    """
    m = poly.degree
    d = f_poly.degree
    if m < d:
        raise ValueError("degree %d below the modulus degree %d" % (m, d))
    xif = restrict_poly(f_poly.terms, d, line)
    if not any(xif):
        raise LineInHypersurface("the defining polynomial vanishes on the line")
    vec = restrict_poly(poly.terms, m, line)
    multiples = [[ZERO] * j + xif + [ZERO] * (m - d - j) for j in range(m - d + 1)]
    rows, pivots = Matrix(multiples).rref()
    for row, c in zip(rows, pivots):
        fct = vec[c]
        if fct:
            vec = [a - fct * b for a, b in zip(vec, row)]
    return vec


def classify(z: Line) -> dict:
    """Decide generic / special / very-special and return the normalization,
    as the report's `class` object {"tag", "a", "vanishing", "perm"}.

    tag is one of generic / special / very-special.  Generic means: dropping
    any single coordinate still leaves a full 2-dimensional restricted span
    on Z.  Very special means exactly n coordinates vanish identically on Z.
    `a` counts the non-vanishing coordinates among positions 1..n+1 after
    normalization (None for generic).  `perm` is the coordinate permutation
    realizing the normalized arrangement: position 0 is the dropped
    coordinate, then the non-vanishing ones ascending, then the vanishing
    ones ascending.
    """
    nv = z.nvars
    n = nv - 2
    points = (z.p.ints, z.q.ints)
    vanishing = [i for i in range(nv) if not any(p[i] for p in points)]
    drops = [i for i in range(nv) if rank_sparse([p[:i] + p[i + 1:] for p in points]) < 2]
    if not drops:
        return {"tag": "generic", "a": None, "vanishing": vanishing, "perm": list(range(nv))}
    i0 = min(drops)
    nonvan = [j for j in range(nv) if j != i0 and j not in vanishing]
    tag = "very-special" if len(vanishing) == n else "special"
    return {"tag": tag, "a": len(nonvan), "vanishing": vanishing,
            "perm": [i0, *nonvan, *vanishing]}


def scheme_json(z: Line) -> dict:
    """Two points plus the computed class, for report payloads."""
    return {"p1": z.p.to_json(), "p2": z.q.to_json(), "class": classify(z)}


def iz_linear(z: Line):
    """The linear forms vanishing at both points, n integer forms: the
    annihilator of the line's integer points, column_scan's reduced basis."""
    return column_scan([z.p.ints, z.q.ints], z.nvars)[1]


def ip_linear(p: ProjPoint):
    """The linear forms vanishing at one point, n+1 integer forms: the
    annihilator of p's integer point, column_scan's reduced basis."""
    return column_scan([p.ints], p.nvars)[1]
