"""Points, lines, length-2 schemes and restriction to a line.

A line through two distinct points p, q is parameterized by
(s, t) -> s*p + t*q, so p sits at (1, 0) and q at (0, 1).  Restricting a
degree-m form along the parameterization yields a binary form of degree m
in (s, t), stored as the coefficient list of s^m, s^(m-1) t, ..., t^m.

Restriction runs on Python ints.  A Line clears p and q to integer points
P / Dp and Q / Dq once and caches, per monomial, the integer coefficients
of prod_i (P_i s + Q_i t)^e_i; restrict_poly sums the polynomial's integer
numerators against those vectors over one common denominator and builds
one Fraction per output coefficient, so its outputs are the same reduced
Fractions that term-by-term rational expansion gives.  restrict_partials
restricts all n+2 partial derivatives the same way, in one pass over the
polynomial's terms, without building the partials.

Length-2 schemes here are always two distinct points; the coincident
(non-reduced) case would need jet evaluation and no check in this package
requires it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import DimensionMismatch, LineInHypersurface
from .exact import (Matrix, Subspace, ZERO, clear_denominators, format_fraction,
                    frac, kernel_basis)
from .poly import EulerSection, HomogPoly


class ProjPoint:
    """Projective point, normalized so the first nonzero coordinate is 1."""

    __slots__ = ("coords",)

    def __init__(self, coords):
        cs = [frac(x) for x in coords]
        lead = next((x for x in cs if x != 0), None)
        if lead is None:
            raise ValueError("all coordinates vanish")
        self.coords = tuple(x / lead for x in cs)

    @property
    def nvars(self) -> int:
        return len(self.coords)

    def is_coordinate_point(self) -> bool:
        return sum(1 for x in self.coords if x != 0) == 1

    def __eq__(self, other):
        return isinstance(other, ProjPoint) and self.coords == other.coords

    def __hash__(self):
        return hash(self.coords)

    def to_json(self):
        return [format_fraction(x) for x in self.coords]

    def __repr__(self):
        return "ProjPoint(%s)" % ", ".join(str(x) for x in self.coords)


class BinaryForm:
    """Homogeneous binary form; coeffs[k] multiplies s^(m-k) t^k."""

    __slots__ = ("degree", "coeffs")

    def __init__(self, degree: int, coeffs):
        cs = tuple(frac(x) for x in coeffs)
        if len(cs) != degree + 1:
            raise ValueError("need %d coefficients for degree %d" % (degree + 1, degree))
        self.degree = degree
        self.coeffs = cs

    @classmethod
    def zero(cls, degree: int) -> "BinaryForm":
        return cls(degree, [ZERO] * (degree + 1))

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def __eq__(self, other):
        return (isinstance(other, BinaryForm) and self.degree == other.degree
                and self.coeffs == other.coeffs)

    def __add__(self, other):
        if self.degree != other.degree:
            raise DimensionMismatch("degrees differ")
        return BinaryForm(self.degree, [a + b for a, b in zip(self.coeffs, other.coeffs)])

    def __sub__(self, other):
        if self.degree != other.degree:
            raise DimensionMismatch("degrees differ")
        return BinaryForm(self.degree, [a - b for a, b in zip(self.coeffs, other.coeffs)])

    def scale(self, c) -> "BinaryForm":
        c = frac(c)
        return BinaryForm(self.degree, [c * x for x in self.coeffs])

    def __mul__(self, other):
        out = [ZERO] * (self.degree + other.degree + 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                if b:
                    out[i + j] += a * b
        return BinaryForm(self.degree + other.degree, out)

    def t_partial_t(self) -> "BinaryForm":
        """t * df/dt, the homogeneous form of y f'(y) on the affine chart s=1."""
        return BinaryForm(self.degree, [k * c for k, c in enumerate(self.coeffs)])

    def evaluate(self, s, t):
        m = self.degree
        total = ZERO
        for k, c in enumerate(self.coeffs):
            if c:
                total += c * frac(s) ** (m - k) * frac(t) ** k
        return total

    def monomial_index(self):
        """k if the form is c * s^(m-k) t^k with a single nonzero c, else None."""
        nz = [k for k, c in enumerate(self.coeffs) if c != 0]
        return nz[0] if len(nz) == 1 else None

    def vector(self):
        return list(self.coeffs)

    def __repr__(self):
        m = self.degree
        parts = []
        for k, c in enumerate(self.coeffs):
            if c == 0:
                continue
            parts.append("%s*s^%d*t^%d" % (c, m - k, k))
        return "BinaryForm(%s)" % (" + ".join(parts) if parts else "0")


def distinct_root_count(f: BinaryForm) -> int:
    """Number of distinct projective roots of the binary form over the
    algebraic closure, via gcd with the derivative (squarefree degree):
    deg gcd(u, v) = deg u + deg v - rank of their Sylvester matrix."""
    if f.is_zero():
        raise ValueError("zero form has no root divisor")
    mult_t = next(k for k, c in enumerate(f.coeffs) if c != 0)
    mult_s = f.degree - max(k for k, c in enumerate(f.coeffs) if c != 0)
    core = list(f.coeffs[mult_t: f.degree - mult_s + 1])  # ascending in t
    count = (1 if mult_s else 0) + (1 if mult_t else 0)
    deg = len(core) - 1
    if deg == 0:
        return count
    deriv = [k * c for k, c in enumerate(core)][1:]
    size = 2 * deg - 1
    sylvester = [[ZERO] * i + u + [ZERO] * (size - len(u) - i)
                 for u, shifts in ((core, deg - 1), (deriv, deg)) for i in range(shifts)]
    return count + deg - (size - Matrix(sylvester).rank())


class Line:
    """Line spanned by two distinct points, with restriction caching."""

    def __init__(self, p: ProjPoint, q: ProjPoint):
        if p.nvars != q.nvars:
            raise DimensionMismatch("points in different spaces")
        if p == q:
            raise ValueError("coincident points do not span a line")
        self.p = p
        self.q = q
        self._p_ints, self._p_den = clear_denominators(p.coords)
        self._q_ints, self._q_den = clear_denominators(q.coords)
        self._restricted = {(0,) * p.nvars: (1,)}

    @property
    def nvars(self) -> int:
        return self.p.nvars

    def integer_restriction(self, exps):
        """Integer coefficients of prod_i (P_i s + Q_i t)^e_i, entry k at
        s^(m-k) t^k, for P = Dp * p and Q = Dq * q.

        Cached per monomial; an entry is the entry of the monomial with its
        first nonzero exponent lowered by one, times one linear factor.
        """
        got = self._restricted.get(exps)
        if got is not None:
            return got
        i = next(j for j, e in enumerate(exps) if e)
        lower = self.integer_restriction(exps[:i] + (exps[i] - 1,) + exps[i + 1:])
        a, b = self._p_ints[i], self._q_ints[i]
        out = tuple(x * a + y * b for x, y in zip(lower + (0,), (0,) + lower))
        self._restricted[exps] = out
        return out

    def to_json(self):
        return {"p": self.p.to_json(), "q": self.q.to_json()}


def _binary_form(line: Line, m: int, acc, den: int) -> BinaryForm:
    """The degree-m binary form with coefficients acc[k] / (den Dp^(m-k) Dq^k):
    integer sums over the line's cache back to reduced Fractions."""
    dp, dq = line._p_den, line._q_den
    return BinaryForm(m, [Fraction(a, den * dp ** (m - k) * dq ** k)
                          for k, a in enumerate(acc)])


def restrict_poly(poly: HomogPoly, line: Line) -> BinaryForm:
    """Substitute x = s*p + t*q and expand exactly.

    With p = P / Dp and q = Q / Dq, the coefficient of s^(m-k) t^k is
    sum_e c_e * (integer restriction of x^e)_k / (Dp^(m-k) Dq^k).
    """
    if poly.nvars != line.nvars:
        raise DimensionMismatch("polynomial and line live in different spaces")
    m = poly.degree
    nums, den = clear_denominators(poly.terms.values())
    acc = [0] * (m + 1)
    for exps, c in zip(poly.terms, nums):
        for k, v in enumerate(line.integer_restriction(exps)):
            acc[k] += c * v
    return _binary_form(line, m, acc, den)


def restrict_partials(poly: HomogPoly, line: Line):
    """[restrict_poly(poly.partial(i), line) for each variable i], in one
    pass over poly's integer numerators: the term c_e x^e adds
    c_e * e_i * (integer restriction of x^(e - 1_i)) to the i-th sum."""
    if poly.nvars != line.nvars:
        raise DimensionMismatch("polynomial and line live in different spaces")
    m = max(poly.degree - 1, 0)
    nums, den = clear_denominators(poly.terms.values())
    accs = [[0] * (m + 1) for _ in range(poly.nvars)]
    for exps, c in zip(poly.terms, nums):
        for i, e in enumerate(exps):
            if e:
                acc, ce = accs[i], c * e
                lower = exps[:i] + (e - 1,) + exps[i + 1:]
                for k, v in enumerate(line.integer_restriction(lower)):
                    acc[k] += ce * v
    return [_binary_form(line, m, acc, den) for acc in accs]


def restrict_section(sec: EulerSection, line: Line):
    """Component-wise restriction of a section to the line: one binary form
    per d/dx_i."""
    return [restrict_poly(c, line) for c in sec.components]


def restrict_mod_f(poly: HomogPoly, line: Line, f_poly: HomogPoly) -> BinaryForm:
    """Canonical representative of the restriction of `poly` modulo
    (restriction of f_poly) * (lower-degree binary forms).

    This is remainder-style division generalized to vanishing leading
    coefficients: the multiples of the restricted f span a subspace and the
    result is the echelon-reduction of the restricted polynomial against it.
    """
    m = poly.degree
    d = f_poly.degree
    if m < d:
        raise ValueError("degree %d below the modulus degree %d" % (m, d))
    xif = restrict_poly(f_poly, line)
    if xif.is_zero():
        raise LineInHypersurface("the defining polynomial vanishes on the line")
    target = restrict_poly(poly, line)
    multiples = []
    for j in range(m - d + 1):
        shifted = [ZERO] * (m + 1)
        for k, c in enumerate(xif.coeffs):
            shifted[k + j] = c
        multiples.append(shifted)
    rows, pivots = Matrix(multiples).rref()
    vec = list(target.coeffs)
    for row, c in zip(rows, pivots):
        fct = vec[c]
        if fct:
            vec = [a - fct * b for a, b in zip(vec, row)]
    return BinaryForm(m, vec)


class LengthTwoScheme:
    """Two distinct points and the line they span."""

    def __init__(self, p1: ProjPoint, p2: ProjPoint):
        if p1 == p2:
            raise ValueError("length-2 schemes here must be reduced (distinct points)")
        self.p1 = p1
        self.p2 = p2
        self.line = Line(p1, p2)

    @property
    def nvars(self) -> int:
        return self.p1.nvars

    def evaluation_matrix(self) -> Matrix:
        """2 x (n+2) matrix whose kernel is the linear forms vanishing on Z."""
        return Matrix([list(self.p1.coords), list(self.p2.coords)])

    def to_json(self):
        return {"p1": self.p1.to_json(), "p2": self.p2.to_json()}


@dataclass(frozen=True)
class SchemeClass:
    """Classification of a length-2 scheme with respect to the coordinates.

    tag is one of generic / special / very-special; `a` counts the
    non-vanishing coordinates among positions 1..n+1 after normalization
    (None for generic).  `perm` is the coordinate permutation realizing the
    normalized arrangement: position 0 is the dropped coordinate, then the
    non-vanishing ones ascending, then the vanishing ones ascending.
    """

    tag: str
    a: int | None
    vanishing: tuple
    perm: tuple

    def is_generic(self) -> bool:
        return self.tag == "generic"

    def to_json(self):
        return {"tag": self.tag, "a": self.a,
                "vanishing": list(self.vanishing), "perm": list(self.perm)}


def _pair_rank(cols) -> int:
    """Rank of a set of 2-vectors."""
    nonzero = [c for c in cols if c[0] != 0 or c[1] != 0]
    if not nonzero:
        return 0
    u = nonzero[0]
    for v in nonzero[1:]:
        if u[0] * v[1] - u[1] * v[0] != 0:
            return 2
    return 1


def classify(z: LengthTwoScheme) -> SchemeClass:
    """Decide generic / special / very-special and return the normalization.

    Generic means: dropping any single coordinate still leaves a full
    2-dimensional restricted span on Z.  Very special means exactly n
    coordinates vanish identically on Z.
    """
    nv = z.nvars
    n = nv - 2
    cols = [(z.p1.coords[i], z.p2.coords[i]) for i in range(nv)]
    vanishing = tuple(i for i, c in enumerate(cols) if c[0] == 0 and c[1] == 0)
    drops = [i for i in range(nv)
             if _pair_rank([c for j, c in enumerate(cols) if j != i]) < 2]
    if not drops:
        return SchemeClass("generic", None, vanishing, tuple(range(nv)))
    i0 = min(drops)
    nonvan = [j for j in range(nv) if j != i0 and j not in vanishing]
    perm = (i0, *nonvan, *vanishing)
    a = len(nonvan)
    tag = "very-special" if len(vanishing) == n else "special"
    return SchemeClass(tag, a, vanishing, perm)


def scheme_json(z: LengthTwoScheme) -> dict:
    """Two points plus the computed class, for report payloads."""
    data = z.to_json()
    data["class"] = classify(z).to_json()
    return data


def iz_linear(z: LengthTwoScheme) -> Subspace:
    """The linear forms vanishing at both points, dimension n."""
    return kernel_basis(z.evaluation_matrix())


def ip_linear(p: ProjPoint) -> Subspace:
    """The linear forms vanishing at one point, dimension n+1."""
    return kernel_basis(Matrix([list(p.coords)]))


def permute_point(p: ProjPoint, perm) -> ProjPoint:
    """Reorder coordinates so that old index perm[k] lands at position k."""
    return ProjPoint([p.coords[i] for i in perm])
