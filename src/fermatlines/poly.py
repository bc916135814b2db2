"""Monomials, sparse homogeneous polynomials and Euler-bundle sections.

Monomials are plain exponent tuples, ordered graded-lexicographically with
x0 > x1 > ... (larger tuples first within a degree).  Polynomials are
dictionaries monomial -> Fraction with no stored zeros; dense coefficient
vectors are materialized only when a matrix column is needed.  The
verifiers build no HomogPoly: a family member and tangency's form are
integer term dicts {exponents: int} over one denominator (family.f_poly),
differentiated by term_partials, and HomogPoly with its Fraction
arithmetic serves the tests' oracles.

Products (sum_of_products, and HomogPoly.__mul__ through it) and monomial
evaluation (eval_monomials) run on Python ints: coefficients and
coordinates are cleared to integer numerators over one common denominator,
and one Fraction is built per output coefficient, so outputs are the same
reduced Fractions that term-by-term rational arithmetic gives.

The deformation index set jd(n, d) collects the degree-d monomials in n+2
variables with every exponent at most d-2, i.e. the monomials that survive
after normalizing away the torus and linear actions on the Fermat form.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, lcm
from operator import add, mul

from .errors import DimensionMismatch
from .exact import ZERO, clear_denominators, frac


# ---------------------------------------------------------------------------
# monomials (exponent tuples)

def mono_degree(m) -> int:
    return sum(m)


def mono_mul(a, b):
    return tuple(map(add, a, b))


def mono_times(g, *variables):
    """The exponent tuple of g times x_i for each i in `variables`."""
    g = list(g)
    for i in variables:
        g[i] += 1
    return tuple(g)


def term_partials(terms, nvars: int):
    """The partial derivatives by x_0 ... x_(nvars-1) of the form with terms
    {exponents: coefficient}, as term dicts of the same kind."""
    out = tuple({} for _ in range(nvars))
    for m, c in terms.items():
        for i, e in enumerate(m):
            if e:
                out[i][m[:i] + (e - 1,) + m[i + 1:]] = c * e
    return out


def order_key(m):
    """Sort key for the canonical order: graded lex, descending."""
    return (-mono_degree(m), tuple(-e for e in m))


def mono_str(m) -> str:
    parts = []
    for i, e in enumerate(m):
        if e == 1:
            parts.append("x%d" % i)
        elif e > 1:
            parts.append("x%d^%d" % (i, e))
    return "*".join(parts) if parts else "1"


def _bounded_compositions(total, parts, cap):
    if parts == 1:
        if total <= cap:
            yield (total,)
        return
    for e in range(min(total, cap), -1, -1):
        for rest in _bounded_compositions(total - e, parts - 1, cap):
            yield (e,) + rest


class MonomialSet:
    """An ordered set of same-degree monomials with positional lookup."""

    def __init__(self, nvars: int, members):
        self.nvars = nvars
        # descending tuples: order_key's order within one degree
        self.members = tuple(sorted(members, reverse=True))
        self.index = {m: i for i, m in enumerate(self.members)}
        if len(self.index) != len(self.members):
            raise ValueError("duplicate monomials")
        degs = {mono_degree(m) for m in self.members}
        if len(degs) > 1:
            raise ValueError("mixed degrees in monomial set")
        self.degree = degs.pop() if degs else None

    def __len__(self):
        return len(self.members)

    def __iter__(self):
        return iter(self.members)

    def __contains__(self, m):
        return m in self.index


def all_monomials(nvars: int, degree: int) -> MonomialSet:
    return MonomialSet(nvars, _bounded_compositions(degree, nvars, degree))


def gen_jd(n: int, d: int) -> MonomialSet:
    """Degree-d monomials in n+2 variables with all exponents <= d-2."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if d < 3:
        raise ValueError("degree must be >= 3")
    return MonomialSet(n + 2, _bounded_compositions(d, n + 2, d - 2))


def jd_size_formula(n: int, d: int) -> int:
    """Closed count for gen_jd: full degree-d count minus the (n+2)^2
    monomials divisible by some x_i^(d-1)."""
    return comb(d + n + 1, n + 1) - (n + 2) ** 2


# ---------------------------------------------------------------------------
# homogeneous polynomials

class HomogPoly:
    """Sparse homogeneous polynomial.  Immutable in spirit: operations
    return new objects.  The zero polynomial keeps an explicit degree tag so
    section components stay degree-checked."""

    __slots__ = ("nvars", "degree", "terms")

    def __init__(self, nvars: int, degree: int, terms=None):
        self.nvars = nvars
        self.degree = degree
        clean = {}
        for m, c in (terms or {}).items():
            c = frac(c)
            if c == 0:
                continue
            if len(m) != nvars or mono_degree(m) != degree:
                raise ValueError("term %s does not have degree %d in %d variables"
                                 % (mono_str(m), degree, nvars))
            clean[tuple(m)] = c
        self.terms = clean

    @classmethod
    def zero(cls, nvars: int, degree: int) -> "HomogPoly":
        return cls(nvars, degree, {})

    @classmethod
    def monomial(cls, nvars: int, exps, coeff=1) -> "HomogPoly":
        exps = tuple(exps)
        return cls(nvars, mono_degree(exps), {exps: coeff})

    @classmethod
    def variable(cls, nvars: int, i: int) -> "HomogPoly":
        exps = tuple(1 if j == i else 0 for j in range(nvars))
        return cls(nvars, 1, {exps: 1})

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other):
        return (isinstance(other, HomogPoly) and self.nvars == other.nvars
                and self.degree == other.degree and self.terms == other.terms)

    def __hash__(self):
        return hash((self.nvars, self.degree, frozenset(self.terms.items())))

    def _check_compatible(self, other):
        if self.nvars != other.nvars or self.degree != other.degree:
            raise DimensionMismatch("cannot combine degree %d and %d polynomials"
                                    % (self.degree, other.degree))

    def __add__(self, other):
        self._check_compatible(other)
        terms = dict(self.terms)
        for m, c in other.terms.items():
            terms[m] = terms.get(m, ZERO) + c
        return HomogPoly(self.nvars, self.degree, terms)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return HomogPoly(self.nvars, self.degree, {m: -c for m, c in self.terms.items()})

    def scale(self, c) -> "HomogPoly":
        c = frac(c)
        if c == 0:
            return HomogPoly.zero(self.nvars, self.degree)
        return HomogPoly(self.nvars, self.degree, {m: c * v for m, v in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        return sum_of_products(self.nvars, self.degree + other.degree, [(self, other)])

    __rmul__ = __mul__

    def partial(self, i: int) -> "HomogPoly":
        """Formal partial derivative with respect to x_i."""
        if i >= self.nvars:
            raise ValueError("variable index out of range")
        return HomogPoly(self.nvars, max(self.degree - 1, 0),
                         term_partials(self.terms, self.nvars)[i])

    def evaluate(self, coords):
        if len(coords) != self.nvars:
            raise DimensionMismatch("point has %d coordinates" % len(coords))
        values = eval_monomials(self.terms, coords)
        return sum((c * v for c, v in zip(self.terms.values(), values)), ZERO)

    def coeffs_on(self, mset: MonomialSet):
        """Coefficient vector against an ordered monomial set."""
        vec = [ZERO] * len(mset)
        for m, c in self.terms.items():
            pos = mset.index.get(m)
            if pos is None:
                raise ValueError("monomial %s not in the index set" % mono_str(m))
            vec[pos] = c
        return vec

    def text(self) -> str:
        """Canonical text form, e.g. 3/2*x0^4*x1*x2 (terms in canonical order)."""
        if not self.terms:
            return "0"
        out = []
        for m in sorted(self.terms, key=order_key):
            c = self.terms[m]
            mono = mono_str(m)
            if mono == "1":
                piece = _coeff_str(c)
            elif c == 1:
                piece = mono
            elif c == -1:
                piece = "-" + mono
            else:
                piece = _coeff_str(c) + "*" + mono
            if out and not piece.startswith("-"):
                out.append("+")
            out.append(piece)
        return "".join(out)

    def __repr__(self):
        return "HomogPoly(%s)" % self.text()


def sum_of_products(nvars: int, degree: int, pairs) -> HomogPoly:
    """The polynomial sum of a*b over the (a, b) pairs, of the given degree.

    Each factor is cleared to integer numerators once; the partial products
    are accumulated as ints over the lcm of the pairs' denominators, so each
    output coefficient becomes one reduced Fraction.
    """
    cleared = []
    den = 1
    for a, b in pairs:
        if a.nvars != nvars or b.nvars != nvars:
            raise DimensionMismatch("variable counts differ")
        if a.degree + b.degree != degree:
            raise DimensionMismatch("cannot combine degree %d and %d polynomials"
                                    % (a.degree + b.degree, degree))
        a_nums, da = clear_denominators(a.terms.values())
        b_nums, db = clear_denominators(b.terms.values())
        cleared.append((list(zip(a.terms, a_nums)), list(zip(b.terms, b_nums)), da * db))
        den = lcm(den, da * db)
    acc = {}
    for a_terms, b_terms, dab in cleared:
        scale = den // dab
        for m1, c1 in a_terms:
            c1 *= scale
            for m2, c2 in b_terms:
                m = mono_mul(m1, m2)
                acc[m] = acc.get(m, 0) + c1 * c2
    return HomogPoly(nvars, degree, {m: Fraction(v, den) for m, v in acc.items() if v})


def eval_monomials(monomials, coords):
    """Exact values of the monomials at the point `coords`.

    The coordinates are cleared to integers X_i over one denominator D, so
    a monomial's value is prod X_i^e_i / D^deg.
    """
    monomials = list(monomials)
    nums, den = clear_denominators(frac(x) for x in coords)
    den_powers = [den ** e for e in range(max(map(sum, monomials), default=0) + 1)]
    return [Fraction(v, den_powers[sum(m)])
            for m, v in zip(monomials, integer_monomial_values(monomials, nums))]


def integer_monomial_values(monomials, nums):
    """The ints prod X_i^e_i of the monomials at the integer point `nums`,
    multiplied in one variable at a time: X_i's powers are read from a
    table along the column of i-th exponents."""
    monomials = list(monomials)
    out = [1] * len(monomials)
    for x, exponents in zip(nums, zip(*monomials)):
        powers = [x ** e for e in range(max(exponents) + 1)]
        out = list(map(mul, out, map(powers.__getitem__, exponents)))
    return out


def _coeff_str(c: Fraction) -> str:
    if c.denominator == 1:
        return str(c.numerator)
    return "%d/%d" % (c.numerator, c.denominator)


# ---------------------------------------------------------------------------
# Euler-bundle sections

class EulerSection:
    """A tuple of n+2 same-degree forms: the coefficients of d/dx_i in a
    section of the twisted Euler bundle O(1)^(n+2)."""

    __slots__ = ("components",)

    def __init__(self, components):
        comps = tuple(components)
        if not comps:
            raise ValueError("no components")
        nv, deg = comps[0].nvars, comps[0].degree
        for c in comps:
            if c.nvars != nv or c.degree != deg:
                raise DimensionMismatch("components must share degree and variable count")
        if len(comps) != nv:
            raise DimensionMismatch("expected %d components, got %d" % (nv, len(comps)))
        self.components = comps

    @classmethod
    def zero(cls, nvars: int, degree: int) -> "EulerSection":
        return cls([HomogPoly.zero(nvars, degree)] * nvars)

    @classmethod
    def single(cls, nvars: int, comp: int, poly: HomogPoly) -> "EulerSection":
        comps = [HomogPoly.zero(nvars, poly.degree) for _ in range(nvars)]
        comps[comp] = poly
        return cls(comps)

    @property
    def nvars(self) -> int:
        return self.components[0].nvars

    @property
    def degree(self) -> int:
        return self.components[0].degree

    def __add__(self, other):
        return EulerSection([a + b for a, b in zip(self.components, other.components)])

    def __sub__(self, other):
        return EulerSection([a - b for a, b in zip(self.components, other.components)])

    def scale(self, c) -> "EulerSection":
        return EulerSection([p.scale(c) for p in self.components])

    def __eq__(self, other):
        return isinstance(other, EulerSection) and self.components == other.components

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.components)

    def evaluate(self, coords):
        return [c.evaluate(coords) for c in self.components]

    def coeff_vector(self, mset: MonomialSet):
        """Concatenated component coefficients (component-major)."""
        vec = []
        for c in self.components:
            vec.extend(c.coeffs_on(mset))
        return vec

    def canonical_key(self) -> str:
        return ";".join(c.text() for c in self.components)

    def __repr__(self):
        return "EulerSection(%s)" % self.canonical_key()


def euler_alpha(n: int) -> EulerSection:
    """The Euler field: x_i against d/dx_i."""
    nv = n + 2
    return EulerSection([HomogPoly.variable(nv, i) for i in range(nv)])
