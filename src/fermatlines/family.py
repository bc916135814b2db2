"""The deformation family of the Fermat hypersurface.

A family member is F = sum x_i^d + sum_f t_f f, with f running over the
degree-d monomials whose exponents all stay <= d-2 and (t_f) rational
coordinates of the base.  This module houses the defining polynomial, the
normal-bundle contraction eta (a tangent field pairs with dF), the
correction coefficients c_ijk, the distinguished quadratic sections w_ijk
whose eta-image stays inside the deformation span, the induced alternating
maps, and random members through prescribed points.

A member keeps t as Fractions (for its JSON and the c_ijk) and F as integer
terms: t is cleared once over den, the lcm of its denominators, and f_poly
and f_partials give den * F and den * dF/dx_i as {exponents: int}, each
computed once per member; eta alone, for the tests, builds the rational F.
"""

from __future__ import annotations

import json
from fractions import Fraction

from .errors import DimensionMismatch, InfeasibleSystem
from .exact import (Matrix, ONE, ZERO, clear_denominators, format_fraction, frac,
                    random_solution)
from .poly import (EulerSection, HomogPoly, gen_jd, integer_monomial_values,
                   jd_size_formula, mono_str, mono_times, order_key,
                   sum_of_products, term_partials)
from .rng import Rng


class FamilyShape:
    """The pair (n, d) with the indexed deformation monomial set."""

    def __init__(self, n: int, d: int):
        if d < 4:
            raise ValueError("the statements verified here assume degree >= 4")
        self.n = n
        self.d = d
        self.nvars = n + 2
        self.jd = gen_jd(n, d)
        self.N = len(self.jd)
        if self.N != jd_size_formula(n, d):
            raise DimensionMismatch("index set has %d monomials, the formula %d"
                                    % (self.N, jd_size_formula(n, d)))

    def __repr__(self):
        return "FamilyShape(n=%d, d=%d, N=%d)" % (self.n, self.d, self.N)


class DeformationPoint:
    """A rational point of the base: a finitely supported map f -> t_f."""

    def __init__(self, shape: FamilyShape, t=None):
        self.shape = shape
        clean = {}
        for m, v in (t or {}).items():
            m = tuple(m)
            if m not in shape.jd:
                raise ValueError("monomial %s is not a deformation coordinate" % mono_str(m))
            v = frac(v)
            if v != 0:
                clean[m] = v
        self.t = clean
        self._f = None
        self._partials = None

    def f_poly(self):
        """den * F as integer terms {exponents: int}, den the lcm of the
        denominators of t: one clearing per member."""
        if self._f is None:
            nv, d = self.shape.nvars, self.shape.d
            nums, self._den = clear_denominators(self.t.values())
            self._f = {tuple(d if j == i else 0 for j in range(nv)): self._den
                       for i in range(nv)}
            self._f.update(zip(self.t, nums))   # t lives on exponents <= d-2
        return self._f

    @property
    def den(self) -> int:
        self.f_poly()
        return self._den

    def f_partials(self):
        """den * dF/dx_i as integer terms, for each variable i."""
        if self._partials is None:
            self._partials = term_partials(self.f_poly(), self.shape.nvars)
        return self._partials

    def to_json(self) -> str:
        keys = sorted(self.t, key=order_key)
        return json.dumps({
            "n": self.shape.n,
            "d": self.shape.d,
            "t": {mono_str(m): format_fraction(self.t[m]) for m in keys},
        })

    def __repr__(self):
        return "DeformationPoint(n=%d, d=%d, %d nonzero coordinates)" % (
            self.shape.n, self.shape.d, len(self.t))


def eta(b: DeformationPoint, section: EulerSection) -> HomogPoly:
    """Contraction with the normal direction of the family at b: the i-th
    component of the section pairs with dF/dx_i, landing in degree
    m + d - 1 for a section of degree m."""
    nv, d = b.shape.nvars, b.shape.d
    if section.nvars != nv:
        raise DimensionMismatch("section has %d variables, family has %d"
                                % (section.nvars, nv))
    f = HomogPoly(nv, d, {m: Fraction(c, b.den) for m, c in b.f_poly().items()})
    pairs = [(comp, f.partial(i)) for i, comp in enumerate(section.components)
             if not comp.is_zero()]
    return sum_of_products(nv, section.degree + b.shape.d - 1, pairs)


def c_coeff(b: DeformationPoint, i: int, j: int, k: int) -> Fraction:
    """Correction coefficient: t_f / d for f = x_i^(d-2) x_j x_k, doubled
    when j = k.  Symmetric in (j, k)."""
    nv, d = b.shape.nvars, b.shape.d
    for idx in (i, j, k):
        if not 0 <= idx < nv:
            raise ValueError("index out of range")
    if i == j or i == k:
        raise ValueError("the squared index must differ from the others")
    base = (0,) * i + (d - 2,) + (0,) * (nv - 1 - i)
    t_f = b.t.get(mono_times(base, j, k), ZERO)
    factor = 2 if j == k else 1
    return Fraction(factor, d) * t_f


def omega_terms(b: DeformationPoint):
    """The quadratic sections w_ijk, 0 <= i <= j <= n+1 with i, j != k, as
    sparse terms {(component, exponents): coefficient}, the coefficient of
    x^exponents d/dx_component; ordered by i, then j, then k.

    For i < j the section is the monomial field x_i x_j d/dx_k, one term.
    For i = j it also holds -c_coeff(b, i, j', k) at (i, e_i + e_j') for
    each j' != i with a nonzero correction, so that the contraction lands in
    the degree-(d+1) deformation span.
    """
    nv = b.shape.nvars
    out = []
    for i in range(nv):
        for j in range(i, nv):
            for k in range(nv):
                if k == i or k == j:
                    continue
                terms = {(k, mono_times((0,) * nv, i, j)): ONE}
                if i == j:
                    for jp in range(nv):
                        if jp == i:
                            continue
                        c = c_coeff(b, i, jp, k)
                        if c:
                            terms[(i, mono_times((0,) * nv, i, jp))] = -c
                out.append(terms)
    return out


def omega_basis(b: DeformationPoint):
    """The sections of omega_terms(b) as EulerSections, in the same order."""
    nv = b.shape.nvars
    return [EulerSection([HomogPoly(nv, 2, {e: c for (i, e), c in terms.items() if i == comp})
                          for comp in range(nv)]) for terms in omega_terms(b)]


def _sort_parity(keys) -> int:
    """Sign of the permutation sorting `keys` (assumed distinct)."""
    order = sorted(range(len(keys)), key=lambda i: keys[i])
    seen = [False] * len(order)
    sign = 1
    for i in range(len(order)):
        if seen[i]:
            continue
        j = i
        length = 0
        while not seen[j]:
            seen[j] = True
            j = order[j]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


def koszul_eta_m(b: DeformationPoint, factors):
    """Alternating extension of eta to a decomposable wedge.

    eta_m(w_1 ^ ... ^ w_m) = sum_k (-1)^(k+1) eta(w_k) (x) wedge of the rest.
    Returns (coefficient polynomial, remaining factors) pairs with each
    remaining wedge in canonical order and like terms merged; the empty list
    is zero.  One factor reduces to plain eta.
    """
    factors = list(factors)
    if not factors:
        raise ValueError("need at least one factor")
    merged = {}
    reps = {}
    for k in range(len(factors)):
        rest = factors[:k] + factors[k + 1:]
        rest_keys = [f.canonical_key() for f in rest]
        if len(set(rest_keys)) != len(rest_keys):
            continue  # wedge with a repeated factor vanishes
        sign = 1 if k % 2 == 0 else -1
        sign *= _sort_parity(rest_keys)
        coeff = eta(b, factors[k])
        if sign < 0:
            coeff = -coeff
        order = sorted(range(len(rest)), key=lambda i: rest_keys[i])
        keys = tuple(rest_keys[i] for i in order)
        if keys in merged:
            merged[keys] = merged[keys] + coeff
        else:
            merged[keys] = coeff
            reps[keys] = tuple(rest[i] for i in order)
    out = []
    for keys in sorted(merged):
        poly = merged[keys]
        if not poly.is_zero():
            out.append((poly, reps[keys]))
    return out


def point_condition(shape: FamilyShape, p):
    """(row, rhs): the member at t passes through p iff row . t == rhs.

    With p cleared to an integer point X / D, the row holds the ints
    prod X_i^e_i of the deformation monomials and rhs is -sum X_i^d: the
    rational condition scaled by D^d > 0, so it has the same solutions.

    Raises InfeasibleSystem when no member passes through p, i.e. every
    deformation monomial vanishes there (p is a coordinate point) but the
    Fermat part does not.
    """
    if p.nvars != shape.nvars:
        raise DimensionMismatch("point has %d coordinates" % p.nvars)
    nums, _ = clear_denominators(p.coords)
    row = integer_monomial_values(shape.jd, nums)
    fermat = sum(x ** shape.d for x in nums)
    if not any(row) and fermat:
        raise InfeasibleSystem(
            "no family member passes through %r (all deformation "
            "monomials vanish there)" % (p,))
    return row, -fermat


def sample_b_through(shape: FamilyShape, points, rng: Rng) -> DeformationPoint:
    """Random base point whose family member passes through the given points.

    Each point imposes its point_condition on (t_f), and random_solution
    draws the free coordinates; with no points every coordinate is free.
    Raises InfeasibleSystem when a condition cannot be met.
    """
    conditions = [point_condition(shape, p) for p in points]
    sol = random_solution(Matrix([row for row, _ in conditions], ncols=shape.N),
                          [rhs for _, rhs in conditions], rng)
    if sol is None:
        raise InfeasibleSystem("point conditions are mutually inconsistent")
    return DeformationPoint(shape, dict(zip(shape.jd, sol)))
