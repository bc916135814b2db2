"""The deformation family of the Fermat hypersurface.

A family member is F = sum x_i^d + sum_f t_f f, with f running over the
degree-d monomials whose exponents all stay <= d-2 and (t_f) rational
coordinates of the base.  This module houses the defining polynomial, the
normal-bundle contraction eta (tangent fields pair with dF, base directions
with their indexing monomial), the correction coefficients c_ijk, the
distinguished quadratic sections w_ijk whose eta-image stays inside the
deformation span, the induced alternating maps, and random members through
prescribed points.
"""

from __future__ import annotations

import json
from fractions import Fraction

from .errors import DimensionMismatch, InfeasibleSystem
from .exact import (Matrix, ZERO, format_fraction, frac, parse_fraction,
                    random_solution, sample_rational)
from .poly import (EulerSection, HomogPoly, MonomialSet, eval_monomials, gen_jd,
                   jd_size_formula, mono_parse, mono_str, order_key,
                   sum_of_products)
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

    def monomials(self, degree: int) -> MonomialSet:
        """The analogous index set at another degree (exponent cap degree-2)."""
        return gen_jd(self.n, degree)

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

    @classmethod
    def fermat(cls, shape: FamilyShape) -> "DeformationPoint":
        return cls(shape, {})

    def is_fermat(self) -> bool:
        return not self.t

    def f_poly(self) -> HomogPoly:
        """The defining polynomial of this family member."""
        if self._f is None:
            nv, d = self.shape.nvars, self.shape.d
            terms = {tuple(d if j == i else 0 for j in range(nv)): Fraction(1)
                     for i in range(nv)}
            for m, v in self.t.items():
                terms[m] = terms.get(m, ZERO) + v
            self._f = HomogPoly(nv, d, terms)
        return self._f

    def f_partials(self):
        if self._partials is None:
            f = self.f_poly()
            self._partials = tuple(f.partial(i) for i in range(self.shape.nvars))
        return self._partials

    def to_json(self) -> str:
        keys = sorted(self.t, key=order_key)
        return json.dumps({
            "n": self.shape.n,
            "d": self.shape.d,
            "t": {mono_str(m): format_fraction(self.t[m]) for m in keys},
        })

    @classmethod
    def from_json(cls, text: str) -> "DeformationPoint":
        obj = json.loads(text)
        shape = FamilyShape(obj["n"], obj["d"])
        t = {mono_parse(k, shape.nvars): parse_fraction(v) for k, v in obj["t"].items()}
        return cls(shape, t)

    def __repr__(self):
        return "DeformationPoint(n=%d, d=%d, %d nonzero coordinates)" % (
            self.shape.n, self.shape.d, len(self.t))


class MixedTangentSection:
    """A tangent-bundle part plus base directions with form coefficients.

    The contraction eta sends the i-th tangent component against dF/dx_i
    (degree m + d - 1) and a base direction t_f against f (degree of the
    coefficient + d); for the sum to be homogeneous the base coefficients
    must have degree one less than the tangent components, which the
    constructor enforces.
    """

    def __init__(self, p_part: EulerSection, b_part=None):
        self.p_part = p_part
        clean = {}
        for m, coeff in (b_part or {}).items():
            m = tuple(m)
            if coeff.nvars != p_part.nvars:
                raise DimensionMismatch("coefficient variable count differs")
            if coeff.degree != p_part.degree - 1:
                raise DimensionMismatch(
                    "base coefficients must have degree %d, got %d"
                    % (p_part.degree - 1, coeff.degree))
            if not coeff.is_zero():
                clean[m] = coeff
        self.b_part = clean

    @property
    def nvars(self) -> int:
        return self.p_part.nvars

    def canonical_key(self) -> str:
        base = "|".join("%s:%s" % (mono_str(m), self.b_part[m].text())
                        for m in sorted(self.b_part, key=order_key))
        return self.p_part.canonical_key() + "||" + base

    def __eq__(self, other):
        return (isinstance(other, MixedTangentSection)
                and self.p_part == other.p_part and self.b_part == other.b_part)


def _as_parts(section):
    if isinstance(section, EulerSection):
        return section, {}
    return section.p_part, section.b_part


def eta(b: DeformationPoint, section) -> HomogPoly:
    """Contraction with the normal direction of the family at b."""
    p_part, b_part = _as_parts(section)
    nv = b.shape.nvars
    if p_part.nvars != nv:
        raise DimensionMismatch("section has %d variables, family has %d"
                                % (p_part.nvars, nv))
    partials = b.f_partials()
    pairs = [(comp, partials[j]) for j, comp in enumerate(p_part.components)
             if not comp.is_zero()]
    for mono, coeff in b_part.items():
        if mono not in b.shape.jd:
            raise ValueError("base direction %s not in the deformation index set"
                             % mono_str(mono))
        pairs.append((coeff, HomogPoly.monomial(nv, mono)))
    return sum_of_products(nv, p_part.degree + b.shape.d - 1, pairs)


def c_coeff(b: DeformationPoint, i: int, j: int, k: int) -> Fraction:
    """Correction coefficient: t_f / d for f = x_i^(d-2) x_j x_k, doubled
    when j = k.  Symmetric in (j, k)."""
    nv, d = b.shape.nvars, b.shape.d
    for idx in (i, j, k):
        if not 0 <= idx < nv:
            raise ValueError("index out of range")
    if i == j or i == k:
        raise ValueError("the squared index must differ from the others")
    exps = [0] * nv
    exps[i] = d - 2
    exps[j] += 1
    exps[k] += 1
    t_f = b.t.get(tuple(exps), ZERO)
    factor = 2 if j == k else 1
    return Fraction(factor, d) * t_f


def _pair_exps(nv: int, i: int, j: int):
    exps = [0] * nv
    exps[i] += 1
    exps[j] += 1
    return tuple(exps)


def omega_basis(b: DeformationPoint):
    """The quadratic sections w_ijk, 0 <= i <= j <= n+1 with i, j != k.

    For i < j the section is the monomial field x_i x_j d/dx_k; for i = j a
    correction multiple of x_i x_j' d/dx_i is subtracted for every j' != i
    so that the contraction lands in the degree-(d+1) deformation span.
    """
    nv = b.shape.nvars
    out = []
    for i in range(nv):
        for j in range(i, nv):
            for k in range(nv):
                if k == i or k == j:
                    continue
                xij = HomogPoly.monomial(nv, _pair_exps(nv, i, j))
                sec = EulerSection.single(nv, k, xij)
                if i == j:
                    correction = HomogPoly.zero(nv, 2)
                    for jp in range(nv):
                        if jp == i:
                            continue
                        c = c_coeff(b, i, jp, k)
                        if c:
                            correction = correction + HomogPoly.monomial(
                                nv, _pair_exps(nv, i, jp), c)
                    sec = sec - EulerSection.single(nv, i, correction)
                out.append(sec)
    return out


def _factor_key(f) -> str:
    if isinstance(f, EulerSection):
        return "e:" + f.canonical_key()
    return "m:" + f.canonical_key()


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
        rest_keys = [_factor_key(f) for f in rest]
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


def random_deformation(shape: FamilyShape, rng: Rng, bound: int = 1000) -> DeformationPoint:
    """Unconstrained random base point."""
    return DeformationPoint(shape, {m: sample_rational(rng, bound) for m in shape.jd})


def sample_b_through(shape: FamilyShape, points, rng: Rng, bound: int = 1000) -> DeformationPoint:
    """Random base point whose family member passes through the given points.

    Each point imposes one affine-linear condition on (t_f); the free
    coordinates are filled with sample_rational.  Raises InfeasibleSystem
    when a condition cannot be met, e.g. for coordinate points where every
    deformation monomial vanishes but the Fermat part does not.
    """
    points = list(points)
    if not points:
        return random_deformation(shape, rng, bound)
    rows = []
    rhs = []
    for p in points:
        if p.nvars != shape.nvars:
            raise DimensionMismatch("point has %d coordinates" % p.nvars)
        row = eval_monomials(shape.jd, p.coords)
        fermat = sum((x ** shape.d for x in p.coords), ZERO)
        if all(x == 0 for x in row) and fermat != 0:
            raise InfeasibleSystem(
                "no family member passes through %r (all deformation "
                "monomials vanish there)" % (p,))
        rows.append(row)
        rhs.append(-fermat)
    sol = random_solution(Matrix(rows, ncols=shape.N), rhs, rng, bound)
    if sol is None:
        raise InfeasibleSystem("point conditions are mutually inconsistent")
    return DeformationPoint(shape, dict(zip(shape.jd, sol)))
