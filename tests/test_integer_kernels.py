"""The integer-numerator kernels against term-by-term Fraction references.

restrict_poly sums integer terms against a line's integer cache, along
s*P + t*Q; it must equal the Fraction expansion oracles.restrict_reference
at the line's integer points, and the verdicts read off it must be those of
the normalized rational restriction along s*p + t*q.  HomogPoly.__mul__
(sum_of_products), eta and eval_monomials clear denominators once and build
one Fraction per output coefficient.  The references below are the plain
rational expansions they replaced; they live here only, as oracles.
"""

from fractions import Fraction
from math import comb

import pytest
from hypothesis import assume, given, settings, strategies as st

from fermatlines.errors import DimensionMismatch
from fermatlines.exact import Matrix, clear_denominators, sample_rational
from fermatlines.family import (DeformationPoint, FamilyShape, eta,
                                omega_basis, sample_b_through)
from fermatlines.lines import (Line, ProjPoint, distinct_root_count, monomial_index,
                               restrict_poly)
from fermatlines.poly import (EulerSection, HomogPoly, all_monomials,
                              eval_monomials, gen_jd, sum_of_products)
from fermatlines.rng import Rng
from fermatlines.verifiers import (_b_with_line_power, random_generic_scheme,
                                   secant_obstruction)
from tests.oracles import (cleared, integer_points, member_poly, restrict,
                           restrict_all_partials, restrict_rational,
                           restrict_reference)
from tests.test_poly import random_poly

ZERO = Fraction(0)
PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53)


# ---------------------------------------------------------------------------
# references

def mul_reference(a, b):
    """Product with one Fraction multiply and add per pair of terms."""
    terms = {}
    for m1, c1 in a.terms.items():
        for m2, c2 in b.terms.items():
            m = tuple(x + y for x, y in zip(m1, m2))
            terms[m] = terms.get(m, ZERO) + c1 * c2
    return HomogPoly(a.nvars, a.degree + b.degree, terms)


def eta_reference(b, section):
    """eta as a running sum of separately built products."""
    f = member_poly(b)
    partials = [f.partial(i) for i in range(b.shape.nvars)]
    out = HomogPoly.zero(b.shape.nvars, section.degree + b.shape.d - 1)
    for j, comp in enumerate(section.components):
        out = out + mul_reference(comp, partials[j])
    return out


def eval_reference(m, coords):
    v = Fraction(1)
    for x, e in zip(coords, m):
        v *= Fraction(x) ** e
    return v


def assert_same_fractions(got, want):
    assert len(got) == len(want)
    for x, y in zip(got, want):
        assert isinstance(x, Fraction)
        assert (x.numerator, x.denominator) == (y.numerator, y.denominator)


def check_restriction(poly, line):
    """restrict_poly equals the Fraction expansion along s*P + t*Q, and the
    cleared integer terms c*den restrict to ints, den times that."""
    want = restrict_reference(poly, *integer_points(line))
    assert restrict(poly, line) == want
    terms, den = cleared(poly)
    got = restrict_poly(terms, poly.degree, line)
    assert all(type(x) is int for x in got)
    assert got == [den * x for x in want]


# ---------------------------------------------------------------------------
# restriction to a line

coordinate = st.fractions(min_value=-40, max_value=40, max_denominator=60)
nonzero_coordinate = coordinate.filter(lambda x: x != 0)


@st.composite
def lines_and_polys(draw):
    nv = draw(st.integers(2, 4))
    degree = draw(st.integers(0, 5))
    p = draw(st.lists(st.one_of(st.just(ZERO), coordinate), min_size=nv, max_size=nv)
             .filter(lambda cs: any(cs)))
    q = draw(st.lists(st.one_of(st.just(ZERO), coordinate), min_size=nv, max_size=nv)
             .filter(lambda cs: any(cs)))
    pp, qq = ProjPoint(p), ProjPoint(q)
    assume(pp != qq)
    monos = all_monomials(nv, degree).members
    picks = draw(st.lists(st.sampled_from(monos), max_size=8))
    coeffs = draw(st.lists(nonzero_coordinate, min_size=len(picks), max_size=len(picks)))
    return Line(pp, qq), HomogPoly(nv, degree, dict(zip(picks, coeffs)))


@given(lines_and_polys())
@settings(max_examples=120, deadline=None)
def test_restrict_matches_reference_hypothesis(case):
    line, poly = case
    check_restriction(poly, line)


def test_restrict_negative_and_non_unit_denominators():
    rng = Rng(31)
    line = Line(ProjPoint([Fraction(-3, 7), Fraction(5, -9), 2, Fraction(-11, 4)]),
                ProjPoint([Fraction(1, 6), -1, Fraction(-13, 10), Fraction(7, 15)]))
    for degree in range(7):
        for _ in range(4):
            check_restriction(random_poly(4, degree, rng, nterms=10, bound=30), line)


def test_restrict_points_with_zero_coordinates_and_coordinate_lines():
    rng = Rng(32)
    nv = 4
    units = [ProjPoint([1 if j == i else 0 for j in range(nv)]) for i in range(nv)]
    lines = [Line(units[i], units[j]) for i in range(nv) for j in range(nv) if i != j]
    lines.append(Line(ProjPoint([0, Fraction(2, 3), 0, -5]),
                      ProjPoint([Fraction(-1, 8), 0, 0, Fraction(9, 4)])))
    lines.append(Line(units[0], ProjPoint([0, Fraction(-5, 6), Fraction(7, 3), 0])))
    for line in lines:
        for degree in (1, 3, 6):
            check_restriction(random_poly(nv, degree, rng, nterms=12, bound=20), line)


def test_restrict_zero_polynomial():
    line = Line(ProjPoint([1, Fraction(-2, 3), 5]), ProjPoint([Fraction(1, 4), 1, 0]))
    for degree in range(5):
        assert restrict(HomogPoly.zero(3, degree), line) == [0] * (degree + 1)


def test_restrict_large_coefficient_lcm():
    nv = 5
    monos = all_monomials(nv, 6).members
    terms = {m: Fraction((-1) ** i * (10 ** 30 + i), PRIMES[i % len(PRIMES)] ** (1 + i % 3))
             for i, m in enumerate(monos[::3])}
    poly = HomogPoly(nv, 6, terms)
    line = Line(ProjPoint([Fraction(1, 97), Fraction(-89, 83), 0, Fraction(79, 73), 71]),
                ProjPoint([Fraction(-67, 61), 0, Fraction(59, 53), 1, Fraction(-47, 43)]))
    check_restriction(poly, line)


def test_restrict_paper_size_member_and_partials():
    shape = FamilyShape(3, 8)
    rng = Rng(33)
    p = ProjPoint([1, Fraction(-1, 28), Fraction(2, 3), Fraction(-3, 16), Fraction(3, 8)])
    q = ProjPoint([1, -24, Fraction(-27, 5), -24, 27])
    b = sample_b_through(shape, [p, q], rng)
    line = Line(p, q)
    f = member_poly(b)
    check_restriction(f, line)
    for i in range(5):
        check_restriction(f.partial(i), line)
    check_partials(f, line)
    assert restrict(f, line)[0] == 0 == restrict(f, line)[-1]
    # the member's own integer terms, den * F, restrict to den times the forms
    assert restrict_poly(b.f_poly(), 8, line) == [b.den * x for x in restrict(f, line)]
    assert ([restrict_poly(part, 7, line) for part in b.f_partials()]
            == [[b.den * x for x in form] for form in restrict_all_partials(f, line)])


def test_restrict_checks_the_variable_count():
    line = Line(ProjPoint([1, 0, 0]), ProjPoint([0, 1, 0]))
    with pytest.raises(DimensionMismatch):
        restrict(HomogPoly.variable(4, 0), line)


def check_partials(poly, line):
    """term_partials and restrict_poly against the restriction of each
    HomogPoly.partial."""
    got = restrict_all_partials(poly, line)
    assert len(got) == poly.nvars
    for i, form in enumerate(got):
        assert form == restrict(poly.partial(i), line)
        assert form == restrict_reference(poly.partial(i), *integer_points(line))


@given(lines_and_polys())
@settings(max_examples=100, deadline=None)
def test_restrict_partials_matches_restricted_partials_hypothesis(case):
    line, poly = case
    check_partials(poly, line)


def test_restrict_partials_with_an_absent_variable_and_degree_one():
    rng = Rng(34)
    line = Line(ProjPoint([Fraction(-3, 7), Fraction(5, -9), 2, Fraction(-11, 4)]),
                ProjPoint([Fraction(1, 6), -1, Fraction(-13, 10), Fraction(7, 15)]))
    for degree in (1, 2, 5):
        for _ in range(3):
            # x2 never occurs, so the third partial is zero
            sub = random_poly(3, degree, rng, nterms=8, bound=30)
            poly = HomogPoly(4, degree,
                             {m[:2] + (0,) + m[2:]: c for m, c in sub.terms.items()})
            check_partials(poly, line)
            assert not any(restrict_all_partials(poly, line)[2])
    linear = HomogPoly(4, 1, {(1, 0, 0, 0): Fraction(-5, 3), (0, 0, 0, 1): Fraction(7, 2)})
    assert restrict_all_partials(linear, line) == [[Fraction(-5, 3)], [ZERO], [ZERO],
                                               [Fraction(7, 2)]]
    with pytest.raises(DimensionMismatch):
        restrict_all_partials(HomogPoly.variable(5, 0), line)


def test_line_cache_entry_is_product_of_linear_factors():
    p = ProjPoint([Fraction(2, 3), -1, 0])
    q = ProjPoint([Fraction(-1, 2), Fraction(5, 4), 3])
    line = Line(p, q)
    vec = line.integer_restriction((2, 1, 1))
    # p = (1, -3/2, 0) and q = (1, -5/2, -6) after normalization, so
    # P = (2, -3, 0) and Q = (2, -5, -12), both over the denominator 2.
    lin = [(2, 2), (-3, -5), (0, -12)]
    want = [1]
    for i, e in enumerate((2, 1, 1)):
        for _ in range(e):
            a, b = lin[i]
            want = [x * a + y * b for x, y in zip(want + [0], [0] + want)]
    assert list(vec) == want
    assert line.integer_restriction((2, 1, 1)) is vec


def secant_reference(f, z):
    """ker_etahat, overlap and dependent_pair of secant_obstruction, from
    the rational restrictions of f and its partials along s*p + t*q and
    dense Matrix ranks."""
    nv = f.nvars
    rho = []
    for k, pt in enumerate((z.p, z.q)):
        for i in range(nv):
            for j in range(i + 1, nv):
                row = [ZERO] * (2 * nv)
                row[2 * i + k], row[2 * j + k] = pt.coords[j], -pt.coords[i]
                rho.append(row)
    cols = []
    for i in range(nv):
        form = restrict_rational(f.partial(i), z)
        cols += [form + [ZERO], [ZERO] + form]
    etahat = [list(row) for row in zip(*cols)]
    xif = restrict_rational(f, z)
    pair = Matrix([xif, [k * c for k, c in enumerate(xif)]])
    return {"ker_etahat": 2 * nv - Matrix(etahat).rank(),
            "overlap": 2 * nv - Matrix(rho + etahat).rank(),
            "dependent_pair": int(pair.rank() <= 1)}


@pytest.mark.parametrize("n,d", [(2, 6), (3, 8), (2, 5)])
def test_integer_restriction_keeps_the_rational_verdicts(n, d):
    """On random members and lines, the integer restriction along s*P + t*Q
    and the normalized rational one along s*p + t*q have the same
    monomial_index and distinct_root_count, and secant_obstruction's
    ker_etahat, overlap and dependent_pair are those of the rational
    restrictions of F and its partials, on constructed two-point lines and
    random secants."""
    shape = FamilyShape(n, d)
    rng = Rng(40).split("%d-%d" % (n, d))
    scaled, pairs = 0, set()
    for _ in range(2):
        z = random_generic_scheme(n, rng)
        p, q = z.p.coords, z.q.coords
        scaled += clear_denominators(p)[1] * clear_denominators(q)[1] > 1
        through = (_b_with_line_power(shape, z, d // 2, rng)[0],
                   sample_b_through(shape, [z.p, z.q], rng))
        for b in through + (sample_b_through(shape, [], rng),):
            f = member_poly(b)
            xif, want = restrict_poly(b.f_poly(), d, z), restrict_rational(f, z)
            assert monomial_index(xif) == monomial_index(want)
            assert distinct_root_count(xif) == distinct_root_count(want)
            if b in through:
                dims = secant_obstruction(b, z).dims
                ref = secant_reference(f, z)
                assert {key: dims[key] for key in ref} == ref
                pairs.add(ref["dependent_pair"])
    assert scaled and pairs == {0, 1}


# ---------------------------------------------------------------------------
# products

@st.composite
def poly_pairs(draw):
    nv = draw(st.integers(1, 4))

    def poly():
        degree = draw(st.integers(0, 4))
        monos = all_monomials(nv, degree).members
        picks = draw(st.lists(st.sampled_from(monos), max_size=7))
        coeffs = draw(st.lists(nonzero_coordinate, min_size=len(picks),
                               max_size=len(picks)))
        return HomogPoly(nv, degree, dict(zip(picks, coeffs)))

    return poly(), poly()


@given(poly_pairs())
@settings(max_examples=120, deadline=None)
def test_mul_matches_reference_hypothesis(pair):
    a, b = pair
    got = a * b
    want = mul_reference(a, b)
    assert got == want and got.degree == want.degree
    assert_same_fractions([got.terms[m] for m in want.terms],
                          list(want.terms.values()))


def test_mul_seeded_cases():
    rng = Rng(34)
    for nv in (2, 3, 5):
        for da in range(4):
            for db in range(4):
                a = random_poly(nv, da, rng, nterms=9, bound=40)
                b = random_poly(nv, db, rng, nterms=9, bound=40)
                assert a * b == mul_reference(a, b)
                assert b * a == a * b


def test_mul_zero_and_cancellation():
    x0, x1 = HomogPoly.variable(2, 0), HomogPoly.variable(2, 1)
    zero = HomogPoly.zero(2, 3)
    prod = zero * x0
    assert prod.is_zero() and prod.degree == 4
    # (x0 + x1)(x0 - x1) = x0^2 - x1^2: the cross terms cancel exactly
    diff = (x0 + x1) * (x0 - x1)
    assert diff == mul_reference(x0 + x1, x0 - x1)
    assert (1, 1) not in diff.terms


def test_mul_large_coefficient_lcm():
    nv = 4
    ma = all_monomials(nv, 3).members
    mb = all_monomials(nv, 2).members
    a = HomogPoly(nv, 3, {m: Fraction(2 ** 70 + i, PRIMES[i % 16] ** 3)
                          for i, m in enumerate(ma)})
    b = HomogPoly(nv, 2, {m: Fraction(-(3 ** 40) - i, PRIMES[(5 * i) % 16] * PRIMES[i % 7])
                          for i, m in enumerate(mb)})
    assert a * b == mul_reference(a, b)


def test_mul_rejects_different_variable_counts():
    with pytest.raises(DimensionMismatch):
        HomogPoly.variable(2, 0) * HomogPoly.variable(3, 0)


def test_sum_of_products_checks_degree_and_sums():
    rng = Rng(35)
    pairs = [(random_poly(3, 1, rng, bound=15), random_poly(3, 2, rng, bound=15)),
             (random_poly(3, 2, rng, bound=15), random_poly(3, 1, rng, bound=15)),
             (random_poly(3, 0, rng, bound=15), random_poly(3, 3, rng, bound=15))]
    want = HomogPoly.zero(3, 3)
    for a, b in pairs:
        want = want + mul_reference(a, b)
    assert sum_of_products(3, 3, pairs) == want
    assert sum_of_products(3, 3, []) == HomogPoly.zero(3, 3)
    with pytest.raises(DimensionMismatch):
        sum_of_products(3, 4, pairs)


# ---------------------------------------------------------------------------
# eta

@pytest.mark.parametrize("n,d,seed", [(2, 6, 36), (3, 8, 37)])
def test_eta_matches_running_sum_on_every_omega(n, d, seed):
    shape = FamilyShape(n, d)
    b = sample_b_through(shape, [], Rng(seed))
    omegas = omega_basis(b)
    assert len(omegas) == (n + 2) * comb(n + 2, 2)
    for w in omegas:
        assert eta(b, w) == eta_reference(b, w)


def test_eta_matches_reference_on_mixed_sections():
    """Sections mixing random terms in every component, then one monomial
    field at the Fermat point."""
    shape = FamilyShape(2, 6)
    rng = Rng(38)
    b = sample_b_through(shape, [], rng)
    nv = shape.nvars
    for _ in range(4):
        sec = EulerSection([random_poly(nv, 2, rng, nterms=4) for _ in range(nv)])
        assert eta(b, sec) == eta_reference(b, sec)
    fermat = DeformationPoint(shape)
    sec = EulerSection.single(nv, 1, HomogPoly.monomial(nv, (1, 1, 0, 0)))
    assert eta(fermat, sec) == eta_reference(fermat, sec)


# ---------------------------------------------------------------------------
# monomial evaluation

@given(st.lists(coordinate, min_size=1, max_size=5), st.integers(0, 6))
@settings(max_examples=80, deadline=None)
def test_eval_monomials_matches_reference_hypothesis(coords, degree):
    monos = list(all_monomials(len(coords), degree).members)
    got = eval_monomials(monos, coords)
    assert_same_fractions(got, [eval_reference(m, coords) for m in monos])


def test_eval_monomials_mixed_degrees_and_int_coordinates():
    coords = [3, Fraction(-2, 9), 0, Fraction(5, 4)]
    monos = [(0, 0, 0, 0), (1, 0, 0, 0), (0, 2, 0, 1), (0, 0, 1, 0), (4, 3, 0, 2)]
    assert_same_fractions(eval_monomials(monos, coords),
                          [eval_reference(m, coords) for m in monos])
    jd = gen_jd(3, 9)
    p = ProjPoint([1, Fraction(-7, 3), Fraction(11, 5), Fraction(-1, 2), 4])
    assert_same_fractions(eval_monomials(jd, p.coords),
                          [eval_reference(m, p.coords) for m in jd])


def test_evaluate_uses_the_same_values():
    rng = Rng(39)
    for _ in range(5):
        poly = random_poly(3, 4, rng, nterms=8, bound=20)
        pt = [sample_rational(rng, 20) for _ in range(3)]
        want = sum((c * eval_reference(m, pt) for m, c in poly.terms.items()), ZERO)
        assert poly.evaluate(pt) == want
