"""Monomial sets, polynomials, sections: spec'd examples via enumeration
oracles, then the algebraic laws."""

from fractions import Fraction
from itertools import product
from math import comb

import pytest

from fermatlines.exact import sample_rational
from fermatlines.poly import (EulerSection, HomogPoly, MonomialSet, all_monomials,
                              euler_alpha, gen_jd, jd_size_formula, mono_str, order_key)
from fermatlines.rng import Rng
from tests.polytext import mono_parse, parse_poly


def enumerate_jd_oracle(n, d):
    """Brute force: all exponent tuples of degree d, filtered by the cap."""
    nv = n + 2
    out = set()
    for exps in product(range(d + 1), repeat=nv):
        if sum(exps) == d and max(exps) <= d - 2:
            out.add(exps)
    return out


def random_poly(nvars, degree, rng, nterms=6, bound=9):
    mset = all_monomials(nvars, degree)
    terms = {}
    for _ in range(nterms):
        m = mset.members[rng.randint(0, len(mset) - 1)]
        terms[m] = terms.get(m, Fraction(0)) + sample_rational(rng, bound)
    return HomogPoly(nvars, degree, terms)


def test_jd_smallest_case():
    jd = gen_jd(1, 3)
    assert set(jd.members) == {(1, 1, 1)}
    assert set(jd.members) == enumerate_jd_oracle(1, 3)


def test_jd_n1_d4_explicit():
    jd = gen_jd(1, 4)
    want = {(2, 2, 0), (2, 0, 2), (0, 2, 2), (2, 1, 1), (1, 2, 1), (1, 1, 2)}
    assert set(jd.members) == want == enumerate_jd_oracle(1, 4)
    assert len(jd) == comb(4 + 2, 2) - 9 == 6


def test_jd_n2_d6_size():
    jd = gen_jd(2, 6)
    assert len(jd) == 68 == comb(9, 3) - 16
    assert set(jd.members) == enumerate_jd_oracle(2, 6)


def test_jd_count_matches_formula_grid():
    for n in range(1, 5):
        for d in range(3, 11):
            assert len(gen_jd(n, d)) == jd_size_formula(n, d)


def test_jd_divisibility_characterization():
    for n, d in ((1, 5), (2, 6)):
        jd = gen_jd(n, d)
        full = all_monomials(n + 2, d)
        for m in full:
            divisible = any(e >= d - 1 for e in m)
            assert (m in jd) == (not divisible)


def test_monomial_set_ordering_and_index():
    jd = gen_jd(1, 4)
    assert list(jd.members) == sorted(jd.members, key=lambda m: tuple(-e for e in m))
    for i, m in enumerate(jd.members):
        assert jd.index[m] == i


@pytest.mark.parametrize("n, d", [(1, 4), (2, 6), (3, 8), (4, 10)])
def test_monomial_sets_come_in_order_key_order(n, d):
    """MonomialSet sorts by descending tuples: within one degree that is
    order_key's graded lex order."""
    for mset in (gen_jd(n, d), all_monomials(n + 2, d)):
        assert list(mset.members) == sorted(mset.members, key=order_key)


def test_monomial_set_rejects_mixed_degrees():
    with pytest.raises(ValueError, match="mixed degrees"):
        MonomialSet(3, [(2, 0, 0), (1, 0, 0)])


def test_partial_derivative_examples():
    d = 5
    x0_pow = HomogPoly.monomial(3, (d, 0, 0))
    assert x0_pow.partial(0) == HomogPoly.monomial(3, (d - 1, 0, 0), d)
    assert x0_pow.partial(1).is_zero()
    p = HomogPoly.monomial(3, (2, 1, 1))
    assert p.partial(2) == HomogPoly.monomial(3, (2, 1, 0))


def test_partial_linearity_and_leibniz():
    rng = Rng(11)
    for _ in range(10):
        p = random_poly(3, 3, rng)
        q = random_poly(3, 2, rng)
        i = rng.randint(0, 2)
        assert (p * q).partial(i) == p.partial(i) * q + p * q.partial(i)
        p2 = random_poly(3, 3, rng)
        assert (p + p2).partial(i) == p.partial(i) + p2.partial(i)


def test_euler_identity():
    rng = Rng(12)
    for nvars, degree in ((3, 4), (4, 3)):
        p = random_poly(nvars, degree, rng)
        total = HomogPoly.zero(nvars, degree)
        for i in range(nvars):
            total = total + HomogPoly.variable(nvars, i) * p.partial(i)
        assert total == p * degree


def test_euler_alpha():
    a = euler_alpha(1)
    assert a.components == (HomogPoly.variable(3, 0), HomogPoly.variable(3, 1),
                            HomogPoly.variable(3, 2))
    assert a.evaluate([1, 2, 3]) == [1, 2, 3]


def test_text_form_canonical():
    p = HomogPoly(3, 6, {(4, 1, 1): Fraction(3, 2)})
    assert p.text() == "3/2*x0^4*x1*x2"
    q = HomogPoly(3, 2, {(2, 0, 0): 1, (0, 1, 1): -1})
    assert q.text() == "x0^2-x1*x2"
    assert HomogPoly.zero(3, 2).text() == "0"


def test_text_round_trip():
    rng = Rng(13)
    for _ in range(15):
        p = random_poly(4, 4, rng)
        assert parse_poly(p.text(), 4, 4) == p
    assert parse_poly("0", 3, 5).is_zero()
    with pytest.raises(ValueError):
        parse_poly("x0^2+x1", 3)


def test_mono_str_parse():
    assert mono_str((4, 1, 1)) == "x0^4*x1*x2"
    assert mono_parse("x0^4*x1*x2", 3) == (4, 1, 1)
    assert mono_parse("1", 3) == (0, 0, 0)
    with pytest.raises(ValueError):
        mono_parse("x5", 3)


def test_zero_polynomial_keeps_degree_tag():
    z = HomogPoly.zero(4, 3)
    assert z.degree == 3 and z.is_zero()
    with pytest.raises(Exception):
        z + HomogPoly.zero(4, 2)


def test_euler_section_validation():
    with pytest.raises(Exception):
        EulerSection([HomogPoly.zero(3, 2), HomogPoly.zero(3, 1),
                      HomogPoly.zero(3, 2)])
    sec = EulerSection.zero(3, 2)
    assert sec.degree == 2 and sec.is_zero()


def test_evaluate():
    p = parse_poly("x0^2*x1-2*x2^3", 3)
    assert p.evaluate([1, 2, 1]) == 0
    assert p.evaluate([2, 1, 0]) == 4
