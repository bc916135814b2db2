"""The kernel claims' inputs against the dense polynomial constructions
they replaced.

The ideal products l*g (l an integer form of column_scan's annihilator) and
kernel-special's extra generators (each times the denominator of its c_j)
are sparse integer rows that one builder, verifiers._ideal_rows, makes from
exponent shifts, in elimination order, and the restriction matrix is read
from the line's integer cache.  The references below build
the same objects through HomogPoly products, dense coefficient vectors and
the rational restriction along s*p + t*q; they live here only, as
oracles.
"""

from fractions import Fraction

import pytest

import fermatlines.verifiers as verifiers
from fermatlines.exact import clear_denominators, kernel_basis
from fermatlines.family import FamilyShape
from fermatlines.lines import ip_linear, iz_linear
from fermatlines.poly import HomogPoly, gen_jd
from fermatlines.rng import Rng
from fermatlines.verifiers import (_ideal_rows, _line_over, _random_point, _special_scheme,
                                   _xi_matrix_on, random_generic_scheme, verify_kernel_special)
from tests.oracles import matrix_of_columns, restrict_rational
from tests.test_verifiers import dense


def ideal_products_reference(lin_forms, gens, jd, nv):
    """Coefficient vectors (on jd) of the HomogPoly products l*g."""
    out = []
    for lv in lin_forms:
        lpoly = HomogPoly(nv, 1, {tuple(int(j == i) for j in range(nv)): c
                                  for i, c in enumerate(lv) if c != 0})
        for g in gens:
            out.append((lpoly * HomogPoly.monomial(nv, g)).coeffs_on(jd))
    return out


def special_extras_reference(jd, d, cmap, nv):
    x1 = HomogPoly.variable(nv, 1)
    base = HomogPoly.monomial(nv, (d - 2,) + (0,) * (nv - 1))
    return [(base * HomogPoly.variable(nv, i)
             * (HomogPoly.variable(nv, j) - x1 * cmap[j])).coeffs_on(jd)
            for i in range(1, nv) for j in range(2, nv)]


def sorted_rows(rows):
    """Dense rows in a fixed order, by their nonzero entries: the builder's
    order is checked against the pipeline it replaced in
    tests/test_verifiers.py."""
    return sorted(rows, key=lambda row: [(j, x) for j, x in enumerate(row) if x])


def ideal_rows(forms, lower, target):
    """_ideal_rows of every form of `forms` times `lower`, as dense rows."""
    return dense(_ideal_rows([(form, lower) for form in forms], target), len(target))


def kernel_special_pairs(z, cmap, d, monkeypatch):
    """The pairs (form, monomials) that kernel-special hands _ideal_rows
    when it samples the special scheme z with the multipliers cmap."""
    built = []
    rows = verifiers._ideal_rows
    with monkeypatch.context() as mp:
        mp.setattr(verifiers, "_special_scheme", lambda n, rng: (z, cmap))
        mp.setattr(verifiers, "_ideal_rows",
                   lambda pairs, target: built.append(pairs) or rows(pairs, target))
        verify_kernel_special(len(cmap), d, Rng(0), trials=1)
    [pairs] = built
    return pairs


def restriction_matrix_reference(monomials, line, nv):
    """Columns: the rational restriction of each monomial to the line."""
    return matrix_of_columns(restrict_rational(HomogPoly.monomial(nv, m), line)
                             for m in monomials)


@pytest.mark.parametrize("n,d,trials", [(2, 6, 3), (3, 8, 1)])
def test_ideal_products_and_extras_match_the_dense_reference(n, d, trials, monkeypatch):
    shape = FamilyShape(n, d)
    nv, jd, jdm1 = n + 2, shape.jd, gen_jd(n, d - 1)
    rng = Rng(53).split("%d-%d" % (n, d))
    for trial in range(trials):
        sub = rng.split("trial%d" % trial)
        generic = random_generic_scheme(n, sub)
        special, cmap = _special_scheme(n, sub)
        for z in (generic, special):
            forms = iz_linear(z)
            assert (sorted_rows(ideal_rows(forms, jdm1, jd))
                    == sorted_rows(ideal_products_reference(forms, jdm1, jd, nv)))
        # the sampled multipliers, then some and then all of them zero, on
        # the scheme with those multipliers; each integer row is the
        # rational one times the denominator of its c_j
        u, v = special.p.coords[1], special.q.coords[1]
        for c in (cmap, {j: c if j == 2 else Fraction(0) for j, c in cmap.items()},
                  dict.fromkeys(cmap, Fraction(0))):
            z = _line_over(u, v, [(0, x) for x in c.values()])
            pairs = kernel_special_pairs(z, c, d, monkeypatch)
            assert [form for form, _ in pairs[:n]] == iz_linear(z)
            extras = _ideal_rows(pairs[n:], jd)
            dens = [c[j].denominator for i in range(1, nv) for j in range(2, nv)]
            assert all(type(x) is int for row in extras for x in row.values())
            assert (sorted_rows(dense(extras, len(jd)))
                    == sorted_rows([[den * x for x in row] for den, row in
                                    zip(dens, special_extras_reference(jd, d, c, nv))]))
        # point-ideal: forms at one point, one degree up
        forms = ip_linear(_random_point(nv, sub))
        jd1 = gen_jd(n, d + 1)
        assert (sorted_rows(ideal_rows(forms, jd, jd1))
                == sorted_rows(ideal_products_reference(forms, jd, jd1, nv)))


@pytest.mark.parametrize("n,d", [(2, 6), (3, 8)])
def test_integer_restriction_matrix_keeps_rank_and_kernel(n, d):
    shape = FamilyShape(n, d)
    nv, jd = n + 2, shape.jd
    rng = Rng(54).split("%d-%d" % (n, d))
    for trial in range(2):
        sub = rng.split("trial%d" % trial)
        for z in (random_generic_scheme(n, sub), _special_scheme(n, sub)[0]):
            columns = _xi_matrix_on(jd, z)
            got = matrix_of_columns(columns)
            want = restriction_matrix_reference(jd, z, nv)
            dp, dq = (clear_denominators(pt.coords)[1] for pt in (z.p, z.q))
            assert got.data == [[x * dp ** (d - k) * dq ** k for x in row]
                                for k, row in enumerate(want.data)]
            assert got.rank() == want.rank()
            # same row space, hence the same kernel
            assert got.rref() == want.rref()
            assert (list(kernel_basis(columns, d + 1))
                    == list(kernel_basis(list(zip(*want.data)), d + 1)))
