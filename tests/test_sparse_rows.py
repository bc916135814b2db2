"""The kernel claims' inputs against the dense polynomial constructions
they replaced.

The ideal products l*g (l an integer form of column_scan's annihilator) and
kernel-special's extra generators (each times the denominator of its c_j)
are sparse integer rows built from exponent shifts, and the restriction
matrix is read from the line's integer cache.  The references below build
the same objects through HomogPoly products, dense coefficient vectors and
the rational restriction along s*p + t*q; they live here only, as
oracles.
"""

from fractions import Fraction

import pytest

from fermatlines.exact import Matrix, clear_denominators, kernel_basis
from fermatlines.family import FamilyShape
from fermatlines.lines import ip_linear, iz_linear
from fermatlines.poly import HomogPoly, gen_jd
from fermatlines.rng import Rng
from fermatlines.verifiers import (_ideal_product_vectors, _normalized_special,
                                   _random_point, _special_extras, _special_scheme,
                                   _xi_matrix_on, random_generic_scheme)
from tests.oracles import restrict_rational
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


def restriction_matrix_reference(monomials, line, nv):
    """Columns: the rational restriction of each monomial to the line."""
    return Matrix.from_columns(restrict_rational(HomogPoly.monomial(nv, m), line)
                               for m in monomials)


@pytest.mark.parametrize("n,d,trials", [(2, 6, 3), (3, 8, 1)])
def test_ideal_products_and_extras_match_the_dense_reference(n, d, trials):
    shape = FamilyShape(n, d)
    nv, jd, jdm1 = n + 2, shape.jd, gen_jd(n, d - 1)
    rng = Rng(53).split("%d-%d" % (n, d))
    for trial in range(trials):
        sub = rng.split("trial%d" % trial)
        generic = random_generic_scheme(n, sub)
        special, cmap = _normalized_special(shape, _special_scheme(n, sub))
        for z in (generic, special):
            forms = iz_linear(z)
            assert (dense(_ideal_product_vectors(forms, jdm1, jd), len(jd))
                    == ideal_products_reference(forms, jdm1, jd, nv))
        # the sampled multipliers, then some and then all of them zero; each
        # integer row is the rational one times the denominator of its c_j
        for c in (cmap, {j: c if j == 2 else Fraction(0) for j, c in cmap.items()},
                  dict.fromkeys(cmap, Fraction(0))):
            dens = [c[j].denominator for i in range(1, nv) for j in range(2, nv)]
            extras = _special_extras(jd, d, c)
            assert all(type(v) is int for row in extras for v in row.values())
            assert (dense(extras, len(jd))
                    == [[den * x for x in row] for den, row in
                        zip(dens, special_extras_reference(jd, d, c, nv))])
        # point-ideal: forms at one point, one degree up
        forms = ip_linear(_random_point(nv, sub))
        jd1 = gen_jd(n, d + 1)
        assert (dense(_ideal_product_vectors(forms, jd, jd1), len(jd1))
                == ideal_products_reference(forms, jd, jd1, nv))


@pytest.mark.parametrize("n,d", [(2, 6), (3, 8)])
def test_integer_restriction_matrix_keeps_rank_and_kernel(n, d):
    shape = FamilyShape(n, d)
    nv, jd = n + 2, shape.jd
    rng = Rng(54).split("%d-%d" % (n, d))
    for trial in range(2):
        sub = rng.split("trial%d" % trial)
        for z in (random_generic_scheme(n, sub), _special_scheme(n, sub)):
            got = Matrix.from_columns(_xi_matrix_on(jd, z))
            want = restriction_matrix_reference(jd, z, nv)
            dp, dq = (clear_denominators(pt.coords)[1] for pt in (z.p, z.q))
            assert got.data == [[x * dp ** (d - k) * dq ** k for x in row]
                                for k, row in enumerate(want.data)]
            assert got.rank() == want.rank()
            # same row space, hence the same kernel
            assert got.rref() == want.rref()
            assert kernel_basis(got) == kernel_basis(want)
