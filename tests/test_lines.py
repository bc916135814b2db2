"""Restriction to lines as coefficient lists, scheme classification,
binary-form roots."""

import json
from fractions import Fraction

import pytest

from fermatlines.errors import LineInHypersurface
from fermatlines.exact import Matrix, sample_rational
from fermatlines.family import DeformationPoint, FamilyShape, omega_basis, sample_b_through
from fermatlines.lines import (Line, ProjPoint, classify, distinct_root_count,
                               ip_linear, iz_linear, monomial_index, restrict_mod_f,
                               restrict_poly, restrict_section)
from fermatlines.poly import EulerSection, HomogPoly, euler_alpha
from fermatlines.rng import Rng
from fermatlines.verifiers import (_special_scheme, _very_special_scheme,
                                   random_generic_scheme)
from tests.oracles import (form_add, form_evaluate, form_mul, form_sub, member_poly,
                           restrict, sylvester_root_count)
from tests.polytext import parse_poly
from tests.test_poly import random_poly


def pt(*coords):
    return ProjPoint(list(coords))


def scheme(c1, c2):
    return Line(pt(*c1), pt(*c2))


def test_projpoint_normalization():
    p = pt(0, 2, 4)
    assert p.coords == (0, 1, 2)
    assert pt(3, 6).coords == (1, 2)
    with pytest.raises(ValueError):
        pt(0, 0, 0)
    assert pt(0, 5, 0).is_coordinate_point()
    assert not pt(1, 1, 0).is_coordinate_point()


def test_scheme_rejects_coincident_points():
    with pytest.raises(ValueError):
        scheme((1, 2, 3), (2, 4, 6))


def test_classify_generic_example():
    z = scheme((1, 1, 1, 1), (1, 2, 3, 4))
    cls = classify(z)
    assert cls["tag"] == "generic" and cls["a"] is None
    assert cls == json.loads(json.dumps(cls))
    # oracle: every drop-one restricted span is 2-dimensional
    for i in range(4):
        cols = [[z.p.coords[j], z.q.coords[j]] for j in range(4) if j != i]
        assert Matrix(cols).rank() == 2


def test_classify_very_special_example():
    z = scheme((1, 1, 0, 0), (1, -1, 0, 0))
    cls = classify(z)
    assert cls["tag"] == "very-special"
    assert set(cls["vanishing"]) == {2, 3} and len(cls["vanishing"]) == 2
    assert cls["a"] == 1
    assert cls["perm"] == [0, 1, 2, 3]
    assert cls == json.loads(json.dumps(cls))


def test_classify_special_not_very_special_example():
    z = scheme((1, 1, 1, 0), (1, -1, -1, 0))
    cls = classify(z)
    assert cls["tag"] == "special"
    assert cls["a"] == 2
    assert cls["vanishing"] == [3]
    assert cls == json.loads(json.dumps(cls))
    # dropping x0 leaves x1, x2, x3 restricting to a 1-dimensional span
    cols = [[z.p.coords[j], z.q.coords[j]] for j in (1, 2, 3)]
    assert Matrix(cols).rank() == 1


def test_classify_invariant_under_swap_and_scaling():
    z = scheme((1, 1, 1, 0), (1, -1, -1, 0))
    z_swapped = scheme((1, -1, -1, 0), (1, 1, 1, 0))
    z_scaled = scheme((2, 2, 2, 0), (-3, 3, 3, 0))
    assert classify(z) == classify(z_swapped) == classify(z_scaled)
    assert classify(z) == json.loads(json.dumps(classify(z)))


def test_classify_normalization_permutation_nontrivial():
    # drop coordinate is x1 here; x0 and x3 vanish on Z
    z = scheme((0, 1, 1, 0), (0, 1, -1, 0))
    cls = classify(z)
    assert cls["tag"] == "very-special"
    assert cls["perm"][0] == 1 and set(cls["perm"][:2]) == {1, 2}
    assert cls == json.loads(json.dumps(cls))
    moved = Line(*(pt(*(p.coords[i] for i in cls["perm"])) for p in (z.p, z.q)))
    assert classify(moved)["perm"] == [0, 1, 2, 3]


def test_restrict_linear_forms():
    line = Line(pt(1, 0, 0), pt(0, 1, 0))
    x0 = HomogPoly.variable(3, 0)
    assert restrict(x0, line) == [1, 0]   # s
    x2 = HomogPoly.variable(3, 2)
    assert restrict(x2, line) == [0, 0]


def test_restrict_monomial_by_hand():
    line = Line(pt(1, 0, 0), pt(0, 1, 1))
    p = HomogPoly.monomial(3, (1, 1, 1))
    # x0 -> s, x1 -> t, x2 -> t: product s*t^2
    assert restrict(p, line) == [0, 0, 1, 0]


def test_restrict_fermat_value_at_first_point():
    shape = FamilyShape(2, 6)
    f = member_poly(DeformationPoint(shape))
    line = Line(pt(1, 1, 1, 1), pt(1, -1, 1, -1))
    xif = restrict(f, line)
    assert form_evaluate(xif, 1, 0) == 4 == f.evaluate([1, 1, 1, 1])
    assert form_evaluate(xif, 0, 1) == 4 == f.evaluate([1, -1, 1, -1])


def test_restriction_is_ring_homomorphism():
    rng = Rng(21)
    line = Line(pt(1, 2, -1), pt(1, 0, 3))
    for _ in range(8):
        p = random_poly(3, 3, rng)
        q = random_poly(3, 2, rng)
        assert restrict(p * q, line) == form_mul(restrict(p, line),
                                                      restrict(q, line))
        p2 = random_poly(3, 3, rng)
        assert restrict(p + p2, line) == form_add(restrict(p, line),
                                                       restrict(p2, line))


def test_restrict_section_euler_field():
    rng = Rng(22)
    for _ in range(5):
        a = ProjPoint([sample_rational(rng, 9) for _ in range(4)][:3] + [1])
        bpt = ProjPoint([1] + [sample_rational(rng, 9) for _ in range(3)])
        if a == bpt:
            continue
        line = Line(a, bpt)
        comps = restrict_section(euler_alpha(2), line)
        assert len(comps) == 4 and all(len(c) == 2 for c in comps)
        assert any(any(c) for c in comps)


def test_restrict_section_monomial_field_on_coordinate_line():
    shape = FamilyShape(2, 6)
    b = DeformationPoint(shape)
    line = Line(pt(1, 0, 0, 0), pt(0, 1, 0, 0))
    # the section x0 x1 d/dx2 is at index of (i,j,k) = (0,1,2)
    target = None
    for sec in omega_basis(b):
        nz = [(idx, c) for idx, c in enumerate(sec.components) if not c.is_zero()]
        if len(nz) == 1 and nz[0][0] == 2 and nz[0][1] == HomogPoly.monomial(4, (1, 1, 0, 0)):
            target = sec
            break
    comps = restrict_section(target, line)
    assert comps[2] == [0, 1, 0]     # restriction of x0*x1
    assert all(comps[i] == [0, 0, 0] for i in (0, 1, 3))


def test_restrict_section_matches_componentwise():
    rng = Rng(23)
    line = Line(pt(1, 1, 2, 3), pt(1, -2, 0, 1))
    comps = [random_poly(4, 2, rng) for _ in range(4)]
    sec = EulerSection(comps)
    got = restrict_section(sec, line)
    assert got == [restrict(c, line) for c in comps]


def test_restrict_mod_f_multiple_of_f_is_zero():
    shape = FamilyShape(2, 6)
    f = member_poly(DeformationPoint(shape))
    line = Line(pt(1, 1, 1, 1), pt(1, -1, 1, -1))
    p = f * HomogPoly.variable(4, 0)
    assert restrict_mod_f(p, line, f) == [0] * 8


def test_restrict_mod_f_additive_shift():
    shape = FamilyShape(2, 6)
    f = member_poly(DeformationPoint(shape))
    line = Line(pt(1, 1, 1, 1), pt(1, -1, 1, -1))
    extra = HomogPoly.monomial(4, (6, 0, 0, 0))       # restricts to s^6
    cls_f_plus = restrict_mod_f(f + extra, line, f)
    cls_extra = restrict_mod_f(extra, line, f)
    assert cls_f_plus == cls_extra


def test_restrict_mod_f_division_reconstruction():
    shape = FamilyShape(2, 6)
    rng = Rng(24)
    b = DeformationPoint(shape, {(4, 1, 1, 0): 2, (2, 2, 2, 0): -1})
    f = member_poly(b)
    line = Line(pt(1, 1, 2, 1), pt(1, -1, 1, 3))
    xif = restrict(f, line)
    for _ in range(5):
        p = random_poly(4, 7, rng)
        rem = restrict_mod_f(p, line, f)
        diff = form_sub(restrict(p, line), rem)
        # difference must be xi(f) times a linear binary form
        rows = []
        for j in (0, 1):
            shifted = [Fraction(0)] * 8
            for k, c in enumerate(xif):
                shifted[k + j] = c
            rows.append(shifted)
        assert Matrix(rows).ncols == 8
        sol = Matrix([[rows[0][k], rows[1][k]] for k in range(8)]).solve(diff)
        assert sol is not None


def test_restrict_mod_f_line_inside_member():
    # x2^6 + x3^6 contains the coordinate line x2 = x3 = 0
    f = parse_poly("x2^6+x3^6", 4)
    line = Line(pt(1, 0, 0, 0), pt(0, 1, 0, 0))
    with pytest.raises(LineInHypersurface):
        restrict_mod_f(HomogPoly.monomial(4, (7, 0, 0, 0)), line, f)


def test_iz_linear_dimensions_and_vanishing():
    z = scheme((1, 1, 1, 1), (1, 2, 3, 4))
    iz = iz_linear(z)
    assert len(iz) == 2  # = n
    assert all(type(c) is int for v in iz for c in v)
    for v in iz:
        assert sum(c * x for c, x in zip(v, z.p.coords)) == 0
        assert sum(c * x for c, x in zip(v, z.q.coords)) == 0


def test_iz_linear_very_special_contains_coordinates():
    z = scheme((1, 1, 0, 0), (1, -1, 0, 0))
    assert iz_linear(z) == [[0, 0, 1, 0], [0, 0, 0, 1]]


def test_ip_linear_dimension():
    p = pt(1, 1, 1, 1)
    assert len(ip_linear(p)) == 3


def test_linear_forms_at_points_have_distinct_leading_variables():
    """Each form of I_Z(1) and I_p(1) leads with its own variable, as the
    reduced basis does, so the ideal-product rows L*g of one g start in
    distinct columns.  Forms that all lead with x_0 start every such row at
    the column of x_0*g, and made the kernel claims' elimination tens of
    times slower at (4, 10) and (5, 12)."""
    rng = Rng(58)
    for n in (1, 2, 3, 5):
        for t in range(5):
            sub = rng.split("%d-%d" % (n, t))
            for z in (random_generic_scheme(n, sub), _special_scheme(n, sub),
                      _very_special_scheme(n, sub)):
                for forms in (iz_linear(z), ip_linear(z.p), ip_linear(z.q)):
                    leads = [next(i for i, c in enumerate(f) if c) for f in forms]
                    assert len(set(leads)) == len(leads) == len(forms) > 0


def test_distinct_root_count():
    # s^3 t^3: two projective roots
    assert distinct_root_count([0, 0, 0, 1, 0, 0, 0]) == 2
    # (s + t)^2 * s: roots at s=0 and s=-t
    f = form_mul(form_mul([1, 1], [1, 1]), [1, 0])
    assert distinct_root_count(f) == 2
    # s*t*(s - t)*(s + 2t): four distinct roots
    g = form_mul(form_mul([1, 0], [0, 1]), form_mul([1, -1], [1, 2]))
    assert distinct_root_count(g) == 4
    # a constant-free full-degree squarefree form
    h = [1, 0, -1]   # s^2 - t^2
    assert distinct_root_count(h) == 2
    with pytest.raises(ValueError):
        distinct_root_count([Fraction(0)] * 4)


def test_distinct_root_count_on_plain_int_lists():
    """Plain int lists count as the same forms in Fractions; the all-zero
    list, of any length, has no root divisor."""
    cases = {(7,): 0, (0, 3): 1, (2, 0): 1, (1, 1): 1, (0, 1, 0): 2,
             (1, 2, 1): 1, (1, 0, 1): 2, (0, 0, 5, 0): 2, (1, -3, 3, -1): 1,
             (0, 1, -1, 0): 3, (2, 0, 0, 0, -2): 4}
    for ints, count in cases.items():
        assert distinct_root_count(list(ints)) == count
        assert distinct_root_count([Fraction(x) for x in ints]) == count
    for length in (1, 2, 5):
        with pytest.raises(ValueError):
            distinct_root_count([0] * length)


def gcd_degree_reference(u, v) -> int:
    """Oracle: degree of the gcd of two univariate coefficient lists
    (ascending powers), by the rational Euclidean algorithm."""

    def trim(p):
        while p and p[-1] == 0:
            p.pop()
        return p

    a, b = trim([Fraction(x) for x in u]), trim([Fraction(x) for x in v])
    while b:
        while len(a) >= len(b) and a:
            f = a[-1] / b[-1]
            shift = len(a) - len(b)
            for i, c in enumerate(b):
                a[i + shift] -= f * c
            trim(a)
        a, b = b, a
    return len(a) - 1 if a else -1


def distinct_root_count_reference(f) -> int:
    nz = [k for k, c in enumerate(f) if c != 0]
    core = list(f[nz[0]: nz[-1] + 1])
    count = int(nz[0] > 0) + int(nz[-1] < len(f) - 1)
    deriv = [k * c for k, c in enumerate(core)][1:]
    return count + len(core) - 1 - gcd_degree_reference(core, deriv)


def test_distinct_root_count_matches_euclid_on_products_of_linear_forms():
    """Products of pairwise non-proportional linear forms with random
    multiplicities: the Bezoutian count is the number of forms, and it
    agrees with the Euclidean reference (also on random dense forms)."""
    rng = Rng(52)
    for trial in range(300):
        roots, target = [], rng.randint(1, 5)
        while len(roots) < target:
            a, b = sample_rational(rng, 6), sample_rational(rng, 6)
            if (a or b) and all(a * d - b * c for c, d in roots):
                roots.append((a, b))
        f = [sample_rational(rng, 9) or 1]
        for a, b in roots:
            for _ in range(rng.randint(1, 3)):
                f = form_mul(f, [a, b])
        assert distinct_root_count(f) == len(roots) == distinct_root_count_reference(f)
        dense = [sample_rational(rng, 3) for _ in range(trial % 8 + 2)]
        if any(dense):
            assert distinct_root_count(dense) == distinct_root_count_reference(dense)


def random_product_of_linear_forms(rng, ends):
    """(form, number of distinct roots): a nonzero constant times pairwise
    non-proportional linear forms a*s + b*t, each to a power 1..3; `ends`
    forces the forms s (a root at s = 0) and t (a root at t = 0) in."""
    roots = list(ends)
    target = len(roots) + rng.randint(0 if roots else 1, 4)
    while len(roots) < target:
        a, b = sample_rational(rng, 6), sample_rational(rng, 6)
        if (a or b) and all(a * d - b * c for c, d in roots):
            roots.append((a, b))
    f = [sample_rational(rng, 9) or 1]
    for a, b in roots:
        for _ in range(rng.randint(1, 3)):
            f = form_mul(f, [a, b])
    return f, len(roots)


def test_bezoutian_root_count_matches_sylvester_and_euclid():
    """The Bezoutian count against the Sylvester-rank oracle and the
    Euclidean reference: on products of linear forms with multiplicities,
    with and without roots at s = 0 and t = 0, and on random dense forms."""
    rng = Rng(71)
    for trial in range(240):
        ends = [(1, 0)] * (trial % 3 == 0) + [(0, 1)] * (trial % 4 == 0)
        f, count = random_product_of_linear_forms(rng, ends)
        assert (distinct_root_count(f) == count == sylvester_root_count(f)
                == distinct_root_count_reference(f))
        dense = [sample_rational(rng, 3) for _ in range(trial % 10 + 1)]
        if any(dense):
            assert (distinct_root_count(dense) == sylvester_root_count(dense)
                    == distinct_root_count_reference(dense))


@pytest.mark.parametrize("n,d", [(2, 6), (3, 8)])
def test_bezoutian_root_count_on_member_restrictions(n, d):
    """The three counts agree on the restrictions of random members through
    two points, whose restriction vanishes at both ends (roots at s = 0 and
    t = 0), to the line through them, and on the random members' own
    restrictions to a second, unrelated line."""
    shape = FamilyShape(n, d)
    rng = Rng(72).split("%d-%d" % (n, d))
    seen = set()
    for _ in range(6):
        z, other = random_generic_scheme(n, rng), random_generic_scheme(n, rng)
        b = sample_b_through(shape, [z.p, z.q], rng)
        for line in (z, other):
            xif = restrict_poly(b.f_poly(), d, line)
            if any(xif):
                count = distinct_root_count(xif)
                assert count == sylvester_root_count(xif) == distinct_root_count_reference(xif)
                seen.add(count)
    assert max(seen) >= 3


def test_monomial_index():
    """The single nonzero position of a coefficient list, else None: a form
    with two or more nonzero coefficients is not a monomial."""
    assert monomial_index([0, 0, 0, 7, 0, 0, 0]) == 3
    assert monomial_index([Fraction(-2, 3), 0, 0]) == 0
    assert monomial_index([0, 0, Fraction(1, 5)]) == 2
    assert monomial_index([4]) == 0
    assert monomial_index([1, 0, 1]) is None
    assert monomial_index([0, 2, Fraction(-1, 2), 0]) is None
    assert monomial_index([0, 0, 0]) is None
    assert monomial_index([0]) is None
