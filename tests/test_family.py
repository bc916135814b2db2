"""Family members, the contraction eta, the distinguished sections."""

import json
from fractions import Fraction

import pytest

from fermatlines.errors import DimensionMismatch, InfeasibleSystem
from fermatlines.exact import Matrix, Subspace, sample_rational
from fermatlines.family import (DeformationPoint, FamilyShape, c_coeff, eta,
                                koszul_eta_m, omega_basis, point_condition,
                                random_deformation, sample_b_through)
from fermatlines.lines import ProjPoint
from fermatlines.poly import (EulerSection, HomogPoly, all_monomials,
                              eval_monomials, euler_alpha, gen_jd)
from fermatlines.rng import Rng
from tests.oracles import contains_vector
from tests.polytext import deformation_from_json, parse_poly


def test_f_poly_fermat():
    shape = FamilyShape(1, 4)
    f = DeformationPoint(shape).f_poly()
    assert f == parse_poly("x0^4+x1^4+x2^4", 3)


def test_shape_rejects_index_set_disagreeing_with_formula(monkeypatch):
    import fermatlines.family as family
    monkeypatch.setattr(family, "jd_size_formula", lambda n, d: -1)
    with pytest.raises(DimensionMismatch):
        FamilyShape(2, 6)


def test_f_poly_with_one_deformation():
    shape = FamilyShape(1, 4)
    b = DeformationPoint(shape, {(2, 2, 0): 5})
    assert b.f_poly() == parse_poly("x0^4+5*x0^2*x1^2+x1^4+x2^4", 3)


def test_f_vanishing_pattern_at_coordinate_points():
    # every deformation monomial involves >= 2 variables, so it vanishes at
    # each coordinate point and F evaluates to 1 there for every b
    shape = FamilyShape(2, 6)
    rng = Rng(1)
    b = random_deformation(shape, rng)
    for i in range(4):
        e = [0, 0, 0, 0]
        e[i] = 1
        assert b.f_poly().evaluate(e) == 1


def test_eta_of_euler_field_is_degree_times_f():
    shape = FamilyShape(2, 6)
    b = random_deformation(shape, Rng(2))
    alpha = euler_alpha(2)
    assert eta(b, alpha) == b.f_poly() * 6


def test_eta_monomial_field_at_fermat():
    shape = FamilyShape(1, 4)
    b = DeformationPoint(shape)
    sec = EulerSection.single(3, 2, HomogPoly.monomial(3, (1, 1, 0)))
    assert eta(b, sec) == parse_poly("4*x0*x1*x2^3", 3)


def test_eta_linearity():
    shape = FamilyShape(1, 5)
    b = random_deformation(shape, Rng(3), bound=9)
    rng = Rng(4)
    mset = all_monomials(3, 2)

    def rand_sec():
        comps = []
        for _ in range(3):
            terms = {m: sample_rational(rng, 5) for m in mset.members}
            comps.append(HomogPoly(3, 2, terms))
        return EulerSection(comps)

    s1, s2 = rand_sec(), rand_sec()
    c = Fraction(7, 3)
    lhs = eta(b, EulerSection([a + bb.scale(c) for a, bb in
                               zip(s1.components, s2.components)]))
    assert lhs == eta(b, s1) + eta(b, s2) * c


def test_c_coeff_examples():
    shape = FamilyShape(2, 6)
    b = DeformationPoint(shape, {(4, 1, 1, 0): 3})
    assert c_coeff(b, 0, 1, 2) == Fraction(1, 2)
    assert c_coeff(b, 0, 1, 3) == 0
    b2 = DeformationPoint(shape, {(4, 2, 0, 0): 3})
    assert c_coeff(b2, 0, 1, 1) == 1  # squared case doubles: 2 * 3 / 6
    b0 = DeformationPoint(shape)
    assert c_coeff(b0, 0, 1, 2) == 0
    with pytest.raises(ValueError):
        c_coeff(b0, 1, 1, 2)


def test_c_coeff_symmetric_in_last_two():
    shape = FamilyShape(2, 6)
    b = random_deformation(shape, Rng(6))
    for i, j, k in ((0, 1, 2), (1, 0, 3), (2, 3, 0), (3, 1, 1)):
        assert c_coeff(b, i, j, k) == c_coeff(b, i, k, j)


def test_omega_basis_at_fermat_is_monomial_fields():
    shape = FamilyShape(2, 6)
    b = DeformationPoint(shape)
    omegas = omega_basis(b)
    assert len(omegas) == 24
    for sec in omegas:
        nonzero = [c for c in sec.components if not c.is_zero()]
        assert len(nonzero) == 1 and len(nonzero[0].terms) == 1
        assert next(iter(nonzero[0].terms.values())) == 1


def test_omega_count_small():
    shape = FamilyShape(1, 4)
    assert len(omega_basis(DeformationPoint(shape))) == 9


def test_omega_eta_lands_in_deformation_span():
    # membership checked by solving against the span matrix, independently
    # of the support shortcut used inside the verifiers
    shape = FamilyShape(2, 6)
    b = random_deformation(shape, Rng(7), bound=50)
    amb = all_monomials(4, 7)
    units = [[int(m == u) for m in amb] for u in gen_jd(2, 7)]
    sp = Subspace.from_vectors(len(amb), units)
    for sec in omega_basis(b):
        assert contains_vector(sp, eta(b, sec).coeffs_on(amb))


def test_omega_basis_is_independent():
    shape = FamilyShape(2, 6)
    b = random_deformation(shape, Rng(8))
    deg2 = all_monomials(4, 2)
    vecs = [sec.coeff_vector(deg2) for sec in omega_basis(b)]
    assert Matrix(vecs).rank() == 24


def test_koszul_single_factor_reduces_to_eta():
    shape = FamilyShape(1, 4)
    b = random_deformation(shape, Rng(9))
    sec = EulerSection.single(3, 2, HomogPoly.monomial(3, (1, 1, 0)))
    terms = koszul_eta_m(b, [sec])
    assert len(terms) == 1
    poly, rest = terms[0]
    assert rest == () and poly == eta(b, sec)


def test_koszul_equal_factors_vanish():
    shape = FamilyShape(1, 4)
    b = random_deformation(shape, Rng(10))
    sec = EulerSection.single(3, 0, HomogPoly.monomial(3, (0, 1, 1)))
    assert koszul_eta_m(b, [sec, sec]) == []


def test_koszul_two_factors_hand_expansion():
    shape = FamilyShape(1, 4)
    b = DeformationPoint(shape)
    s1 = EulerSection.single(3, 2, HomogPoly.monomial(3, (1, 1, 0)))
    s2 = EulerSection.single(3, 0, HomogPoly.monomial(3, (0, 1, 1)))
    terms = dict()
    for poly, rest in koszul_eta_m(b, [s1, s2]):
        assert len(rest) == 1
        terms[rest[0].canonical_key()] = poly
    assert terms[s2.canonical_key()] == eta(b, s1)
    assert terms[s1.canonical_key()] == -eta(b, s2)


def test_koszul_three_factors_antisymmetric_and_alternating():
    shape = FamilyShape(1, 4)
    b = random_deformation(shape, Rng(14))
    w1 = EulerSection.single(3, 2, HomogPoly.monomial(3, (1, 1, 0)))
    w2 = EulerSection.single(3, 0, HomogPoly.monomial(3, (0, 1, 1)))
    w3 = EulerSection.single(3, 1, HomogPoly.monomial(3, (1, 0, 1)))
    plus = koszul_eta_m(b, [w1, w2, w3])
    minus = koszul_eta_m(b, [w2, w1, w3])
    assert len(plus) == 3

    def keyed(terms):
        return {tuple(s.canonical_key() for s in rest): poly
                for poly, rest in terms}

    kp, km = keyed(plus), keyed(minus)
    assert set(kp) == set(km)
    for rest, poly in kp.items():
        assert km[rest] == -poly
    # a repeated factor anywhere kills the whole wedge
    assert koszul_eta_m(b, [w1, w2, w1]) == []


def test_sample_b_through_empty_is_unconstrained():
    shape = FamilyShape(1, 4)
    b = sample_b_through(shape, [], Rng(11))
    assert b.shape is shape


def test_sample_b_through_coordinate_point_infeasible():
    shape = FamilyShape(2, 6)
    with pytest.raises(InfeasibleSystem):
        sample_b_through(shape, [ProjPoint([1, 0, 0, 0])], Rng(12))


def test_sample_b_through_hits_the_points_exactly():
    shape = FamilyShape(2, 6)
    p = ProjPoint([1, 1, 2, 3])
    q = ProjPoint([1, -1, 1, 5])
    for seed in range(5):
        b = sample_b_through(shape, [p, q], Rng(seed))
        f = b.f_poly()
        assert f.evaluate(p.coords) == 0
        assert f.evaluate(q.coords) == 0


def test_point_condition_is_the_rational_condition_times_d_to_the_d():
    """Integer row and rhs at X / D are the rational ones scaled by D^d."""
    shape = FamilyShape(2, 6)
    p = ProjPoint([Fraction(-2, 3), Fraction(5, 4), 0, Fraction(7, 6)])
    row, rhs = point_condition(shape, p)
    assert p.coords == (1, Fraction(-15, 8), 0, Fraction(-7, 4))
    scale = 8 ** 6
    assert all(type(x) is int for x in row + [rhs])
    assert row == [m_val * scale for m_val in eval_monomials(shape.jd, p.coords)]
    assert rhs == -sum(x ** 6 for x in p.coords) * scale
    with pytest.raises(InfeasibleSystem):
        point_condition(shape, ProjPoint([0, 0, 3, 0]))


def test_deformation_point_json_round_trip():
    shape = FamilyShape(2, 6)
    b = DeformationPoint(shape, {(4, 1, 1, 0): 3, (2, 2, 1, 1): Fraction(-1, 2)})
    text = b.to_json()
    obj = json.loads(text)
    assert obj["n"] == 2 and obj["d"] == 6
    assert obj["t"]["x0^4*x1*x2"] == "3/1"
    assert obj["t"]["x0^2*x1^2*x2*x3"] == "-1/2"
    back = deformation_from_json(text)
    assert back.t == b.t
    # omitted keys mean zero
    assert deformation_from_json('{"n": 2, "d": 6, "t": {}}').t == {}


def test_family_shape_validation():
    with pytest.raises(ValueError):
        FamilyShape(2, 3)
    shape = FamilyShape(3, 8)
    assert shape.N == len(gen_jd(3, 8))
