"""Verifier-level behavior: spot values, independent oracles, error routes."""

from fractions import Fraction

import pytest

import fermatlines.exact as exact
import fermatlines.family as family
import fermatlines.verifiers as verifiers
from fermatlines.cli import run_lemma
from fermatlines.errors import (CoordinatePointError, NonGenericScheme,
                                NotInTangencyStratum)
from fermatlines.exact import Matrix, Subspace, rank_sparse, sample_rational
from fermatlines.family import (DeformationPoint, FamilyShape, eta,
                                omega_basis, sample_b_through)
from fermatlines.lines import (BinaryForm, LengthTwoScheme, Line, ProjPoint,
                               restrict_poly, restrict_section)
from fermatlines.poly import EulerSection, HomogPoly, all_monomials, gen_jd
from fermatlines.rng import Rng
from fermatlines.verifiers import (FAIL, INDETERMINATE, INFEASIBLE, PASS,
                                   _b_with_line_power, _nine_by_six,
                                   random_generic_scheme, _special_scheme,
                                   _tangency_system, _two_by_two,
                                   _very_special_scheme,
                                   incidence_dimension, secant_obstruction,
                                   tangency_deformation_dim,
                                   verify_generic_systems, verify_incidence,
                                   verify_kernel_generic,
                                   verify_kernel_special, verify_point_ideal,
                                   verify_secant, verify_tangency,
                                   verify_w_basis, verify_xi_generic,
                                   verify_xi_special)
from test_exact import kernel_basis_oracle


def rng_for(label, seed=7):
    return Rng(seed).split(label)


def dense(rows, ncols):
    """Dense Fraction vectors of sparse rows {column: value}."""
    return [[Fraction(row.get(j, 0)) for j in range(ncols)] for row in rows]


# ---------------------------------------------------------------------------
# basis of quadratic sections

def test_w_basis_small_dims():
    rep = verify_w_basis(1, 4, rng_for("w14"), trials=3)
    assert rep.verdict == PASS
    assert rep.dims == {"basis": 9, "kernel_total": 12}


def test_w_basis_sextic_dims():
    rep = verify_w_basis(2, 6, rng_for("w26"), trials=3)
    assert rep.verdict == PASS
    assert rep.dims == {"basis": 24, "kernel_total": 28}


def test_w_basis_kernel_against_dense_oracle():
    """Recompute the kernel count at (1, 4) by brute force on the full
    degree-5 coefficient space, with no support shortcut."""
    n, d = 1, 4
    nv = n + 2
    shape = FamilyShape(n, d)
    b = sample_b_through(shape, [], rng_for("dense"))
    deg2 = all_monomials(nv, 2)
    deg5 = all_monomials(nv, d + 1)
    jd1 = gen_jd(n, d + 1)
    partials = b.f_partials()
    cols = []
    for j in range(nv):
        for mu in deg2.members:
            poly = HomogPoly.monomial(nv, mu) * partials[j]
            cols.append(poly.coeffs_on(deg5))
    for f in jd1.members:
        cols.append(HomogPoly.monomial(nv, f).coeffs_on(deg5))
    fp = b.f_poly()
    for i in range(nv):
        cols.append((fp * HomogPoly.variable(nv, i)).coeffs_on(deg5))
    stacked = Matrix.from_columns(cols)
    n_unknowns = nv * len(deg2)
    # kernel vectors project injectively to the section unknowns only if the
    # trailing block is injective; count those whose section part is free
    kernel = stacked.kernel_vectors()
    section_parts = Matrix([v[:n_unknowns] for v in kernel],
                           ncols=n_unknowns) if kernel else None
    dense_dim = section_parts.rank() if kernel else 0
    rep = verify_w_basis(n, d, rng_for("dense-rep"), trials=2)
    assert rep.dims["kernel_total"] == dense_dim == 12


@pytest.mark.parametrize("n, d", [(2, 6), (3, 8)])
def test_w_basis_row_membership_matches_eta(n, d):
    """The rows' membership test agrees with forming eta(w) as a product:
    every w_ijk lies inside the deformation span, and every w_iik without
    its c_ijk correction lies outside under both."""
    nv = n + 2
    b = sample_b_through(FamilyShape(n, d), [], rng_for("rows%d" % n))
    deg2 = all_monomials(nv, 2)
    jd1 = gen_jd(n, d + 1)
    rows = verifiers._w_basis_rows(b, deg2)
    uncorrected = [EulerSection.single(nv, k, HomogPoly.monomial(
                       nv, tuple(2 if j == i else 0 for j in range(nv))))
                   for i in range(nv) for k in range(nv) if k != i]
    for w, inside in [(w, True) for w in omega_basis(b)] + [(w, False) for w in uncorrected]:
        assert verifiers._eta_in_span(rows, w.coeff_vector(deg2)) is inside
        assert eta(b, w).support_in(jd1) is inside


def test_w_basis_fails_on_membership_without_the_corrections(monkeypatch):
    """With every c_ijk forced to 0 the w_iik stay independent but their
    eta leaves the deformation span."""
    monkeypatch.setattr(family, "c_coeff", lambda b, i, j, k: 0)
    rep = verify_w_basis(2, 6, rng_for("w-basis"), trials=2)
    assert rep.verdict == FAIL
    assert rep.witness["trial"] == 0
    assert rep.witness["reason"] == "membership"
    assert rep.witness["rank_basis"] == 24


# ---------------------------------------------------------------------------
# kernel lemmas

def test_kernel_generic_dims():
    rep = verify_kernel_generic(2, 6, rng_for("kg"), trials=3)
    assert rep.verdict == PASS
    assert rep.dims == {"lhs": 61, "rhs": 61, "quotient": 7}
    assert rep.dims["lhs"] == 68 - 7


def test_kernel_generic_rejects_special_scheme_input():
    z, _ = _special_scheme(2, rng_for("zspec"))
    rep = verify_kernel_generic(2, 6, rng_for("kg2"), trials=2, z=z)
    assert rep.verdict == INDETERMINATE
    assert rep.params.get("skipped") is True


def test_kernel_special_passes_and_counts_generators():
    rep = verify_kernel_special(2, 6, rng_for("ks"), trials=3)
    assert rep.verdict == PASS
    assert rep.dims["extra_generators"] == 6
    assert rep.dims["lhs"] == rep.dims["rhs"]


def test_kernel_special_routes_generic_input_away():
    z = random_generic_scheme(2, rng_for("zgen"))
    rep = verify_kernel_special(2, 6, rng_for("ks2"), trials=2, z=z)
    assert rep.verdict == INDETERMINATE
    assert rep.params.get("skipped") is True


def test_kernel_special_accepts_unnormalized_scheme():
    # same scheme as the normalized sample but with coordinates shuffled
    z = LengthTwoScheme(ProjPoint([1, 0, 1, 1]), ProjPoint([-1, 0, 1, -1]))
    # here x1 vanishes on Z; classification must supply the permutation
    rep = verify_kernel_special(2, 6, rng_for("ks3"), trials=2, z=z)
    assert rep.verdict == PASS


def test_containment_of_ideal_part_holds_even_for_special_schemes():
    from fermatlines.verifiers import _ideal_product_vectors, _xi_matrix_on
    from fermatlines.exact import Subspace, kernel_basis
    from fermatlines.lines import iz_linear
    shape = FamilyShape(2, 6)
    for maker in (lambda r: _special_scheme(2, r)[0],
                  lambda r: random_generic_scheme(2, r)):
        z = maker(rng_for("containment"))
        xi = _xi_matrix_on(shape.jd, z.line)
        k2 = kernel_basis(xi)
        k1 = Subspace.from_vectors(
            len(shape.jd),
            dense(_ideal_product_vectors(iz_linear(z).basis_vectors(),
                                         shape.monomials(5), shape.jd), len(shape.jd)))
        assert k2.contains(k1)


# ---------------------------------------------------------------------------
# kernel claims: one exact decision, checked against canonical subspaces

KERNEL_CLAIMS = {
    "kernel-generic": lambda: verify_kernel_generic(2, 6, rng_for("kg"), trials=2),
    "kernel-special": lambda: verify_kernel_special(2, 6, rng_for("ks"), trials=2),
    "point-ideal": lambda: verify_point_ideal(2, 6, rng_for("pi"), trials=2),
}


def _recording(monkeypatch, name):
    """Route the verifiers' calls of `name` through a recorder; returns the
    list of (m, gens, result) calls."""
    calls = []
    real = getattr(verifiers, name)

    def record(m, gens):
        result = real(m, gens)
        calls.append((m, gens, result))
        return result

    monkeypatch.setattr(verifiers, name, record)
    return calls


def _drop_first_product(monkeypatch):
    products = verifiers._ideal_product_vectors
    monkeypatch.setattr(verifiers, "_ideal_product_vectors",
                        lambda *args: products(*args)[1:])


def _drop_last_product(monkeypatch):
    products = verifiers._ideal_product_vectors
    monkeypatch.setattr(verifiers, "_ideal_product_vectors",
                        lambda *args: products(*args)[:-1])


@pytest.mark.parametrize("lemma", sorted(KERNEL_CLAIMS))
def test_kernel_claim_fails_with_exact_witness_when_a_generator_is_missing(
        monkeypatch, lemma):
    _drop_first_product(monkeypatch)
    rep = KERNEL_CLAIMS[lemma]()
    assert rep.verdict == FAIL
    assert rep.witness["vector"] is not None


@pytest.mark.parametrize("lemma", sorted(KERNEL_CLAIMS))
def test_kernel_claim_decision_matches_canonical_subspaces(monkeypatch, lemma):
    for drop, verdict in ((False, PASS), (True, FAIL)):
        with monkeypatch.context() as mp:
            if drop:
                _drop_first_product(mp)
            calls = _recording(mp, "_kernel_is_span")
            assert KERNEL_CLAIMS[lemma]().verdict == verdict
        assert calls
        for m, gens, (equal, kernel_dim, span_dim, _) in calls:
            kernel = kernel_basis_oracle(m)
            span = Subspace.from_vectors(m.ncols, dense(gens, m.ncols))
            assert (equal, kernel_dim, span_dim) == (kernel == span, kernel.dim, span.dim)


def test_late_witness_eliminates_the_generators_once(monkeypatch):
    """With the last ideal-product row dropped, kernel-special's witness is
    a late canonical kernel vector.  Finding it eliminates the generator
    rows once and reduces each kernel vector tried against their echelon
    form, instead of eliminating the generators again per vector."""
    _drop_last_product(monkeypatch)
    calls = _recording(monkeypatch, "_kernel_is_span")
    rep = run_lemma("kernel-special", 2, 6, 0, 7, trials=1)
    assert rep.verdict == FAIL
    [(m, gens, (_, _, _, outside))] = calls
    assert rep.witness["vector"] != verifiers._vec_json(kernel_basis_oracle(m).basis_vectors()[0])
    sizes = []
    echelon = exact._echelon

    def counting(rows):
        rows = list(rows)
        sizes.append(len(rows))
        return echelon(rows)

    monkeypatch.setattr(exact, "_echelon", counting)
    assert outside() == rep.witness["vector"]
    assert sum(size >= len(gens) for size in sizes) == 1


def test_kernel_is_span_witness_examples():
    m = Matrix([[1, -1, 0]])
    # ker(m) has the canonical basis (1, 1, 0), (0, 0, 1)
    equal, kernel_dim, span_dim, outside = verifiers._kernel_is_span(m, [{0: 1, 1: 1}])
    assert (equal, kernel_dim, span_dim) == (False, 2, 1)
    assert outside() == ["0/1", "0/1", "1/1"]
    # every kernel vector lies in the span, so the witness is a span vector
    equal, kernel_dim, span_dim, outside = verifiers._kernel_is_span(
        m, [{0: 1, 1: 1}, {2: 1}, {0: 1}])
    assert (equal, kernel_dim, span_dim) == (False, 2, 3)
    assert outside() == ["1/1", "0/1", "0/1"]
    equal, _, _, outside = verifiers._kernel_is_span(m, [{0: 2, 1: 2}, {2: 1}])
    assert equal and outside() is None


def test_point_ideal_point_part_witness_is_its_own_vector(monkeypatch):
    """With one linear form at p missing, the point part fails; its witness
    lies in ker(evaluation) and outside the span of the point generators."""
    p = ProjPoint([1] * 4)      # the default point; every monomial is 1 there
    forms = verifiers.ip_linear(p).basis_vectors()[1:]
    monkeypatch.setattr(verifiers, "ip_linear", lambda q: Subspace.from_vectors(4, forms))
    rep = verify_point_ideal(2, 6, Rng(7).split("point-ideal"), trials=2)
    assert rep.verdict == FAIL and rep.witness["reason"] == "point part"
    v = [Fraction(x) for x in rep.witness["vector"]]
    assert sum(v) == 0
    jd1 = gen_jd(2, 7)
    gens = dense(verifiers._ideal_product_vectors(forms, gen_jd(2, 6), jd1), len(jd1))
    assert not Subspace.from_vectors(len(jd1), gens).contains_vector(v)


def test_certification_agrees_with_sympy_over_qq(monkeypatch):
    sympy = pytest.importorskip("sympy")
    from sympy.polys.matrices import DomainMatrix

    def rank_qq(rows, ncols):
        qq = [[sympy.QQ(x.numerator, x.denominator) for x in row] for row in rows]
        return DomainMatrix(qq, (len(qq), ncols), sympy.QQ).rank()

    calls = _recording(monkeypatch, "kernel_span_dims")
    for run in KERNEL_CLAIMS.values():
        run()
    assert len(calls) >= 6
    for m, gens, result in calls:
        rank_m = rank_qq(m.data, m.ncols)
        rank_gens = rank_qq(dense(gens, m.ncols), m.ncols)
        assert rank_sparse([dict(enumerate(row)) for row in m.data]) == rank_m
        assert rank_sparse(gens) == rank_gens
        assert result == (True, m.ncols - rank_m, rank_gens)


# ---------------------------------------------------------------------------
# the other sampled claims FAIL, with a witness, when their mathematics breaks

def _drop_last_omega(b):
    return omega_basis(b)[:-1]


def _zero_first_restricted(sec, line):
    comps = restrict_section(sec, line)
    return [BinaryForm.zero(comps[0].degree)] + comps[1:]


def _member_without_line_power(shape, z, m, rng, attempts=20):
    return sample_b_through(shape, [z.p1, z.p2], rng)


def _zero_first_system_column(c):
    # Zeroing one row would not break the claim: the other 8 of the 9
    # equations keep rank 6.  An unknown that enters no equation does.
    return Matrix([[0] + row[1:] for row in _nine_by_six(c).data])


def _drop_first_tangency_row(fpoly, line, m):
    mat, normals = _tangency_system(fpoly, line, m)
    return Matrix(mat.data[1:], ncols=mat.ncols), normals


def _systems(n, d, rng, trials):
    return verify_generic_systems(rng, draws=trials, singular_draws=trials, n=n, d=d)


def _tangency(n, d, rng, trials):
    return verify_tangency(n, d, d // 2, rng, trials)


# lemma -> (verifiers attribute replaced, its mutant, verifier)
MUTATIONS = {
    "w-basis": ("omega_basis", _drop_last_omega, verify_w_basis),
    "xi-special": ("restrict_section", _zero_first_restricted, verify_xi_special),
    "xi-generic": ("restrict_section", _zero_first_restricted, verify_xi_generic),
    "secant": ("_b_with_line_power", _member_without_line_power, verify_secant),
    "systems": ("_nine_by_six", _zero_first_system_column, _systems),
    "tangency": ("_tangency_system", _drop_first_tangency_row, _tangency),
}
# The witness key that names the first failing trial, where it is not "trial".
TRIAL_KEY = {"systems": "draw"}


@pytest.mark.parametrize("lemma", sorted(MUTATIONS))
def test_sampled_claim_fails_with_a_witness_when_broken(monkeypatch, lemma):
    name, mutant, verify = MUTATIONS[lemma]
    monkeypatch.setattr(verifiers, name, mutant)
    rep = verify(2, 6, rng_for(lemma), trials=2)
    assert rep.verdict == FAIL
    assert rep.witness is not None
    assert rep.witness[TRIAL_KEY.get(lemma, "trial")] == 0


@pytest.mark.parametrize("swap", [False, True])
def test_kernel_special_scheme_through_a_coordinate_point_is_infeasible(swap):
    """No family member passes through (1:0:0:0), in either point order."""
    points = [ProjPoint([1, 0, 0, 0]), ProjPoint([0, 1, 1, 0])]
    if swap:
        points.reverse()
    rep = verify_kernel_special(2, 6, rng_for("kscoord"), trials=1,
                                z=LengthTwoScheme(*points))
    assert rep.verdict == INFEASIBLE
    assert rep.witness == {"reason": "no family member passes through "
                           "ProjPoint(1, 0, 0, 0) (all deformation monomials "
                           "vanish there)"}
    assert rep.dims == {} and rep.params == {}


# ---------------------------------------------------------------------------
# point ideal

def test_point_ideal_all_ones():
    rep = verify_point_ideal(2, 6, rng_for("pi"), trials=3)
    assert rep.verdict == PASS
    assert rep.dims["codim"] == 1
    assert rep.dims["lhs"] == len(gen_jd(2, 7)) - 1


def test_point_ideal_small_case():
    rep = verify_point_ideal(1, 4, rng_for("pi14"), trials=3)
    assert rep.verdict == PASS
    assert rep.dims["lhs"] == len(gen_jd(1, 5)) - 1 == 11


def test_point_ideal_rejects_coordinate_point():
    p = ProjPoint([1, 0, 0, 0])
    with pytest.raises(CoordinatePointError):
        verify_point_ideal(2, 6, rng_for("pi2"), p=p, trials=1)


def test_point_ideal_other_point():
    p = ProjPoint([1, 2, 0, 5])
    rep = verify_point_ideal(2, 6, rng_for("pi3"), p=p, trials=2)
    assert rep.verdict == PASS and rep.dims["codim"] == 1


# ---------------------------------------------------------------------------
# restricted images of the quadratic sections

def test_xi_special_dims():
    rep = verify_xi_special(2, 6, rng_for("xs"), trials=3)
    assert rep.verdict == PASS
    assert rep.dims["target_quotient"] == 10      # 3(n+2) - 2 on the line
    assert rep.dims["quotient_rank"] == 10
    assert rep.dims["xi_w_very_special"] == 8     # 3n + 2 explicit generators
    # the unquotiented image stays proper for special-not-very-special
    assert rep.dims["xi_w_special"] < 12


def test_xi_generic_full_rank():
    rep = verify_xi_generic(2, 6, rng_for("xg"), trials=3)
    assert rep.verdict == PASS
    assert rep.dims == {"rank": 12, "target": 12, "basis": 24}


def test_xi_generic_at_fermat_is_informational_only():
    # the claim excludes the Fermat point itself: just record that the
    # computation is well defined there
    from fermatlines.verifiers import _restricted_vector
    shape = FamilyShape(2, 6)
    z = random_generic_scheme(2, rng_for("xf"))
    b0 = DeformationPoint.fermat(shape)
    vecs = [_restricted_vector(w, z.line) for w in omega_basis(b0)]
    assert 0 < Matrix(vecs).rank() <= 12


# ---------------------------------------------------------------------------
# coefficient systems

def test_systems_pass():
    rep = verify_generic_systems(rng_for("sys"), draws=8, singular_draws=5)
    assert rep.verdict == PASS
    assert rep.dims["kernel_dim_max"] == 0


@pytest.mark.parametrize("lemma,seed", [("systems", 1000122), ("tangency", 1000075),
                                         ("tangency", 2516083234)])
def test_general_position_draws_have_no_zero_coefficient(lemma, seed):
    """These seeds once drew a zero "general" coefficient (for systems,
    c013 = c103 = 0 made the 2x2 determinant vanish) and came out
    INDETERMINATE."""
    rep = run_lemma(lemma, 2, 6, 3, seed, 5)
    assert rep.verdict == PASS, rep.witness


def test_nine_by_six_shape():
    c = {key: Fraction(1) for key in
         [(i, j, k) for i in range(3) for j in range(4) for k in range(4)]}
    m = _nine_by_six(c)
    assert m.nrows == 9 and m.ncols == 6


def test_two_by_two_singular_locus_exactly():
    a = Fraction(3, 2)
    # determinant a^2 (c022 c200 - 1): singular iff the product is 1
    assert _two_by_two(Fraction(2), Fraction(1, 2), a).rank() == 1
    assert _two_by_two(Fraction(1), Fraction(1), a).rank() == 1
    assert _two_by_two(Fraction(2), Fraction(3), a).rank() == 2


# ---------------------------------------------------------------------------
# secant obstruction

def make_two_point_config(n=2, d=6, m=3, seed=3):
    rng = rng_for("twopoint", seed)
    shape = FamilyShape(n, d)
    z = random_generic_scheme(n, rng)
    b = _b_with_line_power(shape, z, m, rng)
    return shape, b, z


def test_secant_constructed_two_point_line():
    _, b, z = make_two_point_config()
    rep = secant_obstruction(b, z)
    assert rep.verdict == PASS
    assert rep.dims["well_defined"] == 1
    assert rep.dims["dependent_pair"] == 1
    assert rep.dims["two_point_line"] == 1
    assert rep.dims["ker_rho"] == 2
    assert rep.dims["overlap"] >= 1
    assert rep.dims["distinct_roots"] == 2
    assert rep.dims["euler_excess"] == 2 * 4 - 7 == 1


def test_secant_random_configuration_not_well_defined():
    rng = rng_for("randomsec")
    shape = FamilyShape(2, 6)
    while True:
        z = random_generic_scheme(2, rng)
        b = sample_b_through(shape, [z.p1, z.p2], rng)
        xif = restrict_poly(b.f_poly(), z.line)
        if not xif.is_zero():
            from fermatlines.lines import distinct_root_count
            if distinct_root_count(xif) >= 3:
                break
    rep = secant_obstruction(b, z)
    assert rep.verdict == PASS          # the three conditions agree: all false
    assert rep.dims["well_defined"] == 0
    assert rep.dims["dependent_pair"] == 0
    assert rep.dims["two_point_line"] == 0


def test_secant_rejects_special_scheme():
    shape = FamilyShape(2, 6)
    z, _ = _special_scheme(2, rng_for("ss"))
    b = sample_b_through(shape, [z.p1, z.p2], rng_for("ssb"))
    with pytest.raises(NonGenericScheme):
        secant_obstruction(b, z)


def test_secant_requires_scheme_on_member():
    shape = FamilyShape(2, 6)
    z = random_generic_scheme(2, rng_for("off"))
    b = DeformationPoint.fermat(shape)
    if b.f_poly().evaluate(z.p1.coords) != 0:
        with pytest.raises(ValueError):
            secant_obstruction(b, z)


def test_secant_wrapper():
    rep = verify_secant(2, 6, rng_for("wrap"), trials=2)
    assert rep.verdict == PASS
    assert rep.dims["euler_excess"] == 1


# ---------------------------------------------------------------------------
# incidence and tangency

def test_incidence_values():
    assert incidence_dimension(2, 6, 2) == 0
    assert incidence_dimension(2, 5, 2) == 1
    assert incidence_dimension(3, 8, 4) == 0
    for n in range(1, 7):
        for m in range(1, 2 * n + 2):
            assert incidence_dimension(n, 2 * n + 2, m) == 0


def test_incidence_bounds():
    with pytest.raises(ValueError):
        incidence_dimension(2, 6, 0)
    with pytest.raises(ValueError):
        incidence_dimension(2, 6, 6)
    rep = verify_incidence(3, 8, 4)
    assert rep.verdict == PASS and rep.dims["offset"] == 0


def build_tangency_instance(n=2, d=6, m=3, seed=5, zero_transverse=False):
    nv = n + 2
    rng = rng_for("tangency", seed)
    line = Line(ProjPoint([1] + [0] * (nv - 1)), ProjPoint([0, 1] + [0] * (nv - 2)))
    lead = [0] * nv
    lead[0], lead[1] = d - m, m
    f = HomogPoly.monomial(nv, tuple(lead))
    if not zero_transverse:
        deg = all_monomials(nv, d - 1)
        for i in range(2, nv):
            g = HomogPoly(nv, d - 1,
                          {mm: sample_rational(rng, 9) for mm in deg.members})
            f = f + HomogPoly.variable(nv, i) * g
    return f, line


def test_tangency_explicit_instance_is_rigid():
    f, line = build_tangency_instance()
    rep = tangency_deformation_dim(f, line, 3)
    assert rep.verdict == PASS and rep.dims["deformations"] == 0


def test_tangency_degenerate_instance_moves():
    f, line = build_tangency_instance(zero_transverse=True)
    rep = tangency_deformation_dim(f, line, 3)
    assert rep.verdict == FAIL
    assert rep.dims["deformations"] == 4 == rep.dims["unknowns"]
    assert rep.witness is not None
    assert len(rep.witness["moving_deformation"]) == 4


def test_tangency_witness_is_a_genuine_deformation():
    """Check the reported moving deformation against the definition: its
    first-order shift of the restricted polynomial stays inside the span of
    the stratum monomials."""
    from fractions import Fraction
    d, m = 6, 3
    # the pure two-root monomial kills the transverse derivatives along the
    # line, so the tangency count is positive and a witness must exist
    f, line = build_tangency_instance(zero_transverse=True)
    rep = tangency_deformation_dim(f, line, m)
    vec = [Fraction(x) for x in rep.witness["moving_deformation"]]
    normals = rep.witness["normal_coordinates"]
    # delta f = sum_i v_i * restriction of dF/dx_i, v_i = vec[2i]*s + vec[2i+1]*t
    from fermatlines.lines import BinaryForm
    delta = BinaryForm.zero(d)
    for pos, i in enumerate(normals):
        base = restrict_poly(f.partial(i), line)
        s_mult = BinaryForm(1, [vec[2 * pos], 0])
        t_mult = BinaryForm(1, [0, vec[2 * pos + 1]])
        delta = delta + (s_mult + t_mult) * base
    allowed = {m - 1, m, m + 1}
    assert all(c == 0 for k, c in enumerate(delta.coeffs) if k not in allowed)


def test_tangency_swap_multiplicities_same_dimension():
    f, line = build_tangency_instance(m=2)
    swapped, _ = build_tangency_instance(m=4)
    rep = tangency_deformation_dim(f, line, 2)
    rep_swapped = tangency_deformation_dim(swapped, line, 4)
    assert rep.dims["deformations"] == rep_swapped.dims["deformations"]


def test_tangency_precondition():
    f, line = build_tangency_instance()
    with pytest.raises(NotInTangencyStratum):
        tangency_deformation_dim(f, line, 2)   # wrong multiplicity
    shape = FamilyShape(2, 6)
    g = DeformationPoint.fermat(shape).f_poly()
    with pytest.raises(NotInTangencyStratum):
        tangency_deformation_dim(g, line, 3)   # restriction is not a monomial


def test_tangency_wrapper():
    rep = verify_tangency(2, 6, 3, rng_for("tw"), trials=2)
    assert rep.verdict == PASS
    assert rep.dims["degenerate_deformations"] == 4


def test_tangency_monotone_under_added_transverse_terms():
    """Adding a generic transverse term can only cut the deformation count."""
    n, d, m = 2, 6, 3
    nv = n + 2
    line = Line(ProjPoint([1, 0, 0, 0]), ProjPoint([0, 1, 0, 0]))
    deg = all_monomials(nv, d - 1)
    for seed in (1, 2, 3):
        rng = rng_for("monotone", seed)
        lead = HomogPoly.monomial(nv, (d - m, m, 0, 0))
        f = lead
        prev = tangency_deformation_dim(f, line, m).dims["deformations"]
        for i in (2, 3):
            g = HomogPoly(nv, d - 1,
                          {mm: sample_rational(rng, 9) for mm in deg.members})
            f = f + HomogPoly.variable(nv, i) * g
            cur = tangency_deformation_dim(f, line, m).dims["deformations"]
            assert cur <= prev
            prev = cur


def test_tangency_off_coordinate_line():
    # same computation on a non-coordinate line via a change of points
    n, d, m = 2, 6, 3
    rng = rng_for("offline")
    shape = FamilyShape(n, d)
    z = random_generic_scheme(n, rng)
    b = _b_with_line_power(shape, z, m, rng)
    rep = tangency_deformation_dim(b.f_poly(), z.line, m)
    assert rep.dims["unknowns"] == 2 * n
    assert rep.dims["deformations"] >= 0


# ---------------------------------------------------------------------------
# report plumbing

def test_report_json_schema():
    rep = verify_incidence(2, 6, 3, seed=9)
    obj = rep.to_json_obj()
    assert list(obj)[:8] == ["lemma", "n", "d", "seed", "verdict", "dims",
                             "witness", "elapsed_ms"]
    assert obj["lemma"] == "incidence" and obj["seed"] == 9


def test_reports_reproducible_from_seed():
    a = verify_kernel_special(2, 6, rng_for("repro", seed=11), trials=2)
    b = verify_kernel_special(2, 6, rng_for("repro", seed=11), trials=2)
    assert a.to_json_obj() | {"elapsed_ms": 0} == b.to_json_obj() | {"elapsed_ms": 0}


def test_very_special_scheme_helper_classifies():
    from fermatlines.lines import classify
    z = _very_special_scheme(3, rng_for("vs"))
    assert classify(z).tag == "very-special"


def test_scheme_json_includes_class():
    from fermatlines.lines import scheme_json
    z = random_generic_scheme(2, rng_for("sj"))
    obj = scheme_json(z)
    assert set(obj) == {"p1", "p2", "class"}
    assert obj["class"]["tag"] == "generic"
    assert all("/" in c for c in obj["p1"])


# ---------------------------------------------------------------------------
# the trial runner shared by the sampled verifiers

def _run_trials(body, trials=3):
    with verifiers._Trials("demo", 2, 6, rng_for("runner"), trials, m=3) as run:
        body(run)
    return run.report


def test_runner_mixed_flags_are_indeterminate():
    rep = _run_trials(lambda run: [run.record(t != 1, {"t": t}, lambda: {})
                                   for t, _ in enumerate(run)])
    assert rep.verdict == INDETERMINATE
    assert rep.dims == {"t": 0}
    assert rep.witness == {"trial": 1}
    assert rep.params == {"trials": 3, "m": 3}
    assert (rep.lemma, rep.n, rep.d, rep.seed) == ("demo", 2, 6, 7)


def test_runner_all_pass_and_all_fail():
    passed = _run_trials(lambda run: [run.record(True, {}, None) for _ in run])
    assert (passed.verdict, passed.witness) == (PASS, None)
    failed = _run_trials(lambda run: [run.record(False, {"k": 1}, lambda: {"x": 0})
                                      for _ in run])
    assert failed.verdict == FAIL
    assert failed.witness == {"trial": 0, "x": 0}


def test_runner_calls_the_witness_thunk_once_for_the_first_failure():
    calls = []

    def witness(t):
        calls.append(t)
        return {"reason": "bad", "t": t}

    def body(run):
        for t, _ in enumerate(run):
            run.record(t == 0, {"t": t}, lambda: witness(t))

    rep = _run_trials(body, trials=4)
    assert calls == [1]
    assert list(rep.witness) == ["trial", "reason", "t"]
    assert rep.witness == {"trial": 1, "reason": "bad", "t": 1}


def test_runner_yields_one_split_generator_per_trial():
    rng = rng_for("runner")
    expected = [rng.split("trial%d" % t).next_u64() for t in range(3)]
    seen = []
    _run_trials(lambda run: [seen.append(sub.next_u64()) for sub in run])
    assert seen == expected


@pytest.mark.parametrize("error", [verifiers.InfeasibleSystem, NonGenericScheme,
                                   verifiers.LineInHypersurface])
def test_runner_infeasible_keeps_the_dims_gathered_so_far(error):
    def body(run):
        for t, _ in enumerate(run):
            if t == 2:
                raise error("no solution")
            run.record(True, {"t": t}, None)

    rep = _run_trials(body)
    assert rep.verdict == INFEASIBLE
    assert rep.dims == {"t": 0}
    assert rep.witness == {"reason": "no solution"}
    assert rep.params == {}


def test_runner_skipped_exit_is_indeterminate():
    def body(run):
        raise verifiers._Stop("scheme is generic; out of scope", {"skipped": True})

    rep = _run_trials(body)
    assert rep.verdict == INDETERMINATE
    assert rep.dims == {}
    assert rep.witness == {"reason": "scheme is generic; out of scope"}
    assert rep.params == {"skipped": True}


def test_runner_lets_other_exceptions_propagate():
    def body(run):
        raise ValueError("library misuse")

    with pytest.raises(ValueError, match="library misuse"):
        _run_trials(body)
    # library misuse inside a sampled verifier still raises
    with pytest.raises(ValueError, match="multiplicity"):
        verify_tangency(2, 6, 0, rng_for("tm"), trials=1)
