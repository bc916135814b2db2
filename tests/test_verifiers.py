"""Verifier-level behavior: spot values, independent oracles, error routes."""

import json
import weakref
from fractions import Fraction

import pytest

import fermatlines.exact as exact
import fermatlines.family as family
import fermatlines.verifiers as verifiers
from fermatlines.cli import LEMMAS, REGISTRY, run_lemma
from fermatlines.errors import (CoordinatePointError, NonGenericScheme,
                                NotInTangencyStratum)
from fermatlines.exact import (Matrix, Subspace, clear_denominators, first_outside_span,
                               kernel_basis, rank_sparse, sample_rational)
from fermatlines.family import (DeformationPoint, FamilyShape, eta, omega_basis,
                                omega_terms, point_condition, sample_b_through)
from fermatlines.lines import (Line, ProjPoint, classify, distinct_root_count,
                               monomial_index, restrict_poly)
from fermatlines.poly import (EulerSection, HomogPoly, all_monomials, euler_alpha,
                              eval_monomials, gen_jd, mono_times)
from fermatlines.rng import Rng
from fermatlines.verifiers import (FAIL, INDETERMINATE, INFEASIBLE, PASS,
                                   _b_with_line_power, _line_power_columns, _nine_by_six,
                                   _section_image,
                                   random_generic_scheme, _special_scheme,
                                   _stratum, _tangency_system, _two_by_two,
                                   _very_special_scheme,
                                   incidence_dimension, secant_obstruction,
                                   tangency_deformation_dim,
                                   verify_generic_systems, verify_incidence,
                                   verify_kernel_generic,
                                   verify_kernel_special, verify_point_ideal,
                                   verify_secant, verify_tangency,
                                   verify_w_basis, verify_xi_generic,
                                   verify_xi_special)
from test_exact import (assert_solution_contract, echelon_of, kernel_basis_oracle,
                        random_solution_reference, span_claim)
from tests.oracles import (SYSTEM_KEYS_REFERENCE, contains_vector,
                           elimination_order_reference, form_add, form_mul,
                           full_tangency_member, matrix_of_columns, member_poly,
                           nine_by_six_reference, restrict, restrict_rational, support_in)


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


def test_w_basis_sextic_dims(monkeypatch):
    """Each trial is decided by one _kernel_is_span call; nothing else is
    ranked."""
    calls = _recording(monkeypatch, "_kernel_is_span")
    monkeypatch.setattr(verifiers, "rank_sparse", None)
    rep = verify_w_basis(2, 6, rng_for("w26"), trials=3)
    assert rep.verdict == PASS
    assert rep.dims == {"basis": 24, "kernel_total": 28}
    assert len(calls) == 3


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
    fp = member_poly(b)
    partials = [fp.partial(j) for j in range(nv)]
    cols = []
    for j in range(nv):
        for mu in deg2.members:
            poly = HomogPoly.monomial(nv, mu) * partials[j]
            cols.append(poly.coeffs_on(deg5))
    for f in jd1.members:
        cols.append(HomogPoly.monomial(nv, f).coeffs_on(deg5))
    for i in range(nv):
        cols.append((fp * HomogPoly.variable(nv, i)).coeffs_on(deg5))
    stacked = matrix_of_columns(cols)
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
    """Membership in the kernel of the rows (m*g = 0 on the section
    columns) agrees with forming eta(w) as a product: every w_ijk lies
    inside the deformation span, and every w_iik without its c_ijk
    correction lies outside under both."""
    nv = n + 2
    b = sample_b_through(FamilyShape(n, d), [], rng_for("rows%d" % n))
    deg2 = all_monomials(nv, 2)
    jd1 = gen_jd(n, d + 1)
    rows = verifiers._w_basis_rows(b, deg2)
    columns = [[row.get(j, 0) for row in rows] for j in range(nv * len(deg2))]
    squares = [(k, tuple(2 if j == i else 0 for j in range(nv)))
               for i in range(nv) for k in range(nv) if k != i]
    cases = [(terms, w, True) for terms, w in zip(omega_terms(b), omega_basis(b))]
    cases += [({(k, e): 1}, EulerSection.single(nv, k, HomogPoly.monomial(nv, e)), False)
              for k, e in squares]
    for terms, w, inside in cases:
        assert (not any(exact.image(columns, verifiers._terms_row(terms, deg2)))) is inside
        assert support_in(eta(b, w), jd1) is inside


def test_members_draw_integer_free_coordinates():
    """A member's free coordinates are integers in [-DRAW, DRAW]: the
    unconstrained member of w-basis has den 1, so its w-basis rows keep the
    size of its coefficients, and a member through two points is integral
    off the pivot columns of its point conditions."""
    shape = FamilyShape(3, 8)
    b = sample_b_through(shape, [], rng_for("row size"))
    assert b.den == 1 and len(b.t) == shape.N
    assert all(v.denominator == 1 and abs(v) <= exact.DRAW for v in b.t.values())
    rows = verifiers._w_basis_rows(b, all_monomials(5, 2))
    assert max(abs(v).bit_length() for row in rows for v in row.values()) < 40
    points = [ProjPoint([1, 2, -1, 3, 1]), ProjPoint([2, 1, 1, Fraction(1, 2), -3])]
    b = sample_b_through(shape, points, rng_for("two points"))
    _, pivots = Matrix([point_condition(shape, p)[0] for p in points]).rref()
    coords = [Fraction(b.t.get(f, 0)) for f in shape.jd.members]
    assert all(v.denominator == 1 and abs(v) <= exact.DRAW
               for j, v in enumerate(coords) if j not in pivots)
    assert len(pivots) == 2 and any(coords[j].denominator > 1 for j in pivots)


def _assert_w_basis_fails_outside_the_span(rep, calls, span_dim):
    """A w-basis FAIL at trial 0 whose witness is a vector of that trial's
    kernel outside the span of its generators (kernel dim 28 at (2, 6))."""
    assert rep.verdict == FAIL
    assert rep.witness["trial"] == 0
    assert rep.witness["reason"] == "subspace mismatch"
    assert (rep.witness["lhs"], rep.witness["rhs"]) == (span_dim, 28)
    assert rep.dims["kernel_total"] == 28
    columns, gens, _ = calls[0]
    assert len(rep.witness["vector"]) == len(columns)
    vector = {j: Fraction(x) for j, x in enumerate(rep.witness["vector"]) if Fraction(x)}
    assert not any(exact.image(columns, vector))
    assert rank_sparse(gens + [vector]) == rank_sparse(gens) + 1
    return vector


def test_w_basis_fails_on_membership_without_the_corrections(monkeypatch):
    """With every c_ijk forced to 0 the w_iik stay independent but their
    eta leaves the deformation span: the kernel, of unchanged dimension, is
    not their span."""
    monkeypatch.setattr(family, "c_coeff", lambda b, i, j, k: 0)
    calls = _recording(monkeypatch, "_kernel_is_span")
    rep = verify_w_basis(2, 6, rng_for("w-basis"), trials=2)
    _assert_w_basis_fails_outside_the_span(rep, calls, 28)
    columns, gens, _ = calls[0]
    assert any(any(exact.image(columns, g)) for g in gens)


def test_w_basis_fails_on_the_f_block_alone(monkeypatch):
    """Without the x_0*F column, the F block alone broken, that unknown enters no row, so its unit
    vector is in the kernel, while x_0 times the Euler field, whose eta is
    d*x_0*F, leaves it: the witness is that unit vector."""
    nv = 4
    column = nv * len(all_monomials(nv, 2))
    w_basis_rows = verifiers._w_basis_rows
    monkeypatch.setattr(verifiers, "_w_basis_rows", lambda b, deg2: [
        {j: c for j, c in row.items() if j != column} for row in w_basis_rows(b, deg2)])
    calls = _recording(monkeypatch, "_kernel_is_span")
    rep = run_lemma("w-basis", 2, 6, 0, 0, trials=2)
    assert _assert_w_basis_fails_outside_the_span(rep, calls, 28) == {column: 1}


def test_w_basis_fails_on_the_euler_identity_alone(monkeypatch):
    """With every integer partial of den*F doubled, sum_j x_j dF/dx_j is
    2d*F, not d*F, and only the Euler identity breaks: x_i times the Euler
    field paired with -d at x_i*F leaves the kernel, whose dimension
    doubling the section block keeps."""
    partials = DeformationPoint.f_partials
    monkeypatch.setattr(DeformationPoint, "f_partials", lambda b: tuple(
        {m: 2 * c for m, c in p.items()} for p in partials(b)))
    calls = _recording(monkeypatch, "_kernel_is_span")
    rep = run_lemma("w-basis", 2, 6, 0, 0, trials=2)
    _assert_w_basis_fails_outside_the_span(rep, calls, 28)


def test_w_basis_fails_without_the_last_section(monkeypatch):
    """Without the last w_ijk the generators span 27 of the kernel's 28
    dimensions."""
    monkeypatch.setattr(verifiers, "omega_terms", _drop_last_omega)
    calls = _recording(monkeypatch, "_kernel_is_span")
    rep = verify_w_basis(2, 6, rng_for("w-basis"), trials=2)
    assert rep.dims["basis"] == 23
    _assert_w_basis_fails_outside_the_span(rep, calls, 27)
# ---------------------------------------------------------------------------
# kernel lemmas

def test_kernel_generic_dims():
    rep = verify_kernel_generic(2, 6, rng_for("kg"), trials=3)
    assert rep.verdict == PASS
    assert rep.dims == {"lhs": 61, "rhs": 61, "quotient": 7}
    assert rep.dims["lhs"] == 68 - 7


def test_kernel_special_passes_and_counts_generators():
    rep = verify_kernel_special(2, 6, rng_for("ks"), trials=3)
    assert rep.verdict == PASS
    assert rep.dims["extra_generators"] == 6
    assert rep.dims["lhs"] == rep.dims["rhs"]


def test_containment_of_ideal_part_holds_even_for_special_schemes():
    from fermatlines.verifiers import _ideal_rows, _xi_matrix_on
    from fermatlines.lines import iz_linear
    shape = FamilyShape(2, 6)
    for maker in (lambda r: _special_scheme(2, r)[0],
                  lambda r: random_generic_scheme(2, r)):
        z = maker(rng_for("containment"))
        k2 = Subspace.from_vectors(len(shape.jd), dense(kernel_basis(
            _xi_matrix_on(shape.jd, z), shape.d + 1), len(shape.jd)))
        k1 = Subspace.from_vectors(
            len(shape.jd),
            dense(_ideal_rows([(form, gen_jd(2, 5)) for form in iz_linear(z)], shape.jd),
                  len(shape.jd)))
        assert all(contains_vector(k2, v) for v in k1.basis_vectors())


# ---------------------------------------------------------------------------
# kernel claims: one exact decision, checked against canonical subspaces

KERNEL_CLAIMS = {
    "kernel-generic": lambda: verify_kernel_generic(2, 6, rng_for("kg"), trials=2),
    "kernel-special": lambda: verify_kernel_special(2, 6, rng_for("ks"), trials=2),
    "point-ideal": lambda: verify_point_ideal(2, 6, seed=7),
}


def _recording(monkeypatch, name):
    """Route the verifiers' calls of `name` through a recorder; returns the
    list of (columns, gens, result) calls, gens copied before the call
    reduces them in place."""
    calls = []
    real = getattr(verifiers, name)

    def record(columns, gens):
        given = [dict(g) for g in gens]
        result = real(columns, gens)
        calls.append((columns, given, result))
        return result

    monkeypatch.setattr(verifiers, name, record)
    return calls


def _without(pairs, k, h):
    """The builder's pairs with the monomial h taken out of the k-th pair's
    monomials."""
    form, lower = pairs[k]
    return pairs[:k] + [(form, set(lower) - {h})] + pairs[k + 1:]


def _drop_first_product(monkeypatch):
    """Drop the first ideal-product row L*g, form by form: the first form
    of I_Z(1) or I_p(1) times the first monomial g of its degree."""
    rows = verifiers._ideal_rows
    monkeypatch.setattr(verifiers, "_ideal_rows", lambda pairs, target: rows(
        _without(pairs, 0, pairs[0][1].members[0]), target))


def _drop_last_product(monkeypatch):
    """Drop the last ideal-product row L*g, form by form: the last form of
    I_Z(1) or I_p(1) (the pairs on the first pair's monomials, before
    kernel-special's extras) times the last monomial g of its degree."""
    rows = verifiers._ideal_rows

    def dropped(pairs, target):
        k = max(i for i, (_, lower) in enumerate(pairs) if lower is pairs[0][1])
        return rows(_without(pairs, k, pairs[k][1].members[-1]), target)

    monkeypatch.setattr(verifiers, "_ideal_rows", dropped)


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
        for columns, gens, (equal, kernel_dim, span_dim, _) in calls:
            m = matrix_of_columns(columns)
            kernel = kernel_basis_oracle(m)
            span = Subspace.from_vectors(m.ncols, dense(gens, m.ncols))
            assert (equal, kernel_dim, span_dim) == (kernel == span, kernel.dim, span.dim)


def _drop_first_form(monkeypatch):
    """Drop every product of the first linear form: in every basis of I_Z(1)
    and I_p(1), the rows left span less than all of them."""
    rows = verifiers._ideal_rows
    monkeypatch.setattr(verifiers, "_ideal_rows", lambda pairs, target: rows(pairs[1:], target))


def _recombined(forms):
    """The integer linear forms L_0, L_1, ... replaced by the invertible
    recombination L_0 + L_1, L_1, ..."""
    return [[a + b for a, b in zip(*forms[:2])]] + forms[1:]


@pytest.mark.parametrize("lemma", sorted(KERNEL_CLAIMS))
def test_kernel_claim_fails_without_the_first_forms_products_in_any_basis(monkeypatch, lemma):
    """Without the products of the first linear form each kernel claim
    FAILs, with a witness in ker(m) outside the span of the generators
    left, both in the reduced basis of I_Z(1) and I_p(1) and in a
    recombination of it.  The two spans left agree, and so do the
    witnesses; unmutated, the recombined basis PASSes."""
    witnesses = []
    for recombine in (False, True):
        with monkeypatch.context() as mp:
            if recombine:
                for name in ("iz_linear", "ip_linear"):
                    mp.setattr(verifiers, name,
                               lambda x, forms=getattr(verifiers, name): _recombined(forms(x)))
                assert KERNEL_CLAIMS[lemma]().verdict == PASS
            _drop_first_form(mp)
            calls = _recording(mp, "_kernel_is_span")
            rep = KERNEL_CLAIMS[lemma]()
        assert rep.verdict == FAIL
        # point-ideal decides once, so its witness names no trial
        assert rep.witness.get("trial") == (None if lemma == "point-ideal" else 0)
        columns, gens, _ = calls[0]
        v = [Fraction(x) for x in rep.witness["vector"]]
        assert not any(map(sum, zip(*[[x * c for c in col] for x, col in zip(v, columns)])))
        assert first_outside_span(echelon_of(gens), [v]) == v
        witnesses.append(rep.witness)
    assert witnesses[0] == witnesses[1]


def _generator_eliminations(monkeypatch):
    """Route exact._echelon through a recorder; returns the list of the rows
    of each call, copied before the elimination reduces them."""
    fed = []
    echelon = exact._echelon

    def recording(rows, stop=None):
        rows = list(rows)
        fed.append([dict(r) for r in rows])
        return echelon(rows, stop)

    monkeypatch.setattr(exact, "_echelon", recording)
    return fed


def _rows_key(rows):
    """The nonzero rows as a sorted list of their nonzero entries."""
    return sorted(filter(None, (sorted((j, v) for j, v in r.items() if v) for r in rows)))


def _eliminations_of(fed, gens):
    """How many recorded eliminations were given exactly the rows gens."""
    return sum(_rows_key(rows) == _rows_key(gens) for rows in fed)


def test_late_witness_eliminates_the_generators_once(monkeypatch):
    """With the last ideal-product row dropped, kernel-special's witness is
    a late canonical kernel vector.  Over the whole run the generator rows
    are eliminated once, by kernel_span_dims, and outside() reduces each
    kernel vector tried against that echelon form, eliminating nothing."""
    _drop_last_product(monkeypatch)
    calls = _recording(monkeypatch, "_kernel_is_span")
    fed = _generator_eliminations(monkeypatch)
    rep = run_lemma("kernel-special", 2, 6, 0, 7, trials=1)
    assert rep.verdict == FAIL
    [(columns, gens, (_, _, _, outside))] = calls
    first = kernel_basis_oracle(matrix_of_columns(columns)).basis_vectors()[0]
    assert rep.witness["vector"] != verifiers._vec_json(first)
    assert _eliminations_of(fed, gens) == 1
    fed.clear()
    assert outside() == rep.witness["vector"]
    assert fed == []


@pytest.mark.parametrize("lemma", sorted(KERNEL_CLAIMS))
def test_each_fail_trial_eliminates_its_generators_once(monkeypatch, lemma):
    """With the first product row dropped, every trial of each kernel claim
    FAILs, and the whole run eliminates each trial's generators once: the
    witness reads kernel_span_dims' echelon form."""
    _drop_first_product(monkeypatch)
    calls = _recording(monkeypatch, "_kernel_is_span")
    fed = _generator_eliminations(monkeypatch)
    rep = KERNEL_CLAIMS[lemma]()
    assert rep.verdict == FAIL and rep.witness["vector"] is not None
    assert calls and not any(equal for _, _, (equal, _, _, _) in calls)
    assert [_eliminations_of(fed, gens) for _, gens, _ in calls] == [1] * len(calls)


@pytest.mark.parametrize("lemma", sorted(KERNEL_CLAIMS))
def test_a_holding_claim_keeps_no_echelon_form(monkeypatch, lemma):
    """A kernel claim that holds returns a witness thunk with no closure,
    so no echelon form or generator row outlives its trial; a failing
    one's thunk holds what its witness reads."""
    for drop, verdict in ((False, PASS), (True, FAIL)):
        with monkeypatch.context() as mp:
            if drop:
                _drop_first_product(mp)
            calls = _recording(mp, "_kernel_is_span")
            assert KERNEL_CLAIMS[lemma]().verdict == verdict
        assert calls
        for _, _, (equal, _, _, outside) in calls:
            assert equal != drop
            assert (outside.__closure__ is None) == equal


def test_kernel_is_span_witness_examples():
    m = [(1,), (-1,), (0,)]     # the columns of the 1 x 3 matrix (1 -1 0)
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
    forms = verifiers.ip_linear(p)[1:]
    monkeypatch.setattr(verifiers, "ip_linear", lambda q: forms)
    rep = verify_point_ideal(2, 6)
    assert rep.verdict == FAIL and rep.witness["reason"] == "point part"
    v = [Fraction(x) for x in rep.witness["vector"]]
    assert sum(v) == 0
    jd1 = gen_jd(2, 7)
    gens = dense(verifiers._ideal_rows([(form, gen_jd(2, 6)) for form in forms], jd1), len(jd1))
    assert not contains_vector(Subspace.from_vectors(len(jd1), gens), v)


def _shifted(mono, i):
    return mono[:i] + (mono[i] + 1,) + mono[i + 1:]


def cut_space_dim(n, d):
    """Oracle for the point span at p = (1, ..., 1): it is spanned by the
    rows (x_i - x_0)*g = e_{x_i g} - e_{x_0 g}, g in J_d, the edges of a
    graph on J_{d+1}, so its dimension is |J_{d+1}| minus the number of
    components of that graph, counted here by union-find."""
    jd1 = gen_jd(n, d + 1)
    parent = list(range(len(jd1)))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    components = len(jd1)
    for g in gen_jd(n, d):
        root = find(jd1.index[_shifted(g, 0)])
        for i in range(1, n + 2):
            other = find(jd1.index[_shifted(g, i)])
            if other != root:
                parent[other] = root
                components -= 1
    return len(jd1) - components


@pytest.mark.parametrize("n, d, dim", [(2, 6, 103), (3, 8, 689), (4, 10, 4331)])
def test_point_ideal_dims_match_the_cut_space(n, d, dim):
    assert cut_space_dim(n, d) == dim
    rep = verify_point_ideal(n, d)
    assert rep.verdict == PASS
    assert rep.dims == {"lhs": dim, "rhs": dim, "codim": 1}


def test_a_generator_outside_the_kernel_is_the_witness(monkeypatch):
    """kernel-generic at (2, 6) with one row x_0*g appended, g the first
    monomial of J_(d-1): x_0 does not vanish on the line, so the row leaves
    ker(m).  The claim FAILs with one more span dimension than the kernel
    has; the other rows still span the kernel, so no kernel vector is
    outside the span, and the witness is the escaping row itself."""
    rows = verifiers._ideal_rows
    appended = []

    def with_escaping_row(pairs, target):
        row = {target.index[mono_times(pairs[0][1].members[0], 0)]: 1}
        appended.append(dense([row], len(target))[0])
        return rows(pairs, target) + [row]

    monkeypatch.setattr(verifiers, "_ideal_rows", with_escaping_row)
    rep = verify_kernel_generic(2, 6, rng_for("kg"), trials=2)
    assert rep.verdict == FAIL and rep.witness["trial"] == 0
    assert rep.dims["lhs"] == rep.dims["rhs"] + 1 == 62
    assert rep.witness["vector"] == verifiers._vec_json(appended[0])


@pytest.mark.parametrize("n, d, seeds", [(2, 6, range(4)), (3, 8, range(4)), (4, 10, range(3))])
def test_ideal_rows_come_in_the_reference_elimination_order(monkeypatch, n, d, seeds):
    """For each kernel claim, _ideal_rows gives the rows, and the order, of
    the pipeline it replaced (tests/oracles.py): built pair by pair, sorted
    by leftmost column, the first row of each column ahead of the rest.
    The seeds draw special schemes with zero multipliers, whose extra rows
    have one entry."""
    rows = verifiers._ideal_rows
    built = []

    def recording(pairs, target):
        got = rows(pairs, target)
        built.append((pairs, target, [dict(r) for r in got]))
        return got

    monkeypatch.setattr(verifiers, "_ideal_rows", recording)
    zero_multipliers = 0
    for seed in seeds:
        for lemma in KERNEL_CLAIMS:
            built.clear()
            assert run_lemma(lemma, n, d, 0, seed, trials=1).verdict == PASS
            [(pairs, target, got)] = built
            assert got == elimination_order_reference(pairs, target)
            if lemma == "kernel-special":
                zero_multipliers += any(form[1] == 0 for form, _ in pairs[n:])
    assert zero_multipliers


def test_kernel_generic_stops_before_its_last_generator(monkeypatch):
    """At (3, 8) the generator rows fill the kernel early: once their rank
    reaches kernel_dim the elimination reads no further rows."""
    calls = _recording(monkeypatch, "kernel_span_dims")
    fed = []
    echelon = exact._echelon

    def counting(rows, stop=None):
        rows, read = list(rows), []
        result = echelon((read.append(r) or r for r in rows), stop)
        fed.append((len(rows), len(read)))
        return result

    monkeypatch.setattr(exact, "_echelon", counting)
    assert verify_kernel_generic(3, 8, rng_for("kg-stop"), trials=1).verdict == PASS
    [(m, gens, (kernel_dim, echelon, escaped))] = calls
    assert escaped is None and len(echelon) == kernel_dim
    [read] = [read for built, read in fed if built == len(gens)]
    assert kernel_dim <= read < len(gens)


@pytest.mark.parametrize("shift", [False, True])
def test_kernel_generic_holds_its_map_once(monkeypatch, shift):
    """During a PASS kernel-generic the restriction map is the line cache's
    own tuples, handed to kernel_span_dims as they are, and no Matrix with
    |J_d| columns is built.  Feeding kernel_span_dims shifted columns is
    caught."""
    maps, fed, widths = [], [], []
    xi_matrix_on, dims, init = verifiers._xi_matrix_on, verifiers.kernel_span_dims, Matrix.__init__

    def recording_xi(monomials, line):
        columns = xi_matrix_on(monomials, line)
        maps.append((monomials, line, columns))
        return columns

    def recording_dims(columns, gens):
        if shift:
            columns = columns[1:] + columns[:1]
        fed.append(columns)
        return dims(columns, gens)

    def recording_init(self, rows, ncols=None):
        init(self, rows, ncols)
        widths.append(self.ncols)

    monkeypatch.setattr(verifiers, "_xi_matrix_on", recording_xi)
    monkeypatch.setattr(verifiers, "kernel_span_dims", recording_dims)
    monkeypatch.setattr(Matrix, "__init__", recording_init)
    rep = verify_kernel_generic(2, 6, rng_for("kg"), trials=2)
    held_once = (len(maps) == len(fed) == 2
                 and all(columns is given for (_, _, columns), given in zip(maps, fed))
                 and all(column is line.integer_restriction(mono)
                         for monomials, line, columns in maps
                         for mono, column in zip(monomials, columns))
                 and len(gen_jd(2, 6)) not in widths)
    assert (rep.verdict, held_once) == ((FAIL, False) if shift else (PASS, True))


def test_certification_agrees_with_sympy_over_qq(monkeypatch):
    sympy = pytest.importorskip("sympy")
    from sympy.polys.matrices import DomainMatrix

    def rank_qq(rows, ncols):
        qq = [[sympy.QQ(x.numerator, x.denominator) for x in row] for row in rows]
        return DomainMatrix(qq, (len(qq), ncols), sympy.QQ).rank()

    calls = _recording(monkeypatch, "kernel_span_dims")
    for run in KERNEL_CLAIMS.values():
        run()
    # two trials each of kernel-generic and kernel-special, and the one
    # decision of point-ideal
    assert len(calls) >= 5
    for columns, gens, result in calls:
        m = matrix_of_columns(columns)
        rank_m = rank_qq(m.data, m.ncols)
        rank_gens = rank_qq(dense(gens, m.ncols), m.ncols)
        assert rank_sparse([dict(enumerate(row)) for row in m.data]) == rank_m
        assert rank_sparse(gens) == rank_gens
        assert span_claim(result) == (True, m.ncols - rank_m, rank_gens)


# ---------------------------------------------------------------------------
# the other sampled claims FAIL, with a witness, when their mathematics breaks

def _drop_last_omega(b):
    return omega_terms(b)[:-1]


def _zero_first_block(terms, line):
    return [0, 0, 0] + _section_image(terms, line)[3:]


def _member_without_line_power(shape, z, m, rng):
    b = sample_b_through(shape, [z.p, z.q], rng)
    return b, restrict_poly(b.f_poly(), shape.d, z)


def _zero_first_system_column(c):
    # Zeroing one row would not break the claim: the other 8 of the 9
    # equations keep rank 6.  An unknown that enters no equation does.
    return [[0] + row[1:] for row in _nine_by_six(c)]


def _drop_first_tangency_row(terms, d, line, m):
    rows, normals = _tangency_system(terms, d, line, m)
    return rows[1:], normals


def _tangency(n, d, rng, trials):
    return verify_tangency(n, d, d // 2, rng, trials)


def _on_the_stratum_line(monomials, line, m):
    """The line-power conditions on _stratum's coordinate line, whatever
    line they are asked for: J_d restricts there only to s^a t^b with
    2 <= a, b <= d-2, so they have rank at most d-3."""
    monomials = list(monomials)
    return _line_power_columns(monomials, _stratum(line.nvars - 2, sum(monomials[0]), m)[0], m)


# lemma -> (verifiers attribute replaced, its mutant, verifier)
MUTATIONS = {
    "w-basis": ("omega_terms", _drop_last_omega, verify_w_basis),
    "xi-special": ("_section_image", _zero_first_block, verify_xi_special),
    "xi-generic": ("_section_image", _zero_first_block, verify_xi_generic),
    "secant": ("_b_with_line_power", _member_without_line_power, verify_secant),
    "systems": ("_nine_by_six", _zero_first_system_column, verify_generic_systems),
    "tangency": ("_tangency_system", _drop_first_tangency_row, _tangency),
}


@pytest.mark.parametrize("lemma", sorted(MUTATIONS))
def test_sampled_claim_fails_with_a_witness_when_broken(monkeypatch, lemma):
    name, mutant, verify = MUTATIONS[lemma]
    monkeypatch.setattr(verifiers, name, mutant)
    rep = verify(2, 6, rng_for(lemma), trials=2)
    assert rep.verdict == FAIL
    assert rep.witness is not None
    assert rep.witness["trial"] == 0


# lemma -> a mutant of its mathematics, applied by monkeypatch
FAILING_MUTANTS = {
    **{lemma: lambda mp, name=name, mutant=mutant: mp.setattr(verifiers, name, mutant)
       for lemma, (name, mutant, _) in MUTATIONS.items()},
    **dict.fromkeys(KERNEL_CLAIMS, _drop_first_product),
    "incidence": lambda mp: mp.setattr(verifiers, "_line_power_columns", _on_the_stratum_line),
}


def test_every_lemma_fails_under_a_mutant_of_its_mathematics(monkeypatch):
    """Every lemma the CLI runs can come out FAIL: each has a mutant that
    changes the mathematics it checks, and under it the lemma FAILs with a
    witness at (2, 6)."""
    assert set(FAILING_MUTANTS) == set(REGISTRY)
    for lemma in REGISTRY:
        with monkeypatch.context() as mp:
            FAILING_MUTANTS[lemma](mp)
            rep = run_lemma(lemma, 2, 6, 3, 7, trials=2)
        assert rep.verdict == FAIL and rep.witness, lemma


def test_systems_fails_when_the_forced_pair_stays_regular(monkeypatch):
    """With the degenerate pair replaced by the 2x2 identity, the general
    pair still agrees with its prediction (regular, c022*c200 != 1), but the
    forced pair c200 = 1/c022 is no longer singular: every trial FAILs on
    its forced half, with forced kernel dimension 0."""
    monkeypatch.setattr(verifiers, "_two_by_two",
                        lambda c022, c200, a: Matrix([[1, 0], [0, 1]]))
    rep = verify_generic_systems(2, 6, rng_for("systems"), trials=2)
    assert rep.verdict == FAIL
    assert rep.dims == {"system_rows": 9, "system_cols": 6, "kernel_dim": 0}
    assert rep.witness["trial"] == 0
    assert rep.witness["kernel_dim"] == 0 and rep.witness["forced_kernel_dim"] == 0


def test_xi_special_names_an_unfilled_quotient(monkeypatch):
    """With the first component of every section image zeroed, the special
    image and the rescaling directions span only 7 of the 10 quotient
    dimensions at (2, 6)."""
    monkeypatch.setattr(verifiers, "_section_image", _zero_first_block)
    rep = verify_xi_special(2, 6, rng_for("xi-special"), trials=2)
    assert rep.verdict == FAIL
    assert rep.witness["reason"] == "quotient not filled"
    assert rep.dims["quotient_rank"] == rep.witness["quotient_rank"] == 7


def test_xi_special_names_a_very_special_span_mismatch(monkeypatch):
    """Without the c_ijk corrections the explicit generators no longer span
    the very-special image, while the special part still passes."""
    monkeypatch.setattr(verifiers, "c_coeff", lambda b, i, j, k: 0)
    rep = verify_xi_special(2, 6, rng_for("xi-special"), trials=2)
    assert rep.verdict == FAIL
    assert rep.witness["reason"] == "very-special span mismatch"
    assert rep.witness["scheme"]["class"]["tag"] == "very-special"


@pytest.mark.parametrize("n", [2, 3])
def test_xi_special_at_degree_4_is_infeasible(n):
    """At d = 4 a very special scheme (1, u, 0, ...), (1, v, 0, ...) meets
    only x0^2 x1^2 among the deformation monomials, so its point conditions
    t u^2 = -(1 + u^4) and t v^2 = -(1 + v^4) agree only when u^2 = v^2 or
    u^2 v^2 = 1, and a random such scheme has no member through it."""
    shape = FamilyShape(n, 4)
    rng = rng_for("degree 4")

    def points(u, v):
        return [ProjPoint([1, u] + [0] * n), ProjPoint([1, v] + [0] * n)]

    with pytest.raises(verifiers.InfeasibleSystem):
        sample_b_through(shape, points(2, 3), rng)
    for v in (Fraction(1, 2), -2):
        b = sample_b_through(shape, points(2, v), rng)
        assert b.t[(2, 2) + (0,) * n] == Fraction(-17, 4)
    rep = verify_xi_special(n, 4, rng_for("xi-special"), trials=1)
    assert rep.verdict == INFEASIBLE
    assert rep.witness == {"reason": "point conditions are mutually inconsistent"}


# ---------------------------------------------------------------------------
# point ideal

def test_point_ideal_all_ones():
    rep = verify_point_ideal(2, 6)
    assert rep.verdict == PASS
    assert rep.dims["codim"] == 1
    assert rep.dims["lhs"] == len(gen_jd(2, 7)) - 1


def test_point_ideal_small_case():
    rep = verify_point_ideal(1, 4)
    assert rep.verdict == PASS
    assert rep.dims["lhs"] == len(gen_jd(1, 5)) - 1 == 11


def test_point_ideal_rejects_coordinate_point():
    p = ProjPoint([1, 0, 0, 0])
    with pytest.raises(CoordinatePointError):
        verify_point_ideal(2, 6, p=p)


def test_point_ideal_other_point():
    p = ProjPoint([1, 2, 0, 5])
    rep = verify_point_ideal(2, 6, p=p)
    assert rep.verdict == PASS and rep.dims["codim"] == 1


@pytest.mark.parametrize("coords", [[1, 1, 1, 1], "random"])
def test_point_ideal_integer_row_has_the_rational_kernel(monkeypatch, coords):
    """point-ideal's evaluation row holds ints, and it has the canonical
    kernel basis of the rational values eval_monomials gives at p."""
    if coords == "random":
        rng = rng_for("pi-row")
        coords = [sample_rational(rng, 9) or Fraction(1) for _ in range(4)]
    p = ProjPoint(coords)
    maps = []
    is_span = verifiers._kernel_is_span
    monkeypatch.setattr(verifiers, "_kernel_is_span",
                        lambda columns, gens: maps.append(columns) or is_span(columns, gens))
    verify_point_ideal(2, 6, p=p)
    evaluation = matrix_of_columns(maps[0])
    assert all(type(x) is int for x in evaluation.data[0])
    rational = [(x,) for x in eval_monomials(gen_jd(2, 7), p.coords)]
    assert list(kernel_basis(maps[0], 1)) == list(kernel_basis(rational, 1))


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
    shape = FamilyShape(2, 6)
    z = random_generic_scheme(2, rng_for("xf"))
    b0 = DeformationPoint(shape)
    vecs = [_section_image(terms, z) for terms in omega_terms(b0)]
    assert 0 < Matrix(vecs).rank() <= 12


def _pair(nv, i, j):
    return tuple((k == i) + (k == j) for k in range(nv))


def omega_basis_oracle(b):
    """The w_ijk by EulerSection arithmetic: x_i x_j d/dx_k, minus for
    i = j the correction sum_j' c_ij'k x_i x_j' d/dx_i."""
    nv = b.shape.nvars
    out = []
    for i in range(nv):
        for j in range(i, nv):
            for k in range(nv):
                if k == i or k == j:
                    continue
                sec = EulerSection.single(nv, k, HomogPoly.monomial(nv, _pair(nv, i, j)))
                if i == j:
                    correction = HomogPoly.zero(nv, 2)
                    for jp in range(nv):
                        if jp != i:
                            correction = correction + HomogPoly.monomial(
                                nv, _pair(nv, i, jp), family.c_coeff(b, i, jp, k))
                    sec = sec - EulerSection.single(nv, i, correction)
                out.append(sec)
    return out


def as_section(terms, nv):
    """The EulerSection with sparse terms {(component, exponents): coefficient}."""
    return EulerSection([HomogPoly(nv, 2, {e: c for (i, e), c in terms.items() if i == comp})
                         for comp in range(nv)])


def x_alpha_oracle(nv, i):
    """x_i times the Euler field by EulerSection arithmetic."""
    x = HomogPoly.variable(nv, i)
    return EulerSection([c * x for c in euler_alpha(nv - 2).components])


def by_terms(sections):
    """The sections sorted by their number of terms, as _omega_image orders
    the w_ijk."""
    return sorted(sections, key=lambda w: sum(len(c.terms) for c in w.components))


def fraction_row(sec, line):
    """A section's rational restriction along s*p + t*q, one coefficient
    list per component, concatenated."""
    return [x for c in sec.components for x in restrict_rational(c, line)]


def is_scaled_image(new, old, z):
    """Whether the integer row `new` is the Fraction row `old` times a
    positive factor and, at entry 3*comp + k, Dp^(2-k) Dq^k, where p1 and p2
    of z clear to P/Dp and Q/Dq (a zero row only as the image of zero)."""
    dp = clear_denominators(z.p.coords)[1]
    dq = clear_denominators(z.q.coords)[1]
    scaled = [x * dp ** (2 - j % 3) * dq ** (j % 3) for j, x in enumerate(old)]
    ratio = next((Fraction(a) / b for a, b in zip(new, scaled) if b), 1)
    return ratio > 0 and all(a == ratio * b for a, b in zip(new, scaled))


def outside_index(rows, vectors):
    """Position of first_outside_span's answer among `vectors`, or None."""
    got = first_outside_span(echelon_of(rows), vectors)
    return next((i for i, v in enumerate(vectors) if v is got), None)


@pytest.mark.parametrize("n, d", [(2, 6), (3, 8), (2, 5)])
def test_omega_basis_matches_section_arithmetic(n, d):
    b = sample_b_through(FamilyShape(n, d), [], rng_for("omega%d%d" % (n, d)))
    assert omega_basis(b) == omega_basis_oracle(b)


@pytest.mark.parametrize("n, d", [(2, 6), (3, 8), (2, 5)])
@pytest.mark.parametrize("maker", ["generic", "special", "very-special"])
def test_section_images_decide_as_fraction_restrictions(n, d, maker):
    """Each integer section image (of _omega_image, in its order, and of
    _section_image on the listed and rescaling terms) is the Fraction
    restriction of the same section scaled by the line's column factors and
    a positive row factor.  So the two have the same rank, alone and with
    the listed and rescaling sections appended, and first_outside_span gives
    the same answer."""
    nv = n + 2
    rng = rng_for("images-%s" % maker)
    z = {"generic": random_generic_scheme, "very-special": _very_special_scheme,
         "special": lambda n, rng: _special_scheme(n, rng)[0]}[maker](n, rng)
    b, new = verifiers._omega_image(FamilyShape(n, d), z, rng)
    sections = by_terms(omega_basis_oracle(b))
    assert omega_basis(b) == omega_basis_oracle(b)
    old = [fraction_row(w, z) for w in sections]
    x0, x1 = HomogPoly.variable(nv, 0), HomogPoly.variable(nv, 1)
    extra = [EulerSection.single(nv, i, x1 * x1) for i in range(nv)]
    extra += [EulerSection.single(nv, j, x0 * x1) for j in range(1, nv)]
    extra += [x_alpha_oracle(nv, i) for i in (0, 1)]
    extra_terms = [{(i, _pair(nv, 1, 1)): 1} for i in range(nv)]
    extra_terms += [{(j, _pair(nv, 0, 1)): 1} for j in range(1, nv)]
    extra_terms += [verifiers._x_alpha(nv, i) for i in (0, 1)]
    assert [as_section(terms, nv) for terms in extra_terms] == extra
    new_extra = [_section_image(terms, z) for terms in extra_terms]
    old_extra = [fraction_row(sec, z) for sec in extra]
    assert all(isinstance(x, int) for v in new + new_extra for x in v)
    assert all(is_scaled_image(u, v, z) for u, v in zip(new + new_extra, old + old_extra))
    assert rank_sparse(new) == rank_sparse(old)
    assert rank_sparse(new + new_extra) == rank_sparse(old + old_extra)
    assert outside_index(new, new_extra) == outside_index(old, old_extra)
    half = len(new) // 2
    assert (outside_index(new[:half], new[half:] + new_extra)
            == outside_index(old[:half], old[half:] + old_extra))


@pytest.mark.parametrize("nv", [3, 4, 5, 6])
def test_x_alpha_terms_match_section_arithmetic(nv):
    for i in range(nv):
        assert as_section(verifiers._x_alpha(nv, i), nv) == x_alpha_oracle(nv, i)


@pytest.mark.parametrize("n, d", [(2, 6), (3, 8), (2, 5)])
def test_xi_special_terms_match_section_arithmetic(monkeypatch, n, d):
    """Every term dict xi-special hands to _section_image, in order, is the
    EulerSection it replaces: the w_ijk of the special member, the listed
    fields, x0 and x1 times the Euler field, the w_ijk of the very-special
    member, and the 3n+2 explicit generators with their c_ijk corrections."""
    nv = n + 2
    seen, members = [], []
    image, sample = _section_image, sample_b_through
    monkeypatch.setattr(verifiers, "_section_image",
                        lambda terms, line: seen.append(terms) or image(terms, line))
    monkeypatch.setattr(verifiers, "sample_b_through",
                        lambda *args: members.append(sample(*args)) or members[-1])
    verify_xi_special(n, d, rng_for("xi-terms%d%d" % (n, d)), trials=1)
    bs, bv = members

    def single(k, poly):
        return EulerSection.single(nv, k, poly)

    x0, x1 = HomogPoly.variable(nv, 0), HomogPoly.variable(nv, 1)
    listed = [single(i, x1 * x1) for i in range(nv)] + [single(j, x0 * x1) for j in range(1, nv)]
    explicit = [single(k, x0 * x1) for k in range(2, nv)]
    explicit += [single(k, x0 * x0) - single(0, (x0 * x1) * family.c_coeff(bv, 0, 1, k))
                 for k in range(1, nv)]
    explicit += [single(k, x1 * x1) - single(1, (x0 * x1) * family.c_coeff(bv, 1, 0, k))
                 for k in range(nv) if k != 1]
    want = (by_terms(omega_basis_oracle(bs)) + listed + [x_alpha_oracle(nv, i) for i in (0, 1)]
            + by_terms(omega_basis_oracle(bv)) + explicit)
    assert len(explicit) == 3 * n + 2
    assert [as_section(terms, nv) for terms in seen] == want


# ---------------------------------------------------------------------------
# coefficient systems

def test_systems_pass():
    rep = verify_generic_systems(2, 6, rng_for("sys"), trials=8)
    assert rep.verdict == PASS
    assert rep.dims["kernel_dim"] == 0


@pytest.mark.parametrize("lemma,seed", [("systems", 35), ("systems", 1000122),
                                         ("tangency", 1000075), ("tangency", 2516083234)])
def test_general_position_draws_have_no_zero_coefficient(lemma, seed):
    """These seeds once drew a degenerate "general" coefficient table (for
    systems, c013 = c103 = 0 at seed 1000122, and a vanishing 2x2
    determinant from small rationals at seed 35) and came out
    INDETERMINATE."""
    rep = run_lemma(lemma, 2, 6, 3, seed, 5)
    assert rep.verdict == PASS, rep.witness


SYMBOLIC_TABLE = {key: Fraction(1) for key in
                  [(i, j, k) for i in range(3) for j in range(4) for k in range(4)]}


def test_nine_by_six_shape():
    rows = _nine_by_six(SYMBOLIC_TABLE)
    assert len(rows) == 9 and all(len(row) == 6 for row in rows)


def test_system_keys_and_rows_follow_the_typed_reference():
    """The index rule gives the typed key list, in the order _draw_coeffs
    draws it, and the typed 9x6 rows entry for entry."""
    assert verifiers._SYSTEM_KEYS == SYSTEM_KEYS_REFERENCE
    assert _nine_by_six(SYMBOLIC_TABLE) == nine_by_six_reference(SYMBOLIC_TABLE)
    rng = rng_for("system rule")
    for t in range(200):
        c = verifiers._draw_coeffs(rng.split("draw%d" % t))
        assert _nine_by_six(c) == nine_by_six_reference(c)


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
    b, _ = _b_with_line_power(shape, z, m, rng)
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
        b = sample_b_through(shape, [z.p, z.q], rng)
        xif = restrict_poly(b.f_poly(), 6, z)
        if any(xif) and distinct_root_count(xif) >= 3:
            break
    rep = secant_obstruction(b, z)
    assert rep.verdict == PASS          # the three conditions agree: all false
    assert rep.dims["well_defined"] == 0
    assert rep.dims["dependent_pair"] == 0
    assert rep.dims["two_point_line"] == 0


def test_secant_rejects_special_scheme():
    shape = FamilyShape(2, 6)
    z, _ = _special_scheme(2, rng_for("ss"))
    b = sample_b_through(shape, [z.p, z.q], rng_for("ssb"))
    with pytest.raises(NonGenericScheme):
        secant_obstruction(b, z)


def test_secant_requires_scheme_on_member():
    """Off the member at p1, at p2, or at both, the computation refuses."""
    shape = FamilyShape(2, 6)
    z = random_generic_scheme(2, rng_for("off"))
    fermat = member_poly(DeformationPoint(shape))
    assert fermat.evaluate(z.p.coords) != 0 and fermat.evaluate(z.q.coords) != 0
    members = [DeformationPoint(shape),
               sample_b_through(shape, [z.p], rng_for("p1 only")),
               sample_b_through(shape, [z.q], rng_for("p2 only"))]
    for b, on in zip(members, [(False, False), (True, False), (False, True)]):
        f = member_poly(b)
        assert (f.evaluate(z.p.coords) == 0, f.evaluate(z.q.coords) == 0) == on
        with pytest.raises(ValueError):
            secant_obstruction(b, z)


def b_with_line_power_reference(shape, z, m, rng):
    """Oracle: the line-power system built from rational restrictions of the
    deformation monomials and of the Fermat part, solved with one draw."""
    nv, d = shape.nvars, shape.d
    restricted = [restrict_rational(HomogPoly.monomial(nv, f), z) for f in shape.jd]
    fermat = restrict_rational(member_poly(DeformationPoint(shape)), z)
    keep = [k for k in range(d + 1) if k != m]
    mat = Matrix([[col[k] for col in restricted] for k in keep], ncols=shape.N)
    rhs = [-fermat[k] for k in keep]
    sol = random_solution_reference(mat, rhs, rng.split("power0"))
    b = DeformationPoint(shape, dict(zip(shape.jd, sol)))
    assert restrict_rational(member_poly(b), z)[m], "no member with a nonzero top coefficient"
    return b


@pytest.mark.parametrize("n,d", [(2, 6), (3, 8)])
def test_line_power_member_matches_the_rational_system(n, d):
    """The integer-cache system gives the same member as the rational one,
    and hands over that member's restriction to the line."""
    shape = FamilyShape(n, d)
    for seed in range(3):
        z = random_generic_scheme(n, rng_for("line power", seed))
        got, xif = _b_with_line_power(shape, z, d // 2, rng_for("member", seed))
        want = b_with_line_power_reference(shape, z, d // 2, rng_for("member", seed))
        assert got.t == want.t
        assert xif == [got.den * x for x in restrict(member_poly(got), z)]
        assert monomial_index(xif) == d // 2


def test_member_systems_at_3_8_match_the_rref_reference():
    """random_solution on the columns of the member systems at (3, 8), the
    point rows through one and two points and the line-power system, gives
    the reference's solution for the same draws."""
    shape, m = FamilyShape(3, 8), 4
    for seed in range(2):
        z = random_generic_scheme(3, rng_for("systems at 3 8", seed))
        conditions = [point_condition(shape, p) for p in (z.p, z.q)]
        restricted = verifiers._xi_matrix_on(shape.jd, z)
        fermat = restrict_poly(DeformationPoint(shape).f_poly(), 8, z)
        keep = [k for k in range(9) if k != m]
        systems = [([row for row, _ in conditions[:k]], [rhs for _, rhs in conditions[:k]])
                   for k in (1, 2)]
        systems.append(([[col[k] for col in restricted] for k in keep],
                        [-fermat[k] for k in keep]))
        for rows, rhs in systems:
            mat = Matrix(rows, ncols=shape.N)
            got = exact.random_solution(list(zip(*rows)), rhs, rng_for("solve", seed))
            assert got == random_solution_reference(mat, rhs, rng_for("solve", seed))
            assert_solution_contract(mat, rhs, got)


def test_secant_without_a_three_point_secant_is_indeterminate(monkeypatch):
    """When the random secant drawn meets the member in fewer than three
    points, the lemma stops at that one draw as INDETERMINATE, with the
    reason naming it."""
    counts = []
    monkeypatch.setattr(verifiers, "distinct_root_count", lambda xif: counts.append(1) or 2)
    rep = verify_secant(2, 6, rng_for("no three"), trials=2)
    assert rep.verdict == INDETERMINATE
    assert rep.witness == {"reason": "the drawn secant meets the member in 2 < 3 "
                                     "distinct points"}
    assert rep.params == {"trials": 2, "m": 3}
    assert len(counts) == 1


def test_secant_keeps_one_line_cache_alive(monkeypatch):
    """Each secant trial draws a random line, then a constructed one, and
    each line fills its restriction cache in secant_obstruction (the random
    one) or _b_with_line_power (the constructed one).  When either starts,
    every line drawn before the current one is dead: the random line
    before the constructed one fills, the constructed one before the next
    trial's random line does."""
    lines, alive = [], []
    draw, obstruction, power = (verifiers.random_generic_scheme,
                                verifiers.secant_obstruction, verifiers._b_with_line_power)

    def drawing(n, rng):
        z = draw(n, rng)
        lines.append(weakref.ref(z))
        return z

    def checked(real):
        def run(*args, **kwargs):
            alive.append(sum(ref() is not None for ref in lines[:-1]))
            return real(*args, **kwargs)
        return run

    monkeypatch.setattr(verifiers, "random_generic_scheme", drawing)
    monkeypatch.setattr(verifiers, "secant_obstruction", checked(obstruction))
    monkeypatch.setattr(verifiers, "_b_with_line_power", checked(power))
    assert verify_secant(2, 6, rng_for("one cache"), trials=3).verdict == PASS
    assert len(lines) == 6 and alive == [0] * 9


def test_secant_wrapper():
    rep = verify_secant(2, 6, rng_for("wrap"), trials=2)
    assert rep.verdict == PASS
    assert rep.dims["euler_excess"] == 1


def secant_dims_reference(b, z):
    """Oracle: the secant obstruction's kernel dims and containment from
    canonical kernels of dense rho and etahat, the span of their union and
    contains_vector over a basis."""
    nv = b.shape.nvars
    rows = []
    for k, pt in enumerate((z.p, z.q)):
        for i in range(nv):
            for j in range(i + 1, nv):
                row = [0] * (2 * nv)
                row[2 * i + k] = pt.coords[j]
                row[2 * j + k] = -pt.coords[i]
                rows.append(row)
    ker_rho = kernel_basis_oracle(Matrix(rows))
    ker_eta = kernel_basis_oracle(matrix_of_columns(
        verifiers._motion_columns(b.f_partials(), b.shape.d, z, range(nv))))
    total = Subspace.from_vectors(2 * nv, ker_rho.basis_vectors() + ker_eta.basis_vectors())
    return {"ker_rho": ker_rho.dim, "ker_etahat": ker_eta.dim,
            "overlap": ker_rho.dim + ker_eta.dim - total.dim,
            "well_defined": int(all(contains_vector(ker_rho, v)
                                    for v in ker_eta.basis_vectors()))}


@pytest.mark.parametrize("n,d", [(2, 6), (3, 8), (2, 5), (3, 5)])
def test_secant_rank_dims_match_canonical_kernels(n, d):
    """The ranks of rho, etahat and both stacked give the same kernel dims,
    overlap and containment as canonical kernels, on constructed two-point
    lines and random secants, on and off the paper's degree."""
    shape = FamilyShape(n, d)
    seen = set()
    for seed in range(2):
        rng = rng_for("secant oracle", seed)
        z = random_generic_scheme(n, rng)
        for b in (_b_with_line_power(shape, z, d // 2, rng)[0],
                  sample_b_through(shape, [z.p, z.q], rng)):
            rep = secant_obstruction(b, z)
            want = secant_dims_reference(b, z)
            assert {key: rep.dims[key] for key in want} == want
            seen.add(want["well_defined"])
    # off the paper's degree the constructed line is not well defined either
    assert seen == ({0, 1} if d == 2 * n + 2 else {0})


def test_secant_names_disagreeing_conditions(monkeypatch):
    """With the first motion column zeroed, ker etahat on a constructed
    two-point line becomes that column's unit vector, outside ker rho: the
    kernel condition fails while the other two hold."""
    motion = verifiers._motion_columns

    def zero_first(*args):
        cols = motion(*args)
        return [[0] * len(cols[0])] + cols[1:]

    monkeypatch.setattr(verifiers, "_motion_columns", zero_first)
    _, b, z = make_two_point_config()
    rep = secant_obstruction(b, z)
    assert rep.verdict == FAIL
    assert rep.witness["reason"] == "equivalent conditions disagree"
    assert rep.witness["conditions"] == [0, 1, 1]
    assert (rep.dims["ker_etahat"], rep.dims["overlap"]) == (1, 0)


# ---------------------------------------------------------------------------
# incidence and tangency

def test_incidence_values():
    assert incidence_dimension(2, 6, 2) == 0
    assert incidence_dimension(2, 5, 2) == 1
    assert incidence_dimension(3, 8, 4) == 0
    for n in range(1, 7):
        for m in range(1, 2 * n + 2):
            assert incidence_dimension(n, 2 * n + 2, m) == 0


def test_incidence_bounds(monkeypatch):
    """incidence_dimension's ValueErrors come before any line is built."""
    with pytest.raises(ValueError):
        incidence_dimension(2, 6, 0)
    with pytest.raises(ValueError):
        incidence_dimension(2, 6, 6)
    rep = verify_incidence(3, 8, 4)
    assert rep.verdict == PASS and rep.dims["offset"] == 0
    built = []
    monkeypatch.setattr(verifiers, "Line", lambda *points: built.append(points))
    for n, m in ((0, 3), (2, 0), (2, 6)):
        with pytest.raises(ValueError):
            verify_incidence(n, 6, m)
    assert built == []


def test_incidence_fails_on_the_stratum_coordinate_line(monkeypatch):
    """Ranked on _stratum's coordinate line, the line-power conditions have
    rank at most d-3: the offset exceeds the count by 3 or more and
    incidence FAILs, naming both offsets."""
    monkeypatch.setattr(verifiers, "_line_power_columns", _on_the_stratum_line)
    for n, d in ((1, 4), (2, 6), (2, 5), (3, 8)):
        for m in range(1, d):
            formula = incidence_dimension(n, d, m)
            rep = verify_incidence(n, d, m)
            assert rep.verdict == FAIL
            assert rep.dims["offset"] >= formula + 3
            assert rep.witness == {"reason": "the line-power conditions are dependent",
                                   "system_offset": rep.dims["offset"],
                                   "formula_offset": formula}


def test_incidence_line_restricts_j_d_onto_every_binary_form(monkeypatch):
    """incidence ranks at the line where x_i restricts to s + i*t.  At n = 1
    the restrictions of J_d there span all d+1 coefficients, for
    4 <= d <= 24; the monomials of J_d in x_0, x_1, x_2 restrict the same
    way at every n, so removing entry m leaves rank d at every n."""
    lines = []
    real = verifiers._line_power_columns
    monkeypatch.setattr(verifiers, "_line_power_columns",
                        lambda jd, line, m: lines.append(line) or real(jd, line, m))
    for d in range(4, 25):
        assert verify_incidence(1, d, 1).verdict == PASS
        assert rank_sparse(verifiers._xi_matrix_on(gen_jd(1, d), lines[-1])) == d + 1
    for n in range(1, 5):
        verify_incidence(n, 2 * n + 2, 1)
        assert [lines[-1].integer_restriction(mono_times((0,) * (n + 2), i))
                for i in range(n + 2)] == [(1, i) for i in range(n + 2)]


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
    rep = tangency_deformation_dim(f.terms, line, 3)
    assert rep.verdict == PASS and rep.dims["deformations"] == 0


def test_tangency_degenerate_instance_moves():
    f, line = build_tangency_instance(zero_transverse=True)
    rep = tangency_deformation_dim(f.terms, line, 3)
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
    rep = tangency_deformation_dim(f.terms, line, m)
    vec = [Fraction(x) for x in rep.witness["moving_deformation"]]
    normals = rep.witness["normal_coordinates"]
    # delta f = sum_i v_i * restriction of dF/dx_i, v_i = vec[2i]*s + vec[2i+1]*t
    delta = [Fraction(0)] * (d + 1)
    for pos, i in enumerate(normals):
        base = restrict(f.partial(i), line)
        delta = form_add(delta, form_mul([vec[2 * pos], vec[2 * pos + 1]], base))
    allowed = {m - 1, m, m + 1}
    assert all(c == 0 for k, c in enumerate(delta) if k not in allowed)


def test_tangency_swap_multiplicities_same_dimension():
    f, line = build_tangency_instance(m=2)
    swapped, _ = build_tangency_instance(m=4)
    rep = tangency_deformation_dim(f.terms, line, 2)
    rep_swapped = tangency_deformation_dim(swapped.terms, line, 4)
    assert rep.dims["deformations"] == rep_swapped.dims["deformations"]


def test_tangency_precondition():
    f, line = build_tangency_instance()
    with pytest.raises(NotInTangencyStratum):
        tangency_deformation_dim(f.terms, line, 2)   # wrong multiplicity
    shape = FamilyShape(2, 6)
    g = DeformationPoint(shape).f_poly()
    with pytest.raises(NotInTangencyStratum):
        tangency_deformation_dim(g, line, 3)   # restriction is not a monomial


def test_tangency_wrapper():
    rep = verify_tangency(2, 6, 3, rng_for("tw"), trials=2)
    assert rep.verdict == PASS
    assert rep.dims["degenerate_deformations"] == 4


def test_tangency_and_incidence_pass_without_a_matrix(monkeypatch):
    """At (2, 6) the tangency system is ranked as integer rows: PASS runs of
    tangency and incidence construct no Matrix.  Nor does a PASS run of any
    other lemma but systems, at (2, 6) and (3, 8): the kernel claims rank by
    column_scan and take I_Z(1) and I_p(1) from it, and no PASS path builds
    a Subspace.  systems ranks its 9x6 rows with rank_sparse, so the only
    Matrix it builds is the 2x2 degenerate pair."""
    built = []
    for cls in (Matrix, Subspace):
        def recording(self, *args, init=cls.__init__, **kw):
            init(self, *args, **kw)
            shape = (self.nrows, self.ncols) if isinstance(self, Matrix) else None
            built.append((type(self), shape))
        monkeypatch.setattr(cls, "__init__", recording)
    for m in range(1, 6):
        assert verify_tangency(2, 6, m, rng_for("no matrix"), trials=2).verdict == PASS
        assert verify_incidence(2, 6, m).verdict == PASS
    assert built == []
    for n, d in ((2, 6), (3, 8)):
        for lemma in sorted(LEMMAS):
            built.clear()
            assert run_lemma(lemma, n, d, d // 2, 7, trials=2).verdict == PASS
            assert set(built) == ({(Matrix, (2, 2))} if lemma == "systems" else set()), lemma


def test_fail_witnesses_build_no_matrix(monkeypatch):
    """FAIL runs of the three kernel claims (first ideal-product row
    dropped) and of tangency (first system row dropped), at (2, 6) and
    (3, 8), construct no Matrix and no Subspace: their witnesses are free
    vectors of a column scan."""
    built = []
    for cls in (Matrix, Subspace):
        monkeypatch.setattr(cls, "__init__",
                            lambda self, *args, init=cls.__init__, **kw:
                            built.append(type(self)) or init(self, *args, **kw))
    for n, d in ((2, 6), (3, 8)):
        for lemma in (*KERNEL_CLAIMS, "tangency"):
            with monkeypatch.context() as mp:
                if lemma == "tangency":
                    mp.setattr(verifiers, "_tangency_system", _drop_first_tangency_row)
                else:
                    _drop_first_product(mp)
                rep = run_lemma(lemma, n, d, d // 2, 7, trials=2)
            assert rep.verdict == FAIL and rep.witness, (lemma, n, d)
            assert built == [], (lemma, n, d)


@pytest.mark.parametrize("n,d,m,vector", [
    (2, 5, 2, ["-213/98", "18/7", "-639/980", "1/1"]),
    (3, 6, 3, ["5832/8107", "-1146/8107", "2275/16214", "-2674/8107", "1/1", "0/1"])])
def test_tangency_moving_deformation_is_the_first_free_kernel_vector(n, d, m, vector):
    """A FAIL names the first free-variable kernel vector of the tangency
    system, in the order of Matrix.kernel_vectors; the values are pinned."""
    f, line = build_tangency_instance(n=n, d=d, m=m)
    rep = tangency_deformation_dim(f.terms, line, m)
    assert rep.verdict == FAIL
    assert rep.witness["moving_deformation"] == vector


@pytest.mark.parametrize("n,d,m", [(2, 6, 3), (2, 6, 1), (2, 5, 2), (3, 8, 4)])
def test_tangency_member_has_the_system_of_a_full_member(monkeypatch, n, d, m):
    """verify_tangency draws only the x0, x1 part of each g_i.  Its members
    have the tangency system of the full member that adds a random
    coefficient on every transverse term they lack, so they lack none that
    the line sees; at d = 2n+2 that system has full rank 2n."""
    members = []
    real = verifiers.tangency_deformation_dim

    def recording(terms, line, m):
        members.append(terms)
        return real(terms, line, m)

    monkeypatch.setattr(verifiers, "tangency_deformation_dim", recording)
    rep = verify_tangency(n, d, m, rng_for("full member"), trials=2)
    line, _ = _stratum(n, d, m)
    assert len(members) == 2
    for terms in members:
        rows, normals = _tangency_system(terms, d, line, m)
        full = full_tangency_member(terms, n + 2, d, rng_for("oracle"))
        assert _tangency_system(full, d, line, m) == (rows, normals)
        assert (rank_sparse(rows) == 2 * n) == (d == 2 * n + 2)
    assert (rep.verdict == PASS) == (d == 2 * n + 2)


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
        prev = tangency_deformation_dim(f.terms, line, m).dims["deformations"]
        for i in (2, 3):
            g = HomogPoly(nv, d - 1,
                          {mm: sample_rational(rng, 9) for mm in deg.members})
            f = f + HomogPoly.variable(nv, i) * g
            cur = tangency_deformation_dim(f.terms, line, m).dims["deformations"]
            assert cur <= prev
            prev = cur


def test_tangency_off_coordinate_line():
    # same computation on a non-coordinate line via a change of points
    n, d, m = 2, 6, 3
    rng = rng_for("offline")
    shape = FamilyShape(n, d)
    z = random_generic_scheme(n, rng)
    b, _ = _b_with_line_power(shape, z, m, rng)
    rep = tangency_deformation_dim(b.f_poly(), z, m)
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
    assert classify(z)["tag"] == "very-special"


def test_scheme_json_includes_class():
    from fermatlines.lines import scheme_json
    z = random_generic_scheme(2, rng_for("sj"))
    obj = scheme_json(z)
    assert set(obj) == {"p1", "p2", "class"}
    assert obj["class"]["tag"] == "generic"
    assert all("/" in c for c in obj["p1"])


# ---------------------------------------------------------------------------
# the trial runner shared by the sampled verifiers

def _run_sampled(outcomes, trials=3, rng=None):
    rng = rng_for("runner") if rng is None else rng
    return verifiers._sampled("demo", 2, 6, rng, trials, outcomes, m=3)


def test_runner_mixed_flags_are_indeterminate():
    def outcomes(subs):
        for t, _ in enumerate(subs):
            yield t != 1, {"t": t}, lambda: {}

    rep = _run_sampled(outcomes)
    assert rep.verdict == INDETERMINATE
    assert rep.dims == {"t": 0}
    assert rep.witness == {"trial": 1}
    assert rep.params == {"trials": 3, "m": 3}
    assert (rep.lemma, rep.n, rep.d, rep.seed) == ("demo", 2, 6, 7)


def test_runner_all_pass_and_all_fail():
    passed = _run_sampled(lambda subs: ((True, {}, None) for _ in subs))
    assert (passed.verdict, passed.witness) == (PASS, None)
    failed = _run_sampled(lambda subs: ((False, {"k": 1}, lambda: {"x": 0}) for _ in subs))
    assert failed.verdict == FAIL
    assert failed.witness == {"trial": 0, "x": 0}


def test_runner_calls_the_witness_thunk_once_for_the_first_failure():
    calls = []

    def witness(t):
        calls.append(t)
        return {"reason": "bad", "t": t}

    def outcomes(subs):
        for t, _ in enumerate(subs):
            yield t == 0, {"t": t}, lambda: witness(t)

    rep = _run_sampled(outcomes, trials=4)
    assert calls == [1]
    assert list(rep.witness) == ["trial", "reason", "t"]
    assert rep.witness == {"trial": 1, "reason": "bad", "t": 1}


def test_runner_yields_one_split_generator_per_trial():
    rng = rng_for("runner")
    expected = [rng.split("trial%d" % t).next_u64() for t in range(3)]
    seen = []

    def outcomes(subs):
        for sub in subs:
            seen.append(sub.next_u64())
            yield True, {}, None

    _run_sampled(outcomes)
    assert seen == expected


@pytest.mark.parametrize("error", [verifiers.InfeasibleSystem, NonGenericScheme,
                                   verifiers.LineInHypersurface])
def test_runner_infeasible_keeps_the_dims_gathered_so_far(error):
    def outcomes(subs):
        for t, _ in enumerate(subs):
            if t == 2:
                raise error("no solution")
            yield True, {"t": t}, None

    rep = _run_sampled(outcomes)
    assert rep.verdict == INFEASIBLE
    assert rep.dims == {"t": 0}
    assert rep.witness == {"reason": "no solution"}
    assert rep.params == {}


def test_runner_skipped_exit_is_indeterminate():
    def outcomes(subs):
        raise verifiers._Stop("scheme is generic; out of scope")
        yield

    rep = _run_sampled(outcomes)
    assert rep.verdict == INDETERMINATE
    assert rep.dims == {}
    assert rep.witness == {"reason": "scheme is generic; out of scope"}
    assert rep.params == {"trials": 3, "m": 3}


@pytest.mark.parametrize("error", [verifiers._Stop, verifiers.InfeasibleSystem])
def test_runner_ended_early_draws_no_later_trial(error):
    """An end at trial 1 of 4 leaves the lemma's rng split exactly twice."""
    def outcomes(subs):
        for t, _ in enumerate(subs):
            if t == 1:
                raise error("ended at trial 1")
            yield True, {"t": t}, None

    rng, fresh = rng_for("runner"), rng_for("runner")
    rep = _run_sampled(outcomes, trials=4, rng=rng)
    assert rep.verdict == (INDETERMINATE if error is verifiers._Stop else INFEASIBLE)
    assert rep.dims == {"t": 0}
    fresh.split("trial0")
    fresh.split("trial1")
    assert rng.next_u64() == fresh.next_u64()


def test_runner_setup_error_splits_nothing():
    def outcomes(subs):
        raise verifiers.InfeasibleSystem("setup failed")
        yield

    rng = rng_for("runner")
    rep = _run_sampled(outcomes, trials=4, rng=rng)
    assert (rep.verdict, rep.dims) == (INFEASIBLE, {})
    assert rep.witness == {"reason": "setup failed"}
    assert rng.next_u64() == rng_for("runner").next_u64()


SAMPLED = ["w-basis", "kernel-generic", "kernel-special", "xi-special", "xi-generic",
           "systems", "secant", "tangency"]


@pytest.mark.parametrize("lemma", SAMPLED)
def test_sampled_dims_are_trial_zeros_whatever_the_trial_count(lemma):
    """Trial 0 draws from its own rng.split("trial0"), so the dims kept do
    not depend on how many trials follow it."""
    one = run_lemma(lemma, 2, 6, 3, 0, trials=1)
    three = run_lemma(lemma, 2, 6, 3, 0, trials=3)
    assert one.params["trials"] == 1 and three.params["trials"] == 3
    assert one.dims == three.dims


def test_sampled_runs_exactly_the_claims_that_draw(monkeypatch):
    """run_lemma sends each of the eight claims that draw through _sampled
    once, and point-ideal and incidence, which draw nothing, never: they
    decide once, and their stripped reports do not depend on trials."""
    seen = []
    real = verifiers._sampled

    def recording(lemma, *args, **params):
        seen.append(lemma)
        return real(lemma, *args, **params)

    monkeypatch.setattr(verifiers, "_sampled", recording)
    for lemma in LEMMAS:
        run_lemma(lemma, 2, 6, 3, 0, trials=1)
    assert seen == SAMPLED
    seen.clear()
    for lemma in ("point-ideal", "incidence"):
        one, three = (run_lemma(lemma, 2, 6, 3, 0, trials=t).to_json_obj() for t in (1, 3))
        for rep in (one, three):
            rep.pop("elapsed_ms")
        assert json.dumps(one) == json.dumps(three)
    assert seen == []


def test_runner_lets_other_exceptions_propagate():
    def outcomes(subs):
        raise ValueError("library misuse")
        yield

    with pytest.raises(ValueError, match="library misuse"):
        _run_sampled(outcomes)
    # library misuse inside a sampled verifier still raises
    with pytest.raises(ValueError, match="multiplicity"):
        verify_tangency(2, 6, 0, rng_for("tm"), trials=1)
