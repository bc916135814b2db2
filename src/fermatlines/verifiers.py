"""One verifier per finite linear-algebra claim about the family.

Each verifier returns a LemmaReport with an exact verdict, the dimensions it
computed, and (on failure) an exact witness.  Claims quantified over a
general member of the family are sampled: a claim PASSes when it holds for
every one of `trials` independent random draws, FAILs when it holds for
none, and is INDETERMINATE otherwise.  A member's free coordinates are
integers from [-DRAW, DRAW] (exact.random_solution), so a bad locus of
degree D is hit with probability at most D/(2*DRAW+1) (Schwartz-Zippel).
The coefficients that `systems` and `tangency` draw are the nonzero
integers of that range, where the same bound holds with 2*DRAW in place of
2*DRAW+1.

The protocol is implemented once, by the `_Trials` runner.  The three
kernel claims build their generator rows with one builder, `_ideal_rows`,
whose order is the order in which exact.kernel_span_dims eliminates them,
as given and in place, and share `_kernel_is_span`.

`systems` builds its coefficient keys c_ijk and its 9x6 integer rows from
one index rule over the unknowns a_ij x_i^2 d/dx_j (`_SYSTEM_UNKNOWNS`,
`_SYSTEM_ROWS`, `_SYSTEM_KEYS`) and ranks the rows with
exact.rank_sparse; the 2x2 degenerate pair is the one Matrix a verifier
builds.
"""

from __future__ import annotations

import json
import time
from fractions import Fraction
from math import comb

from .errors import (CoordinatePointError, InfeasibleSystem, LineInHypersurface,
                     NonGenericScheme, NotInTangencyStratum)
from .exact import (DRAW, Matrix, ZERO, clear_denominators, column_scan, first_outside_span,
                    format_fraction, free_vectors, kernel_basis, kernel_span_dims,
                    rank_sparse, sample_rational, random_solution)
from .family import (DeformationPoint, FamilyShape, c_coeff, family_shape, omega_terms,
                     sample_b_through)
from .lines import (Line, ProjPoint, classify, distinct_root_count, ip_linear,
                    iz_linear, monomial_index, restrict_poly, scheme_json)
from .poly import (all_monomials, gen_jd, integer_monomial_values, mono_mul, mono_times,
                   term_partials)
from .rng import Rng

PASS = "PASS"
FAIL = "FAIL"
INDETERMINATE = "INDETERMINATE"
INFEASIBLE = "INFEASIBLE"

# Draws of a generic scheme before random_generic_scheme or the
# three-independent shape gives up: height-9 rational points do land on
# their bad loci.
_GENERIC_ATTEMPTS = 60
# Height bound of the rationals in sampled points and scheme parameters.
_SAMPLE_BOUND = 9


class LemmaReport:
    """Structured outcome of one verifier run."""

    def __init__(self, lemma: str, n: int, d: int, seed: int, verdict: str, dims: dict,
                 witness: dict | None = None, elapsed_ms: int = 0, params: dict | None = None):
        self.lemma, self.n, self.d, self.seed = lemma, n, d, seed
        self.verdict, self.dims, self.witness = verdict, dims, witness
        self.elapsed_ms, self.params = elapsed_ms, {} if params is None else params

    def to_json_obj(self) -> dict:
        obj = {
            "lemma": self.lemma,
            "n": self.n,
            "d": self.d,
            "seed": self.seed,
            "verdict": self.verdict,
            "dims": self.dims,
            "witness": self.witness,
            "elapsed_ms": self.elapsed_ms,
        }
        if self.params:
            obj["params"] = self.params
        return obj

    def to_json(self) -> str:
        return json.dumps(self.to_json_obj())


def protocol_verdict(flags) -> str:
    flags = list(flags)
    if not flags:
        return INDETERMINATE
    if all(flags):
        return PASS
    if not any(flags):
        return FAIL
    return INDETERMINATE


def _vec_json(v):
    return [format_fraction(x) for x in v]


def _sparse_json(v, size):
    """_vec_json of the sparse vector v {column: value} of length size."""
    return _vec_json(v.get(j, 0) for j in range(size))


def _ms_since(t0: float) -> int:
    return int((time.perf_counter() - t0) * 1000)


class _Stop(Exception):
    """`raise _Stop(reason, params)` ends a sampled run early as
    INDETERMINATE with those params."""


class _Trials:
    """The sampling protocol shared by the sampled verifiers.

    Used as `with _Trials(...) as run:`, iterating `for sub in run:` over
    one sub-generator per trial and calling `run.record` once per trial;
    `run.report` holds the LemmaReport after the block.  The run is timed
    as a whole.  The first trial's dims are kept, and the witness thunk is
    called only for the first failing trial.  InfeasibleSystem,
    NonGenericScheme and LineInHypersurface end the run as INFEASIBLE with
    the dims gathered so far, and _Stop ends it as INDETERMINATE.  Any other
    exception propagates.
    """

    def __init__(self, lemma: str, n: int, d: int, rng: Rng, trials: int, **params):
        self.lemma, self.n, self.d, self.rng, self.trials = lemma, n, d, rng, trials
        self.params = {"trials": trials, **params}
        self.flags = []
        self.dims = {}
        self.witness = None

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __iter__(self):
        for t in range(self.trials):
            self.t = t
            yield self.rng.split("trial%d" % t)

    def record(self, ok: bool, dims: dict, witness) -> None:
        self.flags.append(ok)
        if not self.dims:
            self.dims = dims
        if not ok and self.witness is None:
            self.witness = {"trial": self.t, **witness()}

    def __exit__(self, exc_type, exc, tb):
        if exc_type is None:
            verdict, witness, params = protocol_verdict(self.flags), self.witness, self.params
        elif issubclass(exc_type, (InfeasibleSystem, NonGenericScheme, LineInHypersurface)):
            verdict, witness, params = INFEASIBLE, {"reason": str(exc)}, {}
        elif issubclass(exc_type, _Stop):
            verdict, witness, params = INDETERMINATE, {"reason": exc.args[0]}, exc.args[1]
        else:
            return False
        self.report = LemmaReport(self.lemma, self.n, self.d, self.rng.origin_seed,
                                  verdict, self.dims, witness, _ms_since(self.t0), params)
        return True


# ---------------------------------------------------------------------------
# random construction helpers

def _nonzero_sample(rng: Rng, bound: int = _SAMPLE_BOUND) -> Fraction:
    while True:
        q = sample_rational(rng, bound)
        if q != 0:
            return q


def _nonzero_draw(rng: Rng) -> int:
    """A nonzero integer from [-DRAW, DRAW], redrawn while zero."""
    v = 0
    while not v:
        v = rng.randint(-DRAW, DRAW)
    return v


def _random_point(nvars: int, rng: Rng) -> ProjPoint:
    while True:
        coords = [sample_rational(rng, _SAMPLE_BOUND) for _ in range(nvars)]
        if any(x != 0 for x in coords):
            return ProjPoint(coords)


def random_generic_scheme(n: int, rng: Rng) -> Line:
    nv = n + 2
    for _ in range(_GENERIC_ATTEMPTS):
        p1 = _random_point(nv, rng)
        p2 = _random_point(nv, rng)
        if p1 == p2:
            continue
        # a line through a coordinate point is never generic: dropping its
        # one nonzero coordinate leaves a zero row
        z = Line(p1, p2)
        if classify(z)["tag"] == "generic":
            return z
    raise NonGenericScheme("failed to sample a generic length-2 scheme")


def _two_distinct_nonzero(rng: Rng):
    """(u, v): two distinct nonzero samples, v redrawn until it differs."""
    u = _nonzero_sample(rng)
    v = _nonzero_sample(rng)
    while v == u:
        v = _nonzero_sample(rng)
    return u, v


def _line_over(u, v, coeffs) -> Line:
    """The line through (1, u, ...) and (1, v, ...) on which x_j restricts
    to a_j x_0 + b_j x_1, for (a_j, b_j) the (j-2)-th pair of `coeffs`."""
    return Line(*(ProjPoint([1, w] + [a + b * w for a, b in coeffs]) for w in (u, v)))


def _special_scheme(n: int, rng: Rng):
    """(scheme, {j: c_j}): a special but not very special scheme in
    normalized position, and its multipliers.

    Points (1, u, c_2 u, ..., c_{n+1} u) and (1, v, c_2 v, ...): every
    coordinate past x_1 restricts to c_j x_1, with the nonzero multipliers
    packed first so classify's normalization permutation is trivial, and
    neither point is a coordinate point.
    """
    u, v = _two_distinct_nonzero(rng)
    k = rng.randint(1, n)
    cmap = {j: _nonzero_sample(rng) if j < k + 2 else ZERO for j in range(2, n + 2)}
    return _line_over(u, v, [(ZERO, c) for c in cmap.values()]), cmap


def _very_special_scheme(n: int, rng: Rng) -> Line:
    return _line_over(*_two_distinct_nonzero(rng), [(ZERO, ZERO)] * n)


def _generic_scheme_three_independent(n: int, rng: Rng) -> Line:
    """Generic scheme where x0, x1, x2 restrict pairwise independently."""
    for _ in range(_GENERIC_ATTEMPTS):
        z = random_generic_scheme(n, rng)
        if all(rank_sparse([(p.ints[i], p.ints[j]) for p in (z.p, z.q)]) == 2
               for i, j in ((0, 1), (1, 2), (0, 2))):
            return z
    raise NonGenericScheme("failed to sample the three-independent shape")


def _generic_scheme_split_shape(n: int, rng: Rng) -> Line:
    """Scheme where x_j (j >= 2) is a nonzero multiple of x0 on Z at even j
    and of x1 at odd j; u and v are redrawn together until they differ.

    For n >= 2 it is generic: x0, x1 restrict independently, and so do x0,
    x3 (dropping x1) and x1, x2 (dropping x0)."""
    u, v = _nonzero_sample(rng), _nonzero_sample(rng)
    while u == v:
        u, v = _nonzero_sample(rng), _nonzero_sample(rng)
    es = [_nonzero_sample(rng) for _ in range(n)]
    return _line_over(u, v, [(ZERO, e) if j % 2 else (e, ZERO) for j, e in enumerate(es)])


# ---------------------------------------------------------------------------
# basis of the distinguished quadratic sections

def _x_alpha(nv: int, i: int):
    """x_i times the Euler field, as sparse terms."""
    return {(c, mono_times((0,) * nv, i, c)): 1 for c in range(nv)}


def _terms_row(terms, deg2):
    """The sparse row of a quadratic section with sparse terms
    {(component, exponents): coefficient}: its coefficient of
    deg2[k] d/dx_j sits at column j*len(deg2) + k."""
    return {c * len(deg2) + deg2.index[e]: v for (c, e), v in terms.items()}


def _w_basis_rows(b: DeformationPoint, deg2):
    """Sparse integer rows {column: coefficient}, one per degree-(d+1)
    monomial outside the deformation index set (some exponent >= d): column
    j*len(deg2) + k holds the coefficient there of eta(deg2[k] d/dx_j), and
    column nv*len(deg2) + i that of x_i*F.  So a section w with coefficient
    vector v on `deg2` has eta(w) in the deformation span exactly when every
    row, restricted to the section columns, is orthogonal to v.  The rows
    are read off the member's integer terms, den * F and its partials."""
    nv, d = b.shape.nvars, b.shape.d
    rows = {}
    for j, partial in enumerate(b.f_partials()):
        for mm, c in partial.items():
            if max(mm) + 2 < d:
                continue  # x^mu, of degree 2, cannot lift an exponent to d
            for k, mu in enumerate(deg2.members):
                m = mono_mul(mu, mm)
                if max(m) >= d:
                    rows.setdefault(m, {})[j * len(deg2) + k] = c
    for mm, c in b.f_poly().items():
        if max(mm) + 1 < d:
            continue
        for i in range(nv):
            m = mono_times(mm, i)
            if max(m) >= d:
                rows.setdefault(m, {})[nv * len(deg2) + i] = c
    return list(rows.values())


def _eta_in_span(rows, vec) -> bool:
    """Whether the section with sparse row `vec` (of `_terms_row`) lies in
    the kernel of the section block of `_w_basis_rows`."""
    return all(sum(x * row[k] for k, x in vec.items() if k in row) == 0 for row in rows)


def verify_w_basis(n: int, d: int, rng: Rng, trials: int = 5) -> LemmaReport:
    """The sections w_ijk contract into the degree-(d+1) deformation span,
    are independent, and together with the Euler-field multiples exhaust the
    sections that do so (modulo multiples of the defining polynomial)."""
    with _Trials("w-basis", n, d, rng, trials) as run:
        shape = family_shape(n, d)
        nv = n + 2
        deg2 = all_monomials(nv, 2)
        expected_basis = nv * comb(nv, 2)
        expected_total = expected_basis + nv
        n_unknowns = nv * len(deg2)
        alpha_rows = [_terms_row(_x_alpha(nv, i), deg2) for i in range(nv)]

        for sub in run:
            b = sample_b_through(shape, [], sub)
            omega_rows = [_terms_row(terms, deg2) for terms in omega_terms(b)]
            rank_omega = rank_sparse(omega_rows)
            rank_family = rank_sparse(omega_rows + alpha_rows)

            # eta of the Euler field is d*F (Euler's identity), read off
            # the exponent shifts of the integer partials
            euler = {}
            for j, partial in enumerate(b.f_partials()):
                for mm, c in partial.items():
                    m = mono_times(mm, j)
                    euler[m] = euler.get(m, 0) + c
            euler_ok = ({m: c for m, c in euler.items() if c}
                        == {m: d * c for m, c in b.f_poly().items()})

            # kernel of (eta followed by the quotient collapsing the
            # deformation span and multiples of F), on the (n+2)^2
            # coordinates outside the deformation index set
            rows = _w_basis_rows(b, deg2)
            membership = all(_eta_in_span(rows, v) for v in omega_rows)
            f_block_rank = rank_sparse({k: c for k, c in row.items() if k >= n_unknowns}
                                       for row in rows)
            kernel_total = (n_unknowns + nv) - rank_sparse(rows)

            ok = (membership and rank_omega == expected_basis == len(omega_rows)
                  and euler_ok and f_block_rank == nv
                  and rank_family == expected_total
                  and kernel_total == expected_total)
            run.record(ok, {"basis": len(omega_rows), "kernel_total": kernel_total},
                       lambda: {"reason": "membership" if not membership else "dimension",
                                "rank_basis": rank_omega, "kernel_total": kernel_total,
                                "b": json.loads(b.to_json())["t"]})
    return run.report


# ---------------------------------------------------------------------------
# kernel of restriction on the deformation span

def _xi_matrix_on(monomials, line: Line):
    """The restriction map's columns: each monomial's restriction to the
    line, the line's own cached integer tuple."""
    return [line.integer_restriction(m) for m in monomials]


def _ideal_rows(pairs, target):
    """The sparse integer rows {position in target of x_i*h: L_i} of the
    products L*h, for each pair (L, lower) of an integer linear form L and
    monomials h one degree below target's (lower is only asked `h in
    lower`), in the order kernel_span_dims eliminates them.

    Target descends, so the leftmost column of L*h is x_k*h, k the first
    variable of L.  One walk of target meets each row at that column, the
    pairs in the order given: the first pair with a row there gives a first
    row, any other goes behind every first row.  That is a stable sort of
    the rows, pair by pair, by leftmost column, with the first row of each
    column moved ahead of the rest; each first row is a new pivot row as it
    comes."""
    index = target.index
    leads = [next(i for i, c in enumerate(form) if c) for form, _ in pairs]
    firsts, rest = [], []
    for t in target:
        rows = firsts
        for (form, lower), k in zip(pairs, leads):
            if t[k] and (h := t[:k] + (t[k] - 1,) + t[k + 1:]) in lower:
                rows.append({index[mono_times(h, i)]: c for i, c in enumerate(form) if c})
                rows = rest
    firsts += rest
    return firsts


def _kernel_is_span(columns, gens):
    """Decide whether the kernel of the map with these columns is span(gens).

    Returns (equal, kernel_dim, span_dim, outside), from one
    kernel_span_dims call, which eliminates the generator rows once, in
    the order given and in place (they are spent), and computes m·g once
    per generator.  When the claim fails, `outside()` gives, as JSON, the
    first vector of the kernel's reduced echelon basis outside the span
    (kernel_basis, one sparse vector at a time, each reduced against that
    call's echelon form), else the first generator g with m·g != 0; one of
    the two exists.  When it holds, `outside` is a
    thunk with no closure, so no echelon form outlives its trial.
    """
    kernel_dim, echelon, escaped = kernel_span_dims(columns, gens)
    if escaped is None and len(echelon) == kernel_dim:
        return True, kernel_dim, kernel_dim, lambda: None

    def outside():
        basis = kernel_basis(columns, len(columns[0]) if columns else 0)
        return _sparse_json(first_outside_span(echelon, basis) or escaped, len(columns))

    return False, kernel_dim, len(echelon), outside


def verify_kernel_generic(n: int, d: int, rng: Rng, trials: int = 5) -> LemmaReport:
    """For a generic scheme, the part of the deformation span vanishing on
    the line is exactly (linear forms of Z) * (deformation span one degree
    down), and the quotient maps isomorphically onto the degree-d forms on
    the line (dimension d+1)."""
    with _Trials("kernel-generic", n, d, rng, trials) as run:
        jd = family_shape(n, d).jd
        jdm1 = gen_jd(n, d - 1)
        for sub in run:
            z = random_generic_scheme(n, sub)
            xi = _xi_matrix_on(jd, z)
            rows = _ideal_rows([(form, jdm1) for form in iz_linear(z)], jd)
            equal, kernel_dim, span_dim, outside = _kernel_is_span(xi, rows)
            qrank = len(xi) - kernel_dim
            run.record(equal and qrank == d + 1,
                       {"lhs": span_dim, "rhs": kernel_dim, "quotient": qrank},
                       lambda: {"reason": "subspace mismatch",
                                "lhs": span_dim, "rhs": kernel_dim,
                                "scheme": scheme_json(z), "vector": outside()})
    return run.report


def verify_kernel_special(n: int, d: int, rng: Rng, trials: int = 5) -> LemmaReport:
    """For a special-but-not-very-special scheme in normalized position, the
    kernel of restriction on the deformation span is the ideal part plus the
    explicit generators x0^(d-2) x_i (x_j - c_j x_1), i >= 1, j >= 2: the
    products of den(c_j) x_j - num(c_j) x_1, a form of I_Z(1), with
    x0^(d-2) x_i, listed after I_Z(1)'s own."""
    with _Trials("kernel-special", n, d, rng, trials) as run:
        jd = family_shape(n, d).jd
        jdm1 = gen_jd(n, d - 1)
        lows = {mono_times((d - 2,) + (0,) * (n + 1), i) for i in range(1, n + 2)}
        for sub in run:
            z, cmap = _special_scheme(n, sub)
            xi = _xi_matrix_on(jd, z)
            forms = [[0, -c.numerator] + [c.denominator * (i == j) for i in range(2, n + 2)]
                     for j, c in cmap.items()]
            rows = _ideal_rows([(form, jdm1) for form in iz_linear(z)]
                               + [(form, lows) for form in forms], jd)
            equal, kernel_dim, span_dim, outside = _kernel_is_span(xi, rows)
            run.record(equal,
                       {"lhs": kernel_dim, "rhs": span_dim,
                        "extra_generators": len(forms) * len(lows)},
                       lambda: {"reason": "subspace mismatch",
                                "lhs": kernel_dim, "rhs": span_dim,
                                "scheme": scheme_json(z), "vector": outside()})
    return run.report


# ---------------------------------------------------------------------------
# point-ideal intersection inside the next deformation span

def verify_point_ideal(n: int, d: int, rng: Rng, p: ProjPoint | None = None,
                       trials: int = 5) -> LemmaReport:
    """Vanishing at one non-coordinate point cuts the degree-(d+1)
    deformation span down to (linear forms at p) * (deformation span), of
    codimension exactly one.  The same space splits through any two-point
    scheme Z supported at p plus one extra linear form s: I_Z(1) is an
    n-dimensional part of the (n+1)-dimensional I_p(1), so for s in I_p(1)
    outside it span(I_Z(1) + s) = I_p(1), and the split span is the point
    span itself (l*g is linear in l).  Every trial records the one point
    decision."""
    with _Trials("point-ideal", n, d, rng, trials) as run:
        if p is None:
            p = ProjPoint([Fraction(1)] * (n + 2))
        if p.is_coordinate_point():
            raise CoordinatePointError("the statement excludes coordinate points")
        jd = family_shape(n, d).jd
        jd1 = gen_jd(n, d + 1)
        ambient = len(jd1)
        # the columns of the rational values at p = X / D, X = p.ints, times
        # D^(d+1) > 0: the same kernel and canonical witness basis
        evaluation = [(v,) for v in integer_monomial_values(jd1, p.ints)]
        rows = _ideal_rows([(form, jd) for form in ip_linear(p)], jd1)
        equal, kernel_dim, span_dim, outside = _kernel_is_span(evaluation, rows)
        ok = equal and kernel_dim == ambient - 1
        dims = {"lhs": kernel_dim, "rhs": span_dim, "codim": ambient - kernel_dim}
        for _ in run:
            run.record(ok, dims, lambda: {"reason": "point part", "vector": outside()})
    return run.report


# ---------------------------------------------------------------------------
# images of the quadratic sections on the line

def _section_image(terms, line: Line):
    """Image on the line of the quadratic section with sparse terms
    {(component, exponents): coefficient}: entry 3*comp + k sums the
    section's integer numerators times line.integer_restriction(exps)[k]:
    the restriction along the line's integer points (see Line) times one
    positive factor, so ranks and span membership are those of the
    rational sections."""
    nums, _ = clear_denominators(terms.values())
    vec = [0] * (3 * line.nvars)
    for (comp, exps), c in zip(terms, nums):
        for k, v in enumerate(line.integer_restriction(exps), 3 * comp):
            vec[k] += c * v
    return vec


def _omega_image(shape: FamilyShape, z: Line, rng: Rng):
    """(b, vectors): a member b through Z and the images on Z's line of its
    quadratic sections w_ijk.  The one-term (uncorrected) sections come
    first: their small integer rows become the pivots, and the corrected
    w_iik, whose entries carry the c_ijk, are reduced against them."""
    b = sample_b_through(shape, [z.p, z.q], rng)
    return b, [_section_image(terms, z) for terms in sorted(omega_terms(b), key=len)]


def verify_xi_special(n: int, d: int, rng: Rng, trials: int = 5) -> LemmaReport:
    """Restriction of the quadratic sections to the line of a special
    scheme: contains the listed monomial fields and fills the full quotient
    by the rescaling directions; for a very special scheme it equals the
    explicit (3n+2)-dimensional span."""
    with _Trials("xi-special", n, d, rng, trials) as run:
        if n < 2:
            raise InfeasibleSystem("needs n >= 2")
        shape = family_shape(n, d)
        nv = n + 2
        amb = 3 * nv
        x00, x01, x11 = (mono_times((0,) * nv, i, j) for i, j in ((0, 0), (0, 1), (1, 1)))
        listed = [{(i, x11): 1} for i in range(nv)] + [{(j, x01): 1} for j in range(1, nv)]
        for sub in run:
            zs, _ = _special_scheme(n, sub)
            _, svecs = _omega_image(shape, zs, sub)
            xi_w_special = rank_sparse(svecs)
            member_ok = rank_sparse(
                svecs + [_section_image(terms, zs) for terms in listed]) == xi_w_special
            # the Euler field times x0 and x1 spans the two rescaling
            # directions: x0 and x1 restrict independently, as u != v
            rescale = [_section_image(_x_alpha(nv, i), zs) for i in (0, 1)]
            total = rank_sparse(svecs + rescale)
            quotient_rank = total - 2
            surjective = total == amb

            zv = _very_special_scheme(n, sub)
            bv, vv = _omega_image(shape, zv, sub)
            explicit = [{(k, x01): 1} for k in range(2, nv)]
            explicit += [{(k, x00): 1, (0, x01): -c_coeff(bv, 0, 1, k)} for k in range(1, nv)]
            explicit += [{(k, x11): 1, (1, x01): -c_coeff(bv, 1, 0, k)}
                         for k in range(nv) if k != 1]
            ev = [_section_image(terms, zv) for terms in explicit]
            xi_w_very_special = rank_sparse(vv)
            # equal spans of dimension 3n+2: both ranks equal that of the union
            vs_ok = (xi_w_very_special == rank_sparse(ev) == rank_sparse(vv + ev)
                     == 3 * n + 2)

            run.record(member_ok and surjective and vs_ok,
                       {"target_quotient": amb - 2,
                        "quotient_rank": quotient_rank,
                        "xi_w_special": xi_w_special,
                        "xi_w_very_special": xi_w_very_special},
                       lambda: {"reason": ("listed field missing" if not member_ok else
                                           "quotient not filled" if not surjective else
                                           "very-special span mismatch"),
                                "quotient_rank": quotient_rank,
                                "very_special_dim": xi_w_very_special,
                                "scheme": scheme_json(zs if not (member_ok and surjective)
                                                      else zv)})
    return run.report


def verify_xi_generic(n: int, d: int, rng: Rng, trials: int = 5) -> LemmaReport:
    """For generic schemes the quadratic sections restrict onto the whole
    3(n+2)-dimensional space of quadratic sections on the line; both shapes
    of generic scheme are exercised."""
    with _Trials("xi-generic", n, d, rng, trials) as run:
        if n < 2:
            raise InfeasibleSystem("needs n >= 2")
        shape = family_shape(n, d)
        nv = n + 2
        amb = 3 * nv
        for sub in run:
            ranks = [rank_sparse(_omega_image(shape, maker(n, sub), sub)[1])
                     for maker in (_generic_scheme_three_independent,
                                   _generic_scheme_split_shape)]
            run.record(all(rk == amb for rk in ranks),
                       {"rank": ranks[0], "target": amb, "basis": nv * comb(nv, 2)},
                       lambda: {"reason": "restriction not surjective",
                                "ranks": ranks, "target": amb})
    return run.report


# ---------------------------------------------------------------------------
# the self-contained coefficient systems

# The unknowns (i, j) of a_ij x_i^2 d/dx_j, i != j in {0, 1, 2}; the rows
# (i, k), k != i in {0, ..., 3}: the three k = 3 rows, then by i and k,
# which for k <= 2 is the order of the unknowns; and the drawn keys c_ijk:
# c_ij3 per unknown, then each c_ijk with j <= k <= 2 and i outside {j, k}
# (the table is symmetric in j, k), by i, j, k.
_SYSTEM_UNKNOWNS = [(i, j) for i in range(3) for j in range(3) if i != j]
_SYSTEM_ROWS = [(i, 3) for i in range(3)] + _SYSTEM_UNKNOWNS
_SYSTEM_KEYS = ([(i, j, 3) for i, j in _SYSTEM_UNKNOWNS]
                + [(i, j, k) for i in range(3) for j in range(3) for k in range(j, 3)
                   if i not in (j, k)])


def _draw_coeffs(rng: Rng):
    """Random coefficient table c[i, j, k], symmetric in the last two slots,
    of nonzero integers from [-DRAW, DRAW]: the 2x2 determinant pair, of
    degree 2, vanishes with probability at most 2/(2*DRAW) unless it
    vanishes identically."""
    c = {}
    for (i, j, k) in _SYSTEM_KEYS:
        c[(i, j, k)] = c[(i, k, j)] = _nonzero_draw(rng)
    return c


def _nine_by_six(c):
    """The reduced 9-equation system in the unknowns a_ij x_i^2 d/dx_j,
    as integer rows: row (i, k) holds 1 at a_ik (k <= 2), c_ijk at a_ji
    for each j != i, and 0 elsewhere."""
    return [[c[(i, j, k)] if l == i else int((j, l) == (i, k)) for j, l in _SYSTEM_UNKNOWNS]
            for i, k in _SYSTEM_ROWS]


def _two_by_two(c022, c200, a) -> Matrix:
    """Degenerate-pair system in x0^2 d/dx_0 and x0^2 d/dx_2 when x2 = a*x0
    on the scheme; singular exactly when c022*c200 = 1."""
    return Matrix([[-a * c022, Fraction(1)], [a * a, -a * c200]])


def verify_generic_systems(rng: Rng, draws: int = 5, singular_draws: int = 5,
                           n: int = 2, d: int = 6) -> LemmaReport:
    """The 9x6 coefficient system has trivial kernel for general
    coefficients; the 2x2 determinant pair is nonzero for general draws; and
    the degenerate-pair system is singular exactly on c022*c200 = 1."""
    t0 = time.perf_counter()
    flags = []
    witness = None
    max_kernel = 0
    for t in range(draws):
        sub = rng.split("draw%d" % t)
        c = _draw_coeffs(sub)
        kdim = len(_SYSTEM_UNKNOWNS) - rank_sparse(_nine_by_six(c))
        max_kernel = max(max_kernel, kdim)
        det2 = (c[(1, 0, 2)] * c[(0, 1, 3)] - c[(0, 1, 2)] * c[(1, 0, 3)])
        a = _nonzero_sample(sub)
        pair = _two_by_two(c[(0, 2, 2)], c[(2, 0, 0)], a)
        singular = pair.rank() < 2
        predicted = c[(0, 2, 2)] * c[(2, 0, 0)] == 1
        ok = kdim == 0 and det2 != 0 and singular == predicted
        flags.append(ok)
        if not ok and witness is None:
            witness = {"draw": t, "kernel_dim": kdim,
                       "det_pair": format_fraction(det2)}
    forced_ok = True
    for t in range(singular_draws):
        sub = rng.split("singular%d" % t)
        c022 = _nonzero_sample(sub, 20)
        a = _nonzero_sample(sub)
        pair = _two_by_two(c022, 1 / c022, a)
        kdim = 2 - pair.rank()
        if kdim != 1:
            forced_ok = False
            if witness is None:
                witness = {"singular_draw": t, "kernel_dim": kdim,
                           "c022": format_fraction(c022)}
    verdict = protocol_verdict(flags)
    if not forced_ok:
        verdict = FAIL
    dims = {"system_rows": len(_SYSTEM_ROWS), "system_cols": len(_SYSTEM_UNKNOWNS),
            "draws": draws, "singular_draws": singular_draws, "kernel_dim_max": max_kernel}
    return LemmaReport("systems", n, d, rng.origin_seed, verdict, dims,
                       witness, _ms_since(t0), {})


# ---------------------------------------------------------------------------
# secant-line obstruction

def _motion_columns(partials, d: int, line: Line, coords):
    """Two columns per coordinate i in `coords`: s*dF/dx_i and t*dF/dx_i
    restricted to the line, for the degree-d form F whose partials are the
    term dicts `partials`; the image of moving x_i by a linear form."""
    cols = []
    for i in coords:
        restricted = restrict_poly(partials[i], d - 1, line)
        cols += [restricted + [0], [0] + restricted]
    return cols


def secant_obstruction(b: DeformationPoint, z: Line, xif=None) -> LemmaReport:
    """Exact comparison of the three equivalent descriptions of when the
    induced map on the line is well defined: kernel containment, linear
    dependence of the restricted polynomial against its radial derivative,
    and the restriction being a pure two-root monomial.  PASS means the
    three agree (whether all hold or all fail).  `xif`, when given, is the
    member's restriction to z's line, already computed."""
    t0 = time.perf_counter()
    shape = b.shape
    nv, d = shape.nvars, shape.d
    if classify(z)["tag"] != "generic":
        raise NonGenericScheme("the obstruction computation assumes a generic scheme")
    if xif is None:
        xif = restrict_poly(b.f_poly(), d, z)
    # z = Line(p, q): F(p) and F(q) are the s^d and t^d coefficients
    if xif[0] or xif[d]:
        raise ValueError("the scheme does not lie on the family member")
    if not any(xif):
        raise LineInHypersurface("the member contains the line")

    # evaluation map to the tangent spaces at the two points: a section
    # u kills it iff u(p) is radial at both points
    rho = [{2 * i + k: pt.ints[j], 2 * j + k: -pt.ints[i]}
           for k, pt in enumerate((z.p, z.q))
           for i in range(nv) for j in range(i + 1, nv)]
    etahat = list(zip(*_motion_columns(b.f_partials(), d, z, range(nv))))
    ker_rho = 2 * nv - rank_sparse(rho)
    rank_eta, rank_both = rank_sparse(etahat), rank_sparse(rho + etahat)

    # ker etahat lies in ker rho iff rho's rows lie in etahat's row space
    cond_kernel = rank_both == rank_eta
    # xi_f against t * d(xi_f)/dt, the form of y f'(y) on the chart s = 1
    cond_pair = rank_sparse([xif, [k * c for k, c in enumerate(xif)]]) <= 1
    idx = monomial_index(xif)
    cond_monomial = idx is not None and 0 < idx < d

    agree = cond_kernel == cond_pair == cond_monomial
    dims = {
        "ker_rho": ker_rho,
        "ker_etahat": 2 * nv - rank_eta,
        "overlap": 2 * nv - rank_both,
        "euler_excess": 2 * nv - (d + 1),
        "well_defined": int(cond_kernel),
        "dependent_pair": int(cond_pair),
        "two_point_line": int(cond_monomial),
        "distinct_roots": distinct_root_count(xif),
    }
    witness = None if agree else {
        "reason": "equivalent conditions disagree",
        "conditions": [int(cond_kernel), int(cond_pair), int(cond_monomial)],
        "xi_f": _vec_json(xif)}
    return LemmaReport("secant", shape.n, d, 0, PASS if agree else FAIL, dims, witness,
                       _ms_since(t0), {})


def _b_with_line_power(shape: FamilyShape, z: Line, m: int, rng: Rng):
    """(b, restriction): a family member b through Z whose restriction to
    the line, also returned, is a nonzero multiple of s^(d-m) t^m.  The
    system's columns are those of _xi_matrix_on without entry m.  It is
    solved once: the s^(d-m) t^m coefficient is affine in the drawn
    coordinates, so unless it vanishes identically it vanishes with
    probability at most 1/(2*DRAW+1)."""
    d = shape.d
    fermat = restrict_poly(DeformationPoint(shape).f_poly(), d, z)
    columns = [col[:m] + col[m + 1:] for col in _xi_matrix_on(shape.jd, z)]
    rhs = [-fermat[k] for k in range(d + 1) if k != m]
    sol = random_solution(columns, rhs, rng.split("power0"))
    if sol is None:
        raise InfeasibleSystem("line-power conditions are inconsistent")
    b = DeformationPoint(shape, dict(zip(shape.jd, sol)))
    xif = restrict_poly(b.f_poly(), d, z)
    if not xif[m]:
        raise InfeasibleSystem("could not reach a nonzero top coefficient")
    return b, xif


def verify_secant(n: int, d: int, rng: Rng, trials: int = 5) -> LemmaReport:
    """A random secant through a random member meets it in three or more
    points and must come out NOT well defined; constructed two-point lines
    must come out well defined with a nontrivial shared kernel; the three
    conditions agree throughout.  Each trial draws one secant and one
    member through it: a draw in integers from [-DRAW, DRAW] is as generic
    as the claim needs, so a secant meeting the member in fewer than three
    points ends the run as INDETERMINATE and a member containing the line
    as INFEASIBLE."""
    m = d // 2
    with _Trials("secant", n, d, rng, trials, m=m) as run:
        shape = family_shape(n, d)
        for sub in run:
            # one name for both lines: each draw ends the last line's life
            # before its own cache fills, so one line cache is alive at a time
            z = random_generic_scheme(n, sub)
            rep_r = secant_obstruction(sample_b_through(shape, [z.p, z.q], sub), z)
            if rep_r.dims["distinct_roots"] < 3:
                raise _Stop("the drawn secant meets the member in %d < 3 distinct points"
                            % rep_r.dims["distinct_roots"], {"trials": trials, "m": m})
            z = random_generic_scheme(n, sub)
            bc, xif = _b_with_line_power(shape, z, m, sub)
            rep_c = secant_obstruction(bc, z, xif=xif)
            ok = (rep_r.verdict == PASS and rep_r.dims["well_defined"] == 0
                  and rep_c.verdict == PASS and rep_c.dims["well_defined"] == 1
                  and rep_c.dims["overlap"] >= 1)
            run.record(ok,
                       {**rep_c.dims, "random_distinct_roots": rep_r.dims["distinct_roots"]},
                       lambda: {"random": rep_r.dims, "constructed": rep_c.dims})
    return run.report


# ---------------------------------------------------------------------------
# incidence count and tangency deformations

def incidence_dimension(n: int, d: int, m: int) -> int:
    """Dimension of the two-point tangency configurations minus the
    dimension of the space of hypersurfaces: lines carry 2n parameters, the
    two points 2 more, and each configuration imposes d conditions."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if not 0 < m < d:
        raise ValueError("multiplicity must satisfy 0 < m < d")
    return 2 * n + 2 - d


def _stratum(n: int, d: int, m: int):
    """(line, lead): the coordinate line through (1:0:...:0) and (0:1:0:...:0)
    and the exponents of x0^(d-m) x1^m, the cone member of the
    multiplicity-m stratum through it."""
    if not 0 < m < d:
        raise ValueError("multiplicity must satisfy 0 < m < d")
    line = Line(ProjPoint([1] + [0] * (n + 1)), ProjPoint([0, 1] + [0] * n))
    return line, (d - m, m) + (0,) * n


def verify_incidence(n: int, d: int, m: int, seed: int = 0) -> LemmaReport:
    """Unknowns minus equations of the tangency system of the stratum's cone
    member, checked against the count incidence_dimension."""
    t0 = time.perf_counter()
    formula = incidence_dimension(n, d, m)
    line, lead = _stratum(n, d, m)
    rows, normals = _tangency_system({lead: 1}, d, line, m)
    offset = 2 * len(normals) - len(rows)
    witness = None if offset == formula else {
        "reason": "system shape disagrees with the count",
        "system_offset": offset, "formula_offset": formula}
    return LemmaReport("incidence", n, d, seed, FAIL if witness else PASS,
                       {"offset": offset, "m": m}, witness, _ms_since(t0), {"m": m})


def _tangency_system(terms, d: int, line: Line, m: int):
    """(rows, normals) of the tangency system of the degree-d form with
    terms {exponents: coefficient}: two columns per normal coordinate (its
    motion is a binary linear form), one integer row per coefficient of the
    restricted derivative outside the stratum's tangent space.  The normal
    coordinates are the non-pivots of the scan over the columns (p_i, q_i)."""
    pivots = column_scan(list(zip(line.p.ints, line.q.ints)), 2)[0]
    normals = [i for i in range(line.nvars) if i not in pivots]
    cols = _motion_columns(term_partials(terms, line.nvars), d, line, normals)
    keep = [k for k in range(d + 1) if k not in (m - 1, m, m + 1)]
    return [[col[k] for col in cols] for k in keep], normals


def tangency_deformation_dim(terms, line: Line, m: int) -> LemmaReport:
    """First-order deformations of the line preserving the two-root
    tangency pattern of the form with terms {exponents: coefficient} (any
    positive multiple gives the same count and witness): unknowns are normal
    motions (n binary linear forms), constrained so the derivative of the
    restricted polynomial stays inside the tangent space of the multiplicity
    stratum (the pure monomial and its two root-moving neighbours), in the
    line's integer parameters (s, t).  Verdict PASS means the count is zero,
    i.e. the configuration is rigid."""
    t0 = time.perf_counter()
    d = sum(next(iter(terms), ()))      # no terms: degree 0, outside every stratum
    xif = restrict_poly(terms, d, line)
    idx = monomial_index(xif)
    if idx is None or idx != m or not 0 < m < d:
        raise NotInTangencyStratum(
            "restriction is not a nonzero multiple of s^(d-m) t^m")
    rows, normals = _tangency_system(terms, d, line, m)
    unknowns = 2 * len(normals)
    columns = [[row[j] for row in rows] for j in range(unknowns)]
    pivots, _, duals = column_scan(columns, len(rows))
    dim = unknowns - len(pivots)
    dims = {"deformations": dim, "unknowns": unknowns, "m": m}
    witness = None if dim == 0 else {
        "reason": "the line moves inside the stratum",
        "moving_deformation": _sparse_json(next(free_vectors(columns, pivots, duals)), unknowns),
        "normal_coordinates": normals}
    return LemmaReport("tangency", line.nvars - 2, d, 0, PASS if dim == 0 else FAIL, dims,
                       witness, _ms_since(t0), {"m": m})


def verify_tangency(n: int, d: int, m: int, rng: Rng, trials: int = 5) -> LemmaReport:
    """A random member of the stratum through the coordinate line is rigid
    (count zero); the cone-like member with no transverse terms is not.
    The member x0^(d-m) x1^m + sum_i x_i g_i has integer terms: only the
    terms x0^(d-1-a) x1^a of each g_i are drawn, as nonzero integers from
    [-DRAW, DRAW]: on the line x_2 = ... = x_(n+1) = 0, dF/dx_i is
    that part of g_i, every other term keeping a factor x_j with j >= 2,
    and the tangency system reads nothing else."""
    with _Trials("tangency", n, d, rng, trials, m=m) as run:
        line, lead = _stratum(n, d, m)
        cone, normals = _tangency_system({lead: 1}, d, line, m)
        degenerate = 2 * len(normals) - rank_sparse(cone)
        transverse = [mono_times((d - 1 - a, a) + (0,) * n, i)
                      for i in range(2, n + 2) for a in range(d)]
        for sub in run:
            f = {lead: 1, **{mono: _nonzero_draw(sub) for mono in transverse}}
            rep = tangency_deformation_dim(f, line, m)
            run.record(rep.dims["deformations"] == 0 and degenerate > 0,
                       {"deformations": rep.dims["deformations"],
                        "degenerate_deformations": degenerate,
                        "unknowns": rep.dims["unknowns"], "m": m},
                       lambda: {"deformations": rep.dims["deformations"],
                                "degenerate": degenerate})
    return run.report
