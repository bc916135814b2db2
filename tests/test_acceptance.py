"""Acceptance suite: the exit criteria of the package, one test each.

Every test prints a single PASS line on success (run with -s to see them
inline); tolerances and instance sizes are pinned here, not configurable.
"""

import io
import json
import time
from math import comb

import pytest

from fermatlines.cli import EXIT_OK, RunConfig, run, run_lemma
from fermatlines.errors import CoordinatePointError
from fermatlines.family import FamilyShape, sample_b_through
from fermatlines.lines import ProjPoint, distinct_root_count, restrict_poly
from fermatlines.poly import gen_jd, jd_size_formula
from fermatlines.rng import Rng
from fermatlines.verifiers import (FAIL, PASS, _b_with_line_power,
                                   random_generic_scheme, incidence_dimension,
                                   secant_obstruction,
                                   tangency_deformation_dim,
                                   verify_generic_systems, verify_kernel_generic,
                                   verify_kernel_special, verify_point_ideal,
                                   verify_tangency, verify_w_basis,
                                   verify_xi_generic, verify_xi_special)
from tests.test_verifiers import build_tangency_instance

SEEDS = [0, 1, 2, 3, 4]


def announce(num, text):
    print("ACCEPTANCE %d: PASS — %s" % (num, text))


def test_acceptance_1_jd_counts():
    t0 = time.perf_counter()
    for n in range(1, 5):
        for d in range(3, 11):
            assert len(gen_jd(n, d)) == comb(d + n + 1, n + 1) - (n + 2) ** 2
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0, "indexing took %.2fs" % elapsed
    announce(1, "deformation index counts match the closed formula "
                "for 1<=n<=4, 3<=d<=10 in %.2fs" % elapsed)


def test_acceptance_2_w_basis():
    for n, d in ((2, 6), (3, 8)):
        expected = (n + 2) * comb(n + 2, 2)
        for seed in SEEDS:
            t0 = time.perf_counter()
            rep = verify_w_basis(n, d, Rng(seed).split("w-basis"), trials=5)
            elapsed = time.perf_counter() - t0
            assert rep.verdict == PASS, rep.to_json()
            assert rep.dims["basis"] == expected
            assert rep.dims["kernel_total"] == expected + n + 2
            assert elapsed < 60.0, "(%d,%d) seed %d took %.1fs" % (n, d, seed, elapsed)
    announce(2, "quadratic-section basis has the right size (24 at (2,6), "
                "50 at (3,8)), is independent, and contracts into the "
                "deformation span, 5 seeds each")


def test_acceptance_3_kernel_lemmas():
    for seed in SEEDS:
        t0 = time.perf_counter()
        rep_g = verify_kernel_generic(2, 6, Rng(seed).split("kernel-generic"), trials=5)
        rep_s = verify_kernel_special(2, 6, Rng(seed).split("kernel-special"), trials=5)
        elapsed = time.perf_counter() - t0
        assert rep_g.verdict == PASS, rep_g.to_json()
        assert rep_g.dims["quotient"] == 7
        assert rep_s.verdict == PASS, rep_s.to_json()
        assert rep_s.dims["lhs"] == rep_s.dims["rhs"]
        assert elapsed < 60.0
    announce(3, "restriction kernels on the deformation span match the ideal "
                "part exactly (generic) and with the explicit extra "
                "generators (special), quotient dimension 7, 5 seeds")


def test_acceptance_4_point_ideal():
    for n, d in ((1, 4), (2, 6)):
        rep = verify_point_ideal(n, d)
        assert rep.verdict == PASS, rep.to_json()
        assert rep.dims["codim"] == 1
        assert rep.dims["lhs"] == jd_size_formula(n, d + 1) - 1
    with pytest.raises(CoordinatePointError):
        verify_point_ideal(2, 6, p=ProjPoint([0, 0, 1, 0]))
    announce(4, "point-ideal intersection has codimension exactly 1 at "
                "(1,4) and (2,6); coordinate points are rejected")


def test_acceptance_5_restriction_surjectivity():
    n, d = 2, 6
    for seed in SEEDS:
        rep_g = verify_xi_generic(n, d, Rng(seed).split("xi-generic"), trials=5)
        assert rep_g.verdict == PASS, rep_g.to_json()
        assert rep_g.dims["rank"] == 3 * (n + 2) == 12
        rep_s = verify_xi_special(n, d, Rng(seed).split("xi-special"), trials=5)
        assert rep_s.verdict == PASS, rep_s.to_json()
        # full image in the quotient of the line sections by the rescaling
        # directions: h0 = 3(n+2) - 2 by the twisted Euler sequence
        assert rep_s.dims["quotient_rank"] == rep_s.dims["target_quotient"] == 3 * n + 4
        assert rep_s.dims["xi_w_very_special"] == 3 * n + 2 == 8
    announce(5, "restricted sections fill all 12 dimensions on generic "
                "schemes, surject onto the 10-dimensional tangent quotient "
                "on special schemes, and span the explicit 8-dimensional "
                "space on very special schemes, 5 seeds each")


def test_acceptance_6_generic_systems():
    rep = verify_generic_systems(2, 6, Rng(0).split("systems"), trials=20)
    assert rep.verdict == PASS, rep.to_json()
    assert rep.dims["kernel_dim"] == 0
    assert rep.params == {"trials": 20}
    announce(6, "the 9x6 coefficient system is nonsingular on 20 random "
                "draws and the degenerate pair is singular exactly on the "
                "unit-product locus (20 trials, each with a random and a "
                "constructed pair)")


def test_acceptance_7_secant_obstruction():
    n, d = 2, 6
    shape = FamilyShape(n, d)
    rng = Rng(0).split("acceptance-secant")
    random_runs = 0
    while random_runs < 10:
        z = random_generic_scheme(n, rng)
        b = sample_b_through(shape, [z.p, z.q], rng)
        xif = restrict_poly(b.f_poly(), d, z)
        if not any(xif) or distinct_root_count(xif) < 3:
            continue
        rep = secant_obstruction(b, z)
        assert rep.verdict == PASS, rep.to_json()    # the conditions agree
        assert rep.dims["well_defined"] == 0
        random_runs += 1
    for i, m in enumerate((1, 3, 5)):
        z = random_generic_scheme(n, rng)
        b, _ = _b_with_line_power(shape, z, m, rng)
        rep = secant_obstruction(b, z)
        assert rep.verdict == PASS, rep.to_json()
        assert rep.dims["well_defined"] == 1
        assert rep.dims["overlap"] >= 1
        assert rep.dims["euler_excess"] == 2 * (n + 2) - (d + 1) == 1
    announce(7, "induced line map: not well defined on 10 random secants "
                "with >=3 intersection points, well defined with a shared "
                "kernel vector on 3 constructed two-point lines, all three "
                "equivalent conditions agreeing in every run")


def test_acceptance_8_incidence_and_tangency():
    for n in range(1, 7):
        d = 2 * n + 2
        for m in range(1, d):
            assert incidence_dimension(n, d, m) == 0
    f, line = build_tangency_instance(n=2, d=6, m=3)
    rep = tangency_deformation_dim(f.terms, line, 3)
    assert rep.dims["deformations"] == 0
    f0, _ = build_tangency_instance(n=2, d=6, m=3, zero_transverse=True)
    rep0 = tangency_deformation_dim(f0.terms, line, 3)
    assert rep0.dims["deformations"] > 0
    wrapped = verify_tangency(2, 6, 3, Rng(0).split("tangency"), trials=5)
    assert wrapped.verdict == PASS
    announce(8, "two-point tangency count is balanced at d=2n+2 for all "
                "n<=6, an explicit (2,6,3) instance is rigid, and the "
                "degenerate instance moves")


def test_acceptance_9_determinism(tmp_path):
    outputs = []
    for name in ("first", "second"):
        path = tmp_path / ("%s.jsonl" % name)
        config = RunConfig(n=2, d=6, seeds=[7], output_path=str(path))
        code = run(config, out=io.StringIO())
        assert code == EXIT_OK
        lines = []
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                obj = json.loads(line)
                obj.pop("elapsed_ms", None)
                lines.append(json.dumps(obj, sort_keys=True))
        outputs.append("\n".join(lines))
    assert outputs[0] == outputs[1]
    announce(9, "the full registry at (2,6) seed 7 reproduces byte-identical "
                "reports modulo elapsed_ms")


def closed_form_dims(n, d):
    """Each PASS dim of `verify all` that has a closed form in (n, d), with
    |J_d| from jd_size_formula."""
    basis = (n + 2) * comb(n + 2, 2)
    generic = jd_size_formula(n, d) - (d + 1)
    special = jd_size_formula(n, d) - d + 1
    point = jd_size_formula(n, d + 1) - 1
    return {
        "w-basis": {"basis": basis, "kernel_total": basis + n + 2},
        "kernel-generic": {"lhs": generic, "rhs": generic, "quotient": d + 1},
        "kernel-special": {"lhs": special, "rhs": special, "extra_generators": n * (n + 1)},
        "point-ideal": {"lhs": point, "rhs": point, "codim": 1},
        "xi-generic": {"rank": 3 * (n + 2)},
        "xi-special": {"target_quotient": 3 * n + 4, "xi_w_very_special": 3 * n + 2},
        "tangency": {"unknowns": 2 * n, "degenerate_deformations": 2 * n},
        "secant": {"euler_excess": 2 * (n + 2) - (d + 1)},
    }


@pytest.mark.parametrize("n,d", [(2, 6), (3, 8), (4, 10)])
def test_dims_match_their_closed_forms(tmp_path, n, d):
    """`verify all --seed 7 --trials 1` passes every lemma, and each dim of
    the closed-form table has its value, above the golden files' sizes too."""
    path = tmp_path / "all.jsonl"
    config = RunConfig(n=n, d=d, seeds=[7], trials=1, output_path=str(path))
    assert run(config, out=io.StringIO()) == EXIT_OK
    with open(path, encoding="utf-8") as fh:
        reports = {obj["lemma"]: obj for obj in map(json.loads, fh) if "lemma" in obj}
    assert all(rep["verdict"] == PASS for rep in reports.values())
    for lemma, want in closed_form_dims(n, d).items():
        got = reports[lemma]["dims"]
        assert {key: got[key] for key in want} == want, lemma


@pytest.mark.parametrize("n,d", [(n, d) for n in (1, 2, 3) for d in range(4, 2 * n + 5)])
def test_off_degree_verdicts_match_their_closed_forms(n, d):
    """At seed 0, --trials 1, m = d // 2: kernel-generic's kernel has
    dimension |J_d| - (d+1), and its ideal part I_Z(1) J_(d-1) fills it at
    d >= 5, while at d = 4 J_3 holds only the C(n+2, 3) squarefree cubics,
    so the ideal part has dimension n C(n+2, 3) (independent products at
    n <= 3) and equals the kernel only at n = 1.  The stratum's line moves
    in max(0, 2n+2-d) directions, the incidence offset clipped at 0; off
    d = 2n+2 secant FAILs, and its random secant meets the member in d
    points with ker etahat of dimension max(0, 2n+3-d), well defined
    exactly when that kernel is 0 (d >= 2n+3), never two-point."""
    m = d // 2
    generic = run_lemma("kernel-generic", n, d, m, 0, trials=1)
    kernel = jd_size_formula(n, d) - (d + 1)
    ideal = n * comb(n + 2, 3) if d == 4 else kernel
    assert generic.dims == {"lhs": ideal, "rhs": kernel, "quotient": d + 1}
    assert generic.verdict == (PASS if ideal == kernel else FAIL)
    tangency = run_lemma("tangency", n, d, m, 0, trials=1)
    offset = run_lemma("incidence", n, d, m, 0, trials=1).dims["offset"]
    assert tangency.dims["deformations"] == max(0, 2 * n + 2 - d) == max(0, offset)
    assert tangency.verdict == (PASS if d >= 2 * n + 2 else FAIL)
    secant = run_lemma("secant", n, d, m, 0, trials=1)
    if d == 2 * n + 2:
        assert secant.verdict == PASS
        return
    assert secant.verdict == FAIL
    random = secant.witness["random"]
    assert {key: random[key] for key in ("ker_etahat", "well_defined", "dependent_pair",
                                         "two_point_line", "distinct_roots")} == {
        "ker_etahat": max(0, 2 * n + 3 - d), "well_defined": int(d >= 2 * n + 3),
        "dependent_pair": 0, "two_point_line": 0, "distinct_roots": d}
