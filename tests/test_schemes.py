"""The shaped scheme samplers: pinned draws and the properties their
construction guarantees, and the integer points a ProjPoint carries."""

from math import gcd

import pytest

from fermatlines.exact import clear_denominators, rank_sparse, sample_rational
from fermatlines.lines import Line, ProjPoint, classify, scheme_json
from fermatlines.rng import Rng
from fermatlines.verifiers import (_generic_scheme_split_shape, _random_point,
                                   _section_image, _special_scheme, _very_special_scheme,
                                   _x_alpha, random_generic_scheme)

SAMPLERS = {"split": _generic_scheme_split_shape,
            "special": lambda n, rng: _special_scheme(n, rng)[0],
            "very-special": _very_special_scheme}

# (sampler, n, seed, next draw of the generator after sampling, scheme_json).
# Seed 161's first two draws are equal, so the split sampler redraws both.
PINNED = [
    ("split", 2, 0, 6921954377944159913,
     {"p1": ["1/1", "-8/3", "2/3", "-32/9"],
      "p2": ["1/1", "-5/1", "2/3", "-20/3"],
      "class": {"tag": "generic", "a": None, "vanishing": [],
                "perm": [0, 1, 2, 3]}}),
    ("split", 2, 1, 1201166354198324764,
     {"p1": ["1/1", "4/5", "9/4", "16/35"],
      "p2": ["1/1", "-1/1", "9/4", "-4/7"],
      "class": {"tag": "generic", "a": None, "vanishing": [],
                "perm": [0, 1, 2, 3]}}),
    ("split", 2, 161, 11001991004596949489,
     {"p1": ["1/1", "-5/2", "-1/3", "35/18"],
      "p2": ["1/1", "4/1", "-1/3", "-28/9"],
      "class": {"tag": "generic", "a": None, "vanishing": [],
                "perm": [0, 1, 2, 3]}}),
    ("split", 3, 0, 7406450193978443408,
     {"p1": ["1/1", "-8/3", "2/3", "-32/9", "5/6"],
      "p2": ["1/1", "-5/1", "2/3", "-20/3", "5/6"],
      "class": {"tag": "generic", "a": None, "vanishing": [],
                "perm": [0, 1, 2, 3, 4]}}),
    ("split", 3, 1, 14483485732333146129,
     {"p1": ["1/1", "4/5", "9/4", "16/35", "2/1"],
      "p2": ["1/1", "-1/1", "9/4", "-4/7", "2/1"],
      "class": {"tag": "generic", "a": None, "vanishing": [],
                "perm": [0, 1, 2, 3, 4]}}),
    ("split", 3, 161, 4321116317461534484,
     {"p1": ["1/1", "-5/2", "-1/3", "35/18", "-8/7"],
      "p2": ["1/1", "4/1", "-1/3", "-28/9", "-8/7"],
      "class": {"tag": "generic", "a": None, "vanishing": [],
                "perm": [0, 1, 2, 3, 4]}}),
    ("split", 5, 0, 10410424862604957450,
     {"p1": ["1/1", "-8/3", "2/3", "-32/9", "5/6", "2/3", "-6/7"],
      "p2": ["1/1", "-5/1", "2/3", "-20/3", "5/6", "5/4", "-6/7"],
      "class": {"tag": "generic", "a": None, "vanishing": [],
                "perm": [0, 1, 2, 3, 4, 5, 6]}}),
    ("split", 5, 1, 4503600492219195700,
     {"p1": ["1/1", "4/5", "9/4", "16/35", "2/1", "-16/5", "1/1"],
      "p2": ["1/1", "-1/1", "9/4", "-4/7", "2/1", "4/1", "1/1"],
      "class": {"tag": "generic", "a": None, "vanishing": [],
                "perm": [0, 1, 2, 3, 4, 5, 6]}}),
    ("split", 5, 161, 597836601188688060,
     {"p1": ["1/1", "-5/2", "-1/3", "35/18", "-8/7", "20/1", "-3/8"],
      "p2": ["1/1", "4/1", "-1/3", "-28/9", "-8/7", "-32/1", "-3/8"],
      "class": {"tag": "generic", "a": None, "vanishing": [],
                "perm": [0, 1, 2, 3, 4, 5, 6]}}),
    ("special", 2, 0, 10490244452398634873,
     {"p1": ["1/1", "-8/3", "-16/3", "56/27"],
      "p2": ["1/1", "-5/1", "-10/1", "35/9"],
      "class": {"tag": "special", "a": 3, "vanishing": [],
                "perm": [0, 1, 2, 3]}}),
    ("special", 2, 1, 13352828336997090855,
     {"p1": ["1/1", "4/5", "-4/3", "0/1"],
      "p2": ["1/1", "-1/1", "5/3", "0/1"],
      "class": {"tag": "special", "a": 2, "vanishing": [3],
                "perm": [0, 1, 2, 3]}}),
    ("special", 2, 161, 5309728314540485354,
     {"p1": ["1/1", "1/5", "1/3", "-2/5"],
      "p2": ["1/1", "-5/2", "-25/6", "5/1"],
      "class": {"tag": "special", "a": 3, "vanishing": [],
                "perm": [0, 1, 2, 3]}}),
    ("special", 3, 0, 1907540561453867319,
     {"p1": ["1/1", "-8/3", "-16/3", "56/27", "-20/9"],
      "p2": ["1/1", "-5/1", "-10/1", "35/9", "-25/6"],
      "class": {"tag": "special", "a": 4, "vanishing": [],
                "perm": [0, 1, 2, 3, 4]}}),
    ("special", 3, 1, 147874829764144249,
     {"p1": ["1/1", "4/5", "-4/3", "-6/5", "36/5"],
      "p2": ["1/1", "-1/1", "5/3", "3/2", "-9/1"],
      "class": {"tag": "special", "a": 4, "vanishing": [],
                "perm": [0, 1, 2, 3, 4]}}),
    ("special", 3, 161, 8219417740237467762,
     {"p1": ["1/1", "1/5", "1/3", "-2/5", "1/15"],
      "p2": ["1/1", "-5/2", "-25/6", "5/1", "-5/6"],
      "class": {"tag": "special", "a": 4, "vanishing": [],
                "perm": [0, 1, 2, 3, 4]}}),
    ("special", 5, 0, 10213376827624219932,
     {"p1": ["1/1", "-8/3", "-16/3", "56/27", "-20/9", "24/7", "0/1"],
      "p2": ["1/1", "-5/1", "-10/1", "35/9", "-25/6", "45/7", "0/1"],
      "class": {"tag": "special", "a": 5, "vanishing": [6],
                "perm": [0, 1, 2, 3, 4, 5, 6]}}),
    ("special", 5, 1, 16234364766926706490,
     {"p1": ["1/1", "4/5", "-4/3", "-6/5", "0/1", "0/1", "0/1"],
      "p2": ["1/1", "-1/1", "5/3", "3/2", "0/1", "0/1", "0/1"],
      "class": {"tag": "special", "a": 3, "vanishing": [4, 5, 6],
                "perm": [0, 1, 2, 3, 4, 5, 6]}}),
    ("special", 5, 161, 8219417740237467762,
     {"p1": ["1/1", "1/5", "1/3", "-2/5", "1/15", "0/1", "0/1"],
      "p2": ["1/1", "-5/2", "-25/6", "5/1", "-5/6", "0/1", "0/1"],
      "class": {"tag": "special", "a": 4, "vanishing": [5, 6],
                "perm": [0, 1, 2, 3, 4, 5, 6]}}),
    ("very-special", 2, 0, 14534714757872152763,
     {"p1": ["1/1", "-8/3", "0/1", "0/1"],
      "p2": ["1/1", "-5/1", "0/1", "0/1"],
      "class": {"tag": "very-special", "a": 1, "vanishing": [2, 3],
                "perm": [0, 1, 2, 3]}}),
    ("very-special", 2, 1, 9441308842891191896,
     {"p1": ["1/1", "4/5", "0/1", "0/1"],
      "p2": ["1/1", "-1/1", "0/1", "0/1"],
      "class": {"tag": "very-special", "a": 1, "vanishing": [2, 3],
                "perm": [0, 1, 2, 3]}}),
    ("very-special", 2, 161, 15577062775590237947,
     {"p1": ["1/1", "1/5", "0/1", "0/1"],
      "p2": ["1/1", "-5/2", "0/1", "0/1"],
      "class": {"tag": "very-special", "a": 1, "vanishing": [2, 3],
                "perm": [0, 1, 2, 3]}}),
    ("very-special", 3, 0, 14534714757872152763,
     {"p1": ["1/1", "-8/3", "0/1", "0/1", "0/1"],
      "p2": ["1/1", "-5/1", "0/1", "0/1", "0/1"],
      "class": {"tag": "very-special", "a": 1, "vanishing": [2, 3, 4],
                "perm": [0, 1, 2, 3, 4]}}),
    ("very-special", 3, 1, 9441308842891191896,
     {"p1": ["1/1", "4/5", "0/1", "0/1", "0/1"],
      "p2": ["1/1", "-1/1", "0/1", "0/1", "0/1"],
      "class": {"tag": "very-special", "a": 1, "vanishing": [2, 3, 4],
                "perm": [0, 1, 2, 3, 4]}}),
    ("very-special", 3, 161, 15577062775590237947,
     {"p1": ["1/1", "1/5", "0/1", "0/1", "0/1"],
      "p2": ["1/1", "-5/2", "0/1", "0/1", "0/1"],
      "class": {"tag": "very-special", "a": 1, "vanishing": [2, 3, 4],
                "perm": [0, 1, 2, 3, 4]}}),
    ("very-special", 5, 0, 14534714757872152763,
     {"p1": ["1/1", "-8/3", "0/1", "0/1", "0/1", "0/1", "0/1"],
      "p2": ["1/1", "-5/1", "0/1", "0/1", "0/1", "0/1", "0/1"],
      "class": {"tag": "very-special", "a": 1, "vanishing": [2, 3, 4, 5, 6],
                "perm": [0, 1, 2, 3, 4, 5, 6]}}),
    ("very-special", 5, 1, 9441308842891191896,
     {"p1": ["1/1", "4/5", "0/1", "0/1", "0/1", "0/1", "0/1"],
      "p2": ["1/1", "-1/1", "0/1", "0/1", "0/1", "0/1", "0/1"],
      "class": {"tag": "very-special", "a": 1, "vanishing": [2, 3, 4, 5, 6],
                "perm": [0, 1, 2, 3, 4, 5, 6]}}),
    ("very-special", 5, 161, 15577062775590237947,
     {"p1": ["1/1", "1/5", "0/1", "0/1", "0/1", "0/1", "0/1"],
      "p2": ["1/1", "-5/2", "0/1", "0/1", "0/1", "0/1", "0/1"],
      "class": {"tag": "very-special", "a": 1, "vanishing": [2, 3, 4, 5, 6],
                "perm": [0, 1, 2, 3, 4, 5, 6]}}),
]


@pytest.mark.parametrize("name, n, seed, after, expected", PINNED,
                         ids=["%s-n%d-seed%d" % pin[:3] for pin in PINNED])
def test_sampled_schemes_are_pinned(name, n, seed, after, expected):
    """The samplers draw the same schemes from the same stream, and leave
    the generator where they always did."""
    rng = Rng(seed)
    assert scheme_json(SAMPLERS[name](n, rng)) == expected
    assert rng.next_u64() == after


def _multiple_of(z: Line, j: int, i: int) -> bool:
    """Whether x_j restricts to a nonzero multiple of x_i on z's line."""
    p, q = z.p.coords, z.q.coords
    return p[j] * q[i] == q[j] * p[i] and (p[j], q[j]) != (0, 0)


@pytest.mark.parametrize("n", range(2, 7))
def test_split_shape_is_generic_by_construction(n):
    """x_j is a multiple of x0 at even j >= 2 and of x1 at odd j, with
    x0 and x1 independent: dropping any coordinate leaves rank 2."""
    for seed in range(200):
        z = _generic_scheme_split_shape(n, Rng(seed))
        assert classify(z)["tag"] == "generic"
        assert all(_multiple_of(z, j, j % 2) for j in range(2, n + 2))


@pytest.mark.parametrize("n", range(2, 7))
def test_special_samples_carry_their_tags(n):
    """Special and very-special samples classify as such, and on a special
    sample x0 and x1 restrict independently, so the Euler field times x0
    and x1 gives two independent rescaling directions."""
    for seed in range(200):
        rng = Rng(seed)
        zs, _ = _special_scheme(n, rng)
        assert classify(zs)["tag"] == "special"
        assert rank_sparse([_section_image(_x_alpha(n + 2, i), zs) for i in (0, 1)]) == 2
        assert classify(_very_special_scheme(n, rng))["tag"] == "very-special"


def test_special_samples_carry_their_multipliers():
    """A sampled special scheme is in classify's normalized order, and its
    sampler returns the multipliers it drew: x_j = c_j x_1 on both points,
    for every j >= 2, and neither point is a coordinate point."""
    for seed in range(4):
        z, cmap = _special_scheme(3, Rng(seed).split("normalized"))
        assert classify(z)["perm"] == list(range(5))
        assert set(cmap) == {2, 3, 4}
        assert all(pt.coords[j] == c * pt.coords[1]
                   for pt in (z.p, z.q) for j, c in cmap.items())
        assert not (z.p.is_coordinate_point() or z.q.is_coordinate_point())


@pytest.mark.parametrize("n", range(2, 7))
def test_lines_through_coordinate_points_are_never_generic(n):
    """Dropping the coordinate point's one nonzero coordinate leaves a zero
    row, so classify rejects the line, and random_generic_scheme never
    returns one."""
    nv = n + 2
    for seed in range(200):
        rng = Rng(seed)
        unit = ProjPoint([(sample_rational(rng, 9) or 1) if i == seed % nv else 0
                          for i in range(nv)])
        other = _random_point(nv, rng)
        if other != unit:
            assert classify(Line(unit, other))["tag"] != "generic"
        z = random_generic_scheme(n, rng)
        assert not (z.p.is_coordinate_point() or z.q.is_coordinate_point())


@pytest.mark.parametrize("nv", range(3, 9))
def test_projpoint_ints_are_the_cleared_primitive_point(nv):
    for seed in range(200):
        rng = Rng(seed)
        coords = [sample_rational(rng, 9) for _ in range(nv)]
        coords[rng.randint(0, nv - 1)] = sample_rational(rng, 9) or 1
        p = ProjPoint(coords)
        assert list(p.ints) == clear_denominators(p.coords)[0]
        assert gcd(*p.ints) == 1
        assert next(x for x in p.ints if x) > 0
