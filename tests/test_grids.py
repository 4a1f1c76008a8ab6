"""Tests for grid projection, the unique-rounding predicate, and shifts.

The predicate gets the heavy treatment: 10^4 random boxes plus boxes
touching decision lines, evaluated in one array call and compared against
a brute-force oracle that enumerates decision lines directly and against
scalar calls, plus the geometric consequence (all points of a uniquely
rounding box project to one lattice point).
"""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from sparsefourier.grids import (
    GoodShiftError,
    GridSpec,
    ShiftParams,
    box_projects_uniquely,
    draw_good_shift,
    project,
)

UNIT = GridSpec(1.0)


# ------------------------------------------------------------- validation


def test_box_rejects_negative_radius():
    with pytest.raises(ValueError):
        box_projects_uniquely(0j, -0.1, UNIT)
    with pytest.raises(ValueError):
        box_projects_uniquely(np.zeros(3, dtype=complex), np.array([0.1, -0.1, 0.1]), UNIT)


@pytest.mark.parametrize(
    "center",
    [complex(np.nan, 0.2), complex(0.2, np.inf), np.array([0.1 + 0.1j, complex(-np.inf, 0)])],
    ids=["nan", "inf", "array"],
)
def test_box_rejects_non_finite_center(center):
    # a non-finite center has no projection; it must not read as "unique"
    with pytest.raises(ValueError, match="finite"):
        box_projects_uniquely(center, 0.1, UNIT)


def test_grid_rejects_nonpositive_side():
    with pytest.raises(ValueError):
        GridSpec(0.0)
    with pytest.raises(ValueError):
        GridSpec(-1.0)


@pytest.mark.parametrize(
    "r_s,r_b,r_g",
    [
        (0.6, 0.1, 1.0),  # r_s > r_g/2
        (0.2, 0.3, 1.0),  # r_b > r_s
        (0.5, 0.0, 1.0),  # r_b = 0
        (0.5, 0.5, 1.0),  # r_b = r_g/2: every box spans a whole cell
    ],
)
def test_shift_params_reject_bad_ordering(r_s, r_b, r_g):
    with pytest.raises(ValueError):
        ShiftParams(r_s=r_s, r_b=r_b, r_g=r_g)


# ------------------------------------------------------------- projection


@pytest.mark.parametrize(
    "c,expect",
    [
        (0j, 0j),
        (0.5 + 0j, 0j),  # midpoint tie resolves toward the smaller modulus
        (-0.5 + 0j, 0j),
        (0.5 + 0.5j, 0j),
        (0.3 + 1.8j, 2j),
        (1.5 + 0j, 1 + 0j),  # tie between 1 and 2 picks 1
        (-1.5 + 0j, -1 + 0j),
        (2.2 - 3.7j, 2 - 4j),
    ],
)
def test_project_unit_grid(c, expect):
    assert project(c, UNIT) == expect


def test_project_scaled_grid():
    g = GridSpec(0.25)
    assert project(0.3 + 0j, g) == 0.25
    assert project(0.125 + 0j, g) == 0j  # tie at half a cell
    assert project(-0.6 - 0.1j, g) == -0.5 + 0j


def test_project_idempotent():
    rng = np.random.default_rng(0)
    g = GridSpec(0.7)
    c = rng.uniform(-5, 5, size=50) + 1j * rng.uniform(-5, 5, size=50)
    once = project(c, g)
    assert_allclose(project(once, g), once, atol=0)


def test_project_translation_covariance():
    # shifting by whole grid steps commutes with projection (away from ties)
    rng = np.random.default_rng(1)
    g = GridSpec(0.3)
    for _ in range(200):
        c = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        if min(abs((c.real / g.side) % 1 - 0.5), abs((c.imag / g.side) % 1 - 0.5)) < 1e-6:
            continue
        m, mp = rng.integers(-4, 5), rng.integers(-4, 5)
        shifted = project(c + (m + 1j * mp) * g.side, g)
        assert_allclose(shifted, project(c, g) + (m + 1j * mp) * g.side, atol=1e-9)


def test_project_within_half_diagonal():
    rng = np.random.default_rng(2)
    g = GridSpec(0.9)
    c = rng.uniform(-4, 4, size=500) + 1j * rng.uniform(-4, 4, size=500)
    assert np.max(np.abs(project(c, g) - c)) <= g.side / math.sqrt(2) + 1e-12


def test_project_array_shape():
    g = GridSpec(1.0)
    c = np.array([[0.1 + 0.9j, 1.4 - 0.2j], [0j, -0.6 + 0.6j]])
    out = project(c, g)
    assert out.shape == (2, 2)
    assert out[0, 0] == 1j
    assert isinstance(project(0.2 + 0j, g), complex)


SIDES = st.floats(1e-3, 1e3)
COORDS = st.floats(-1e3, 1e3)
# a/2^k: (m + 1/2) * side and its quotient by side are exact, so a tie stays a tie
DYADIC_SIDES = st.builds(lambda a, k: a / 2**k, st.integers(1, 2**10), st.integers(-8, 8))


@given(m=st.integers(-(2**20), 2**20), mp=st.integers(-(2**20), 2**20), side=DYADIC_SIDES)
def test_project_rounds_half_integers_toward_zero(m, mp, side):
    c = complex((m + 0.5) * side, (mp + 0.5) * side)
    assert project(c, GridSpec(side)) == complex(math.trunc(m + 0.5), math.trunc(mp + 0.5)) * side


@given(re=COORDS, im=COORDS, side=SIDES)
def test_project_moves_no_point_beyond_half_diagonal(re, im, side):
    c = complex(re, im)
    assert abs(project(c, GridSpec(side)) - c) <= (1 / math.sqrt(2) + 1e-9) * side


@given(m=st.integers(-(2**20), 2**20), mp=st.integers(-(2**20), 2**20), side=SIDES)
def test_project_fixes_lattice_points(m, mp, side):
    c = complex(m * side, mp * side)
    assert project(c, GridSpec(side)) == c


@given(re=COORDS, im=COORDS, side=SIDES, frac=st.floats(0, 0.5))
def test_unique_box_corners_project_to_one_point(re, im, side, frac):
    c, r, g = complex(re, im), frac * side, GridSpec(side)
    if box_projects_uniquely(c, r, g):
        corners = [c + dx * r + 1j * dy * r for dx in (-1, 1) for dy in (-1, 1)]
        assert len({project(z, g) for z in corners}) == 1


# ----------------------------------------------------- unique-rounding test


def test_box_inside_cell_is_unique():
    assert box_projects_uniquely(0.1 + 0.2j, 0.2, UNIT) is True


def test_box_straddling_line_is_not_unique():
    assert not box_projects_uniquely(0.5 + 0j, 0.1, UNIT)
    assert not box_projects_uniquely(0.2 + 1.5j, 0.1, UNIT)


def test_box_touching_line_is_not_unique():
    # Re interval ends exactly on the 0.5 decision line
    assert not box_projects_uniquely(0.4 + 0j, 0.1, UNIT)


def test_point_box():
    assert box_projects_uniquely(0.2 + 0.2j, 0.0, UNIT)
    assert not box_projects_uniquely(0.5 + 0.2j, 0.0, UNIT)


def test_large_box_never_unique():
    assert not box_projects_uniquely(0.123 + 0.456j, 0.5, UNIT)



def _crosses_by_enumeration(lo, hi, side):
    # brute force: walk every decision line near the interval
    m_min = math.floor(lo / side) - 2
    m_max = math.ceil(hi / side) + 2
    return any(lo <= (m + 0.5) * side <= hi for m in range(m_min, m_max + 1))


def _assert_matches_oracle(c, r, g):
    got = box_projects_uniquely(c, r, g)
    assert got.shape == c.shape
    for ci, ri, gi in zip(c, r, got):
        oracle = not (
            _crosses_by_enumeration(ci.real - ri, ci.real + ri, g.side)
            or _crosses_by_enumeration(ci.imag - ri, ci.imag + ri, g.side)
        )
        assert gi == oracle == box_projects_uniquely(ci, ri, g)
    return got


def test_predicate_matches_enumeration_oracle():
    rng = np.random.default_rng(42)
    n = 10_000
    c = rng.uniform(-3, 3, size=n) + 1j * rng.uniform(-3, 3, size=n)
    _assert_matches_oracle(c, rng.uniform(0, 0.56, size=n), GridSpec(0.7))

    # boxes with a Re or Im edge exactly on a decision line (m + 1/2) * side;
    # the side and radii are dyadic so every edge is computed without rounding
    g = GridSpec(0.625)
    m = rng.integers(-4, 4, size=200)
    r = rng.integers(0, 20, size=200) / 64
    edge = (m + 0.5) * g.side + rng.choice([-1.0, 1.0], size=200) * r
    free = rng.uniform(-3, 3, size=200)
    c = np.concatenate([edge + 1j * free, free + 1j * edge])
    assert not _assert_matches_oracle(c, np.concatenate([r, r]), g).any()


def test_unique_box_points_share_projection():
    # when the predicate holds, corners and 200 interior points all round
    # to the same lattice point as the center
    rng = np.random.default_rng(3)
    g = GridSpec(0.4)
    found = 0
    while found < 50:
        c = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        r = rng.uniform(0, 0.19)
        if not box_projects_uniquely(c, r, g):
            continue
        found += 1
        target = project(c, g)
        pts = c + rng.uniform(-r, r, size=200) + 1j * rng.uniform(-r, r, size=200)
        corners = np.array([c + dx * r + 1j * dy * r for dx in (-1, 1) for dy in (-1, 1)])
        assert np.all(project(pts, g) == target)
        assert np.all(project(corners, g) == target)


# ------------------------------------------------------------ good shifts


def test_empty_centers_accept_first_draw():
    params = ShiftParams(r_s=0.25, r_b=0.1, r_g=1.0)
    s, attempts = draw_good_shift([], params, np.random.default_rng(0), max_attempts=5)
    assert attempts == 1
    assert abs(s.real) <= 0.25 and abs(s.imag) <= 0.25


def test_draw_good_shift_is_deterministic():
    params = ShiftParams(r_s=0.25, r_b=0.05, r_g=1.0)
    centers = [0.5 + 0.5j, 1.2 - 0.3j]
    s1, a1 = draw_good_shift(centers, params, np.random.default_rng(7), max_attempts=100)
    s2, a2 = draw_good_shift(centers, params, np.random.default_rng(7), max_attempts=100)
    assert s1 == s2 and a1 == a2


def test_accepted_shift_actually_works():
    params = ShiftParams(r_s=0.5, r_b=0.05, r_g=1.0)
    centers = [0.5 + 0.5j, -0.5 + 0j, 0.27 - 1.5j]
    s, _ = draw_good_shift(centers, params, np.random.default_rng(11), max_attempts=200)
    g = GridSpec(1.0)
    assert box_projects_uniquely(np.array(centers) + s, 0.05, g).all()


def test_single_box_acceptance_rate():
    # center on a lattice corner is the worst case; the shift argument
    # still gives acceptance probability >= (1 - r_b/r_s)^2 per draw
    ratio = 0.1
    params = ShiftParams(r_s=0.5, r_b=0.5 * ratio, r_g=1.0)
    g = GridSpec(1.0)
    trials = 2000
    s = np.random.default_rng(23).uniform(-0.5, 0.5, size=(trials, 2))
    rate = box_projects_uniquely((0.5 + 0.5j) + (s[:, 0] + 1j * s[:, 1]), params.r_b, g).mean()
    bound = (1 - ratio) ** 2
    sigma = math.sqrt(bound * (1 - bound) / trials)
    assert rate >= bound - 3 * sigma


def test_many_tiny_boxes_accept_quickly():
    # union-bound regime: 20 boxes with r_b/r_s = 1/5000 almost always pass
    params = ShiftParams(r_s=0.5, r_b=0.5 / 5000, r_g=1.0)
    rng = np.random.default_rng(29)
    centers = [complex(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(20)]
    attempts = []
    for _ in range(200):
        _, a = draw_good_shift(centers, params, rng, max_attempts=50)
        attempts.append(a)
    assert np.mean(np.array(attempts) == 1) >= 0.9


def test_adversarial_centers_exhaust_attempts():
    # boxes at 0 and r_g/2 have exclusion zones that jointly cover every
    # possible Re(s), so the loop must run out
    params = ShiftParams(r_s=0.5, r_b=0.3, r_g=1.0)
    with pytest.raises(GoodShiftError) as exc:
        draw_good_shift([0j, 0.5 + 0j], params, np.random.default_rng(1), max_attempts=40)
    assert exc.value.attempts == 40


def test_draw_good_shift_pinned():
    # regression value of the per-box loop this array predicate replaced;
    # the RNG stream (two uniforms per attempt) must not change
    params = ShiftParams(r_s=0.5, r_b=0.1, r_g=1.0)
    centers = [0.5 + 0.5j, 0.1 - 0.2j, 0.45 + 0j]
    got = draw_good_shift(centers, params, np.random.default_rng(0), max_attempts=50)
    assert got == (0.17062441469363032 + 0.1471895115742501j, 12)


def test_max_attempts_validated():
    params = ShiftParams(r_s=0.25, r_b=0.1, r_g=1.0)
    with pytest.raises(ValueError):
        draw_good_shift([], params, np.random.default_rng(0), max_attempts=0)
