"""Weight windows and tile bookkeeping."""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from coneasym.weights import (
    admissible_window,
    gamma_inside,
    locate_interval,
    on_tile_edge,
    tile_edge,
    window_midpoint,
)


def test_window_examples():
    assert admissible_window(3, Fraction(-3)) == (Fraction(0), Fraction(1))
    assert admissible_window(1, Fraction(-4)) == (Fraction(-1), Fraction(1))
    assert admissible_window(2, Fraction(-2)) == (Fraction(-1, 2), Fraction(1, 2))
    # nu_1 = 1 makes hi = lo: empty
    assert admissible_window(1, Fraction(-1)) is None


def test_window_without_lambda1_uses_basic_bounds():
    assert admissible_window(3, None) == (Fraction(0), Fraction(2))


def test_window_requires_gap_hypothesis_small_n():
    # n = 2 needs lambda_1 < ((n-1)/2)^2 - 1 = -3/4
    assert admissible_window(2, Fraction(-1, 2)) is None
    # automatically satisfied for n >= 3
    assert admissible_window(3, Fraction(-1, 2)) is not None


def test_window_midpoint_and_inside():
    window = admissible_window(1, Fraction(-4))
    assert window_midpoint(window) == 0
    assert gamma_inside(window, Fraction(1, 2))
    assert not gamma_inside(window, Fraction(1))
    assert not gamma_inside(window, 2.0)


def test_exact_gamma_at_the_window_edge_is_judged_exactly():
    """On the circle r = 1/2 the window is (-1, 1): an exact gamma 1/10^13
    below its top lies inside, a float one stays within the 1e-12 margin."""
    window = admissible_window(1, Fraction(-4))
    assert gamma_inside(window, 1 - Fraction(1, 10**13))
    assert not gamma_inside(window, 1 - 1e-13)


@given(
    n=st.integers(min_value=1, max_value=5),
    gamma_num=st.integers(min_value=-6, max_value=6),
    m=st.integers(min_value=1, max_value=8),
    frac_num=st.integers(min_value=0, max_value=15),
)
@settings(max_examples=200, deadline=None)
def test_tiles_partition(n, gamma_num, m, frac_num):
    """Every point of J_m = [top - 2m, top - 2m + 2) locates back to m."""
    gamma = Fraction(gamma_num, 4)
    top = Fraction(n + 1, 2) - gamma
    x = top - 2 * m + Fraction(frac_num, 8)  # in [lo, lo+15/8] subset [lo, lo+2)
    assert locate_interval(n, gamma, x) == m


def test_tile_edges_are_half_open():
    # top = (n+1)/2 - gamma = 1 for n=1, gamma=0
    assert locate_interval(1, Fraction(0), Fraction(-1)) == 1
    assert locate_interval(1, Fraction(0), Fraction(-3)) == 2
    assert locate_interval(1, Fraction(0), Fraction(-3) + Fraction(1, 10**9)) == 2
    assert locate_interval(1, Fraction(0), Fraction(-1) - Fraction(1, 10**9)) == 2


def test_locate_interval_above_top_is_none():
    assert locate_interval(1, Fraction(0), Fraction(2)) is None
    assert locate_interval(1, Fraction(0), Fraction(1)) is None


def test_tile_edge_follows_the_number_policy():
    assert tile_edge(1, Fraction(1, 4), 2) == Fraction(-13, 4)
    assert isinstance(tile_edge(1, 0.25, 2), float) and tile_edge(1, 0.25, 2) == -3.25


def test_on_tile_edge():
    """Exact for rationals, within MERGE_TOL (1e-9) for floats."""
    assert on_tile_edge(1, Fraction(0), Fraction(-3))
    assert on_tile_edge(1, Fraction(0), Fraction(1))  # the top, J_0's lower end
    assert not on_tile_edge(1, Fraction(0), Fraction(-2))
    assert not on_tile_edge(1, Fraction(0), Fraction(-3) + Fraction(1, 10**10))
    assert on_tile_edge(1, Fraction(0), -3.0 + 1e-10)
    assert not on_tile_edge(1, Fraction(0), -3.0 + 2e-9)
    assert not on_tile_edge(1, Fraction(0), -2.5)
