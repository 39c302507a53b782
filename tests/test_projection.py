"""KL projection onto the truncated simplex.

The closed-form answers used below come from the two-user Lagrangian:
the unconstrained minimizer of sum x log(x/y) over the simplex is
y / sum(y), and any coordinate falling below the floor eps/n is pinned
there while the rest renormalize.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from slasim import project_truncated_simplex

from entropy import kl_divergence


def _reference_projection(y: np.ndarray, eps: float) -> np.ndarray:
    """The projection as an argsort and a loop over prefix sizes.

    project_truncated_simplex does the same arithmetic on the sorted values
    alone and must match this bit for bit; here ties at the clip boundary
    break by index through the stable argsort.
    """
    n = y.size
    floor = eps / n
    y = y / y.max()
    order = np.argsort(y, kind="stable")
    ys = y[order]
    suffix = np.cumsum(ys[::-1])[::-1]
    k = n - 1
    scale = (1.0 - floor * (n - 1)) / suffix[n - 1]
    for cand in range(n - 1):
        c = (1.0 - floor * cand) / suffix[cand]
        if ys[cand] * c >= floor:
            k = cand
            scale = c
            break
    x = np.empty(n)
    x[order[:k]] = floor
    x[order[k:]] = ys[k:] * scale
    return x


def _two_user_oracle(y: np.ndarray, eps: float) -> np.ndarray:
    """Independent n=2 optimum: renormalize, then pin the low side."""
    floor = eps / 2.0
    x = y / y.sum()
    if x[0] < floor:
        return np.array([floor, 1.0 - floor])
    if x[1] < floor:
        return np.array([1.0 - floor, floor])
    return x


def test_hand_example_clips_small_coordinate():
    x = project_truncated_simplex(np.array([0.01, 0.99]), eps=0.2)
    assert np.allclose(x, [0.1, 0.9], rtol=0, atol=1e-15)


def test_uniform_is_fixed_point():
    y = np.full(4, 0.25)
    x = project_truncated_simplex(y, eps=0.9)
    assert np.allclose(x, y, rtol=0, atol=1e-15)


def test_feasible_vector_is_unchanged():
    y = np.array([0.3, 0.3, 0.4])
    x = project_truncated_simplex(y, eps=0.3)
    assert np.allclose(x, y, rtol=0, atol=1e-15)


def test_two_user_matches_closed_form(rng):
    for _ in range(300):
        y = rng.uniform(1e-4, 10.0, size=2)
        eps = float(rng.uniform(0.01, 0.99))
        x = project_truncated_simplex(y, eps)
        assert np.allclose(x, _two_user_oracle(y, eps), rtol=0, atol=1e-12)


def test_grid_search_cannot_beat_projection():
    y = np.array([0.03, 0.55, 0.42])
    eps = 0.3
    x = project_truncated_simplex(y, eps)
    best = kl_divergence(x, y)
    floor = eps / 3.0
    # Row r of b is np.linspace(floor, 1 - floor - a[r], 400); points with
    # c < floor are skipped.  Every coordinate is >= floor > 0, so this is
    # kl_divergence at each point.
    a = np.linspace(floor, 1.0 - 2 * floor, 400)
    b = np.linspace(floor, 1.0 - floor - a, 400, axis=1)
    a = np.broadcast_to(a[:, None], b.shape)
    c = 1.0 - a - b
    grid = np.stack([a, b, c], axis=-1)[c >= floor]
    cand = (grid * np.log(grid / y)).sum(axis=1)
    assert cand.size > 150_000
    assert np.all(best <= cand + 1e-9)


def test_scale_invariance_power_of_two_is_exact():
    y = np.array([0.2, 1.7, 3.4, 0.05])
    a = project_truncated_simplex(y, eps=0.4)
    b = project_truncated_simplex(y * 2.0**40, eps=0.4)
    assert np.array_equal(a, b)


def test_rejects_bad_inputs():
    for y in ([1.0, 0.0], [1.0, np.inf], [1.0, np.nan], [-np.inf, 1.0], [1.0, -2.0, 3.0]):
        with pytest.raises(ValueError, match="weights must be finite and strictly positive"):
            project_truncated_simplex(np.array(y), eps=0.1)
    with pytest.raises(ValueError):
        project_truncated_simplex(np.array([1.0]), eps=0.1)
    with pytest.raises(ValueError):
        project_truncated_simplex(np.ones((2, 2)), eps=0.1)
    with pytest.raises(ValueError):
        project_truncated_simplex(np.array([1.0, 2.0]), eps=0.0)
    with pytest.raises(ValueError):
        project_truncated_simplex(np.array([1.0, 2.0]), eps=1.0)


def test_kl_divergence_conventions():
    assert kl_divergence(np.array([0.0, 1.0]), np.array([0.5, 0.5])) == pytest.approx(
        np.log(2.0)
    )
    # 0 log 0 contributes nothing even against a matching zero
    assert kl_divergence(np.array([0.0, 1.0]), np.array([0.0, 1.0])) == 0.0
    with pytest.raises(ValueError):
        kl_divergence(np.array([-0.1, 1.1]), np.array([0.5, 0.5]))
    with pytest.raises(ValueError):
        kl_divergence(np.array([0.5, 0.5]), np.array([0.5, 0.0]))


positive_vectors = st.integers(min_value=2, max_value=8).flatmap(
    lambda n: st.lists(
        st.floats(min_value=1e-6, max_value=1e6, allow_nan=False, allow_infinity=False),
        min_size=n,
        max_size=n,
    )
)


@settings(max_examples=200, deadline=None)
@given(ys=positive_vectors, eps=st.floats(min_value=1e-6, max_value=0.999))
def test_output_lies_in_truncated_simplex(ys, eps):
    y = np.array(ys)
    x = project_truncated_simplex(y, eps)
    assert abs(x.sum() - 1.0) <= 1e-12
    assert np.all(x >= eps / y.size - 1e-15)


@settings(max_examples=200, deadline=None)
@given(ys=positive_vectors, eps=st.floats(min_value=1e-6, max_value=0.999))
def test_clipped_coordinates_sit_exactly_on_floor(ys, eps):
    y = np.array(ys)
    n = y.size
    floor = eps / n
    x = project_truncated_simplex(y, eps)
    clipped = x <= floor + 1e-15
    assert np.all(x[clipped] == floor)
    # unclipped coordinates share one scale factor relative to the input
    free = ~clipped
    if free.sum() >= 2:
        ratios = x[free] / (y[free] / y.max())
        assert np.all(np.abs(ratios - ratios[0]) <= 1e-9 * ratios[0])


@settings(max_examples=200, deadline=None)
@given(ys=positive_vectors, eps=st.floats(min_value=1e-6, max_value=0.999))
def test_projection_is_idempotent(ys, eps):
    y = np.array(ys)
    x = project_truncated_simplex(y, eps)
    again = project_truncated_simplex(x, eps)
    assert np.allclose(again, x, rtol=0, atol=1e-12)


@settings(max_examples=200, deadline=None)
@given(
    ys=positive_vectors,
    eps=st.floats(min_value=1e-6, max_value=0.999),
    scale=st.floats(min_value=1e-9, max_value=1e9),
)
def test_projection_ignores_input_scale(ys, eps, scale):
    y = np.array(ys)
    a = project_truncated_simplex(y, eps)
    b = project_truncated_simplex(y * scale, eps)
    assert np.allclose(a, b, rtol=0, atol=1e-9)


@settings(max_examples=200, deadline=None)
@given(
    ys=positive_vectors,
    eps=st.floats(min_value=1e-6, max_value=0.999),
    seed=st.integers(min_value=0, max_value=2**31),
)
def test_projection_commutes_with_permutation(ys, eps, seed):
    y = np.array(ys)
    perm = np.random.default_rng(seed).permutation(y.size)
    a = project_truncated_simplex(y, eps)
    b = project_truncated_simplex(y[perm], eps)
    assert np.allclose(b, a[perm], rtol=0, atol=1e-12)


@settings(max_examples=200, deadline=None)
@given(ys=positive_vectors, eps=st.floats(min_value=1e-6, max_value=0.999))
def test_projection_preserves_input_ordering(ys, eps):
    y = np.array(ys)
    x = project_truncated_simplex(y, eps)
    order = np.argsort(y, kind="stable")
    assert np.all(np.diff(x[order]) >= -1e-12)


# ------------------------------------------- bitwise match with the reference

sizes = st.integers(min_value=2, max_value=1000)
# eps anywhere in (0, 1), and close to each end
epsilons = st.one_of(
    st.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True),
    st.floats(min_value=1e-12, max_value=1e-3),
    st.floats(min_value=0.99, max_value=1.0 - 1e-12),
)
# Entries log-uniform over up to 600 decades: normalizing by the max can
# underflow the smallest to subnormals or zero.
spread_vectors = st.builds(
    lambda n, decades, seed: 10.0 ** np.random.default_rng(seed).uniform(-decades, decades, n),
    sizes,
    st.floats(min_value=0.0, max_value=300.0),
    st.integers(min_value=0, max_value=2**32 - 1),
)


@st.composite
def repeated_values(draw):
    """Entries drawn from a handful of values, so ties are everywhere."""
    pool = np.array(
        draw(st.lists(st.floats(min_value=1e-6, max_value=1e6), min_size=1, max_size=4))
    )
    n = draw(sizes)
    return pool[draw(arrays(np.intp, n, elements=st.integers(0, pool.size - 1)))]


@st.composite
def tied_at_floor(draw):
    """A tied group that the projection maps exactly onto the floor, plus
    larger entries: roundoff then decides which members of the group each
    candidate prefix clips, so partial clips of a tie occur."""
    eps = draw(st.floats(min_value=0.01, max_value=0.999))
    tied = draw(st.integers(min_value=2, max_value=600))
    rest = draw(
        arrays(np.float64, draw(st.integers(1, 400)), elements=st.floats(0.3, 1.0))
    )
    floor = eps / (tied + rest.size)
    value = floor * rest.sum() / (1.0 - floor * tied)
    y = np.concatenate([np.full(tied, value), rest])
    np.random.default_rng(draw(st.integers(0, 2**32 - 1))).shuffle(y)
    return y, eps


def _assert_matches_reference(y: np.ndarray, eps: float) -> None:
    x = project_truncated_simplex(y, eps)
    assert np.array_equal(x, _reference_projection(y, eps))


@settings(max_examples=150, deadline=None)
@given(y=spread_vectors, eps=epsilons)
def test_matches_reference_across_magnitudes(y, eps):
    _assert_matches_reference(y, eps)


@settings(max_examples=150, deadline=None)
@given(y=repeated_values(), eps=epsilons)
def test_matches_reference_with_repeated_values(y, eps):
    _assert_matches_reference(y, eps)


@settings(max_examples=150, deadline=None)
@given(case=tied_at_floor())
# The two lowest-index tied entries are clipped to 0.23; the third is
# rescaled to 0.23000000000000004.
@example(
    case=(np.array([0.7419354838709679, 1.0, 0.7419354838709679, 0.7419354838709679]), 0.92)
)
def test_matches_reference_with_ties_at_the_clip_boundary(case):
    _assert_matches_reference(*case)
