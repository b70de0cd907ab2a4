"""Property tests: trace files round-trip, closed-form outputs stay in range,
the float-level scan equals its one-dataclass-per-point reference, sticky
labels follow the size-ordered prefix rule, and the two-pool replay kernel
makes the decisions of the cpmm-composed reference replay.

Hypothesis runs derandomized with a small example budget, so the suite stays
deterministic and fast; the strategies cover every value the validators
accept, boundaries included.
"""

import math
import tempfile
from dataclasses import replace
from pathlib import Path

from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from takerate.analytical import (
    IndeterminateEquilibriumError,
    ModelParams,
    _golden_max,
    equilibrium_share,
    optimal_take_rate,
    protocol_revenue,
    revenue_at,
    take_rate_grid,
)
from takerate import simulation
from takerate.cpmm import PoolState
from takerate.data_io import load_trades, save_trades
from takerate.simulation import assign_sticky, replay_trades
from traces import trace_of

PROPERTY = settings(derandomize=True, max_examples=60, deadline=None, database=None)

unit = st.floats(min_value=0.0, max_value=1.0)
positive_amounts = st.floats(
    min_value=0.0, exclude_min=True, allow_nan=False, allow_infinity=False
)


def traces(amounts, min_size, max_size):
    """Traces of min_size to max_size trades of the given sizes."""
    trade = st.tuples(st.sampled_from(["a2b", "b2a"]), amounts)
    trades = st.lists(trade, min_size=min_size, max_size=max_size)
    return trades.map(lambda pairs: trace_of(*pairs))


@st.composite
def model_params(draw):
    """Any ModelParams the constructor accepts."""
    s1 = draw(unit)
    s2 = draw(unit.filter(lambda s2: s1 + s2 <= 1.0))
    return ModelParams(
        t1=draw(unit),
        t2=draw(unit),
        s1=s1,
        s2=s2,
        d=draw(st.floats(min_value=0.0, allow_nan=False, allow_infinity=False)),
        f=draw(st.floats(min_value=0.0, max_value=1.0, exclude_max=True)),
    )


@PROPERTY
@given(traces(positive_amounts, min_size=1, max_size=20))
def test_trace_round_trips_through_csv(trace):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "trace.csv"
        save_trades(path, trace)
        assert load_trades(path) == trace


@PROPERTY
@given(model_params())
def test_equilibrium_share_in_unit_interval_or_indeterminate(params):
    try:
        l1 = equilibrium_share(params)
    except IndeterminateEquilibriumError:
        return
    assert 0.0 <= l1 <= 1.0


@settings(PROPERTY, max_examples=25)
@given(model_params())
# pool 1 has no volume at any split, so every split is an equilibrium
@example(ModelParams(t1=0.0, t2=1.0, s1=0.0, s2=1.0))
def test_optimal_take_rate_is_finite_and_in_range(params):
    t_star, rev_star = optimal_take_rate(params)
    assert math.isfinite(t_star) and math.isfinite(rev_star)
    assert 0.0 <= t_star <= 1.0


def reference_optimal_take_rate(params, take_step=0.001):
    """optimal_take_rate's s2 > 0 scan, one validated ModelParams per point."""

    def rev(t1):
        at_t1 = replace(params, t1=t1)
        try:
            return protocol_revenue(at_t1)
        except IndeterminateEquilibriumError:
            if 1.0 - params.s1 - params.s2 <= 1e-12:
                return revenue_at(at_t1, 0.0)
            return -math.inf

    grid = take_rate_grid(take_step)
    best_t, best_rev = grid[0], rev(grid[0])
    for t1 in grid[1:]:
        r = rev(t1)
        if r > best_rev:
            best_t, best_rev = t1, r
    refined_t = _golden_max(
        rev, max(0.0, best_t - take_step), min(1.0, best_t + take_step), tol=1e-6
    )
    refined_rev = rev(refined_t)
    if refined_rev > best_rev or (refined_rev == best_rev and refined_t < best_t):
        return refined_t, refined_rev
    return best_t, best_rev


@st.composite
def competitor_sticky_params(draw):
    """ModelParams with s2 > 0, the case optimal_take_rate scans."""
    s2 = draw(st.floats(min_value=0.0, max_value=1.0, exclude_min=True))
    s1 = draw(st.floats(min_value=0.0, max_value=1.0 - s2))
    assume(s1 + s2 <= 1.0)
    return ModelParams(
        t1=0.0,
        t2=draw(unit),
        s1=s1,
        s2=s2,
        d=draw(st.floats(min_value=0.0, max_value=1e3)),
    )


@settings(PROPERTY, max_examples=25)
@given(competitor_sticky_params())
@example(ModelParams(t1=0.0, t2=0.3, s1=0.4, s2=0.6))  # s1 + s2 = 1: nothing routed
@example(ModelParams(t1=0.0, t2=1.0, s1=0.0, s2=1.0))  # every split an equilibrium
def test_optimal_take_rate_equals_per_point_reference(params):
    assert optimal_take_rate(params) == reference_optimal_take_rate(params)


# repeated sizes exercise the size-order tie break
trade_sizes = st.one_of(st.sampled_from([1.0, 2.0, 5.0]), st.floats(min_value=0.01, max_value=1e4))


@PROPERTY
@given(
    traces(trade_sizes, min_size=1, max_size=40),
    st.floats(min_value=0.0, max_value=1.0),
    st.floats(min_value=0.0, max_value=1.0),
    st.integers(min_value=0, max_value=2**32),
)
@example(trace_of(("a2b", 3.0), ("b2a", 3.0)), 0.0, 0.0, 0)  # s1 + s2 = 0
def test_loyal_trades_are_a_prefix_by_size_then_trace_order(trace, s1, s2, seed):
    assume(s1 + s2 <= 1.0)
    labels = assign_sticky(trace, s1, s2, seed)
    assert len(labels) == len(trace) and set(labels) <= {0, 1, 2}
    if s1 + s2 == 0.0:
        assert labels == [0] * len(trace)
    by_size = sorted(range(len(trace)), key=lambda i: (trace.amounts[i], i))
    loyal = {i for i, lab in enumerate(labels) if lab}
    assert loyal == set(by_size[: len(loyal)])


@st.composite
def two_pool_replays(draw):
    """Two balanced pools with unequal fees, pool 1 often tiny, and a labelled trace."""
    L1 = draw(st.one_of(st.floats(min_value=1.0, max_value=100.0), st.floats(min_value=1.0, max_value=1e6)))
    L2 = draw(st.floats(min_value=1.0, max_value=1e6))
    fees = st.floats(min_value=0.0, max_value=0.05)
    f1, f2 = draw(fees), draw(fees)
    assume(f1 != f2)
    # trades up to ten times the smaller pool keep the replay in float range
    sizes = st.floats(min_value=1e-4 * min(L1, L2), max_value=10.0 * min(L1, L2))
    trace = draw(traces(sizes, min_size=1, max_size=30))
    labels = draw(st.lists(st.sampled_from([0, 1, 2]), min_size=len(trace), max_size=len(trace)))
    threshold = draw(st.sampled_from([0.0, 0.1, 1.0, 2.0]))
    return PoolState(L1, L1, fee=f1), PoolState(L2, L2, fee=f2), trace, labels, threshold


@PROPERTY
@given(two_pool_replays())
# a loyal trade into a tiny pool that reroutes
@example(
    (PoolState(100.0, 100.0, fee=0.003), PoolState(1e4, 1e4, fee=0.001),
     trace_of(("a2b", 60.0), ("b2a", 5.0)), [1, 2], 0.1)
)
def test_two_pool_kernel_matches_the_reference_replay(replay):
    pool1, pool2, trace, labels, threshold = replay
    ref = replay_trades(pool1, pool2, trace, labels, threshold)[0]
    out = simulation._replay_two(
        pool1.reserve_a, pool1.reserve_b, pool1.fee, pool2.reserve_a, pool2.reserve_b, pool2.fee,
        simulation._compile(trace, labels), threshold,
    )[0]
    assert (out.arb_count, out.rerouted_count) == (ref.arb_count, ref.rerouted_count)
    for field in ("volume_1", "volume_2", "arb_volume_1", "arb_volume_2"):
        assert math.isclose(getattr(out, field), getattr(ref, field), rel_tol=1e-9), field
