"""Property tests: trace files round-trip, the trace loader equals a reader
that checks every row in full, closed-form outputs stay in range, the
float-level scan equals its one-dataclass-per-point reference and finds the
closed-form s2 > 0 optimum, sticky labels follow the size-ordered prefix
rule and equal that rule written out by sorting every trade, the two-pool
replay kernel makes the decisions of the cpmm-composed reference replay,
the equilibrium search's round loop finds a crossing of the residual, on
real replays and on any residuals,
a sweep scaled by a power of two is the same sweep, volumes scaled, with
no loyal flow every crossing rate is the tie 1 - (1-t2)/(1+d), swapping the
two pools mirrors a replay, and one cell table serves sweeps at any t2 and d.

Hypothesis runs derandomized with a small example budget, so the suite stays
deterministic and fast; the strategies cover every value the validators
accept, boundaries included.
"""

import csv
import math
import random
import tempfile
import warnings
from array import array
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from takerate.analytical import (
    IndeterminateEquilibriumError,
    ModelParams,
    _golden_max,
    equilibrium_share,
    optimal_take_rate,
    protocol_revenue,
    take_rate_grid,
    unit_grid,
)
from takerate import simulation
from takerate.cpmm import PoolState
from takerate.data_io import (
    TRACE_HEADER,
    SyntheticSpec,
    TraceFormatError,
    generate_trades,
    load_trades,
    save_trades,
)
from takerate.simulation import (
    SimOutcome,
    Trace,
    assign_sticky,
    check_trade,
    find_equilibrium,
    replay_trades,
)
import test_simulation
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


def load_checking_every_row(path):
    """load_trades' rule, every row in full: strip each field, then float, then check_trade."""
    a2b, amounts = bytearray(), array("d")
    with open(path, newline="", encoding="utf-8-sig") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader, None)
            if header is None:
                raise TraceFormatError(f"{path}: empty file, expected header direction,amount_in")
            if [h.strip(" \t") for h in header] != TRACE_HEADER:
                raise TraceFormatError(
                    f"{path}: line {reader.line_num}: expected header direction,amount_in, "
                    f"got {','.join(header)}"
                )
            for row in reader:
                where = f"{path}: line {reader.line_num}"
                if not row:
                    continue
                if len(row) != 2:
                    raise TraceFormatError(f"{where}: expected 2 fields, got {len(row)}")
                direction, raw_amount = row[0].strip(" \t"), row[1].strip()
                try:
                    amount = float(raw_amount)
                except ValueError:
                    raise TraceFormatError(f"{where}: amount_in is not a number: {raw_amount!r}") from None
                try:
                    check_trade(direction, amount)
                except ValueError as exc:
                    raise TraceFormatError(f"{where}: {exc}") from None
                a2b.append(direction == "a2b")
                amounts.append(amount)
        except csv.Error as exc:
            raise TraceFormatError(f"{path}: line {reader.line_num}: {exc}") from None
    return Trace(bytes(a2b), amounts)  # the constructor checks every trade again


def loaded(load, path):
    """What load gives for path: its Trace or its TraceFormatError's text, and its warnings."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result = load(path)
        except TraceFormatError as exc:
            result = str(exc)
    return result, [str(w.message) for w in caught]


def quoted(field):
    return '"' + field.replace('"', '""') + '"'


# padded, underscored, signed, out-of-range and non-numeric amounts; \x1c-\x1f
# are whitespace to str.strip() but not to float()
tricky_amounts = st.sampled_from([
    "7", " 7 ", "\t7\t", "\x1c7\x1c", "7\x1f", "\x0b7\x0c", "\xa07", "1_000", "1__0", "1e309",
    "1e-400", "5e-324", "-0.0", "0", "0.0", "-1", "nan", "-inf", "inf", "Infinity", "", " ", "x",
    "0x10", "7\n", "\n7", "7,5", '"7"', "\x00",
])
directions = st.sampled_from([
    "a2b", "b2a", " a2b", "b2a ", "\ta2b\t", "a2b\x1c", "\xa0b2a", "A2B", "a2b\n", "", "x", "\x00",
])
amount_fields = st.one_of(
    tricky_amounts,
    st.floats().map(repr),
    st.floats(min_value=1e-6, max_value=1e6).map(lambda x: f"{x:.17g}"),
    st.text(alphabet="0123456789.e-+_ \t\x1cna", max_size=8),
)
field_lists = st.one_of(
    st.tuples(directions, amount_fields).map(list),
    st.lists(st.one_of(directions, amount_fields), max_size=3),
)


@st.composite
def trace_files(draw):
    """The text of a trace CSV: padded, quoted and broken rows among good ones."""
    header = draw(st.sampled_from(["direction,amount_in", " direction ,\tamount_in", "amount_in,direction"]))
    ends = st.sampled_from(["\n", "\r\n", "\r"])
    lines = [header + draw(ends)]
    for fields in draw(st.lists(field_lists, max_size=8)):
        fields = [quoted(f) if draw(st.booleans()) else f for f in fields]
        lines.append(",".join(fields) + draw(ends))
    return "".join(lines)


HEADER = "direction,amount_in\n"


@settings(PROPERTY, max_examples=300)
@given(trace_files())
@example(HEADER + "a2b,\x1c7\x1c\nb2a, 7 \n")  # padded amounts
@example(HEADER + " a2b ,7\n\tb2a\t,8\n")  # padded directions
@example(HEADER + "a2b,1_000\n")
@example(HEADER + "a2b,1e309\n")
@example(HEADER + "b2a,-0.0\n")
@example(HEADER + "a2b,3\n\n\nb2a,4\n")  # blank lines
@example(HEADER + "a2b,3,4\n")  # three fields
@example(HEADER + '"a2b\n",1\nb2a,-5\n')  # a quoted line break
@example(HEADER + 'a2b,"1\n"\nb2a,"\n2"\n')
@example(HEADER + "a2b\n")  # one field
@example("")
@example(HEADER)
def test_trace_loader_equals_a_reader_that_checks_every_row(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "trace.csv"
        path.write_bytes(text.encode("utf-8"))
        assert loaded(load_trades, path) == loaded(load_checking_every_row, path)


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
            routed = 1.0 - params.s1 - params.s2
            if routed <= 1e-12:
                return t1 * (params.s1 + routed * 0.0)
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


def closed_form_optimum(s1, s2, t2, d):
    """The s2 > 0 optimum in closed form: (t1*, rev1*, l*), l* None at a corner.

    With k = (1-t2)/(1+d) and R = 1-s1-s2, the equilibrium share l has
    t1 = 1 - k*l*v2/((1-l)*v1), so rev1 = s1 + R*(1-k)*l - k*s2*l/(1-l).  That
    is concave in l, and l falls as t1 rises, so revenue peaks at
    l* = 1 - sqrt(k*s2/(R*(1-k))), or at the corner t1 = 1 (l = 0, rev1 = s1)
    when k*s2 >= R*(1-k).
    """
    k = (1.0 - t2) / (1.0 + d)
    routed = 1.0 - s1 - s2
    if k * s2 >= routed * (1.0 - k):
        return 1.0, s1, None
    l = 1.0 - math.sqrt(k * s2 / (routed * (1.0 - k)))
    v1, v2 = s1 + routed * l, s2 + routed * (1.0 - l)
    t1 = 1.0 - k * l * v2 / ((1.0 - l) * v1)
    return t1, s1 + routed * (1.0 - k) * l - k * s2 * l / (1.0 - l), l


@st.composite
def closed_form_params(draw):
    """s1 in [0, 0.5], s2 in [0.001, 0.5], s1 + s2 <= 0.98, t2 in [0, 0.9], d in [0, 1]."""
    s1 = draw(st.floats(min_value=0.0, max_value=0.5))
    s2 = draw(st.floats(min_value=0.001, max_value=0.5))
    assume(s1 + s2 <= 0.98)
    t2 = draw(st.floats(min_value=0.0, max_value=0.9))
    d = draw(st.floats(min_value=0.0, max_value=1.0))
    return ModelParams(t1=0.0, t2=t2, s1=s1, s2=s2, d=d)


# Bounds measured over 299,929 draws of closed_form_params' ranges.  The scan
# resolves t1* by golden section to 1e-6, so to 5e-7 (measured 3.95e-7) where
# the peak stands 1e-7 above the corner's revenue; below that the revenue is
# too flat for its floats to place t1*.  Its revenue lags by up to 6e-11
# (measured 5.05e-11) and never leads by more than rounding.
CLOSED_FORM_T1_TOL = 5e-7
CLOSED_FORM_PEAK = 1e-7
CLOSED_FORM_REV_LAG = 6e-11
CLOSED_FORM_REV_LEAD = 2.0 * math.ulp(1.0)
# With 0 < s1 <= 6.4e-12 the scan can miss a peak that lies below its first
# step; test_scan_misses_a_peak_below_its_first_step pins one such draw.
TINY_S1 = 1e-11


@settings(PROPERTY, max_examples=300)
@given(closed_form_params())
def test_optimal_take_rate_equals_the_closed_form_optimum(params):
    s1 = params.s1
    t_star, rev_star = optimal_take_rate(params)
    t_cf, rev_cf, l_star = closed_form_optimum(s1, params.s2, params.t2, params.d)
    assert rev_star - rev_cf <= CLOSED_FORM_REV_LEAD
    if 0.0 < s1 < TINY_S1:
        return
    assert rev_cf - rev_star <= CLOSED_FORM_REV_LAG
    if l_star is None:
        if s1 == 0.0:
            # every take rate earns 0, and ties go to the smaller
            assert (t_star, rev_star) == (0.0, 0.0)
        elif s1 >= 1e-6:
            # below that, rounding can favour another take rate at revenue s1
            assert (t_star, rev_star) == (1.0, s1)
    elif rev_cf - s1 >= CLOSED_FORM_PEAK:
        assert abs(t_star - t_cf) <= CLOSED_FORM_T1_TOL


@pytest.mark.xfail(strict=True, reason="the scan misses a peak narrower than its 0.001 step")
def test_scan_misses_a_peak_below_its_first_step():
    # The peak, 9.0e-7 above the corner, lies at t1 = 3.1e-5; every grid point
    # earns about s1, so the scan refines around t1 = 0.375 and returns 1e-323.
    params = ModelParams(t1=0.0, t2=0.001, s1=5e-324, s2=0.001, d=6.103515625e-05)
    _, rev_cf, _ = closed_form_optimum(params.s1, params.s2, params.t2, params.d)
    assert rev_cf == pytest.approx(9.03e-7, rel=1e-3)
    _, rev_star = optimal_take_rate(params)
    assert rev_cf - rev_star <= CLOSED_FORM_REV_LAG


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


def sticky_by_full_sort(trace, s1, s2, seed):
    """assign_sticky's rule written out by sorting every trade index by size."""
    labels = [0] * len(trace)
    if s1 + s2 == 0.0:
        return labels
    amounts = trace.amounts
    total = 0.0
    for amount in amounts:
        total += amount
    sticky = []
    sticky_volume = 0.0
    for i in sorted(range(len(amounts)), key=amounts.__getitem__):
        if sticky_volume >= (s1 + s2) * total:
            break
        sticky.append(i)
        sticky_volume += amounts[i]
    if s2 == 0.0:
        for i in sticky:
            labels[i] = 1
        return labels
    shuffled = sticky[:]
    random.Random(seed).shuffle(shuffled)
    taken = 0.0
    for i in shuffled:
        if taken < s1 / (s1 + s2) * sticky_volume:
            labels[i] = 1
            taken += amounts[i]
        else:
            labels[i] = 2
    return labels


@st.composite
def sticky_rates(draw):
    """s1 and s2 with s1 + s2 <= 1, often 0 or summing to 1."""
    s1 = draw(st.one_of(st.sampled_from([0.0, 0.25, 0.5, 1.0]), unit))
    s2 = draw(st.one_of(st.sampled_from([0.0, 1.0 - s1]), st.floats(min_value=0.0, max_value=1.0 - s1)))
    assume(s1 + s2 <= 1.0)
    return s1, s2


@settings(PROPERTY, max_examples=150)
@given(
    # a handful of sizes, so that the prefix often ends inside a run of ties
    traces(st.sampled_from([0.5, 1.0, 2.0, 3.0, 40.0]), min_size=1, max_size=60),
    sticky_rates(),
    st.integers(min_value=0, max_value=2**32),
)
@example(trace_of(("a2b", 1.0), ("b2a", 1.0), ("a2b", 2.0), ("a2b", 1.0)), (0.25, 0.75), 3)
@example(trace_of(("a2b", 2.0), ("b2a", 1.0), ("a2b", 2.0), ("b2a", 2.0)), (0.0, 0.5), 11)
# (s1 + s2) * V underflows to 0: no trade is loyal
@example(trace_of(("a2b", 1e-300), ("b2a", 2e-300)), (5e-324, 5e-324), 0)
def test_labels_equal_the_rule_that_sorts_every_trade(trace, rates, seed):
    s1, s2 = rates
    assert assign_sticky(trace, s1, s2, seed) == sticky_by_full_sort(trace, s1, s2, seed)


@st.composite
def two_pool_replays(draw):
    """Two balanced pools with unequal fees, pool 1 often tiny, and a labelled trace."""
    L1 = draw(st.one_of(st.floats(min_value=1.0, max_value=100.0), st.floats(min_value=1.0, max_value=1e6)))
    L2 = draw(st.floats(min_value=1.0, max_value=1e6))
    fees = st.one_of(st.floats(min_value=0.0, max_value=0.05), st.just(1e-9))
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
# equalising splits between pools whose fee band is about 2e-9 wide
@example(
    (PoolState(5e3, 5e3, fee=1e-9), PoolState(2e4, 2e4, fee=1e-9),
     trace_of(("a2b", 60.0), ("b2a", 30.0), ("a2b", 5.0), ("b2a", 400.0)), [1, 0, 2, 0], 0.1)
)
@example(
    (PoolState(5e3, 5e3, fee=0.003), PoolState(2e4, 2e4, fee=1e-9),
     trace_of(("a2b", 60.0), ("b2a", 30.0), ("a2b", 5.0), ("b2a", 400.0)), [1, 0, 2, 0], 0.1)
)
def test_two_pool_kernel_matches_the_reference_replay(replay):
    pool1, pool2, trace, labels, threshold = replay
    ref = replay_trades(pool1, pool2, trace, labels, threshold)[0]
    out = simulation._replay_two(
        pool1.reserve_a, pool1.reserve_b, pool1.fee, pool2.reserve_a, pool2.reserve_b, pool2.fee,
        trace, labels, threshold,
    )[0]
    assert (out.arb_count, out.rerouted_count) == (ref.arb_count, ref.rerouted_count)
    for field in ("volume_1", "volume_2", "arb_volume_1", "arb_volume_2"):
        assert math.isclose(getattr(out, field), getattr(ref, field), rel_tol=1e-9), field


def at_a_crossing(res, m, i):
    """Whether cell i is where the search may stop, given interior residuals res.

    Cell m needs res(m-1) > 0 and cell 0 res(1) < 0; an interior cell holds a
    zero residual or ends a pair of neighbours with res(a) >= 0 >= res(a+1).
    """
    if i == m:
        return res[m - 1] > 0.0
    if i == 0:
        return res[1] < 0.0
    return res[i] == 0.0 or any(res[a] >= 0.0 >= res[a + 1] for a in (i - 1, i) if 1 <= a < m - 1)


@st.composite
def short_searches(draw):
    """A short trace, a market, L_total and a liquidity step for a real search."""
    trace = draw(traces(st.floats(min_value=1.0, max_value=1e3), min_size=1, max_size=40))
    s1, s2 = draw(sticky_rates())
    params = ModelParams(
        t1=draw(unit), t2=draw(unit), s1=s1, s2=s2,
        d=draw(st.floats(min_value=0.0, max_value=1.0)),
        f=draw(st.sampled_from([0.0005, 0.003, 0.01])),
    )
    L_total = draw(st.sampled_from([1e4, 1e5, 1e6]))
    step = draw(st.sampled_from([0.02, 0.05, 0.1, 0.125, 0.3, 0.5]))
    return trace, params, L_total, step


# large trades against small pools: at t1 = 0.59 the residual changes sign
# five times over this trace's table, and the search stops at l1 = 0.11, a
# crossing other than the full scan's 0.12
MANY_CROSSINGS = (
    generate_trades(SyntheticSpec(n_trades=800, size_sigma=2.0, seed=0)),
    ModelParams(t1=0.59, t2=0.0, s1=0.2, s2=0.1, d=0.0, f=0.0005),
    1e5,
    0.005,
)


@settings(PROPERTY, max_examples=40)
@given(short_searches())
@example(MANY_CROSSINGS)
def test_search_stops_at_a_crossing_of_the_full_table(search):
    # Where the full table's residual falls by more than the tie tolerance
    # from cell to cell, the search and every sweep sample equal the full
    # scan.  Where it changes sign once, the result does not depend on the
    # cells read, so a sample equals the lone search.  Otherwise each stops
    # at an end cell or a sign change.
    trace, params, L_total, step = search
    full = test_simulation.TestFindEquilibrium
    table = full.full_table(params, trace, L_total, step)
    m = table.m
    samples = {s.t1: s for s in simulation.sweep_take_rate(params, trace, L_total, 0.1, step).samples}
    for t1 in sorted(samples) + [params.t1]:
        at_t1 = replace(params, t1=t1)
        lone = find_equilibrium(at_t1, trace, L_total, step)
        sample = samples.get(t1, lone)
        res = full.residuals(at_t1, table)
        positive = [res[i] > 0.0 for i in range(1, m)]
        if all(res[i] - res[i + 1] > 1e-12 for i in range(1, m - 1)):
            assert (lone.l1, lone.rev1) == full.full_scan(at_t1, table)
        if positive == sorted(positive, reverse=True):
            assert sample == lone
        for result in (lone, sample):
            assert at_a_crossing(res, m, table.shares.index(result.l1))


@st.composite
def any_residuals(draw):
    """A stub table of any residuals, exact zeros included, and a few take rates."""
    m = draw(st.integers(min_value=2, max_value=30))
    shares = [i / m for i in range(m)] + [1.0]
    volume = st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=10.0))
    outcomes = [
        SimOutcome(draw(volume), draw(volume), 0, 0, 0.0, 0.0) for _ in range(m + 1)
    ]
    t1s = draw(st.lists(unit, min_size=1, max_size=5))
    return shares, outcomes, t1s


@settings(PROPERTY, max_examples=200)
@given(any_residuals())
def test_round_loop_narrows_every_bracket_on_any_residuals(stub):
    # The stub's fill raises on a cell requested twice or a round that
    # fills nothing.  Each take rate's bracket is followed here by the
    # search's rule: it starts at (0, m), ends not read yet, and moves past
    # every filled cell inside it, lo on a positive residual or a zero at
    # cell 1, hi at the first other one; a bracket that reaches an edge
    # closes on cell 0 or, if res(m-1) > 0, on cell m.
    shares, outcomes, t1s = stub
    table = test_simulation.HiddenCellTable(shares, outcomes)
    m = table.m
    params = ModelParams(t1=0.0, t2=0.0, s1=0.0, s2=0.0, d=0.0, f=0.003)
    results = simulation._solve(params, t1s, table)
    assert len(table.rounds) <= m + 1  # the loop ended, within one round per cell

    def residual(t1, i):  # _solve's expression with L_total = f = 1 and t2 = d = 0
        o, l1 = outcomes[i], shares[i]
        return (1.0 - t1) * o.volume_1 / l1 - o.volume_2 / (1.0 - l1)

    for t1, result in zip(t1s, results):
        res = {i: residual(t1, i) for i in range(1, m)}
        lo, hi = 0, m
        held = set()
        for request in table.rounds:
            held.update(request)
            if hi - lo <= 1:
                continue
            width = hi - lo
            for i in range(lo + 1, hi):
                if i in held:
                    if res[i] > 0.0 or res[i] == 0.0 and i == 1:
                        lo = i
                    else:
                        hi = i
                        break
            if hi - lo == 1 and lo == 0:
                hi = 0
            elif hi - lo == 1 and hi == m:
                lo = hi = m if res[lo] > 0.0 else lo
            assert hi - lo < width  # every round narrows every open bracket
        i = shares.index(result.l1)
        assert at_a_crossing(res, m, i)
        assert i in (lo, hi)


@st.composite
def sticky_sweeps(draw):
    """A short trace and a sticky market with pools large enough for interior equilibria."""
    trace = draw(traces(st.floats(min_value=1.0, max_value=1e3), min_size=5, max_size=40))
    rate = st.floats(min_value=0.05, max_value=0.45)
    params = ModelParams(
        t1=0.0, t2=draw(st.floats(min_value=0.0, max_value=0.5)), s1=draw(rate), s2=draw(rate),
        d=draw(st.floats(min_value=0.0, max_value=0.2)),
        f=draw(st.sampled_from([0.0005, 0.003, 0.01])),
    )
    L_total = draw(st.sampled_from([1e5, 1e6]))
    step = draw(st.sampled_from([0.02, 0.05, 0.1]))
    return trace, params, L_total, step


@PROPERTY
@given(sticky_sweeps())
def test_a_sweep_scaled_by_a_power_of_two_is_the_same_sweep(sweep):
    # CPMM math is homogeneous and every replay threshold scales with the
    # reserves, so scaling every trade and L_total by 2**k, which is exact,
    # scales the volumes and leaves every share, ROI and revenue as it was.
    # Every scale here passes _check_scale.
    trace, params, L_total, step = sweep
    plain = simulation.sweep_take_rate(params, trace, L_total, 0.1, step).samples
    for k in range(-4, 11):
        factor = 2.0 ** k
        scaled = Trace(trace.a2b, array("d", [a * factor for a in trace.amounts]))
        samples = simulation.sweep_take_rate(params, scaled, L_total * factor, 0.1, step).samples
        for s, p in zip(samples, plain, strict=True):
            assert (s.t1, s.l1, s.rev1, s.r1, s.r2) == (p.t1, p.l1, p.rev1, p.r1, p.r2), k
            assert (s.v1, s.v2) == (p.v1 * factor, p.v2 * factor), k


# one trade of 1.36 while pool 2 holds 2e4 of L_total = 1e6 (l1 = 0.98): the
# largest deviation found, 1.06e-8 of the tie
@example((
    trace_of(("b2a", 1.3551545036668646)),
    ModelParams(t1=0.0, t2=0.0, s1=0.0, f=0.0005), 1e6, 0.02,
))
@PROPERTY
@given(short_searches().map(lambda s: (s[0], replace(s[1], s1=0.0, s2=0.0), *s[2:])))
def test_with_no_loyal_flow_every_crossing_rate_is_the_tie(search):
    # With no loyal trade every trade splits pro rata and leaves both pools at
    # one price, so vol2/L2 = vol1/L1 at every interior cell and each crossing
    # rate is 1 - (1-t2)/(1+d), t2 itself at d = 0.  The split's x1 = w1 *
    # scale - shift1 cancels terms of size L_total, so each trade moves the
    # ratio by a few ulps of L_total against the smaller pool's share of V.
    # The factor 16 is seven times the largest measured, 2.25 on 8,000
    # random traces of this kind.
    trace, params, L_total, step = search
    table = test_simulation.TestFindEquilibrium.full_table(params, trace, L_total, step)
    n, V = len(trace.amounts), table.total_volume
    tie = 1.0 - (1.0 - params.t2) / (1.0 + params.d)
    for j in range(1, table.m):
        l1 = table.shares[j]
        bound = 16.0 * 2.0**-52 * (n * L_total + V) / (V * min(l1, 1.0 - l1))
        assert abs(test_simulation.crossing_rate(params, table, j) - tie) <= bound


@st.composite
def mirrored_replays(draw):
    """A two-pool replay at a sweep's scale: a short trace, pool 1 at an interior grid share."""
    trace, _, L_total, step = draw(short_searches())
    l1 = draw(st.sampled_from(unit_grid(step)[1:-1]))
    fees = st.sampled_from([0.0005, 0.003, 0.01])
    labels = draw(st.lists(st.sampled_from([0, 1, 2]), min_size=len(trace), max_size=len(trace)))
    threshold = draw(st.sampled_from([0.0, 0.1, 1.0, 2.0]))
    return (l1 * L_total, draw(fees)), ((1.0 - l1) * L_total, draw(fees)), trace, labels, threshold


# the largest gap a search over one-trade replays found, 1.43e-8 relative
@example((
    (0.98 * 1e6, 0.0005), ((1.0 - 0.98) * 1e6, 0.0005),
    trace_of(("a2b", 1.0003172151715594)), [0], 0.0,
))
@PROPERTY
@given(mirrored_replays())
def test_swapping_the_pools_mirrors_the_two_pool_replay(replay):
    # Pool 1 with labels 1 replays as pool 2 with labels 2 does.  The split's
    # x1 = w1 * scale - shift1 cancels terms of its pool's size, so the two
    # orders can give the smaller pool's share of a small trade about an ulp
    # of the larger reserve apart.  The bound 5e-8 is about ten times the
    # largest relative gap on 20,000 random replays of this kind (4.9e-9),
    # and three and a half times the example above.
    (L1, f1), (L2, f2), trace, labels, threshold = replay
    out = simulation._replay_two(L1, L1, f1, L2, L2, f2, trace, labels, threshold)[0]
    swapped = [(0, 2, 1)[label] for label in labels]
    mirror = simulation._replay_two(L2, L2, f2, L1, L1, f1, trace, swapped, threshold)[0]
    assert (mirror.arb_count, mirror.rerouted_count) == (out.arb_count, out.rerouted_count)
    for field, mirrored in [("volume_1", "volume_2"), ("volume_2", "volume_1"),
                            ("arb_volume_1", "arb_volume_2"), ("arb_volume_2", "arb_volume_1")]:
        assert math.isclose(getattr(out, field), getattr(mirror, mirrored), rel_tol=5e-8), field


@PROPERTY
@given(sticky_sweeps(), st.floats(min_value=0.0, max_value=0.5), st.floats(min_value=0.0, max_value=0.2))
def test_one_table_serves_sweeps_at_any_t2_and_d(sweep, t2, d):
    # a cell does not depend on t2 or d, and the closed form picks only which
    # cells a solve reads first: a table one (t2, d) filled serves the next
    trace, params, L_total, step = sweep
    table = simulation._CellTable(params, trace, L_total, step, 0, 0.1)
    for at in (params, replace(params, t2=t2, d=d)):
        fresh = simulation.sweep_take_rate(at, trace, L_total, 0.1, step).samples
        assert tuple(simulation._solve(at, take_rate_grid(0.1), table)) == fresh
