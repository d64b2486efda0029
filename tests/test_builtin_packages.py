import math
from itertools import product

import pytest
from hypothesis import assume, given, settings, strategies as st
from scipy.stats import norm

from fastgate.builtin_packages import (
    BUILTIN_PACKAGES,
    available_packages,
    register_builtins,
    arithmetic,
    pricer,
    weather,
)
from fastgate.errors import DomainError, ModuleNotAvailable, NoSolution
from fastgate.lambda_machine import FunctionValue, LambdaMachine

from test_values import _Real

# --- registry surface


def test_available_packages_is_sorted_and_complete():
    assert available_packages() == sorted(BUILTIN_PACKAGES)
    assert available_packages() == [
        "basic_arithmetic",
        "higher_order_arithmetic",
        "pricer",
        "weather",
    ]


def test_register_builtins_rejects_unknown_names():
    machine = LambdaMachine()
    with pytest.raises(ModuleNotAvailable):
        register_builtins(machine, names=["pricer", "nope"])


# --- basic arithmetic


def test_binary_operators():
    assert arithmetic.add(2, 3) == 5
    assert arithmetic.subtract(2, 3) == -1
    assert arithmetic.multiply(2, 3) == 6
    assert arithmetic.divide(7, 2) == 3.5


def test_divide_by_zero_is_a_domain_error():
    with pytest.raises(DomainError, match="division by zero"):
        arithmetic.divide(1, 0)


@pytest.mark.parametrize("bad", ["3", None, True, [1], {"a": 1}])
def test_operators_reject_non_numbers(bad):
    with pytest.raises(DomainError, match="must be a number"):
        arithmetic.add(bad, 1)
    with pytest.raises(DomainError, match="must be a number"):
        arithmetic.add(1, bad)


def test_curried_add_returns_a_callable_function_value():
    fv = arithmetic.curried_add(2)
    assert isinstance(fv, FunctionValue)
    assert fv.fn(3) == 5
    assert "2" in fv.label
    with pytest.raises(DomainError):
        fv.fn("three")
    with pytest.raises(DomainError):
        arithmetic.curried_add("two")


# --- weather stub


@pytest.mark.parametrize(
    "latitude,longitude,expected",
    [
        (0, 0, 30.0),
        (90, 0, 0.0),
        (0, 90, 40.0),
        (-45, -30, 10.0),
        (34.05, 118.25, 27.46),
        (35.05, 118.25, 27.13),
    ],
)
def test_weather_formula_values(latitude, longitude, expected):
    assert weather.get_weather(latitude, longitude) == {"temp_c": expected}


@pytest.mark.parametrize(
    "latitude,longitude",
    [(91, 0), (-90.01, 0), (0, 181), (0, -180.5), ("34", 0), (0, None), (True, 0)],
)
def test_weather_rejects_out_of_range_or_non_numeric(latitude, longitude):
    with pytest.raises(DomainError):
        weather.get_weather(latitude, longitude)


@pytest.mark.parametrize(
    "latitude,longitude,message",
    [(float("nan"), 0, "latitude must be finite"), (0, float("-inf"), "longitude must be finite")],
)
def test_weather_reads_its_numbers_by_the_arithmetic_rule(latitude, longitude, message):
    with pytest.raises(DomainError, match=f"^{message}$"):
        weather.get_weather(latitude, longitude)


def test_weather_is_deterministic():
    calls = [weather.get_weather(12.5, -42.25) for _ in range(5)]
    assert all(c == calls[0] for c in calls)


# --- option pricer: frozen reference values
# (independently derived before this package was written)

FROZEN = {
    (100, 1, 100, 0.2): (
        7.965567455405804,
        0.539827837277029,
        0.01984762737385059,
        39.69525474770118,
    ),
    (90, 0.5, 105, 0.35): (
        18.892986885237924,
        0.7723494359286163,
        0.011617835762553234,
        22.41516187437615,
    ),
}


@pytest.mark.parametrize("args,expected", FROZEN.items(), ids=str)
def test_frozen_price_and_greeks(args, expected):
    p, d, g, v = expected
    assert pricer.price(*args) == pytest.approx(p, rel=1e-12)
    assert pricer.delta(*args) == pytest.approx(d, rel=1e-12)
    assert pricer.gamma(*args) == pytest.approx(g, rel=1e-12)
    assert pricer.vega(*args) == pytest.approx(v, rel=1e-12)


def test_frozen_point_values():
    assert pricer.price(100, 1, 100, 0.05) == pytest.approx(1.9945036390476076, rel=1e-12)
    # deep out of the money: essentially worthless but strictly positive
    deep = pricer.price(100, 1, 20, 0.2)
    assert deep == pytest.approx(4.550576920194937e-16, rel=1e-9)
    assert deep > 0


def _reference_price(strike, time, spot, vol):
    d1 = (math.log(spot / strike) + 0.5 * vol * vol * time) / (vol * math.sqrt(time))
    d2 = d1 - vol * math.sqrt(time)
    return spot * norm.cdf(d1) - strike * norm.cdf(d2)


def _reference_greeks(strike, time, spot, vol):
    d1 = (math.log(spot / strike) + 0.5 * vol * vol * time) / (vol * math.sqrt(time))
    return (
        norm.cdf(d1),
        norm.pdf(d1) / (spot * vol * math.sqrt(time)),
        spot * norm.pdf(d1) * math.sqrt(time),
    )


def test_agrees_with_independent_implementation_on_a_grid():
    for strike, time, spot, vol in product(
        (80, 100, 120), (0.25, 1, 5), (80, 100, 120), (0.1, 0.3, 1.0)
    ):
        want = _reference_price(strike, time, spot, vol)
        got = pricer.price(strike, time, spot, vol)
        assert got == pytest.approx(want, rel=1e-11, abs=1e-14 * spot)
        for mine, theirs in zip(
            (
                pricer.delta(strike, time, spot, vol),
                pricer.gamma(strike, time, spot, vol),
                pricer.vega(strike, time, spot, vol),
            ),
            _reference_greeks(strike, time, spot, vol),
        ):
            assert mine == pytest.approx(theirs, rel=1e-12)


# --- option pricer: domain checks


@pytest.mark.parametrize(
    "args",
    [
        (0, 1, 100, 0.2),
        (-5, 1, 100, 0.2),
        (100, 0, 100, 0.2),
        (100, -1, 100, 0.2),
        (100, 1, 0, 0.2),
        (100, 1, 100, 0),
        (100, 1, 100, -0.2),
    ],
)
def test_pricer_rejects_nonpositive_parameters(args):
    for fn in (pricer.price, pricer.delta, pricer.gamma, pricer.vega):
        with pytest.raises(DomainError, match="strictly positive"):
            fn(*args)


def test_pricer_rejects_out_of_range_vol_and_time():
    with pytest.raises(DomainError, match="vol must be at most 10.0"):
        pricer.price(100, 1, 100, 10.5)
    assert pricer.price(100, 1, 100, 10.0) > 0
    with pytest.raises(DomainError, match="time must be at most 100.0 years"):
        pricer.price(100, 101, 100, 0.2)
    assert pricer.price(100, 100, 100, 0.2) > 0


@pytest.mark.parametrize("bad", ["100", None, True, [100], {}])
def test_pricer_rejects_non_numbers(bad):
    with pytest.raises(DomainError, match="must be a number"):
        pricer.price(bad, 1, 100, 0.2)
    with pytest.raises(DomainError, match="must be a number"):
        pricer.price(100, 1, 100, bad)


def test_pricer_rejects_non_finite():
    with pytest.raises(DomainError, match="must be finite"):
        pricer.price(100, 1, math.inf, 0.2)
    with pytest.raises(DomainError, match="must be finite"):
        pricer.implied_vol(100, 1, 100, math.nan)


# --- implied vol


@pytest.mark.parametrize("vol", [0.05, 0.1, 0.2, 0.5, 1, 2])
def test_implied_vol_inverts_price(vol):
    target = pricer.price(100, 1, 100, vol)
    recovered = pricer.implied_vol(100, 1, 100, target)
    assert abs(pricer.price(100, 1, 100, recovered) - target) < 2e-10
    assert recovered == pytest.approx(vol, abs=1e-8)


def test_implied_vol_solves_the_otm_example():
    # vol that makes a strike-100 call on a 20 spot worth 2
    sigma = pricer.implied_vol(100, 1, 20, 2)
    assert abs(pricer.price(100, 1, 20, sigma) - 2) < 2e-10
    assert 1.0 < sigma < 1.5


@pytest.mark.parametrize(
    "target",
    [
        100,  # at the spot: upper arbitrage bound
        150,  # above the spot
        20,  # exactly intrinsic (spot 120, strike 100)
        5,  # below intrinsic
        0,
        -1,
    ],
)
def test_implied_vol_rejects_prices_outside_arbitrage_bounds(target):
    with pytest.raises(NoSolution, match="arbitrage bounds"):
        pricer.implied_vol(100, 1, 120 if target in (20, 5) else 100, target)


def test_implied_vol_rejects_unreachable_targets_inside_bounds():
    # within (intrinsic, spot) but beyond what vol=10 can produce
    with pytest.raises(NoSolution, match="no vol in"):
        pricer.implied_vol(100, 1, 100, 99.9999999999)


def test_implied_vol_rejects_nonpositive_parameters():
    with pytest.raises(DomainError, match="strictly positive"):
        pricer.implied_vol(100, 0, 100, 5)


# --- portfolio valuation


def test_get_value_sums_positional_rows():
    rows = [[100, 1, 100, 0.2], [90, 0.5, 105, 0.35]]
    want = pricer.price(100, 1, 100, 0.2) + pricer.price(90, 0.5, 105, 0.35)
    assert pricer.get_value(rows) == pytest.approx(want, rel=1e-15)


def test_get_value_accepts_named_rows_and_mixed_shapes():
    rows = [
        {"strike": 100, "time": 1, "spot": 100, "vol": 0.2},
        [90, 0.5, 105, 0.35],
    ]
    want = pricer.price(100, 1, 100, 0.2) + pricer.price(90, 0.5, 105, 0.35)
    assert pricer.get_value(rows) == pytest.approx(want, rel=1e-15)


def test_get_value_of_empty_portfolio_is_zero():
    assert pricer.get_value([]) == 0.0


@pytest.mark.parametrize(
    "portfolio,match",
    [
        ({"strike": 100}, "must be an array"),
        ("rows", "must be an array"),
        ([[100, 1, 100]], "row 0 must have 4 entries"),
        ([[100, 1, 100, 0.2, 9]], "row 0 must have 4 entries"),
        ([{"strike": 100, "time": 1, "spot": 100}], "row 0 must carry"),
        ([{"strike": 100, "time": 1, "spot": 100, "vol": 0.2, "x": 1}], "row 0 must carry"),
        ([[100, 1, 100, 0.2], 7], "row 1 must be an array or object"),
    ],
)
def test_get_value_rejects_malformed_portfolios(portfolio, match):
    with pytest.raises(DomainError, match=match):
        pricer.get_value(portfolio)


def test_get_value_propagates_row_domain_errors():
    with pytest.raises(DomainError, match="strictly positive"):
        pricer.get_value([[100, 1, -5, 0.2]])


# --- pricing invariants (property based)

_strikes = st.floats(10, 500)
_times = st.floats(0.05, 30)
_spots = st.floats(10, 500)
_vols = st.floats(0.01, 3)


@settings(max_examples=200, deadline=None)
@given(_strikes, _times, _spots, _vols)
def test_price_respects_arbitrage_bounds(strike, time, spot, vol):
    p = pricer.price(strike, time, spot, vol)
    intrinsic = max(spot - strike, 0.0)
    slack = 1e-9 * max(1.0, spot)  # float tolerance only
    assert intrinsic - slack <= p <= spot + slack


@settings(max_examples=200, deadline=None)
@given(_strikes, _times, _spots, _vols, st.floats(1.01, 2.0))
def test_price_is_monotone_in_spot_and_vol(strike, time, spot, vol, bump):
    base = pricer.price(strike, time, spot, vol)
    assert pricer.price(strike, time, spot * bump, vol) >= base - 1e-12 * max(1, base)
    assert pricer.price(strike, time, spot, min(vol * bump, 3.0)) >= base - 1e-12 * max(1, base)


@settings(max_examples=150, deadline=None)
@given(
    st.floats(10, 400),
    st.floats(0.5, 4),
    st.floats(0.8, 1.25),
    st.floats(0.1, 1.5),
)
def test_implied_vol_round_trips_near_the_money(spot, time, moneyness, vol):
    strike = spot * moneyness
    target = pricer.price(strike, time, spot, vol)
    assume(max(spot - strike, 0.0) < target < spot)
    recovered = pricer.implied_vol(strike, time, spot, target)
    assert abs(pricer.price(strike, time, spot, recovered) - target) < 1e-9
    assert recovered == pytest.approx(vol, abs=1e-6)


@settings(max_examples=100, deadline=None)
@given(_strikes, _times, _spots, _vols)
def test_delta_lies_in_unit_interval(strike, time, spot, vol):
    d = pricer.delta(strike, time, spot, vol)
    assert 0.0 <= d <= 1.0
    assert pricer.gamma(strike, time, spot, vol) >= 0.0
    assert pricer.vega(strike, time, spot, vol) >= 0.0


# --- fused kernels against the unfused code they replace
#
# The _prior_* functions are the pricer and arithmetic bodies as they were
# before the fused kernels, kept verbatim apart from their names: every
# input must give the same repr of the result, or the same exception type
# and message, on both.

VOL_LO, VOL_HI, MAX_TIME = pricer.VOL_LO, pricer.VOL_HI, pricer.MAX_TIME
BISECT_TOL, BISECT_MAX_ITER = pricer.BISECT_TOL, pricer.BISECT_MAX_ITER


def _prior_norm_cdf(x: float) -> float:
    # erfc keeps full double precision in the tails
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


def _prior_norm_pdf(x: float) -> float:
    return math.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)


def _prior_require_number(name: str, x) -> float:
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        raise DomainError(f"{name} must be a number, got {type(x).__name__}")
    if not math.isfinite(x):
        raise DomainError(f"{name} must be finite")
    return float(x)


def _prior_check_params(strike, time, spot, vol) -> tuple[float, float, float, float]:
    strike = _prior_require_number("strike", strike)
    time = _prior_require_number("time", time)
    spot = _prior_require_number("spot", spot)
    vol = _prior_require_number("vol", vol)
    if strike <= 0 or time <= 0 or spot <= 0 or vol <= 0:
        raise DomainError("strike, time, spot and vol must all be strictly positive")
    if vol > VOL_HI:
        raise DomainError(f"vol must be at most {VOL_HI}")
    if time > MAX_TIME:
        raise DomainError(f"time must be at most {MAX_TIME} years")
    return strike, time, spot, vol


def _prior_d1_d2(strike, time, spot, vol):
    sqrt_t = math.sqrt(time)
    d1 = (math.log(spot / strike) + 0.5 * vol * vol * time) / (vol * sqrt_t)
    return d1, d1 - vol * sqrt_t


def _prior_price(strike, time, spot, vol):
    """Call value: spot*N(d1) - strike*N(d2)."""
    strike, time, spot, vol = _prior_check_params(strike, time, spot, vol)
    d1, d2 = _prior_d1_d2(strike, time, spot, vol)
    return spot * _prior_norm_cdf(d1) - strike * _prior_norm_cdf(d2)


def _prior_delta(strike, time, spot, vol):
    """Sensitivity to spot: N(d1)."""
    strike, time, spot, vol = _prior_check_params(strike, time, spot, vol)
    d1, _ = _prior_d1_d2(strike, time, spot, vol)
    return _prior_norm_cdf(d1)


def _prior_gamma(strike, time, spot, vol):
    """Second sensitivity to spot: n(d1) / (spot * vol * sqrt(time))."""
    strike, time, spot, vol = _prior_check_params(strike, time, spot, vol)
    d1, _ = _prior_d1_d2(strike, time, spot, vol)
    return _prior_norm_pdf(d1) / (spot * vol * math.sqrt(time))


def _prior_vega(strike, time, spot, vol):
    """Sensitivity to volatility: spot * n(d1) * sqrt(time)."""
    strike, time, spot, vol = _prior_check_params(strike, time, spot, vol)
    d1, _ = _prior_d1_d2(strike, time, spot, vol)
    return spot * _prior_norm_pdf(d1) * math.sqrt(time)


def _prior_implied_vol(strike, time, spot, price):
    target = _prior_require_number("price", price)
    strike = _prior_require_number("strike", strike)
    time = _prior_require_number("time", time)
    spot = _prior_require_number("spot", spot)
    if strike <= 0 or time <= 0 or spot <= 0:
        raise DomainError("strike, time and spot must all be strictly positive")
    intrinsic = max(spot - strike, 0.0)
    if not (intrinsic < target < spot):
        raise NoSolution(
            f"price {target} violates the arbitrage bounds "
            f"({intrinsic} < price < {spot})"
        )

    def value_at(vol: float) -> float:
        d1, d2 = _prior_d1_d2(strike, time, spot, vol)
        return spot * _prior_norm_cdf(d1) - strike * _prior_norm_cdf(d2)

    lo, hi = VOL_LO, VOL_HI
    if value_at(lo) > target or value_at(hi) < target:
        raise NoSolution(f"no vol in ({VOL_LO}, {VOL_HI}) prices to {target}")
    mid = 0.5 * (lo + hi)
    for _ in range(BISECT_MAX_ITER):
        mid = 0.5 * (lo + hi)
        diff = value_at(mid) - target
        if abs(diff) < BISECT_TOL:
            return mid
        if diff < 0:
            lo = mid
        else:
            hi = mid
    return mid


def _prior_get_value(stock_portfolio):
    if not isinstance(stock_portfolio, list):
        raise DomainError("stock_portfolio must be an array of parameter sets")
    total = 0.0
    for i, row in enumerate(stock_portfolio):
        if isinstance(row, list):
            if len(row) != 4:
                raise DomainError(f"portfolio row {i} must have 4 entries, got {len(row)}")
            total += _prior_price(*row)
        elif isinstance(row, dict):
            try:
                total += _prior_price(**row)
            except TypeError:
                raise DomainError(
                    f"portfolio row {i} must carry strike, time, spot and vol"
                ) from None
        else:
            raise DomainError(f"portfolio row {i} must be an array or object")
    return total


def _prior_number(name, x):
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        raise DomainError(f"{name} must be a number, got {type(x).__name__}")
    if not math.isfinite(x):
        raise DomainError(f"{name} must be finite")
    return x


def _prior_add(a, b):
    return _prior_number("a", a) + _prior_number("b", b)


def _prior_subtract(a, b):
    return _prior_number("a", a) - _prior_number("b", b)


def _prior_multiply(a, b):
    return _prior_number("a", a) * _prior_number("b", b)


def _prior_divide(a, b):
    _prior_number("a", a)
    if _prior_number("b", b) == 0:
        raise DomainError("division by zero")
    return a / b


_PRICER_PAIRS = [
    (pricer.price, _prior_price),
    (pricer.delta, _prior_delta),
    (pricer.gamma, _prior_gamma),
    (pricer.vega, _prior_vega),
    (pricer.implied_vol, _prior_implied_vol),
]
_ARITHMETIC_PAIRS = [
    (arithmetic.add, _prior_add),
    (arithmetic.subtract, _prior_subtract),
    (arithmetic.multiply, _prior_multiply),
    (arithmetic.divide, _prior_divide),
]


_INF = math.inf
_EDGES = [
    1.0, 0.2, 100.0, 7.5, 1e-300, 1e300, 5e-324, 1.7976931348623157e308,
    0.0, -0.0, -1.0, -1e300, math.nan, _INF, -_INF,
    MAX_TIME, math.nextafter(MAX_TIME, _INF), math.nextafter(MAX_TIME, 0.0),
    VOL_HI, math.nextafter(VOL_HI, _INF), math.nextafter(VOL_HI, 0.0),
    1, 0, -1, 10, 11, 100, 101, 10**400, -(10**400),
    True, False, None, "100", [100], _Real(2.0),
]
# a small set whose product crosses every check with every other
_CROSSED = [1.0, 100, 0.0, -1.0, math.nan, 101.0, 11.0, None, 10**400]
_BASES = [(100.0, 1.0, 100.0, 0.2), (90, 0.5, 105, 0.35), (100.0, 1.0, 20.0, 0.2)]


def _kernel_outcome(fn, *args, **kwargs):
    try:
        return ("return", repr(fn(*args, **kwargs)))
    except Exception as exc:
        return ("raise", type(exc), str(exc))


def _kernel_differences(pairs, argument_sets):
    mismatches = []
    for args in argument_sets:
        for fused, prior in pairs:
            got, want = _kernel_outcome(fused, *args), _kernel_outcome(prior, *args)
            if got != want:
                mismatches.append((fused.__name__, args, want, got))
    return mismatches


def _pricer_argument_sets():
    for base in _BASES:
        for position, edge in product(range(4), _EDGES):
            args = list(base)
            args[position] = edge
            yield tuple(args)
    yield from product(_CROSSED, repeat=4)


def test_fused_pricer_matches_the_unfused_formulas_on_edge_cases():
    assert _kernel_differences(_PRICER_PAIRS, _pricer_argument_sets()) == []
    portfolios = [
        [list(args) for args in _BASES],
        [dict(zip(("strike", "time", "spot", "vol"), args)) for args in _BASES],
        [[100.0, 1.0, 100.0, 0.2], {"strike": 1.0, "time": 1.0}, [1.0]],
        [[100.0, 1.0, 100.0, 0.2], [1e308, 1.0, 1e-300, 0.2]],
        [{"strike": 1.0, "time": 1.0, "spot": 1.0, "vol": 0.2, "extra": 1}],
        [[1.0, 1.0, 1.0, math.nan]], [[1.0, 1.0, 1.0]], [3], None, "book",
    ]
    assert _kernel_differences([(pricer.get_value, _prior_get_value)],
                               [(p,) for p in portfolios]) == []


def test_fused_arithmetic_matches_the_unfused_operators_on_edge_cases():
    assert _kernel_differences(_ARITHMETIC_PAIRS, product(_EDGES, repeat=2)) == []


_anything = st.one_of(
    st.floats(),
    st.floats(1e-3, 1e3),
    st.floats(0.01, 2.0),
    st.integers(),
    st.integers(-(10**400), 10**400),
    st.sampled_from(_EDGES),
    st.none(),
    st.booleans(),
    st.text(max_size=3),
)


@settings(max_examples=300, deadline=None)
@given(_anything, _anything, _anything, _anything)
def test_fused_pricer_matches_the_unfused_formulas(strike, time, spot, vol):
    args = (strike, time, spot, vol)
    assert _kernel_differences(_PRICER_PAIRS, [args]) == []
    named = dict(zip(("strike", "time", "spot", "vol"), args))
    assert _kernel_differences(
        [(pricer.get_value, _prior_get_value)], [([list(args), named, list(args)],)]
    ) == []


@settings(max_examples=300, deadline=None)
@given(_anything, _anything)
def test_fused_arithmetic_matches_the_unfused_operators(a, b):
    assert _kernel_differences(_ARITHMETIC_PAIRS, [(a, b)]) == []


def test_kernel_differential_catches_a_broken_kernel(monkeypatch):
    monkeypatch.setattr(pricer, "_SQRT2", math.nextafter(math.sqrt(2.0), 2.0))
    assert _kernel_differences(_PRICER_PAIRS, _pricer_argument_sets())
    monkeypatch.setattr(arithmetic, "isfinite", lambda number: True)
    assert _kernel_differences(_ARITHMETIC_PAIRS, product(_EDGES, repeat=2))
