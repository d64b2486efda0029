"""European call pricing with zero rates and dividends, plus Greeks.

All functions are pure: same inputs, same outputs, no state anywhere.

`price`, `delta`, `gamma` and `vega` share one fused kernel that checks a
parameter set and computes sqrt(time), d1 and d2 once.  Four exact floats
with 0 < strike, spot < inf, 0 < time <= MAX_TIME and 0 < vol <= VOL_HI
skip the per-argument checks, since those would pass them unchanged; every
other input takes the checks, so its error and message are as before.  The
results are bit for bit those of the unfused formulas: each operation is
the same, applied in the same order, and sqrt(2) and sqrt(2*pi) are
module constants computed as the formulas computed them.  `get_value`
calls `price`, and `implied_vol` hoists the vol-free terms out of its
bisection without changing an operation.
"""

from __future__ import annotations

import math

from ..errors import DomainError, NoSolution
from .arithmetic import _number

VOL_LO = 1e-6
VOL_HI = 10.0
MAX_TIME = 100.0
BISECT_TOL = 1e-10
BISECT_MAX_ITER = 200

_INF = math.inf
# N(x) = erfc(-x/sqrt(2))/2: erfc keeps full double precision in the tails
_SQRT2 = math.sqrt(2.0)
_SQRT_2PI = math.sqrt(2.0 * math.pi)
# bound once: a module attribute lookup is a measurable share of one call
_erfc, _exp, _log, _sqrt = math.erfc, math.exp, math.log, math.sqrt


def _require_number(name: str, x) -> float:
    return float(_number(name, x))


def _check_params(strike, time, spot, vol) -> tuple[float, float, float, float]:
    strike = _require_number("strike", strike)
    time = _require_number("time", time)
    spot = _require_number("spot", spot)
    vol = _require_number("vol", vol)
    if strike <= 0 or time <= 0 or spot <= 0 or vol <= 0:
        raise DomainError("strike, time, spot and vol must all be strictly positive")
    if vol > VOL_HI:
        raise DomainError(f"vol must be at most {VOL_HI}")
    if time > MAX_TIME:
        raise DomainError(f"time must be at most {MAX_TIME} years")
    return strike, time, spot, vol


def _kernel(strike, time, spot, vol):
    """Checked parameters plus (sqrt(time), d1, d2) for one parameter set.

    Four exact floats already inside the domain skip `_check_params`, which
    would return them unchanged; anything else takes it, errors and all.
    """
    if not (
        type(strike) is float and type(time) is float
        and type(spot) is float and type(vol) is float
        and 0.0 < strike < _INF and 0.0 < spot < _INF
        and 0.0 < time <= MAX_TIME and 0.0 < vol <= VOL_HI
    ):
        strike, time, spot, vol = _check_params(strike, time, spot, vol)
    sqrt_t = _sqrt(time)
    d1 = (_log(spot / strike) + 0.5 * vol * vol * time) / (vol * sqrt_t)
    return strike, time, spot, vol, sqrt_t, d1, d1 - vol * sqrt_t


def price(strike, time, spot, vol):
    """Call value: spot*N(d1) - strike*N(d2)."""
    strike, _, spot, _, _, d1, d2 = _kernel(strike, time, spot, vol)
    return spot * (0.5 * _erfc(-d1 / _SQRT2)) - strike * (0.5 * _erfc(-d2 / _SQRT2))


def delta(strike, time, spot, vol):
    """Sensitivity to spot: N(d1)."""
    d1 = _kernel(strike, time, spot, vol)[5]
    return 0.5 * _erfc(-d1 / _SQRT2)


def gamma(strike, time, spot, vol):
    """Second sensitivity to spot: n(d1) / (spot * vol * sqrt(time))."""
    _, _, spot, vol, sqrt_t, d1, _ = _kernel(strike, time, spot, vol)
    return _exp(-0.5 * d1 * d1) / _SQRT_2PI / (spot * vol * sqrt_t)


def vega(strike, time, spot, vol):
    """Sensitivity to volatility: spot * n(d1) * sqrt(time)."""
    _, _, spot, _, sqrt_t, d1, _ = _kernel(strike, time, spot, vol)
    return spot * (_exp(-0.5 * d1 * d1) / _SQRT_2PI) * sqrt_t


def implied_vol(strike, time, spot, price):
    """The unique vol in (1e-6, 10) that reproduces the given call price.

    Bisection until the re-priced value is within 1e-10 of the target.
    The price must lie strictly inside the arbitrage bounds
    max(spot - strike, 0) < price < spot.
    """
    target = _require_number("price", price)
    strike = _require_number("strike", strike)
    time = _require_number("time", time)
    spot = _require_number("spot", spot)
    if strike <= 0 or time <= 0 or spot <= 0:
        raise DomainError("strike, time and spot must all be strictly positive")
    intrinsic = max(spot - strike, 0.0)
    if not (intrinsic < target < spot):
        raise NoSolution(
            f"price {target} violates the arbitrage bounds "
            f"({intrinsic} < price < {spot})"
        )

    # the kernel's arithmetic, with what does not depend on vol taken out
    sqrt_t = _sqrt(time)
    log_moneyness = _log(spot / strike)

    def value_at(vol: float) -> float:
        d1 = (log_moneyness + 0.5 * vol * vol * time) / (vol * sqrt_t)
        d2 = d1 - vol * sqrt_t
        return spot * (0.5 * _erfc(-d1 / _SQRT2)) - strike * (0.5 * _erfc(-d2 / _SQRT2))

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


def get_value(stock_portfolio):
    """Book value of a portfolio: the summed call value over its rows.

    Each row is either a positional [strike, time, spot, vol] array or an
    object with those parameter names.
    """
    if not isinstance(stock_portfolio, list):
        raise DomainError("stock_portfolio must be an array of parameter sets")
    total = 0.0
    for i, row in enumerate(stock_portfolio):
        if isinstance(row, list):
            if len(row) != 4:
                raise DomainError(f"portfolio row {i} must have 4 entries, got {len(row)}")
            total += price(*row)
        elif isinstance(row, dict):
            try:
                total += price(**row)
            except TypeError:
                raise DomainError(
                    f"portfolio row {i} must carry strike, time, spot and vol"
                ) from None
        else:
            raise DomainError(f"portfolio row {i} must be an array or object")
    return total


FUNCTIONS = {
    "price": price,
    "delta": delta,
    "gamma": gamma,
    "vega": vega,
    "implied_vol": implied_vol,
    "get_value": get_value,
}
