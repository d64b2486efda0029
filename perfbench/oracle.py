"""Expected results, computed without importing fastgate.

The call price and its Greeks come from the closed-form Black-Scholes
formulas with zero rates, written here independently of the pricer
package; the server's results must agree to a relative tolerance.
Arithmetic results must agree exactly, and stored values must come back
as the exact canonical JSON bytes of the last write.
"""

from __future__ import annotations

import json
import math

REL_TOL = 1e-9
ABS_TOL = 1e-12

_SQRT2 = math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


def canonical_bytes(value) -> bytes:
    """The gateway's canonical wire form: sorted keys, compact separators."""
    return json.dumps(value, sort_keys=True, separators=(",", ":")).encode("ascii")


def _phi(x: float) -> float:
    return 0.5 * math.erfc(-x / _SQRT2)


def _d1_d2(strike, time, spot, vol):
    vol_sqrt_t = vol * math.sqrt(time)
    log_moneyness = math.log(spot / strike)
    d1 = (log_moneyness + 0.5 * vol * vol * time) / vol_sqrt_t
    d2 = (log_moneyness - 0.5 * vol * vol * time) / vol_sqrt_t
    return d1, d2


def call_price(strike, time, spot, vol) -> float:
    d1, d2 = _d1_d2(strike, time, spot, vol)
    return spot * _phi(d1) - strike * _phi(d2)


def call_delta(strike, time, spot, vol) -> float:
    return _phi(_d1_d2(strike, time, spot, vol)[0])


def call_gamma(strike, time, spot, vol) -> float:
    d1 = _d1_d2(strike, time, spot, vol)[0]
    return math.exp(-0.5 * d1 * d1) * _INV_SQRT_2PI / (spot * vol * math.sqrt(time))


def call_vega(strike, time, spot, vol) -> float:
    d1 = _d1_d2(strike, time, spot, vol)[0]
    return spot * math.exp(-0.5 * d1 * d1) * _INV_SQRT_2PI * math.sqrt(time)


GREEKS = {
    "price": call_price,
    "delta": call_delta,
    "gamma": call_gamma,
    "vega": call_vega,
}


def is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def close(got, expected: float) -> bool:
    return is_number(got) and math.isclose(got, expected, rel_tol=REL_TOL, abs_tol=ABS_TOL)


def all_close(got, expected: list) -> bool:
    return (
        isinstance(got, list)
        and len(got) == len(expected)
        and all(close(g, e) for g, e in zip(got, expected))
    )


_UNPARSEABLE = object()


def parse(body: bytes):
    """The decoded JSON body, or a sentinel that matches nothing."""
    try:
        return json.loads(body)
    except ValueError:
        return _UNPARSEABLE
