"""Deterministic synthetic weather stub.

Real weather is mutable state and has no place in a pure function engine,
so this stand-in computes a fixed formula from the coordinates alone.
"""

from __future__ import annotations

import math

from ..errors import DomainError
from .arithmetic import _number


def get_weather(latitude, longitude):
    """temp_c = round(30 - |latitude|/3 + 10*sin(longitude in radians), 2)."""
    for name, x, bound in (("latitude", latitude, 90), ("longitude", longitude, 180)):
        if abs(_number(name, x)) > bound:
            raise DomainError(f"{name} must lie in [-{bound}, {bound}]")
    temp = 30.0 - abs(latitude) / 3.0 + 10.0 * math.sin(math.radians(longitude))
    return {"temp_c": round(temp, 2)}


FUNCTIONS = {
    "get_weather": get_weather,
}
