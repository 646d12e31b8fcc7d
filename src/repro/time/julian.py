"""Julian date arithmetic.

All functions work on proleptic Gregorian calendar dates (the only
calendar relevant to the 1970+ measurement window) and treat times as
UTC without leap-second handling — the same simplification the TLE
ecosystem itself makes.
"""

from __future__ import annotations

import math

import numpy as np

from repro.constants import JD_J2000, JD_UNIX_EPOCH, JULIAN_CENTURY_DAYS, SECONDS_PER_DAY, TAU
from repro.errors import TimeError

_DAYS_PER_MONTH = (31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31)


def is_leap_year(year: int) -> bool:
    """Return True when *year* is a Gregorian leap year."""
    return year % 4 == 0 and (year % 100 != 0 or year % 400 == 0)


def days_in_year(year: int) -> int:
    """Number of days in the Gregorian *year* (365 or 366)."""
    return 366 if is_leap_year(year) else 365


def days_in_month(year: int, month: int) -> int:
    """Number of days in *month* of *year*."""
    if not 1 <= month <= 12:
        raise TimeError(f"month out of range: {month}")
    days = _DAYS_PER_MONTH[month - 1]
    if month == 2 and is_leap_year(year):
        days += 1
    return days


def calendar_to_jd(
    year: int,
    month: int,
    day: int,
    hour: int = 0,
    minute: int = 0,
    second: float = 0.0,
) -> float:
    """Convert a Gregorian calendar date/time (UTC) to a Julian date.

    Uses the standard Fliegel-Van Flandern algorithm, valid for all
    Gregorian dates after 1582.
    """
    if not 1 <= month <= 12:
        raise TimeError(f"month out of range: {month}")
    if not 1 <= day <= days_in_month(year, month):
        raise TimeError(f"day out of range: {year}-{month:02d}-{day}")
    if not (0 <= hour < 24 and 0 <= minute < 60 and 0.0 <= second < 61.0):
        raise TimeError(f"time of day out of range: {hour}:{minute}:{second}")

    a = (14 - month) // 12
    y = year + 4800 - a
    m = month + 12 * a - 3
    jdn = day + (153 * m + 2) // 5 + 365 * y + y // 4 - y // 100 + y // 400 - 32045
    day_fraction = (hour - 12) / 24.0 + minute / 1440.0 + second / SECONDS_PER_DAY
    return jdn + day_fraction


def calendar_to_jd_columns(
    year: np.ndarray,
    month: np.ndarray,
    day: np.ndarray,
    hour: np.ndarray,
    minute: np.ndarray,
    second: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """:func:`calendar_to_jd` over integer arrays.

    Returns ``(jd, valid)``: ``valid`` marks the dates
    :func:`calendar_to_jd` accepts, and ``jd`` holds, for each of them,
    the same double it returns (the same integer steps, then the same
    float64 operations in the same order).  ``jd`` is meaningless where
    ``valid`` is False.
    """
    leap = (year % 4 == 0) & ((year % 100 != 0) | (year % 400 == 0))
    month_days = np.take(_DAYS_PER_MONTH, np.clip(month, 1, 12) - 1) + (
        (month == 2) & leap
    )
    valid = (
        (month >= 1) & (month <= 12)
        & (day >= 1) & (day <= month_days)
        & (hour >= 0) & (hour < 24)
        & (minute >= 0) & (minute < 60)
        & (second >= 0) & (second < 61)
    )
    a = (14 - month) // 12
    y = year + 4800 - a
    m = month + 12 * a - 3
    jdn = day + (153 * m + 2) // 5 + 365 * y + y // 4 - y // 100 + y // 400 - 32045
    day_fraction = (hour - 12) / 24.0 + minute / 1440.0 + second / SECONDS_PER_DAY
    return jdn + day_fraction, valid


def jd_to_calendar(jd: float) -> tuple[int, int, int, int, int, float]:
    """Convert a Julian date to ``(year, month, day, hour, minute, second)``.

    The inverse of :func:`calendar_to_jd` to sub-millisecond precision.
    """
    jd_shifted = jd + 0.5
    z = math.floor(jd_shifted)
    f = jd_shifted - z

    alpha = math.floor((z - 1867216.25) / 36524.25)
    a = z + 1 + alpha - math.floor(alpha / 4)
    b = a + 1524
    c = math.floor((b - 122.1) / 365.25)
    d = math.floor(365.25 * c)
    e = math.floor((b - d) / 30.6001)

    day_float = b - d - math.floor(30.6001 * e) + f
    month = int(e - 1) if e < 14 else int(e - 13)
    year = int(c - 4716) if month > 2 else int(c - 4715)

    day = int(day_float)
    frac = day_float - day
    total_seconds = frac * SECONDS_PER_DAY
    # JD floats resolve to ~20 microseconds near the present era; snap
    # values within half a millisecond of a whole second so callers see
    # clean boundaries (TLE epochs themselves only resolve ~0.9 ms).
    if abs(total_seconds - round(total_seconds)) < 5e-4:
        total_seconds = float(round(total_seconds))
    # Guard against 23:59:59.9999... rolling into the next day.
    if total_seconds >= SECONDS_PER_DAY - 1e-6:
        total_seconds = 0.0
        day += 1
        if day > days_in_month(year, month):
            day = 1
            month += 1
            if month > 12:
                month = 1
                year += 1
    hour = int(total_seconds // 3600)
    minute = int((total_seconds - hour * 3600) // 60)
    second = total_seconds - hour * 3600 - minute * 60
    return year, month, day, hour, minute, second


def unix_to_jd(unix_seconds: float) -> float:
    """Convert Unix seconds (UTC) to a Julian date."""
    return JD_UNIX_EPOCH + unix_seconds / SECONDS_PER_DAY


def jd_to_unix(jd: float) -> float:
    """Convert a Julian date to Unix seconds (UTC)."""
    return (jd - JD_UNIX_EPOCH) * SECONDS_PER_DAY


def day_of_year(year: int, month: int, day: int) -> int:
    """Ordinal day of year (1-based) for a calendar date."""
    doy = day
    for m in range(1, month):
        doy += days_in_month(year, m)
    return doy


def year_doy_to_month_day(year: int, doy: int) -> tuple[int, int]:
    """Convert a 1-based day-of-year back to ``(month, day)``."""
    if not 1 <= doy <= days_in_year(year):
        raise TimeError(f"day of year out of range: {year} day {doy}")
    month = 1
    remaining = doy
    while remaining > days_in_month(year, month):
        remaining -= days_in_month(year, month)
        month += 1
    return month, remaining


def gmst_rad(jd_ut1: float) -> float:
    """Greenwich Mean Sidereal Time [rad] for a UT1 Julian date.

    IAU-82 model, adequate for TEME→ECEF rotation of LEO positions.
    """
    t = (jd_ut1 - JD_J2000) / JULIAN_CENTURY_DAYS
    seconds = (
        67310.54841
        + (876600.0 * 3600.0 + 8640184.812866) * t
        + 0.093104 * t * t
        - 6.2e-6 * t * t * t
    )
    return (seconds % SECONDS_PER_DAY) / SECONDS_PER_DAY * TAU % TAU
