"""Eigenmode enumeration for a spherical cavity with a conducting radial wedge.

A perfectly conducting sphere of radius ``a`` carrying a radial wedge of
opening ``wedge_angle`` leaves the azimuthal domain ``phi in (0, Phi)`` with
``Phi = 2 pi - wedge_angle``.  The wedge walls quantise the azimuthal index
to ``m_n = n pi / Phi`` — generally non-integer — and each angular degree
``nu = m + k`` (``k`` a non-negative integer) admits a tower of radial
roots:

* TM modes: zeros of ``d/dx [x j_nu(x)]`` (electric wall at ``r = a``),
* TE modes: zeros of ``j_nu(x)``,

with resonant frequencies ``f = c x / (2 pi a)``.  Modes fall into three
families: sectoral (``nu = m > 0``), tesseral (``nu > m > 0``) and zonal
(``m = 0``).  The azimuthally constant TE tower starts at ``nu = 1``: the
``nu = m = 0`` solution has a non-trivial potential but an identically zero
field, so the enumerator never emits it.

Roots are located by a fixed-step scan (step 0.05 — consecutive roots of
interest are separated by more than one unit, so no sign change can be
skipped) refined by bisection to a relative width of 1e-12, giving
deterministic, reproducible spectra.  Each (polarisation, nu) tower is
scanned once: a memo keeps its roots and the point where its scan stopped,
and later requests resume the scan there, so a root is the same float
however it was first reached.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass

from .specfun import BESSEL_X_MAX, riccati_derivative, spherical_j
from .specfun import legendre_theta

__all__ = [
    "SPEED_OF_LIGHT",
    "RootNotFoundError",
    "WedgeConfig",
    "ModeId",
    "ModeRecord",
    "azimuthal_index",
    "te_root",
    "tm_root",
    "frequency",
    "classify",
    "enumerate_spectrum",
    "te_field_shape",
    "null_field_check",
]

#: Exact vacuum speed of light, m/s.  The tabulated GHz values round-trip
#: only with the exact constant.
SPEED_OF_LIGHT = 299_792_458.0

_SCAN_STEP = 0.05
_SCAN_START = 0.05
_BISECT_REL_WIDTH = 1e-12


class RootNotFoundError(LookupError):
    """No qualifying root below the evaluation cap ``x = BESSEL_X_MAX``."""


@dataclass(frozen=True, slots=True)
class WedgeConfig:
    """Cavity geometry: sphere radius and wedge opening.

    Parameters
    ----------
    radius_a : float
        Sphere radius in meters, finite and positive.
    wedge_angle : float
        Wedge opening in radians, within [0, 2 pi).  Zero recovers the
        full sphere.
    """

    radius_a: float
    wedge_angle: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.radius_a) and self.radius_a > 0.0):
            raise ValueError("radius_a must be finite and positive")
        if not 0.0 <= self.wedge_angle < 2.0 * math.pi:
            raise ValueError("wedge_angle must lie in [0, 2*pi)")

    @property
    def domain_phi(self) -> float:
        """Azimuthal extent ``2 pi - wedge_angle`` of the field domain."""
        return 2.0 * math.pi - self.wedge_angle

    @classmethod
    def from_degrees(cls, wedge_deg: float, radius_a: float) -> "WedgeConfig":
        """Build a config from a wedge opening in degrees."""
        return cls(radius_a=radius_a, wedge_angle=math.radians(wedge_deg))


@dataclass(frozen=True, slots=True)
class ModeId:
    """Quantum numbers of a cavity mode.

    ``m = n pi / Phi`` is the azimuthal index forced by the wedge walls and
    ``nu = m + k`` the angular degree; ``s`` counts radial roots from 1.
    TM modes require ``n >= 1`` (the azimuthally constant TM candidate is
    excluded by the wall conditions), TE modes admit ``n >= 0``.
    """

    polarisation: str
    n: int
    k: int
    s: int
    m: float

    def __post_init__(self) -> None:
        if self.polarisation not in ("TM", "TE"):
            raise ValueError("polarisation must be 'TM' or 'TE'")
        if self.polarisation == "TM" and self.n < 1:
            raise ValueError("TM modes require n >= 1")
        if self.n < 0 or self.k < 0 or self.s < 1:
            raise ValueError("indices must satisfy n >= 0, k >= 0, s >= 1")
        if self.m < 0.0:
            raise ValueError("azimuthal index m must be non-negative")

    @property
    def nu(self) -> float:
        """Angular degree ``m + k``."""
        return self.m + self.k


@dataclass(frozen=True, slots=True)
class ModeRecord:
    """A resolved mode: identity, dimensionless root ``x = ka`` and frequency
    in hertz (``f = c x / (2 pi a)`` with the exact speed of light); its
    trichotomy family follows from the identity."""

    id: ModeId
    x: float
    freq_hz: float

    def __post_init__(self) -> None:
        if self.x <= 0.0 or self.freq_hz <= 0.0:
            raise ValueError("root and frequency must be positive")

    @property
    def family(self) -> str:
        """Trichotomy family of the mode, :func:`classify` of its id."""
        return classify(self.id)


def azimuthal_index(n: int, config: WedgeConfig) -> float:
    """Wall-quantised azimuthal index ``m_n = n pi / Phi``."""
    if n < 0:
        raise ValueError("harmonic number n must be non-negative")
    return n * math.pi / config.domain_phi


def _bisect(func, nu: float, lo: float, f_lo: float, hi: float) -> float:
    """Refine a sign change of ``func(nu, .)`` on ``(lo, hi]``, where
    ``f_lo = func(nu, lo)``, to relative width 1e-12."""
    while hi - lo > _BISECT_REL_WIDTH * hi:
        mid = 0.5 * (lo + hi)
        f_mid = func(nu, mid)
        if f_mid == 0.0:
            return mid
        if (f_lo < 0.0) == (f_mid < 0.0):
            lo, f_lo = mid, f_mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class _Tower:
    """Resumable scan of one (polarisation, nu) root tower: the roots found
    so far, ascending, and the last scan point ``x`` with the
    characteristic value ``f`` there."""

    __slots__ = ("roots", "x", "f")

    def __init__(self, x: float, f: float) -> None:
        self.roots: list[float] = []
        self.x = x
        self.f = f


#: Every tower scanned so far, keyed by (polarisation, nu).  The lock keeps
#: two threads resuming one tower from appending the same root twice.
_TOWERS: dict[tuple[str, float], _Tower] = {}
_TOWERS_LOCK = threading.Lock()


def _tower_roots(pol: str, nu: float, count: float, x_cap: float) -> list[float]:
    """The roots of the (pol, nu) tower found so far, ascending.

    Resumes the tower's scan until it holds ``count`` roots, its scan point
    has passed ``x_cap``, or the next point would pass the ``x = 40``
    window.  The list may hold roots beyond ``count`` or above ``x_cap``
    from earlier scans; it is the memo itself, so callers must not modify it.

    A tower with ``nu >= x_cap`` has no root up to the cap and is not
    scanned: ``u = x j_nu(x)`` solves ``u'' = (nu (nu + 1) / x**2 - 1) u``,
    so ``u`` and ``u'`` stay positive up to ``x = sqrt(nu (nu + 1)) >= nu``,
    and the leading series term of a large order would underflow there.
    """
    if nu >= x_cap:
        return []
    func = spherical_j if pol == "TE" else riccati_derivative
    with _TOWERS_LOCK:
        tower = _TOWERS.get((pol, nu))
        if tower is None:
            tower = _TOWERS[(pol, nu)] = _Tower(_SCAN_START, func(nu, _SCAN_START))
        roots, x, f_x = tower.roots, tower.x, tower.f
        while len(roots) < count and x <= x_cap:
            x_next = x + _SCAN_STEP
            if x_next > BESSEL_X_MAX:
                break
            f_next = func(nu, x_next)
            if f_next == 0.0:
                roots.append(x_next)
            elif (f_x < 0.0) != (f_next < 0.0):
                roots.append(_bisect(func, nu, x, f_x, x_next))
            x, f_x = x_next, f_next
        tower.x, tower.f = x, f_x
    return roots


def _root(pol: str, nu: float, s: int) -> float:
    if not 0.0 <= nu < math.inf:
        raise ValueError(f"order nu must be finite and non-negative, got {nu}")
    if s < 1:
        raise ValueError("root index s counts from 1")
    roots = _tower_roots(pol, nu, s, BESSEL_X_MAX)
    if len(roots) < s:
        raise RootNotFoundError(
            f"fewer than s={s} roots below the x={BESSEL_X_MAX:g} evaluation cap"
        )
    return roots[s - 1]


def te_root(nu: float, s: int) -> float:
    """The s-th zero of ``j_nu`` — TE resonance condition ``j_nu(ka) = 0``."""
    return _root("TE", nu, s)


def tm_root(nu: float, s: int) -> float:
    """The s-th zero of ``d/dx [x j_nu(x)]`` — TM resonance condition."""
    return _root("TM", nu, s)


def frequency(x: float, radius_a: float) -> float:
    """Resonant frequency in hertz for a dimensionless root ``x = ka``."""
    if not (x > 0.0 and radius_a > 0.0):
        raise ValueError("root and radius must be positive")
    return SPEED_OF_LIGHT * x / (2.0 * math.pi * radius_a)


def classify(mode: ModeId) -> str:
    """Trichotomy family: zonal (m = 0), sectoral (nu = m > 0), tesseral
    (nu > m > 0)."""
    if mode.m == 0.0:
        return "zonal"
    return "sectoral" if mode.k == 0 else "tesseral"


def null_field_check(nu: float, m: float) -> bool:
    """True iff the (nu, m) mode carries identically zero fields.

    The curl-curl extraction annihilates exactly the constant angular
    profile with ``nu (nu + 1) = 0``, i.e. ``nu = m = 0``: its potential is
    non-trivial but every field component vanishes.
    """
    return nu == 0.0 and m == 0.0


def enumerate_spectrum(
    config: WedgeConfig,
    f_max_hz: float,
    polarisations: frozenset[str] | set[str] = frozenset(("TM", "TE")),
) -> list[ModeRecord]:
    """All modes with frequency at most ``f_max_hz``, ascending in frequency.

    For each polarisation the search walks harmonic number ``n`` (from 1
    for TM, 0 for TE) and, within it, lowering count ``k`` while the tower
    of order ``nu = m + k`` has a root below the cap; the roots' strict
    monotonicity in ``nu`` ends the walk over ``n`` at the first ``m``
    without one.  The null-field TE ``nu = m = 0`` tower is skipped.
    Frequency ties are broken by (TM before TE, then n, k, s); repeated
    calls return identical lists.
    """
    if not math.isfinite(f_max_hz):
        raise ValueError("f_max_hz must be finite")
    if f_max_hz <= 0.0:
        return []
    unknown = set(polarisations) - {"TM", "TE"}
    if unknown:
        raise ValueError(f"unknown polarisations: {sorted(unknown)}")
    x_cap = 2.0 * math.pi * config.radius_a * f_max_hz / SPEED_OF_LIGHT
    if x_cap > BESSEL_X_MAX:
        raise ValueError(
            "frequency cap exceeds the x = 40 root-search window for this radius"
        )

    records: list[ModeRecord] = []
    for pol in set(polarisations):
        n = 1 if pol == "TM" else 0
        while True:
            m = azimuthal_index(n, config)
            k = 0
            while xs := [
                x for x in _tower_roots(pol, m + k, math.inf, x_cap) if x <= x_cap
            ]:
                if not (pol == "TE" and null_field_check(m + k, m)):
                    for s, x in enumerate(xs, 1):
                        mode = ModeId(polarisation=pol, n=n, k=k, s=s, m=m)
                        records.append(ModeRecord(mode, x, frequency(x, config.radius_a)))
                k += 1
            if k == 0:
                break
            n += 1

    records.sort(
        key=lambda r: (
            r.freq_hz,
            0 if r.id.polarisation == "TM" else 1,
            r.id.n,
            r.id.k,
            r.id.s,
        )
    )
    return records


def te_field_shape(nu: float, m: float, x_arg: float, theta: float) -> tuple[float, float]:
    """Dimensionless TE field components at one (r, theta) sample.

    Returns ``(e_theta, e_phi)`` with the common prefactor scaled to one:

        e_theta = (m / sin theta) * j_nu(x_arg) * Theta_nu^m(theta)
        e_phi   =                   j_nu(x_arg) * d Theta_nu^m / d theta

    The colatitude derivative is taken by 4th-order central finite
    differences of the angular profile.  For ``m = 0`` the first component
    vanishes identically through its prefactor, and for ``nu = m = 0`` the
    profile is constant, so both components are zero.
    """
    if not 0.0 < theta < math.pi:
        raise ValueError("theta must lie strictly inside (0, pi)")
    radial = spherical_j(nu, x_arg)
    if m == 0.0:
        e_theta = 0.0
    else:
        e_theta = m / math.sin(theta) * radial * legendre_theta(nu, m, theta)
    h = min(1e-5, 0.25 * theta, 0.25 * (math.pi - theta))
    samples = (
        legendre_theta(nu, m, theta - 2.0 * h),
        legendre_theta(nu, m, theta - h),
        legendre_theta(nu, m, theta + h),
        legendre_theta(nu, m, theta + 2.0 * h),
    )
    d_theta = (samples[0] - 8.0 * samples[1] + 8.0 * samples[2] - samples[3]) / (12.0 * h)
    return e_theta, radial * d_theta
