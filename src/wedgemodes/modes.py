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

Roots are located on a fixed grid (step 0.05) and refined by bisection
to a relative width of 1e-12, giving deterministic, reproducible spectra.
The scan evaluates only where the Pruefer bounds of ``u = x j_nu`` allow a
root, and each (polarisation, nu) tower is scanned once, resumably, in a
bounded memo, so a root is the same float however it was first reached
(see :func:`_tower_roots`).  The walk of an enumeration depends on the
wedge opening alone and is kept, without a radius, as a plan that serves
every radius (see :func:`enumerate_spectrum`).
"""

from __future__ import annotations

import math
import threading
from bisect import bisect_right
from dataclasses import dataclass

from .specfun import BESSEL_X_MAX, _check_index, riccati_derivative, spherical_j
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
_BISECT_REL_WIDTH = 1e-12
#: Weights ``m_n`` whose difference lies this close to an integer give the
#: same degrees; ``n pi / Phi`` rounds differently for each ``n``.
_SAME_DEGREE_TOL = 1e-9
#: Above this x the characteristic values are too inaccurate for a window
#: of pi to hold at most one sign change, so the scan steps every point.
_HALVING_MAX_X = 34.0

#: The scan grid 0.05, 0.05 + 0.05, ... up to x = 40, accumulated by
#: addition once, so that every scan and resume point is the same float.
_GRID = [_SCAN_STEP]
while _GRID[-1] + _SCAN_STEP <= BESSEL_X_MAX:
    _GRID.append(_GRID[-1] + _SCAN_STEP)


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
        _check_index("harmonic number n", self.n, 1 if self.polarisation == "TM" else 0)
        _check_index("lowering count k", self.k, 0)
        _check_index("radial index s", self.s, 1)
        if not 0.0 <= self.m < math.inf:
            raise ValueError("azimuthal index m must be finite and non-negative")

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
        if not (0.0 < self.x < math.inf and 0.0 < self.freq_hz < math.inf):
            raise ValueError("root and frequency must be positive and finite")

    @property
    def family(self) -> str:
        """Trichotomy family of the mode, :func:`classify` of its id."""
        return classify(self.id)


def azimuthal_index(n: int, config: WedgeConfig) -> float:
    """Wall-quantised azimuthal index ``m_n = n pi / Phi``."""
    _check_index("harmonic number n", n, 0)
    return n * math.pi / config.domain_phi


def _bisect(func, nu: float, lo: float, f_lo: float, hi: float) -> float:
    """Refine a sign change of ``func(nu, .)`` on ``(lo, hi]``, where
    ``f_lo = func(nu, lo)``, to relative width 1e-12."""
    while hi - lo > _BISECT_REL_WIDTH * hi:
        mid = 0.5 * (lo + hi)
        f_mid = func(nu, mid)
        if (f_lo < 0.0) == (f_mid < 0.0):
            lo, f_lo = mid, f_mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


#: The towers scanned most recently, (roots found so far, ``_GRID`` index
#: where the scan stopped) keyed by (polarisation, nu), oldest use first.
#: A request takes its tower out and writes it back when its scan ends, so
#: a scan that raises leaves no partial tower; past ``_TOWERS_MAX`` entries
#: the oldest is dropped, to be rescanned from the same start to the same
#: floats.  One ``enumerate_spectrum`` at x_cap 11 touches a few hundred
#: towers.  The lock keeps two threads from resuming one tower at once.
_TOWERS: dict[tuple[str, float], tuple[list[float], int]] = {}
_TOWERS_MAX = 2048
_TOWERS_LOCK = threading.Lock()


def _tower_roots(pol: str, nu: float, count: float, x_cap: float) -> list[float]:
    """A new list of the first ``count`` roots of the (pol, nu) tower at or
    below ``x_cap``, ascending.

    The tower's scan resumes where it last stopped and runs until the
    tower holds ``count`` roots, its scan point has passed ``x_cap``, or it
    stands on the last grid point at or below ``x = 40``.  Roots found
    earlier stay in the memo, so a root is the same float whatever the
    order of the counts and caps requested.

    The scan evaluates only where a root can be.  ``u = x j_nu(x)`` solves
    ``u'' + q u = 0`` with ``q = 1 - nu (nu + 1) / x**2 <= 1``, so the
    Pruefer angle ``phi`` of ``u = rho sin(phi)``, ``u' = rho cos(phi)``
    obeys ``phi' = cos(phi)**2 + q sin(phi)**2 <= 1``.  Hence:

    * up to the turning point ``t = sqrt(nu (nu + 1))`` both ``u`` and
      ``u'`` stay positive, so ``phi(t) < pi / 2``: no TM root lies at or
      below ``t``, and no TE root (``phi = pi``) at or below ``t + pi / 2``;
    * consecutive TE roots (``phi`` steps by ``pi``) are at least ``pi``
      apart, and so are consecutive TM roots.

    A tower with its first root's bound at or above ``x_cap`` is not
    scanned.  A new tower's scan starts at the last grid point at or below
    that bound, ``t`` (TM) or ``t + pi / 2`` (TE), or at the first grid
    point if the bound lies below it, and after each root ``r`` it resumes
    at the last grid point at or below ``r + pi - 0.05``.

    From its scan point ``g``, below the next root ``r'``, the scan takes
    the window of grid points in ``(g, g + pi]``.  The root after ``r'``
    lies above ``r' + pi > g + pi``, so the window holds at most one root,
    and its bracket is the first grid pair across which the sign changes.
    The scan evaluates ``g`` when it resumes and the window's end: an
    unchanged sign means the window is root-free, and the scan moves
    there; otherwise it halves the window over grid indices down to that
    pair and bisects it.  Every sign test takes an exact 0.0 as
    non-negative.  A window ends at most at the first grid point above
    ``x_cap`` and the last at or below ``_HALVING_MAX_X = 34``; from there
    on the window is one step, because the inaccurate values above x ~ 34
    can change sign several times within ``pi``.  All points come from one
    accumulated grid, so the brackets, and with them the roots, are the
    floats a scan of every grid point from ``x = 0.05`` finds wherever the
    computed signs are right.
    """
    lowest = math.sqrt(nu * (nu + 1.0))
    if pol == "TE":
        lowest += 0.5 * math.pi
    if lowest >= x_cap:
        return []
    func = spherical_j if pol == "TE" else riccati_derivative
    key = (pol, nu)
    with _TOWERS_LOCK:
        roots, i = _TOWERS.pop(key, None) or ([], max(bisect_right(_GRID, lowest) - 1, 0))
        if len(_TOWERS) >= _TOWERS_MAX:
            del _TOWERS[next(iter(_TOWERS))]
        f_i = None
        while len(roots) < count and _GRID[i] <= x_cap and i + 1 < len(_GRID):
            if f_i is None:
                f_i = func(nu, _GRID[i])
            hi = min(bisect_right(_GRID, _GRID[i] + math.pi) - 1,
                     bisect_right(_GRID, x_cap),
                     max(i + 1, bisect_right(_GRID, _HALVING_MAX_X) - 1))
            f_hi = func(nu, _GRID[hi])
            if (f_i < 0.0) == (f_hi < 0.0):
                i, f_i = hi, f_hi
                continue
            lo, f_lo = i, f_i
            while hi - lo > 1:
                mid = (lo + hi) // 2
                f_mid = func(nu, _GRID[mid])
                if (f_lo < 0.0) == (f_mid < 0.0):
                    lo, f_lo = mid, f_mid
                else:
                    hi = mid
            root = _bisect(func, nu, _GRID[lo], f_lo, _GRID[hi])
            roots.append(root)
            i, f_i = bisect_right(_GRID, root + math.pi - _SCAN_STEP) - 1, None
        _TOWERS[key] = roots, i
        return roots[:min(count, bisect_right(roots, x_cap))]


def _root(pol: str, nu: float, s: int) -> float:
    if not 0.0 <= nu < math.inf:
        raise ValueError(f"order nu must be finite and non-negative, got {nu}")
    _check_index("root index s", s, 1)
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
    if not (0.0 < x < math.inf and 0.0 < radius_a < math.inf):
        raise ValueError("root and radius must be positive and finite")
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


#: Wedge plans keyed by (wedge_angle, polarisations), oldest use first as in
#: ``_TOWERS``.  A plan is the radius-free walk of :func:`enumerate_spectrum`
#: at the widest x cap asked for its key so far, ``(x_cap, gates, entries)``
#: as :func:`_walk` returns it; a request with a wider cap replaces it.
#: Openings drawn at random never share a plan, so only a few are kept.
_PLANS: dict[tuple[float, frozenset[str]], tuple[float, list, list]] = {}
_PLANS_MAX = 8
_PLANS_LOCK = threading.Lock()


def _walk(config: WedgeConfig, polarisations: frozenset[str], x_cap: float) -> tuple:
    """The walk over (polarisation, n, k) at ``x_cap`` as the plan ``(x_cap,
    gates, entries)``: TM, then TE, n and then k ascending, a walk over n
    ending at the first harmonic whose k = 0 tower is empty, a walk over k
    at the first empty tower.  ``entries`` are its modes as ``(walk index,
    ModeId, x)``, sorted stably by gate: the largest of x and the first
    roots of the towers passed to reach the mode, the k = 0 towers of
    earlier harmonics (the null-field TE tower too) and the towers k' <= k
    of its own.  A walk at any cap lists the modes gated at or below it."""
    walk = []
    for pol in ("TM", "TE"):
        if pol not in polarisations:
            continue
        n = 1 if pol == "TM" else 0
        weights: list[float] = []
        reach = 0.0  # the gate of the latest k = 0 tower
        while True:
            m = azimuthal_index(n, config)
            # a weight an integer J above an earlier one (to rounding)
            # requests that weight's towers, so each degree is scanned once
            base, shift = m, 0
            for w in weights:
                j = round(m - w)
                if abs(m - w - j) <= _SAME_DEGREE_TOL:
                    base, shift = w, j
                    break
            weights.append(m)
            k, gate = 0, reach
            while xs := _tower_roots(pol, base + (k + shift), math.inf, x_cap):
                gate = max(gate, xs[0])
                if k == 0:
                    reach = gate
                if not (pol == "TE" and null_field_check(m + k, m)):
                    walk += [(max(gate, x), ModeId(pol, n, k, s, m), x)
                             for s, x in enumerate(xs, 1)]
                k += 1
            if k == 0:
                break
            n += 1
    order = sorted(range(len(walk)), key=lambda i: walk[i][0])
    return x_cap, [walk[i][0] for i in order], [(i, *walk[i][1:]) for i in order]


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
    Degrees equal mathematically share one tower: a harmonic whose weight
    ``m_n`` lies an integer ``J`` above an earlier weight of the same
    polarisation (to 1e-9; for TE that includes ``m_0 = 0``) requests the
    towers ``m_n' + (k + J)`` of the earliest such weight ``m_n'``, while
    its records keep their own ``(n, k, m_n)``.  Equal modes therefore get
    the same root float, and equal frequency floats are ordered by (TM
    before TE, then n, k, s).  Repeated calls return identical lists.

    The walk depends on the opening alone, so it is kept as a plan per
    (wedge_angle, polarisations) at the widest cap asked (see ``_PLANS``).
    A call lists the plan's modes whose gate (see :func:`_walk`) is at or
    below its own cap, which are the modes a walk at that cap lists, even
    where first roots do not rise with ``nu``, as above x = 34.
    """
    if not math.isfinite(f_max_hz):
        raise ValueError("f_max_hz must be finite")
    unknown = set(polarisations) - {"TM", "TE"}
    if unknown:
        raise ValueError(f"unknown polarisations: {sorted(unknown)}")
    x_cap = 2.0 * math.pi * config.radius_a * f_max_hz / SPEED_OF_LIGHT
    if x_cap > BESSEL_X_MAX:
        raise ValueError(
            "frequency cap exceeds the x = 40 root-search window for this radius"
        )

    key = (config.wedge_angle, frozenset(polarisations))
    with _PLANS_LOCK:
        plan = _PLANS.pop(key, None)
        if plan is None or plan[0] < x_cap:
            plan = _walk(config, key[1], x_cap)
            if len(_PLANS) >= _PLANS_MAX:
                del _PLANS[next(iter(_PLANS))]
        _PLANS[key] = plan

    _, gates, entries = plan
    # ordered by frequency, then by walk index: TM before TE, then n, k, s
    served = sorted((frequency(x, config.radius_a), i, mode, x)
                    for i, mode, x in entries[:bisect_right(gates, x_cap)])
    return [ModeRecord(mode, x, f) for f, _, mode, x in served]


def te_field_shape(nu: float, m: float, x_arg: float, theta: float) -> tuple[float, float]:
    """Dimensionless TE field components at one (r, theta) sample.

    Returns ``(e_theta, e_phi)`` with the common prefactor scaled to one:

        e_theta = (m / sin theta) * j_nu(x_arg) * Theta_nu^m(theta)
        e_phi   =                   j_nu(x_arg) * d Theta_nu^m / d theta

    The colatitude derivative is the raising operator's closed form
    ``m cot(theta) Theta_nu^m + c Theta_nu^(m+1)`` with
    ``c = (m - nu)(m + nu + 1) / (2 (m + 1))``; ``c`` is zero on the sectoral
    profile ``nu = m``, which the raising operator annihilates, and
    ``Theta_nu^(m+1)`` is then not evaluated.  For ``m = 0`` the first component
    vanishes identically through its prefactor, and for ``nu = m = 0`` the
    profile is constant, so both components are zero.
    """
    radial = spherical_j(nu, x_arg)
    profile = legendre_theta(nu, m, theta)  # refuses theta outside (0, pi) before 1/sin
    if m == 0.0:
        e_theta = 0.0
    else:
        e_theta = m / math.sin(theta) * radial * profile
    d_theta = m / math.tan(theta) * profile
    if nu != m:
        c = (m - nu) * (m + nu + 1.0) / (2.0 * (m + 1.0))
        d_theta += c * legendre_theta(nu, m + 1.0, theta)
    return e_theta, radial * d_theta
