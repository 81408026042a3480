"""Eigenmode spectra of spherical cavities with conducting wedges.

A conducting wedge occupying an azimuthal sector quantises the azimuthal
index to generally non-integer values m = n pi / Phi.  This package
computes the resulting TE/TM resonance spectra from scratch-built
special functions, verifies the underlying ladder-algebra structure
numerically, and compares against embedded reference tables.

Modules:
    specfun  -- Bessel J / spherical j, Riccati derivative and regular
                Legendre theta-solution (power series), log-gamma
                (math.lgamma)
    angular  -- ladder operators on theta-grid functions, Casimir checks,
                south-pole singularity analysis
    modes    -- azimuthal quantisation, root finding, spectrum enumeration
    oracle   -- independent FD eigensolver and 40-digit decimal series check
    report   -- embedded reference tables, comparison, CSV/JSON rendering
    cli      -- command-line front end
"""
from __future__ import annotations

__version__ = "0.1.0"
