"""Cubic jerk system: vector field, equilibria and eigenvalue classification.

The model is the third order scalar equation x''' = -a x'' - b x + c x' + x x'^2 - x^3
written as a first order system in (x, y, z) = (position, velocity, acceleration).
Everything here is a pure function of the parameter triple (a, b, c) and a state.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

#: tolerance for calling an eigenvalue (or its real part) zero
TOL_EIG = 1e-10

#: residual bound for accepting a state as an equilibrium, relative to the
#: largest term of the vector field at the state (floored at 1)
RESIDUAL_TOL = 1e-9


class NotAnEquilibrium(ValueError):
    """The state handed to the classifier does not annihilate the vector field."""


class EquilibriumKind(Enum):
    HYPERBOLIC = "hyperbolic"
    ZERO_HOPF = "zero-hopf"
    OTHER_NONHYPERBOLIC = "other-nonhyperbolic"


@dataclass(frozen=True)
class SystemParams:
    """Parameter triple of the jerk system. No sign restrictions."""

    a: float
    b: float
    c: float


@dataclass(frozen=True)
class EquilibriumClass:
    """Classification result for one equilibrium.

    eigenvalues are the roots of the characteristic cubic at the point,
    sorted by real part, then imaginary part.
    """

    point: np.ndarray
    eigenvalues: np.ndarray
    kind: EquilibriumKind


def vector_field(p: SystemParams, s) -> np.ndarray:
    """Right hand side (x', y', z') of the jerk system at state s = (x, y, z)."""
    x, y, z = s
    return np.array([y, z, -p.a * z - p.b * x + p.c * y + x * y * y - x ** 3])


def equilibria(p: SystemParams) -> list[np.ndarray]:
    """All equilibria: the origin, plus (+-sqrt(-b), 0, 0) when b < 0.

    For b = 0 the cubic root at the origin is triple and only the origin is
    returned.
    """
    points = [np.zeros(3)]
    if p.b < 0.0:
        x = np.sqrt(-p.b)
        points.append(np.array([x, 0.0, 0.0]))
        points.append(np.array([-x, 0.0, 0.0]))
    return points


def char_poly(p: SystemParams, x: float) -> np.ndarray:
    """Coefficients (cubic first) of the characteristic polynomial at (x, 0, 0).

    p(lam) = -lam^3 - a lam^2 + c lam - b - 3 x^2.
    """
    return np.array([-1.0, -p.a, p.c, -(p.b + 3.0 * x * x)])


def _eigenvalues(p: SystemParams, x: float) -> np.ndarray:
    lams = np.roots(char_poly(p, x))
    order = np.lexsort((lams.imag, lams.real))
    return lams[order].astype(complex)


def _kind_of(eigs: np.ndarray) -> EquilibriumKind:
    # zero-Hopf: one eigenvalue of modulus ~0 plus a conjugate pair on the
    # imaginary axis but away from the origin
    by_modulus = sorted(range(3), key=lambda i: abs(eigs[i]))
    lam0 = eigs[by_modulus[0]]
    pair = eigs[by_modulus[1]], eigs[by_modulus[2]]
    if (
        abs(lam0) < TOL_EIG
        and all(abs(lam.real) < TOL_EIG for lam in pair)
        and all(abs(lam.imag) > TOL_EIG for lam in pair)
        and abs(pair[0] - np.conj(pair[1])) < TOL_EIG
    ):
        return EquilibriumKind.ZERO_HOPF
    if any(abs(lam.real) < TOL_EIG for lam in eigs):
        return EquilibriumKind.OTHER_NONHYPERBOLIC
    return EquilibriumKind.HYPERBOLIC


def classify_equilibrium(p: SystemParams, s) -> EquilibriumClass:
    """Classify an equilibrium of the jerk system by its eigenvalues.

    Parameters
    ----------
    p : SystemParams
    s : state triple, must be an equilibrium up to RESIDUAL_TOL times the
        largest magnitude among the field's terms at s, floored at 1

    Returns
    -------
    EquilibriumClass with eigenvalues sorted by (real, imag) and the kind
    flag. ZERO_HOPF means one zero eigenvalue plus a purely imaginary
    conjugate pair, which for the origin happens exactly at a = b = 0, c < 0.
    Eigenvalues within TOL_EIG of the imaginary axis count as on it.

    Raises
    ------
    NotAnEquilibrium if the vector field residual at s exceeds that bound,
    or is not a number because a term overflowed.
    At x = +-sqrt(-b) the terms b x and x^3 are of size |b|^1.5, so their
    rounding alone would exceed an absolute bound once |b| passes about 1e4.
    """
    s = np.asarray(s, dtype=float)
    x, y, z = s
    # a term that overflows makes the residual inf or NaN, which is refused
    with np.errstate(over="ignore", invalid="ignore"):
        residual = np.max(np.abs(vector_field(p, s)))
        terms = (y, z, p.a * z, p.b * x, p.c * y, x * y * y, x ** 3)
    if not residual <= RESIDUAL_TOL * max(1.0, *map(abs, terms)):
        raise NotAnEquilibrium(
            f"state {s.tolist()} has field residual {residual:.3e}"
        )
    eigs = _eigenvalues(p, s[0])
    return EquilibriumClass(point=s, eigenvalues=eigs, kind=_kind_of(eigs))
