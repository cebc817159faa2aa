"""Continuum forward map: produced volumes and the displacement characteristic.

For a tube-length measure mu and viscosity ratio kappa, with the front
parameter alpha:

    V_w(alpha) = (1+kappa)/(2 kappa) * int_0^alpha (alpha^2 - y^2)/y dmu(y)
    V_o(alpha) = int_0^alpha y dmu(y)
                 + 1/(1-kappa) * int_alpha^inf (y - sqrt(y^2 - (1-kappa^2) alpha^2)) dmu(y)

The displacement characteristic is the monotone graph of produced water
against total produced volume, {(V_w + V_o, V_w)}; its slope never exceeds 1.
The sampling routines are vectorized over alpha and each is a combination
of the two integrals of the measures layer: V_w and V_w' are prefix
integrals, V_o adds the OIL_VOLUME tail and V_o' is the OIL_RATE tail.
volumes_and_water_cut gives V_w, V_o and the water cut together, with
both tails from one pass.  Each formula is written once (_v_w, _v_o,
_v_w_prime, _v_o_prime, _water_cut), and every path applies it.
Memory therefore stays bounded by that layer's row blocks however many
atoms the measure has, and every alpha must be finite and >= 0.
endpoint_volumes holds the one check on a measure at alpha_max.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import ArgumentError, InternalConsistencyError
from .measures import (
    LENGTH_MAX,
    LENGTH_MIN,
    OIL_RATE,
    OIL_VOLUME,
    check_array,
    check_count,
    check_kappa,
    check_number,
    moment,
    prefix_integral,
    tail_integral,
)

# Adjacent curve samples may exceed unit slope by at most this relative
# amount before the curve is rejected.
LIPSCHITZ_RTOL = 1e-9


# The model's formulas, from the prefix and tail integrals the caller
# already has: m_inv and m_one integrate y^-1 and y over [0, alpha),
# m_right y^-1 over [0, alpha], and oil and rate are the OIL_VOLUME and
# OIL_RATE tails.

def _v_w(kappa, alphas, m_inv, m_one):
    return (1.0 + kappa) / (2.0 * kappa) * (alphas * alphas * m_inv - m_one)


def _v_o(kappa, m_one, oil):
    return m_one + oil / (1.0 - kappa)


def _v_w_prime(kappa, alphas, m_right):
    return (1.0 + kappa) * alphas / kappa * m_right


def _v_o_prime(kappa, alphas, rate):
    return (1.0 + kappa) * alphas * rate


def _water_cut(wp, op):
    """wp / (wp + op), with the 0/0 points (no flow at all) mapped to 0."""
    den = wp + op
    return np.divide(wp, den, out=np.zeros_like(den), where=den > 0)


def _sampler_args(kappa, alphas):
    """kappa through check_kappa and alphas through check_array: the one
    check of the arguments every sampler takes."""
    return check_kappa(kappa), check_array("alpha", alphas)


def v_w_samples(mu, kappa, alphas):
    """V_w on an array of alpha values (closed form)."""
    kappa, alphas = _sampler_args(kappa, alphas)
    return _v_w(kappa, alphas, prefix_integral(mu, -1, alphas), prefix_integral(mu, 1, alphas))


def v_o_samples(mu, kappa, alphas):
    """V_o on an array of alpha values (closed form)."""
    kappa, alphas = _sampler_args(kappa, alphas)
    (oil,) = tail_integral(mu, (OIL_VOLUME,), kappa, alphas)
    return _v_o(kappa, prefix_integral(mu, 1, alphas), oil)


def v_w_prime_samples(mu, kappa, alphas):
    """dV_w/dalpha = (1+kappa) alpha / kappa * int_0^alpha dmu/y.

    At an atom location the right limit is taken (the atom is included).
    """
    kappa, alphas = _sampler_args(kappa, alphas)
    return _v_w_prime(kappa, alphas, prefix_integral(mu, -1, alphas, inclusive=True))


def v_o_prime_samples(mu, kappa, alphas):
    """dV_o/dalpha = (1+kappa) alpha int_alpha^inf dmu(y)/sqrt(y^2-(1-kappa^2)alpha^2).

    At an atom location the right limit is taken (the atom is excluded).
    """
    kappa, alphas = _sampler_args(kappa, alphas)
    (rate,) = tail_integral(mu, (OIL_RATE,), kappa, alphas)
    return _v_o_prime(kappa, alphas, rate)


def water_cut_samples(mu, kappa, alphas):
    """V_w'/(V_w'+V_o') with the 0/0 points (no flow at all) mapped to 0."""
    wp = v_w_prime_samples(mu, kappa, alphas)
    return _water_cut(wp, v_o_prime_samples(mu, kappa, alphas))


def volumes_and_water_cut(mu, kappa, alphas):
    """(V_w, V_o, water cut) on one alpha array, from one pass over the tails.

    The two oil tails come from a single tail_integral call, which takes
    the root sqrt(y^2 - (1-kappa^2) alpha^2) once per cell; the formulas
    are the ones v_w_samples, v_o_samples and water_cut_samples apply, so
    the three arrays equal theirs bit for bit.
    """
    kappa, alphas = _sampler_args(kappa, alphas)
    m_one = prefix_integral(mu, 1, alphas)
    oil, rate = tail_integral(mu, (OIL_VOLUME, OIL_RATE), kappa, alphas)
    vw = _v_w(kappa, alphas, prefix_integral(mu, -1, alphas), m_one)
    wp = _v_w_prime(kappa, alphas, prefix_integral(mu, -1, alphas, inclusive=True))
    return vw, _v_o(kappa, m_one, oil), _water_cut(wp, _v_o_prime(kappa, alphas, rate))


# ---------------------------------------------------------------------------
# displacement characteristic
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class DisplacementCurve:
    """Sampled displacement characteristic: water produced vs total produced.

    x and g are arrays of numbers (check_array: no strings, bools or
    complex values); x is strictly increasing with x[0] = 0, g
    nondecreasing with g[0] = 0, g <= x, and unit Lipschitz bound between
    adjacent samples.
    Evaluation interpolates piecewise-linearly and clamps outside [0, v_max],
    which preserves monotonicity and the Lipschitz bound.
    """

    x: np.ndarray
    g: np.ndarray
    alpha_max: float
    kappa: float

    def __post_init__(self):
        x, g = check_array("x", self.x), check_array("g", self.g)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "g", g)
        object.__setattr__(self, "kappa", check_kappa(self.kappa))
        object.__setattr__(self, "alpha_max", check_number("alpha_max", self.alpha_max))
        if not 0 < self.alpha_max < math.inf:
            raise ArgumentError("alpha_max must be finite and > 0")
        if x.ndim != 1 or x.shape != g.shape or x.size < 2:
            raise ArgumentError("curve needs matching 1-d arrays of >= 2 samples")
        if not (np.all(np.isfinite(x)) and np.all(np.isfinite(g))):
            raise InternalConsistencyError("curve samples must be finite")
        scale = max(float(x[-1]), 1.0)
        slack = 1e-12 * scale
        if x[0] != 0.0 or abs(g[0]) > slack:
            raise InternalConsistencyError("curve must start at (0, 0)")
        dx = np.diff(x)
        dg = np.diff(g)
        if np.any(dx <= 0):
            raise InternalConsistencyError("total volume must be strictly increasing")
        if np.any(dg < -slack):
            raise InternalConsistencyError("produced water must be nondecreasing")
        if np.any(dg > dx * (1.0 + LIPSCHITZ_RTOL) + slack):
            raise InternalConsistencyError("curve violates the unit Lipschitz bound")
        if np.any(g > x + slack):
            raise InternalConsistencyError("produced water exceeds total volume")

    @property
    def v_max(self):
        return float(self.x[-1])

    @property
    def g_max(self):
        return float(self.g[-1])

    def __call__(self, s):
        return np.interp(s, self.x, self.g)


def build_curve(mu, kappa, alpha_max, n_samples):
    """Sample the displacement characteristic on a uniform alpha grid.

    The measure must pass endpoint_data's checks at alpha_max; the
    resulting curve carries (alpha_max, kappa) so it is self-describing for
    the inversion step.
    """
    kappa = check_kappa(kappa)
    check_count("n_samples", n_samples, 2)
    endpoint_data(mu, kappa, alpha_max)
    alphas = np.linspace(0.0, alpha_max, n_samples)
    vw = v_w_samples(mu, kappa, alphas)
    vo = v_o_samples(mu, kappa, alphas)
    return DisplacementCurve(x=vw + vo, g=vw, alpha_max=alpha_max, kappa=kappa)


def check_alpha_max(alpha_max):
    """Validate alpha_max, whose square must be a finite normal double:
    measures.LENGTH_MIN <= alpha_max < LENGTH_MAX, the rule of atom lengths.

    Returns it as float.  Below the normal doubles (alpha_max under about
    1.5e-154) the samples of build_curve lose the digits that keep the
    total volume increasing.
    """
    alpha_max = check_number("alpha_max", alpha_max)
    if not LENGTH_MIN <= alpha_max < LENGTH_MAX:
        raise ArgumentError(
            f"alpha_max^2 must be a finite normal double, got alpha_max={alpha_max}"
        )
    return alpha_max


def endpoint_volumes(kappa, alpha_max, support_sup, i_inv, i_one):
    """(V_w, V_o, V_w') at alpha_max from the two global moments I_{-1}, I_1.

    V_w  = (1+kappa) alpha_max^2 / (2 kappa) I_{-1} - (1+kappa)/(2 kappa) I_1
    V_o  = I_1
    V_w' = (1+kappa) alpha_max / kappa * I_{-1}

    The package's one check on a measure at alpha_max, given its support's
    supremum and moments and a kappa that passed check_kappa: alpha_max
    must pass check_alpha_max, the support must lie in [0, alpha_max] and
    v_max = V_w + V_o must be a finite normal double, else ArgumentError.
    These sums are Python floats, which overflow to inf without a warning.
    A v_max below 2.2e-308 loses the digits of build_curve's samples.
    """
    alpha_max = check_alpha_max(alpha_max)
    if support_sup > alpha_max:
        raise ArgumentError(
            f"measure support (sup {support_sup}) exceeds alpha_max={alpha_max}"
        )
    vw = _v_w(kappa, alpha_max, i_inv, i_one)
    if not sys.float_info.min <= vw + i_one < math.inf:
        raise ArgumentError(
            f"volume at alpha_max must be a finite normal double, got {vw + i_one}"
        )
    return vw, i_one, _v_w_prime(kappa, alpha_max, i_inv)


def endpoint_data(mu, kappa, alpha_max):
    """(V_w, V_o, V_w') of mu at alpha_max, with endpoint_volumes' checks."""
    return endpoint_volumes(
        check_kappa(kappa), alpha_max, mu.support_sup, moment(mu, -1), moment(mu, 1)
    )


def curve_readoff(curve):
    """(V_w(alpha_max), V_w'(alpha_max)) read off the curve endpoint.

    The derivative uses

        V_w' = [2 V_w + (1+kappa)/kappa (v_max - V_w)] / alpha_max

    which follows from the endpoint moment formulas (the division by
    alpha_max is required dimensionally).  A V_w' past the doubles (an
    alpha_max below about v_max / 1.8e308) raises ArgumentError.
    """
    if not curve.v_max > 0:
        raise ArgumentError("degenerate curve: v_max must be > 0")
    vw = curve.g_max
    vo = curve.v_max - vw
    vwp = (2.0 * vw + (1.0 + curve.kappa) / curve.kappa * vo) / curve.alpha_max
    if not math.isfinite(vwp):
        raise ArgumentError(
            f"V_w'(alpha_max) overflows a double at alpha_max={curve.alpha_max}"
        )
    return vw, vwp
