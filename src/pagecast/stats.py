"""Standard-normal quantiles and the one interval rule.

:func:`halfwidth` is the one rule that turns a standard deviation into an
interval half-width.  Its Gaussian quantile is :func:`norm_ppf`, the
standard library's ``statistics.NormalDist().inv_cdf`` (Wichura's AS241,
within 2 ulp of the exact quantile at each confidence the tests pin, from
1 % to 99.999 %), so intervals need no external dependency.  The
deterministic samplers use :func:`norm_ppf_array` instead: Peter Acklam's
rational approximation, vectorised, with relative error < 1.15e-9.
"""

import math
import numbers
from statistics import NormalDist

from .errors import InvalidConfidence

_STANDARD_NORMAL = NormalDist()


def norm_ppf(p: float) -> float:
    """Inverse CDF of the standard normal distribution on [0, 1]."""
    if not 0.0 < p < 1.0:
        if p == 0.0:
            return -math.inf
        if p == 1.0:
            return math.inf
        raise ValueError(f"p must lie in [0, 1], got {p}")
    return _STANDARD_NORMAL.inv_cdf(p)


# Acklam coefficients of norm_ppf_array: central region rational in
# q = p - 0.5, tail region rational in sqrt(-2 ln p).
_A = (-3.969683028665376e+01, 2.209460984245205e+02, -2.759285104469687e+02,
      1.383577518672690e+02, -3.066479806614716e+01, 2.506628277459239e+00)
_B = (-5.447609879822406e+01, 1.615858368580409e+02, -1.556989798598866e+02,
      6.680131188771972e+01, -1.328068155288572e+01)
_C = (-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e+00,
      -2.549732539343734e+00, 4.374664141464968e+00, 2.938163982698783e+00)
_D = (7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e+00,
      3.754408661907416e+00)

_P_LOW = 0.02425
_P_HIGH = 1.0 - _P_LOW


def _central(q):
    """Acklam's central-region rational function of q = p - 0.5."""
    r = q * q
    return ((((((_A[0] * r + _A[1]) * r + _A[2]) * r + _A[3]) * r + _A[4]) * r + _A[5]) * q
            / (((((_B[0] * r + _B[1]) * r + _B[2]) * r + _B[3]) * r + _B[4]) * r + 1.0))


def _tail(q):
    """Acklam's lower-tail rational function of q = sqrt(-2 ln p)."""
    return ((((((_C[0] * q + _C[1]) * q + _C[2]) * q + _C[3]) * q + _C[4]) * q + _C[5])
            / ((((_D[0] * q + _D[1]) * q + _D[2]) * q + _D[3]) * q + 1.0))


def norm_ppf_array(p: "np.ndarray") -> "np.ndarray":
    """Vectorized Acklam approximation.

    Relative error < 1.15e-9 across (0, 1); used by the deterministic
    samplers, where that accuracy is far below sampling noise.
    """
    import numpy as np

    p = np.asarray(p, dtype=np.float64)
    x = np.empty_like(p)

    low = p < _P_LOW
    high = p > _P_HIGH
    mid = ~(low | high)

    x[low] = _tail(np.sqrt(-2.0 * np.log(p[low])))
    x[mid] = _central(p[mid] - 0.5)
    x[high] = -_tail(np.sqrt(-2.0 * np.log(1.0 - p[high])))
    return x


METHODS = ("gaussian", "chebyshev")


def halfwidth(confidence: float, method: str):
    """The half-width of the central interval at ``confidence`` percent as
    a function of sigma: sigma * norm_ppf(0.5 + c/200) (gaussian) or
    sigma / sqrt(1 - c/100) (chebyshev).  Raises :class:`InvalidConfidence`
    unless ``method`` is one of ``METHODS`` and ``confidence`` is a real
    number (not a bool, read as a float) strictly between 0 and 100."""
    if method not in METHODS:
        raise InvalidConfidence(f"unknown interval method {method!r}")
    if (isinstance(confidence, bool) or not isinstance(confidence, numbers.Real)
            or not 0.0 < float(confidence) < 100.0):
        raise InvalidConfidence(f"confidence must be a real number strictly "
                                f"between 0 and 100, got {confidence!r}")
    c = float(confidence)
    if method == "gaussian":
        z = norm_ppf(0.5 + c / 200.0)
        return lambda sigma: sigma * z
    root = math.sqrt(1.0 - c / 100.0)
    return lambda sigma: sigma / root


def gaussian_halfwidth(sigma: float, confidence: float) -> float:
    """Half-width of the central Gaussian interval at ``confidence`` percent."""
    return halfwidth(confidence, "gaussian")(sigma)


def chebyshev_halfwidth(sigma: float, confidence: float) -> float:
    """Half-width of the Chebyshev interval at ``confidence`` percent."""
    return halfwidth(confidence, "chebyshev")(sigma)
