"""Deterministic, seeded synthetic data generators with latent ground truth.

Randomness comes from the Philox 4x64 counter-based generator (10 rounds,
numpy's ``np.random.Philox``) keyed by ``(seed, stream_id)``, with documented
transforms on top of its raw 64-bit words:

* uniform in [0, 1): top 53 bits of a word, scaled by 2^-53;
* normal: inverse CDF (Acklam rational approximation) of a uniform;
* Bernoulli(p): uniform < p;
* Poisson(lam): CDF inversion consuming exactly one uniform per draw.

Each generator assigns a fixed stream id per purpose (documented next to the
constants below), so every parameter draw is reproducible independently of
how many values other draws consumed.
"""

from dataclasses import dataclass

import numpy as np

from .errors import InvalidParams
from .ingestion import TimeSeriesBatch, is_integer
from .stats import norm_ppf_array

# Stream ids: one per random purpose, shared across generators.
STREAM_U_VEC = 0
STREAM_V_VEC = 1
STREAM_ALPHA = 2
STREAM_OMEGA = 3
STREAM_TREND = 4
STREAM_AR_COEF = 5
STREAM_AR_NOISE = 6
STREAM_OBS_GAUSS = 7
STREAM_OBS_BERN = 8
STREAM_OBS_POIS = 9
STREAM_THETA = 10
STREAM_LRF_SHAPE = 11
STREAM_MASK = 12

# Draws made at a time by the normal sampler and by corrupt: their
# temporaries stay at a few times DRAW_BLOCK floats, whatever the output
# size.  Each stream is one sequence of draws, so the block size changes
# no value.
DRAW_BLOCK = 1 << 16


class PhiloxStream:
    """Deterministic draw source keyed by (seed, stream id)."""

    def __init__(self, seed: int, stream: int):
        key = np.array([np.uint64(seed & (2**64 - 1)),
                        np.uint64(stream & (2**64 - 1))], dtype=np.uint64)
        self._bg = np.random.Philox(key=key)

    def uniforms(self, n: int) -> np.ndarray:
        raw = self._bg.random_raw(n)
        raw >>= np.uint64(11)
        out = raw.astype(np.float64)
        out *= 2.0**-53
        return out

    def uniform(self, lo: float, hi: float, n: int) -> np.ndarray:
        return lo + (hi - lo) * self.uniforms(n)

    def normals(self, n: int) -> np.ndarray:
        out = np.empty(n)
        for a in range(0, n, DRAW_BLOCK):
            u = self.uniforms(min(DRAW_BLOCK, n - a))
            # Clip away exact zeros so the inverse CDF stays finite.
            np.clip(u, 2.0**-53, None, out=u)
            out[a:a + u.size] = norm_ppf_array(u)
        return out

    def bernoulli(self, p: np.ndarray) -> np.ndarray:
        p = np.asarray(p, dtype=np.float64)
        return (self.uniforms(p.size).reshape(p.shape) < p).astype(np.float64)

    def poisson(self, lam: np.ndarray) -> np.ndarray:
        """Poisson by CDF inversion, one uniform per draw."""
        lam = np.asarray(lam, dtype=np.float64)
        u = self.uniforms(lam.size).reshape(lam.shape)
        k = np.zeros(lam.shape, dtype=np.int64)
        pmf = np.exp(-lam)
        cdf = pmf.copy()
        active = u > cdf
        # lam <= O(1) here; the tail is exhausted within ~40 terms.
        guard = int(np.ceil(lam.max() + 10.0 * np.sqrt(lam.max() + 1.0) + 40))
        for _ in range(guard):
            if not active.any():
                break
            k[active] += 1
            pmf[active] *= lam[active] / k[active]
            cdf[active] += pmf[active]
            active = u > cdf
        return k.astype(np.float64)


@dataclass
class SyntheticTruth:
    """Observations plus the latent mean/variance they were drawn from."""

    observations: TimeSeriesBatch
    latent_mean: np.ndarray
    latent_var: np.ndarray

    def __post_init__(self):
        if self.latent_mean.shape != self.observations.values.shape:
            raise InvalidParams("latent mean shape mismatch")
        if self.latent_var.shape != self.observations.values.shape:
            raise InvalidParams("latent variance shape mismatch")
        if np.any(self.latent_var < 0):
            raise InvalidParams("latent variance must be nonnegative")


def _check_counts(least: int = 1, **counts) -> None:
    for name, value in counts.items():
        if not is_integer(value) or value < least:
            raise InvalidParams(
                f"{name} must be an integer >= {least}, got {value!r}")


def _check_sigma(sigma: float) -> None:
    if not 0.0 <= sigma < np.inf:
        raise InvalidParams(f"sigma must be finite and >= 0, got {sigma}")


def _batch(values: np.ndarray, prefix: str) -> TimeSeriesBatch:
    names = [f"{prefix}{i}" for i in range(values.shape[0])]
    return TimeSeriesBatch(names, values, np.ones(values.shape, dtype=bool))


def _harmonic_mixtures(seed: int, T: int, r: int, n_terms: int,
                       alpha_range: tuple[float, float],
                       omega_range: tuple[float, float]) -> np.ndarray:
    """r series, each a sum of ``n_terms`` cosines cos(omega * t / T)."""
    alphas = PhiloxStream(seed, STREAM_ALPHA).uniform(*alpha_range, r * n_terms)
    omegas = PhiloxStream(seed, STREAM_OMEGA).uniform(*omega_range, r * n_terms)
    t = np.arange(1, T + 1, dtype=np.float64)
    out = np.zeros((r, T))
    for k in range(r):
        for h in range(n_terms):
            idx = k * n_terms + h
            out[k] += alphas[idx] * np.cos(omegas[idx] * t / T)
    return out


def _cp_field(seed: int, n: int, m: int, components: np.ndarray) -> np.ndarray:
    """Rank-r spatial mixing: F[(i,j), t] = sum_k u_k[i] v_k[j] g_k(t)."""
    r = components.shape[0]
    u = PhiloxStream(seed, STREAM_U_VEC).uniform(-1.0, 1.0, r * n).reshape(r, n)
    v = PhiloxStream(seed, STREAM_V_VEC).uniform(-1.0, 1.0, r * m).reshape(r, m)
    weights = np.stack([np.outer(u[k], v[k]).reshape(-1) for k in range(r)])
    return weights.T @ components


def gen_synthetic_I(n: int = 20, m: int = 20, T: int = 15000, r: int = 4,
                    seed: int = 0, preset: str = "default") -> SyntheticTruth:
    """Noiseless rank-r tensor of harmonic mixtures over an n x m grid.

    Each of the r components pairs a spatial weight pattern u_k v_k^T with a
    4-cosine time profile.  ``preset="default"`` draws amplitudes in [-1, 10]
    and frequencies in [1, 1000]; ``preset="scaling"`` uses the
    [-1.5, 1.5] x [1, 100] variant.  Observations equal the latent mean
    (zero noise); corrupt with :func:`corrupt` for noisy/missing experiments.
    """
    _check_counts(n=n, m=m, T=T, r=r)
    if preset == "default":
        alpha_range, omega_range = (-1.0, 10.0), (1.0, 1000.0)
    elif preset == "scaling":
        alpha_range, omega_range = (-1.5, 1.5), (1.0, 100.0)
    else:
        raise InvalidParams(f"unknown preset {preset!r}")
    g = _harmonic_mixtures(seed, T, r, 4, alpha_range, omega_range)
    values = _cp_field(seed, n, m, g)
    # The batch keeps the array it is given, so it gets its own copy.
    return SyntheticTruth(_batch(values.copy(), "s"), values,
                          np.zeros(values.shape))


def _normalize_01(x: np.ndarray) -> np.ndarray:
    lo, hi = x.min(), x.max()
    if hi == lo:
        return np.zeros_like(x)
    return (x - lo) / (hi - lo)


DYNAMICS = ("har", "har_trend", "har_ar_trend")


def gen_synthetic_II(seed: int = 0, T: int = 15000,
                     grid: int = 20) -> dict[tuple[str, str], SyntheticTruth]:
    """Nine observation sets for variance estimation experiments.

    Three latent tensors over a ``grid x grid`` spatial factor: harmonics
    only, harmonics+trend, harmonics+trend+AR(3), each min-max normalized to
    [0, 1].  Each is observed under Gaussian (mean = the harmonics-only
    tensor, variance = the arm's own tensor), Bernoulli, and Poisson laws.
    The AR component burns in for 100 steps; its coefficients are rescaled
    to sum below 0.95 when a draw would be nonstationary.  T and grid must
    be integers >= 1 (:class:`InvalidParams`).
    """
    _check_counts(T=T, grid=grid)
    r = 4
    har = _harmonic_mixtures(seed, T, r, 4, (-1.0, 10.0), (1.0, 1000.0))

    etas = PhiloxStream(seed, STREAM_TREND).uniform(1e-4, 1e-3, r)
    t = np.arange(1, T + 1, dtype=np.float64)
    trend = etas[:, None] * t[None, :]

    burn = 100
    phis = PhiloxStream(seed, STREAM_AR_COEF).uniform(0.1, 0.4, 3 * r).reshape(r, 3)
    sums = phis.sum(axis=1)
    scale = np.where(sums >= 0.95, 0.95 / sums, 1.0)
    phis *= scale[:, None]
    eps = PhiloxStream(seed, STREAM_AR_NOISE).normals(r * (T + burn)) \
        .reshape(r, T + burn) * np.sqrt(0.1)
    ar = np.zeros((r, T + burn))
    for k in range(r):
        for i in range(3, T + burn):
            ar[k, i] = (phis[k, 0] * ar[k, i - 1] + phis[k, 1] * ar[k, i - 2]
                        + phis[k, 2] * ar[k, i - 3] + eps[k, i])
    ar = ar[:, burn:]

    tensors = {
        "har": _normalize_01(_cp_field(seed, grid, grid, har)),
        "har_trend": _normalize_01(_cp_field(seed, grid, grid, har + trend)),
        "har_ar_trend": _normalize_01(
            _cp_field(seed, grid, grid, har + trend + ar)),
    }

    out: dict[tuple[str, str], SyntheticTruth] = {}
    mean_gauss = tensors["har"]
    for qi, dyn in enumerate(DYNAMICS):
        fq = tensors[dyn]
        shape = fq.shape
        z = PhiloxStream(seed, STREAM_OBS_GAUSS + 100 * qi).normals(fq.size).reshape(shape)
        x_gauss = mean_gauss + np.sqrt(fq) * z
        out[("gaussian", dyn)] = SyntheticTruth(
            _batch(x_gauss, "s"), mean_gauss.copy(), fq.copy())

        x_bern = PhiloxStream(seed, STREAM_OBS_BERN + 100 * qi).bernoulli(fq)
        out[("bernoulli", dyn)] = SyntheticTruth(
            _batch(x_bern, "s"), fq.copy(), (fq * (1.0 - fq)).copy())

        x_pois = PhiloxStream(seed, STREAM_OBS_POIS + 100 * qi).poisson(fq)
        out[("poisson", dyn)] = SyntheticTruth(
            _batch(x_pois, "s"), fq.copy(), fq.copy())
    return out


def gen_synthetic_III(T: int = 100000, seed: int = 0,
                      sigma: float = 0.5) -> dict[str, SyntheticTruth]:
    """One latent harmonic sum in [0, 1], observed under three noise laws.

    Gaussian (additive noise with standard deviation ``sigma``), Bernoulli,
    and Poisson observations all share the identical latent mean.  A T that
    is not an integer >= 1, or a sigma that is not finite and >= 0, raises
    :class:`InvalidParams`.
    """
    _check_counts(T=T)
    _check_sigma(sigma)
    f = _harmonic_mixtures(seed, T, 1, 4, (-1.5, 1.5), (1.0, 100.0))[0]
    f = _normalize_01(f)[None, :]

    z = PhiloxStream(seed, STREAM_OBS_GAUSS).normals(T).reshape(1, T)
    gauss = SyntheticTruth(_batch(f + sigma * z, "s"), f.copy(),
                           np.full_like(f, sigma * sigma))

    xb = PhiloxStream(seed, STREAM_OBS_BERN).bernoulli(f)
    bern = SyntheticTruth(_batch(xb, "s"), f.copy(), f * (1.0 - f))

    xp = PhiloxStream(seed, STREAM_OBS_POIS).poisson(f)
    pois = SyntheticTruth(_batch(xp, "s"), f.copy(), f.copy())
    return {"gaussian": gauss, "bernoulli": bern, "poisson": pois}


def gen_lrf(K: int, R_max: int, N: int, T: int, seed: int = 0,
            theta: np.ndarray | None = None) -> SyntheticTruth:
    """Noiseless multivariate series with a known low-rank Page structure.

    Builds K fundamental components, each satisfying a linear recurrence of
    order at most R_max (a damped harmonic consumes order 2, a polynomial of
    degree d consumes d+1, a pure geometric decay consumes 1).  Every series
    is a random linear combination of the fundamentals, so the stacked Page
    matrix has rank at most K * R_max for any window length.  K, R_max
    and N must be integers >= 1 and T an integer >= 2 (:class:`InvalidParams`).
    """
    _check_counts(K=K, R_max=R_max, N=N)
    _check_counts(least=2, T=T)
    shape_rng = PhiloxStream(seed, STREAM_LRF_SHAPE)
    t = np.arange(1, T + 1, dtype=np.float64)
    comps = np.zeros((K, T))
    for k in range(K):
        if R_max == 1:
            alpha = shape_rng.uniform(-2.0 / T, 0.0, 1)[0]
            h = np.exp(alpha * t)
        else:
            alpha = shape_rng.uniform(-1.0 / T, 0.0, 1)[0]
            cycles = shape_rng.uniform(2.0, 40.0, 1)[0]
            phase = shape_rng.uniform(0.0, 2.0 * np.pi, 1)[0]
            h = np.exp(alpha * t) * np.cos(2.0 * np.pi * cycles * t / T + phase)
            if R_max >= 3:
                degree = R_max - 3
                coeffs = shape_rng.uniform(-1.0, 1.0, degree + 1)
                h = h + np.polyval(coeffs, t / T)
        peak = np.abs(h).max()
        comps[k] = h / peak if peak > 0 else h
    if theta is None:
        theta = PhiloxStream(seed, STREAM_THETA).uniform(-1.0, 1.0, N * K).reshape(N, K)
    else:
        theta = np.asarray(theta, dtype=np.float64)
        if theta.shape != (N, K):
            raise InvalidParams(f"theta must have shape ({N}, {K})")
    values = theta @ comps
    zero = np.zeros_like(values)
    return SyntheticTruth(_batch(values, "s"), values.copy(), zero)


def corrupt(truth: SyntheticTruth, sigma: float = 0.0, p_obs: float = 1.0,
            seed: int = 0) -> SyntheticTruth:
    """Additive Gaussian noise and random masking on top of a truth set.

    Each entry stays observed independently with probability ``p_obs``;
    noise with standard deviation ``sigma`` is added to observed entries.
    The latent mean is unchanged, and the result shares that array with
    ``truth``; sigma^2 is added to the latent variance, in a new array.
    The observations are one new array, which the new batch keeps.
    """
    if not 0.0 < p_obs <= 1.0:
        raise InvalidParams("p_obs must lie in (0, 1]")
    _check_sigma(sigma)
    base = truth.observations
    values = np.ascontiguousarray(base.zero_filled())
    obs = base.observed.copy()
    noise = PhiloxStream(seed, STREAM_OBS_GAUSS + 1000)
    mask = PhiloxStream(seed, STREAM_MASK)
    # Entry i of the C-order grid takes draw i of each stream.
    flat_vals, flat_obs = values.reshape(-1), obs.reshape(-1)
    for a in range(0, values.size, DRAW_BLOCK):
        b = min(a + DRAW_BLOCK, values.size)
        if sigma > 0.0:
            flat_vals[a:b] += sigma * noise.normals(b - a)
        if p_obs < 1.0:
            flat_obs[a:b] &= mask.uniforms(b - a) < p_obs
        flat_vals[a:b][~flat_obs[a:b]] = np.nan
    batch = TimeSeriesBatch(list(base.names), values, obs, base.t0, base.step)
    return SyntheticTruth(batch, truth.latent_mean,
                          truth.latent_var + sigma * sigma)
