"""Streaming model: half-overlapping sub-models on a geometric retrain schedule.

The stream is cut into segments of ``Tprime`` observations starting every
``Tprime/2``, so each observation past the first half-segment belongs to
exactly two sub-models.  A sub-model is fully retrained from raw data at
the first step count that crosses floor(T0 * (1+gamma)^l) observations, for
l up to a cap (a larger cap for the first segment, which grows from T0 all
the way to Tprime), and has a Page window: L0 * ceil(L0 / N) steps or more,
with L0 the L override or 2.  :func:`retrain_thresholds` and
:meth:`PredictionModel._next_retrain` are the whole schedule.  A sub-model
is a :class:`~pagecast.estimator.SegmentFit`: a retrain refits it from the
raw steps (``fit``), and between retrains each completed Page column is
appended to its SVDs (``extend``), in the column order of full retrains.
Until the first retrain the model answers with the running mean of
everything seen (fallback mode).
"""

import bisect
import math
import numbers
from dataclasses import dataclass, field, fields
from typing import get_args

import numpy as np

from .errors import (InvalidParams, NonFiniteInput, UnknownSeries, UntrainedModel,
                     WidthMismatch)
from .estimator import SegmentFit
from .ingestion import BULK_STEPS, TimeSeriesBatch, is_integer

# The largest magnitude an observed value may have.  Training sums x^2 over
# the observations (the running moments) and, on the Gram route, x^4 over the
# columns of the second-moment matrix; with |x| <= 2^240 both stay below
# 2^1023 for up to 2^63 terms, so no retrain meets an overflow.
VALUE_MAX = 2.0 ** 240


def _knob(default, text: str):
    return field(default=default, metadata={"help": text})


@dataclass
class HyperParams:
    """Knobs of the incremental scheme, declared once: the flags of ``pagecast
    create`` and a store's ``hp.*`` keys are read off these fields.  An int
    field takes an integral value that is not a bool (numpy ints count, kept
    as int), an ``int | None`` field None too, ``gamma`` a real value that is
    not a bool (kept as float); the range checks follow."""

    T0: int = _knob(100, "minimum observations before training")
    Tprime: int = _knob(2_500_000, "sub-model span in observations")
    gamma: float = _knob(0.5, "retrain growth factor in (0,1]")
    L: int | None = _knob(None, "fixed Page-matrix window")
    k1: int | None = _knob(None, "fixed mean-model rank")
    k2: int | None = _knob(None, "fixed variance-model rank")
    coeff_window: int = _knob(10, "sub-models averaged for forecasting")

    def __post_init__(self):
        for f in fields(self):
            value, kinds = getattr(self, f.name), get_args(f.type) or (f.type,)
            if value is None and type(None) in kinds:
                continue
            if isinstance(value, bool) or not isinstance(
                    value, numbers.Integral if kinds[0] is int else numbers.Real):
                want = getattr(f.type, "__name__", f.type)
                raise InvalidParams(f"{f.name} must be {want}, got {value!r}")
            setattr(self, f.name, kinds[0](value))
        if self.T0 < 1:
            raise InvalidParams(f"T0 must be >= 1, got {self.T0}")
        if self.Tprime < 2 * self.T0:
            raise InvalidParams(
                f"Tprime must be >= 2*T0, got {self.Tprime} < {2 * self.T0}")
        if not 0.0 < self.gamma <= 1.0:
            raise InvalidParams(f"gamma must lie in (0, 1], got {self.gamma}")
        if self.coeff_window < 1:
            raise InvalidParams("coeff_window must be >= 1")
        if self.L is not None and self.L < 2:
            raise InvalidParams("L override must be >= 2")
        for name, rank in (("k1", self.k1), ("k2", self.k2)):
            if rank is not None and rank < 1:
                raise InvalidParams(f"{name} override must be >= 1, got {rank}")


def q0_limit(hp: HyperParams) -> int:
    """Largest schedule exponent for the first segment:
    floor(ln(Tprime/T0) / ln(1+gamma))."""
    return int(math.floor(math.log(hp.Tprime / hp.T0) / math.log1p(hp.gamma)))


def q_limit(hp: HyperParams) -> int:
    """Largest schedule exponent for later segments: floor(ln 2 / ln(1+gamma))."""
    return int(math.floor(math.log(2.0) / math.log1p(hp.gamma)))


def retrain_thresholds(hp: HyperParams, first_segment: bool) -> list[int]:
    """Deduplicated schedule points floor(T0 * (1+gamma)^l), l = 0..cap."""
    cap = q0_limit(hp) if first_segment else q_limit(hp)
    out: list[int] = []
    for level in range(cap + 1):
        v = int(math.floor(hp.T0 * (1.0 + hp.gamma) ** level))
        if not out or v > out[-1]:
            out.append(v)
    return out


class _RawWindow:
    """Recent raw steps with amortized O(1) appends and front pruning.  The
    only copy of the stream: it keeps every step of every sub-model still
    being fed, whose unfinished Page column and last Page row live here.
    A missing entry is NaN; every stored entry that is finite is observed.

    The buffer is time-major: a C-order (capacity, N) array whose row i is
    one step of all N series.  The stored steps are then one contiguous run
    of rows, byte for byte the column-major payload of ``raw_values.f64``,
    so a save writes them and a load reads into them without a copy.
    Readers see N x T views (:meth:`slice_steps`, :meth:`tail`)."""

    def __init__(self, n_series: int, n_steps: int = 0, start_step: int = 0):
        """A window of ``n_steps`` uninitialised steps from global step
        ``start_step``, for a loader to fill through :meth:`rows`.  Its
        capacity is the first regrowth above ``n_steps``, so the step after
        a load does not copy the window."""
        cap = self._capacity(0)
        while cap <= n_steps:
            cap = self._capacity(cap)
        self._vals = np.empty((cap, n_series))
        self._lo = 0
        self._hi = n_steps
        self.start_step = start_step

    @staticmethod
    def _capacity(n: int) -> int:
        """Rows of the buffer a full window of ``n`` steps regrows into."""
        return max(64, 2 * (n + 1))

    @property
    def n_cols(self) -> int:
        return self._hi - self._lo

    def extend(self, values: np.ndarray) -> None:
        """Append the columns of the N x n ``values`` in order; capacity
        grows as it would one column at a time (fill, then regrow), whatever
        the block sizes, with at most one copy of the window per call."""
        n = values.shape[1]
        live = self.n_cols
        if self._hi + n > len(self._vals):
            cap = self._capacity(len(self._vals) - self._lo)
            while cap < live + n:
                cap = self._capacity(cap)
            vals = np.empty((cap, self._vals.shape[1]))
            vals[:live] = self.rows()
            self._vals = vals
            self._lo, self._hi = 0, live
        self._vals[self._hi:self._hi + n] = values.T
        self._hi += n

    def prune_before(self, global_step: int) -> None:
        drop = min(global_step - self.start_step, self.n_cols)
        if drop > 0:
            self._lo += drop
            self.start_step += drop

    def slice_steps(self, start: int, end: int) -> np.ndarray:
        """Raw values for global steps [start, end), as an N x T view."""
        if start < self.start_step:
            raise InvalidParams(
                f"step {start} already pruned (window starts at {self.start_step})")
        a = self._lo + (start - self.start_step)
        b = self._lo + (end - self.start_step)
        return self._vals[a:b].T

    def tail(self, width: int, series=slice(None)) -> np.ndarray:
        """Last ``width`` steps of the series indexed by ``series`` (all by
        default; one row for an int), left-padded as missing if not enough."""
        have = min(width, self.n_cols)
        last = self._vals[self._hi - have:self._hi, series].T
        vals = np.full(last.shape[:-1] + (width,), np.nan)
        vals[..., width - have:] = last
        return vals

    def rows(self) -> np.ndarray:
        """The stored steps, one row per step: a C-contiguous T x N view
        into the buffer."""
        return self._vals[self._lo:self._hi]


class SubModel(SegmentFit):
    """The fit of one segment of the stream, which starts at global step
    ``start_step``: factors of its L x (N*P) stacked Page matrix
    (:mod:`~pagecast.page_matrix`).  P is read off them."""

    def __init__(self, index: int, start_step: int, n_series: int):
        super().__init__()
        self.index = index
        self.start_step = start_step
        self.N = n_series
        self.retrain_history: list[int] = []

    @property
    def P(self) -> int:
        return self.mean_svd.V.shape[0] // self.N if self.trained else 0

    @property
    def start_obs(self) -> int:
        return self.start_step * self.N

    def covered_steps(self) -> tuple[int, int]:
        """Global steps [a, b) whose Page cells the factors reconstruct: the
        L * P cells of completed columns (none until trained)."""
        span = self.L * self.P if self.trained else 0
        return self.start_step, self.start_step + span


class PredictionModel:
    """Ordered sub-models plus the stream state needed to keep training.

    Writers (insert / create) must be serialized by the caller; readers see
    a consistent object between inserts.
    """

    def __init__(self, names: list[str], hp: HyperParams | None = None,
                 t0: float = 0.0, step: float = 1.0):
        if len(names) < 1:
            raise InvalidParams("need at least one series")
        if len(set(names)) < len(names):
            raise InvalidParams(f"series names repeat: {list(names)}")
        self.names = list(names)
        self.N = len(names)
        self.hp = hp if hp is not None else HyperParams()
        self.t0 = t0
        self.step = step
        self.n_steps = 0
        # The observed values' sum, sum of squares and count over the steps
        # before the fourth entry.  They lag the raw window, which
        # _folded_moments reads to bring them up to date.
        self._moments = (0.0, 0.0, 0, 0)
        self.half_steps = max(1, self.hp.Tprime // (2 * self.N))
        # Retrain thresholds of later segments ([0]) and the first ([1]).
        self._thresholds = [retrain_thresholds(self.hp, f) for f in (False, True)]
        self.submodels: list[SubModel] = []
        self.raw = _RawWindow(self.N)
        self._coeff_cache = None  # (coeff_window, its averaged coefficients)
        self.query_stats = {"factor_entries": 0}

    # --- basic state ----------------------------------------------------

    @property
    def obs_sum(self) -> float:
        """The sum of every observed value inserted."""
        return self._folded_moments()[0]

    @property
    def obs_sumsq(self) -> float:
        """The sum of the squares of every observed value inserted."""
        return self._folded_moments()[1]

    @property
    def obs_cnt(self) -> int:
        """The number of observed values inserted."""
        return self._folded_moments()[2]

    def _folded_moments(self) -> tuple[float, float, int, int]:
        """The moments with every step inserted so far folded in.  The steps
        since the last fold are read off the raw window, ``BULK_STEPS`` rows
        at a time: row sums of a zero-filled C-contiguous (n, N) copy, added
        in step order, give the same floats whatever the folds' sizes, so
        the moments do not depend on when they are read."""
        moments = self._moments
        if moments[3] < self.n_steps:
            total, total_sq, count, first = moments
            rows = self.raw.slice_steps(first, self.n_steps).T
            for pos in range(0, len(rows), BULK_STEPS):
                block = rows[pos:pos + BULK_STEPS]
                finite = np.isfinite(block)
                block = np.where(finite, block, 0.0)
                sums, sums_sq = np.add.reduce([block, block * block], 2).tolist()
                for row_sum, row_sum_sq in zip(sums, sums_sq):
                    total += row_sum
                    total_sq += row_sum_sq
                count += int(np.count_nonzero(finite))
            # One assignment, so that a reader never sees a half-made fold.
            self._moments = moments = (total, total_sq, count, self.n_steps)
        return moments

    @property
    def fallback_mean(self) -> float:
        return self.obs_sum / self.obs_cnt if self.obs_cnt else 0.0

    @property
    def fallback_var(self) -> float:
        if not self.obs_cnt:
            return 0.0
        mu = self.fallback_mean
        return max(0.0, self.obs_sumsq / self.obs_cnt - mu * mu)

    def trained_submodels(self) -> list[SubModel]:
        return [sm for sm in self.submodels if sm.trained]

    @property
    def in_fallback(self) -> bool:
        return not self.trained_submodels()

    def series_index(self, series) -> int:
        """The row of ``series``: a name, or an index (:func:`is_integer`)."""
        if isinstance(series, str):
            try:
                return self.names.index(series)
            except ValueError:
                raise UnknownSeries(f"no series named {series!r}") from None
        if not is_integer(series) or not 0 <= series < self.N:
            raise UnknownSeries(f"series {series!r} is neither a name nor an "
                                f"index in [0, {self.N})")
        return int(series)

    def segments_for_steps(self, first: int, last: int) -> list[SubModel]:
        """Sub-models whose segment contains some global step in
        first..last (oldest first)."""
        lo = max(0, first // self.half_steps - 1)
        return self.submodels[lo:last // self.half_steps + 1]

    def _seg_steps(self, sm: SubModel) -> int:
        """Steps fed to ``sm`` so far (2 * half_steps at most)."""
        return min(self.n_steps - sm.start_step, 2 * self.half_steps)

    # --- insertion --------------------------------------------------------

    def insert(self, values: np.ndarray, observed: np.ndarray | None = None) -> None:
        """Insert one time step of N values: :meth:`insert_many` with a
        one-column block, after checking the row's width and setting NaN
        where the optional N-entry ``observed`` mask is False."""
        values = np.asarray(values, dtype=np.float64).reshape(-1, 1)
        if len(values) != self.N:
            raise WidthMismatch(f"row has {len(values)} values, model has {self.N}")
        if observed is not None:
            observed = np.asarray(observed, dtype=bool).reshape(-1, 1)
            if len(observed) != self.N:
                raise WidthMismatch(
                    f"mask has {len(observed)} entries, model has {self.N}")
            values = np.where(observed, values, np.nan)
        self.insert_many(values)

    def insert_many(self, values: np.ndarray) -> None:
        """Insert a block of time steps; column j of the N x T ``values`` is
        the j-th new step, NaN where a value is missing.  An infinite entry,
        or a finite one above ``VALUE_MAX`` in magnitude, raises
        :class:`NonFiniteInput` before any state changes.

        Leaves the model in the state that inserting the columns one call
        at a time would, bit for bit.  The block is added in pieces of at
        most ``BULK_STEPS`` steps, a step that opens a sub-model being a
        piece of its own (the raw window is pruned there); after each piece
        every sub-model whose segment holds it fires the events its steps
        have reached (:meth:`_catch_up`).
        """
        values = np.asarray(values, dtype=np.float64)
        if values.ndim != 2 or values.shape[0] != self.N:
            raise WidthMismatch(
                f"block has shape {values.shape}, model has {self.N} series")
        n = values.shape[1]
        for pos in range(0, n, BULK_STEPS):
            self._check_magnitudes(values[:, pos:pos + BULK_STEPS], pos)
        last = self.n_steps + n - 1
        pos = 0
        while pos < n:
            step = self.n_steps
            opening = len(self.submodels) * self.half_steps
            stop = (pos + 1 if step == opening else
                    min(n, pos + BULK_STEPS, pos + opening - step))
            self._add_steps(values[:, pos:stop])
            if step == opening:
                self.submodels.append(SubModel(len(self.submodels), step, self.N))
                if len(self.submodels) >= 2:
                    self._folded_moments()  # before their steps are pruned
                    margin = max((sm.L or 2) for sm in self.submodels) + 2
                    self.raw.prune_before(max(0, min(self.submodels[-2].start_step,
                                                     step + 1 - margin)))
            for sm in self.segments_for_steps(step, step):
                self._catch_up(sm, step, last)
            pos = stop

    def _check_magnitudes(self, values: np.ndarray, offset: int) -> None:
        """Raise :class:`NonFiniteInput` if an entry of the N x n block, whose
        first column is ``offset`` steps past the data, exceeds ``VALUE_MAX``
        in magnitude (+-inf does; NaN does not)."""
        bad = np.abs(values) > VALUE_MAX
        if np.count_nonzero(bad):
            n, j = np.argwhere(bad)[0]
            why = ("is infinite (NaN marks a missing value)"
                   if np.isinf(values[n, j]) else f"exceeds {VALUE_MAX:.6g}, "
                   "beyond which training's sums of powers overflow")
            raise NonFiniteInput(
                f"series {self.names[n]!r} at t={self.n_steps + offset + j + 1}: "
                f"|{values[n, j]:.6g}| {why}")

    def _next_retrain(self, sm: SubModel) -> int | None:
        """Segment step count at which ``sm`` next fully retrains, or None
        if it never does: the first count that crosses its first threshold
        above the observations of its last retrain, or above 0 before any
        (multi-series steps can jump over a threshold), and has a Page
        window.  A window exists for exactly the counts from
        L0 * ceil(L0 / N) on, with L0 the L override or 2; a sub-model is
        fed 2 * half_steps steps at most."""
        thresholds = self._thresholds[sm.index == 0]
        done = sm.retrain_history[-1] - sm.start_obs if sm.retrain_history else 0
        nxt = bisect.bisect_right(thresholds, done)
        if nxt == len(thresholds):
            return None
        L0 = self.hp.L or 2
        due = max(-(-thresholds[nxt] // self.N), L0 * -(-L0 // self.N))
        return due if due <= 2 * self.half_steps else None

    def _next_event(self, sm: SubModel, last: int) -> tuple[int, bool] | None:
        """Segment step count of ``sm``'s next event in an :meth:`insert_many`
        call ending at global step ``last``, and whether it is a retrain (else
        an append); None if there is none.  A trained sub-model that does not
        retrain by ``last`` appends its next Page column once complete; any
        other's event is :meth:`_next_retrain` (perhaps overdue), and appends
        before it are skipped, as a retrain reads none of what an append
        writes: when it fires depends only on the step count and the retrain
        history, and it rebuilds the factors (hence L and P) and beta from the
        raw steps.  So a bulk insert equals step-wise inserts: a sub-model's
        events read only its own state and its segment's raw steps up to the
        event's count, and pruning happens only at an opening step, after
        every earlier event has fired."""
        due = self._next_retrain(sm)
        if sm.trained and (due is None or sm.start_step + due > last + 1):
            return sm.L * (sm.P + 1), False
        return None if due is None else (due, True)

    def _add_steps(self, values: np.ndarray) -> None:
        """Add an N x n block to the raw window as given; its observed
        entries reach the moments at their next fold."""
        self.raw.extend(values)
        self.n_steps += values.shape[1]

    def _catch_up(self, sm: SubModel, first: int, last: int) -> None:
        """Fire every :meth:`_next_event` of ``sm`` that its steps have
        reached.  A retrain reads the segment's raw steps up to its count;
        an overdue one fires at the count after global step ``first``, the
        first of the steps just added.  An append reads every step the
        segment has, and folds in each Page column they complete."""
        have = self._seg_steps(sm)
        while (event := self._next_event(sm, last)) is not None and event[0] <= have:
            if event[1]:
                count = max(event[0], first + 1 - sm.start_step)
                raw = self.raw.slice_steps(sm.start_step, sm.start_step + count)
                sm.fit(raw, self._window_for(count), self.hp.k1, self.hp.k2)
                sm.retrain_history.append((sm.start_step + count) * self.N)
            else:
                sm.extend(self.raw.slice_steps(sm.start_step, sm.start_step + have))
            self._coeff_cache = None

    def _window_for(self, t_seg: int) -> int:
        """Page window for a segment of ``t_seg`` steps: the L override, or
        floor(sqrt(N * t_seg / 10)) clamped into [2, t_seg].  Retrains wait
        for a count whose window leaves the stacked matrix wide enough
        (L <= N * floor(t_seg / L)); see :meth:`_next_retrain`."""
        if self.hp.L is not None:
            return self.hp.L
        return max(2, min(int(math.floor(math.sqrt(self.N * t_seg / 10.0))), t_seg))

    # --- coefficients -----------------------------------------------------

    def averaged_coefficients(self) -> tuple[np.ndarray, np.ndarray]:
        """Lag-aligned elementwise mean of beta over the last
        ``hp.coeff_window`` fitted sub-models.

        Sub-models fitted with different windows yield different coefficient
        lengths; shorter vectors are zero-padded at the old-lag end before
        averaging, which treats absent lags as zero coefficients.
        """
        m = self.hp.coeff_window
        if self._coeff_cache is not None and self._coeff_cache[0] == m:
            return self._coeff_cache[1]
        fitted = [sm for sm in self.submodels if sm.beta_mean is not None]
        if not fitted:
            raise UntrainedModel("no trained sub-model")
        last = fitted[-min(m, len(fitted)):]
        width = max(len(sm.beta_mean) for sm in last)
        bm = np.zeros(width)
        bv = np.zeros(width)
        for sm in last:
            pad = width - len(sm.beta_mean)
            bm[pad:] += sm.beta_mean
            bv[pad:] += sm.beta_var
        bm /= len(last)
        bv /= len(last)
        self._coeff_cache = (m, (bm, bv))
        return bm, bv


def create_model(batch: TimeSeriesBatch, hp: HyperParams | None = None) -> PredictionModel:
    """Train a model on the whole batch with one
    :meth:`PredictionModel.insert_many` call."""
    model = PredictionModel(batch.names, hp, t0=batch.t0, step=batch.step)
    model.insert_many(batch.values)
    return model
