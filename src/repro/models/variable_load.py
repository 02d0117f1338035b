"""The discrete variable load model — Section 3.1 of the paper.

The load is a probability distribution ``P(k)`` over the number of
flows requesting service.  With link capacity ``C``:

- **Best-effort-only** admits everyone; each of ``k`` flows receives
  ``C/k``, so the total utility is ``V_B(C) = sum_k P(k) k pi(C/k)``.
- **Reservation-capable** admits at most ``k_max(C)`` flows (the
  fixed-load optimum); each admitted flow receives
  ``C/min(k, k_max)`` and each rejected flow receives nothing:
  ``V_R(C) = sum_{k<=k_max} P(k) k pi(C/k)
           + k_max pi(C/k_max) P(K > k_max)``.

Both are reported normalised by the mean load, ``B(C) = V_B(C)/k_bar``
and ``R(C) = V_R(C)/k_bar``, exactly as in the paper's figures.  The
two headline quantities are the *performance gap*
``delta(C) = R(C) - B(C)`` and the *bandwidth gap* ``Delta(C)``
defined implicitly by ``B(C + Delta(C)) = R(C)`` — how much extra
capacity buys best-effort the reservation architecture's utility.

Numerics
--------
The infinite sum for ``V_B`` is truncated where an analytic bound on
the remainder (``pi(C/N) * sum_{k>=N} k P(k)``, both closed-form)
drops below tolerance.  Under heavy-tailed loads at large ``C`` that
truncation point can exceed any reasonable array size, so beyond a cap
the far tail is replaced by an Euler-Maclaurin integral of the smooth
pmf extension — exact integrand, no model-specific approximation.
"""

from __future__ import annotations

import math
from typing import Callable, Optional

import numpy as np

from repro import obs
from repro.caching import ROUND_DECIMALS, BoundedCache
from repro.errors import ConvergenceError
from repro.loads.base import LoadDistribution
from repro.models.engine import CapacityEngine
from repro.models.fixed_load import FixedLoadModel
from repro.numerics import series
from repro.numerics.batch import share_weighted_sums
from repro.numerics.quadrature import integrate
from repro.numerics.solvers import invert_monotone
from repro.utility.base import UtilityFunction

#: Default absolute tolerance on the (unnormalised) total utilities.
DEFAULT_TOL = 1e-9

#: Largest array length brute-force summation will allocate.
BRUTE_FORCE_CAP = 1 << 22

#: Evaluation modes chosen by the series planner (:meth:`_plan_batch`):
#: full dense summation up to a level, dense head + shared polynomial
#: tail at a level, or the Euler-Maclaurin integral fallback.
_MODE_DENSE = 0
_MODE_TAIL = 1
_MODE_EM = 2

#: Smallest series level the planner will consider.  Levels below the
#: historical 1024 matter once the polynomial tail exists: a solver
#: probe at C ~ 80 clears the certified remainder bound already at
#: n = 256, quartering its dense head.  Loads whose tails die fast
#: (Poisson) become DENSE at 256 too — the omitted terms are below one
#: ulp of the total, so reported values do not move.
_PLAN_MIN_LEVEL = 256

#: Process-wide memo of planner capacity ceilings keyed by
#: ``(load, utility, tol)`` — loads and utilities hash by value, so
#: every model over the same family shares one table (and the bisection
#: cost below is paid once per family, not once per model instance).
_PLAN_CEILINGS: BoundedCache = BoundedCache(maxsize=128)


def _capacity_ceiling(predicate: Callable[[float], bool], b_hi: float) -> float:
    """``sup { b >= 0 : predicate(b) }`` for a monotone predicate.

    ``predicate`` must hold on ``[0, b*)`` and fail on ``(b*, b_hi]``
    (tail-bound predicates are monotone in the per-flow bandwidth).
    Returns ``inf`` when it holds everywhere up to ``b_hi``.  The
    bisection keeps the invariant ``predicate(lo) == True``, so any
    residual slack only sends capacities to a *higher* level — it can
    never admit a capacity whose tail bound misses the tolerance.
    """
    if predicate(b_hi):
        return math.inf
    lo, hi = 0.0, float(b_hi)
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if predicate(mid):
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-12 * max(1.0, lo):
            break
    return lo


class VariableLoadModel(CapacityEngine):
    """Compare architectures under a distribution of offered loads.

    Parameters
    ----------
    load:
        The stationary flow-count distribution ``P(k)``.
    utility:
        The per-application utility ``pi(b)``.
    tol:
        Absolute truncation tolerance for the total-utility sums
        (unnormalised units, i.e. flows' worth of utility).
    k_max_limit:
        Passed through to :class:`FixedLoadModel` for the ``k_max``
        search; only needed for exotic utilities.
    k_max_override:
        Optional ``capacity -> threshold`` replacing the ``k_max``
        optimisation (required for elastic utilities, footnote 9).

    ``delta``, ``Delta`` and ``sweep`` come from
    :class:`~repro.models.engine.CapacityEngine`.
    """

    def __init__(
        self,
        load: LoadDistribution,
        utility: UtilityFunction,
        *,
        tol: float = DEFAULT_TOL,
        k_max_limit: Optional[int] = None,
        k_max_override=None,
    ):
        if tol <= 0.0:
            raise ValueError(f"tol must be > 0, got {tol!r}")
        self._load = load
        self._utility = utility
        self._tol = float(tol)
        # certified Maclaurin expansion of pi (None for rigid/ramp
        # utilities) — enables the shared polynomial-tail evaluation
        self._maclaurin = utility.maclaurin(series.TAIL_DEGREE)
        # per-level planner ceilings, resolved lazily from the shared
        # process-wide memo (see _plan_ceilings)
        self._ceilings: Optional[tuple] = None
        self._fixed = FixedLoadModel(
            utility, k_max_limit=k_max_limit, k_max_override=k_max_override
        )
        self._kbar = load.mean
        # grown-on-demand cache of k, P(k) and k*P(k) arrays
        self._ks = np.empty(0)
        self._pk = np.empty(0)
        self._kpk = np.empty(0)
        # per-capacity totals: float keys rounded to the solver
        # x-tolerance (so gap-solver probes hit) unless pi jumps, and
        # LRU-bounded (so long sweeps cannot grow them without limit)
        decimals = None if utility.has_jump else ROUND_DECIMALS
        self._b_cache = BoundedCache(round_decimals=decimals)
        self._r_cache = BoundedCache(round_decimals=decimals)

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------

    @property
    def load(self) -> LoadDistribution:
        """The offered-load distribution."""
        return self._load

    @property
    def utility(self) -> UtilityFunction:
        """The application utility function."""
        return self._utility

    @property
    def mean_load(self) -> float:
        """``k_bar``, the average number of flows requesting service."""
        return self._kbar

    def k_max(self, capacity: float) -> int:
        """Admission threshold used by the reservation architecture."""
        return self._fixed.k_max(capacity)

    def k_max_batch(self, capacities) -> np.ndarray:
        """Admission thresholds over a capacity grid (vectorised)."""
        return self._fixed.k_max_batch(capacities)

    # ------------------------------------------------------------------
    # internal summation machinery
    # ------------------------------------------------------------------

    def _ensure_terms(self, n: int) -> None:
        """Grow the cached ``k``/``P(k)``/``k P(k)`` arrays to cover k <= n."""
        if len(self._ks) >= n + 1:
            return
        size = 1 << max(10, (n + 1).bit_length())
        ks = np.arange(size, dtype=float)
        pk = np.asarray(self._load.pmf_array(ks), dtype=float)
        if self._load.support_min > 0:
            pk[: self._load.support_min] = 0.0
        self._ks, self._pk, self._kpk = ks, pk, ks * pk

    def _tail_bound(self, n: int, capacity: float) -> float:
        """Bound on ``sum_{k>=n} P(k) k pi(C/k)``.

        ``pi(C/k)`` is nonincreasing in ``k``, so the tail is at most
        ``pi(C/n) * mean_tail(n)`` — and trivially at most
        ``mean_tail(n)``.
        """
        mt = self._load.mean_tail(n)
        if mt <= 0.0:
            return 0.0
        return min(1.0, self._utility.value(capacity / n)) * mt

    def _truncation_point(self, capacity: float) -> Optional[int]:
        """Smallest power-of-two N with tail bound < tol, or None if > cap.

        Delegates to the batch routine on a one-element grid so the two
        paths *cannot* diverge: the scalar loop previously went through
        ``utility.value`` (libm ``exp``) while the batch went through
        the vectorised ``numpy`` ``exp``, and a one-ulp disagreement at
        a decision boundary flipped the truncation level between the
        two paths for the same capacity.
        """
        n = int(self._truncation_points_batch(np.array([float(capacity)]))[0])
        return None if n < 0 else n

    def _truncation_points_batch(self, caps: np.ndarray) -> np.ndarray:
        """Per-capacity truncation points with one ``mean_tail`` per level.

        Mirrors :meth:`_truncation_point` decision-for-decision but
        evaluates the utility bound for every still-open capacity as a
        single vector call, so a grid costs one scalar ``mean_tail``
        per power-of-two level instead of one per grid point.  Entries
        where the scalar path would return ``None`` come back as -1.
        """
        out = np.full(caps.size, -1, dtype=np.int64)
        open_ = np.ones(caps.size, dtype=bool)
        n = 1024
        while n <= BRUTE_FORCE_CAP and np.any(open_):
            mt = self._load.mean_tail(n)
            if mt <= 0.0:
                out[open_] = n
                break
            vals = np.asarray(self._utility(caps[open_] / n), dtype=float)
            done = np.minimum(1.0, vals) * mt < self._tol
            sel = np.flatnonzero(open_)[done]
            out[sel] = n
            open_[sel] = False
            n <<= 1
        return out

    def _plan_ceilings(self) -> tuple:
        """Per-level capacity ceilings ``(levels, c_dense, c_tail)``.

        Level ``n`` closes a capacity as DENSE when ``C <= c_dense``
        (the plain tail bound ``min(1, pi(C/n)) * mean_tail(n)`` clears
        the tolerance — the historical truncation rule) and as TAIL
        when ``C <= c_tail`` (the certified Maclaurin remainder bound
        fits in half the tolerance).  Both bounds are monotone in
        ``C/n``, so each rule collapses to one capacity threshold per
        level, found once by bisection and shared process-wide across
        every model over the same ``(load, utility, tol)``.  Planning a
        grid is then pure comparisons — no utility evaluations on the
        hot path at all.
        """
        cached = self._ceilings
        if cached is not None:
            return cached
        key = (self._load, self._utility, self._tol)
        cached = _PLAN_CEILINGS.get(key)
        if cached is None:
            levels, c_dense, c_tail = [], [], []
            n = _PLAN_MIN_LEVEL
            while n <= BRUTE_FORCE_CAP:
                mt = self._load.mean_tail(n)
                if mt <= 0.0:
                    cd, ct = math.inf, -math.inf
                else:
                    cd = n * _capacity_ceiling(
                        lambda b: min(1.0, self._utility.value(b)) * mt
                        < self._tol,
                        1e9,
                    )
                    if self._maclaurin is None:
                        ct = -math.inf
                    else:
                        mac = self._maclaurin
                        ct = n * _capacity_ceiling(
                            lambda b: float(mac.remainder_bound(b)) * mt
                            <= 0.5 * self._tol,
                            mac.radius,
                        )
                levels.append(n)
                c_dense.append(cd)
                c_tail.append(ct)
                if cd == math.inf:
                    # this level closes every capacity as DENSE; higher
                    # levels are unreachable
                    break
                n <<= 1
            cached = (
                np.asarray(levels, dtype=np.int64),
                np.asarray(c_dense, dtype=float),
                np.asarray(c_tail, dtype=float),
            )
            _PLAN_CEILINGS.put(key, cached)
        self._ceilings = cached
        return cached

    def _plan_batch(self, caps: np.ndarray) -> tuple:
        """Choose an evaluation mode and series level per capacity.

        Walks the power-of-two levels once for the whole grid, closing
        capacities against the precomputed ceilings: DENSE when the
        plain tail bound clears the tolerance, else TAIL when the
        utility's certified Maclaurin remainder fits in half the
        tolerance *and* the load can supply a moment-tail table at that
        level — the dense head then stops at ``n`` and the rest is the
        shared polynomial.  Whatever is still open past
        ``BRUTE_FORCE_CAP`` falls to the Euler-Maclaurin integral.
        DENSE is tested first so loads whose tails die fast (Poisson)
        keep plans equivalent to the historical truncation rule.

        Both the scalar and batch entry points evaluate through this
        one planner, so their results differ only by summation-order
        roundoff — never by plan.
        """
        level_arr, c_dense, c_tail = self._plan_ceilings()
        modes = np.full(caps.size, _MODE_EM, dtype=np.int64)
        levels = np.full(caps.size, -1, dtype=np.int64)
        open_ = np.ones(caps.size, dtype=bool)
        for i, n in enumerate(level_arr):
            if not np.any(open_):
                break
            dense_ok = open_ & (caps <= c_dense[i])
            tail_ok = open_ & ~dense_ok & (caps <= c_tail[i])
            if np.any(tail_ok) and (
                series.shared_moment_tail_table(self._load, int(n)) is None
            ):
                tail_ok = np.zeros_like(tail_ok)
            closed = dense_ok | tail_ok
            if np.any(closed):
                modes[dense_ok] = _MODE_DENSE
                modes[tail_ok] = _MODE_TAIL
                levels[closed] = n
                open_ &= ~closed
        return modes, levels

    def _plan(self, capacity: float) -> tuple:
        """Scalar view of :meth:`_plan_batch` (one-element grid)."""
        modes, levels = self._plan_batch(np.array([float(capacity)]))
        return int(modes[0]), int(levels[0])

    def _euler_maclaurin_tail(self, n0: int, capacity: float) -> float:
        """``sum_{k>=n0} P(k) k pi(C/k)`` via integral + EM correction.

        ``sum_{k>=n0} f(k) ~ int_{n0}^inf f + f(n0)/2 - f'(n0)/12`` for a
        smooth, decaying ``f``.  The integrand uses the load's smooth
        pmf extension and the *exact* utility; quadrature is split at
        the utility's breakpoints mapped into flow counts.
        """
        if self._utility.value(capacity / n0) == 0.0:
            # pi is nondecreasing and every share beyond n0 is smaller
            # than capacity/n0, so the whole tail is exactly zero: skip
            # the substitution entirely rather than hand quadrature an
            # identically-zero integrand whose breakpoints have mapped
            # outside (0, 1] (degenerate/empty split intervals).
            return 0.0

        def f(x: float) -> float:
            return self._load.continuous_pmf(x) * x * self._utility.value(capacity / x)

        # substitute x = n0/u so the semi-infinite integral becomes a
        # finite one (u in (0, 1]); quad to infinity hits roundoff at
        # tight tolerances on slowly decaying integrands
        def g(u: float) -> float:
            if u <= 0.0:
                return 0.0
            uu = u * u
            if uu == 0.0:
                # u below ~1.5e-154 squares to an exact 0.0 (subnormal
                # underflow); the integrand itself tends to 0 there
                # because the pmf decays faster than x^2 grows
                return 0.0
            x = n0 / u
            return f(x) * n0 / uu

        points = sorted(
            {
                n0 * b / capacity
                for b in self._utility.breakpoints()
                if 0.0 < n0 * b / capacity < 1.0
            }
        )
        tail = integrate(
            g,
            0.0,
            1.0,
            points=points,
            tol=min(1e-11, 0.01 * self._tol),
            label=f"EM tail (C={capacity}, n0={n0})",
        )
        h = max(1e-4 * n0, 1e-3)
        f_prime = (f(n0 + h) - f(n0 - h)) / (2.0 * h)
        return tail + 0.5 * f(float(n0)) - f_prime / 12.0

    def _dense_total(self, capacity: float, n: int) -> float:
        """Dense ``sum_{k<n} P(k) k pi(C/k)`` (the head of every mode)."""
        self._ensure_terms(n)
        shares = np.empty(n)
        shares[0] = 0.0  # k = 0 contributes nothing (kpk = 0)
        shares[1:] = capacity / self._ks[1:n]
        return float(np.dot(self._kpk[:n], self._utility(shares)))

    def total_best_effort(self, capacity: float) -> float:
        """Unnormalised ``V_B(C) = sum_k P(k) k pi(C/k)``."""
        self._check_capacity(capacity)
        if capacity == 0.0:
            return 0.0
        cached = self._b_cache.get(capacity)
        if cached is not None:
            return cached

        mode, n = self._plan(capacity)
        if mode == _MODE_DENSE:
            total = self._dense_total(capacity, n)
        elif mode == _MODE_TAIL:
            table = series.shared_moment_tail_table(self._load, n)
            tail = float(
                series.power_series_tail(
                    self._maclaurin.coefficients, table, capacity
                )
            )
            total = self._dense_total(capacity, n) + tail
        else:
            n0 = min(BRUTE_FORCE_CAP, 1 << max(12, int(32 * capacity).bit_length()))
            try:
                em = self._euler_maclaurin_tail(n0, capacity)
            except NotImplementedError as exc:
                raise ConvergenceError(
                    f"V_B(C={capacity}) needs a tail correction but the load "
                    f"has no smooth pmf extension: {exc}"
                ) from exc
            total = self._dense_total(capacity, n0) + em

        self._b_cache.put(capacity, total)
        return total

    def total_reservation(self, capacity: float) -> float:
        """Unnormalised ``V_R(C)`` with admission threshold ``k_max(C)``."""
        self._check_capacity(capacity)
        if capacity == 0.0:
            return 0.0
        cached = self._r_cache.get(capacity)
        if cached is not None:
            return cached

        kmax = self.k_max(capacity)
        if kmax < max(1, self._load.support_min):
            self._r_cache.put(capacity, 0.0)
            return 0.0
        self._ensure_terms(kmax)
        shares = np.empty(kmax + 1)
        shares[0] = 0.0
        shares[1:] = capacity / self._ks[1 : kmax + 1]
        admitted = float(np.dot(self._kpk[: kmax + 1], self._utility(shares)))
        overload = (
            kmax * self._utility.value(capacity / kmax) * self._load.sf(kmax)
        )
        total = admitted + overload
        self._r_cache.put(capacity, total)
        return total

    def total_reservation_at_threshold(self, capacity: float, threshold: int) -> float:
        """``V_R(C)`` with an *arbitrary* admission threshold.

        The paper's architecture uses the utility-maximising
        ``k_max(C)``; real admission controllers get the threshold
        wrong (measurement error, trunk-reservation margins).  This
        evaluates the reservation total at any threshold so that
        sensitivity can be quantified — by construction it is maximised
        at ``threshold = k_max(C)``.
        """
        self._check_capacity(capacity)
        if threshold < 0 or threshold != int(threshold):
            raise ValueError(f"threshold must be a nonneg integer, got {threshold!r}")
        if capacity == 0.0 or threshold == 0:
            return 0.0
        kmax = int(threshold)
        if kmax < self._load.support_min:
            return 0.0
        self._ensure_terms(kmax)
        shares = np.empty(kmax + 1)
        shares[0] = 0.0
        shares[1:] = capacity / self._ks[1 : kmax + 1]
        admitted = float(np.dot(self._kpk[: kmax + 1], self._utility(shares)))
        overload = kmax * self._utility.value(capacity / kmax) * self._load.sf(kmax)
        return admitted + overload

    def reservation_at_threshold(self, capacity: float, threshold: int) -> float:
        """Normalised reservation utility at an arbitrary threshold."""
        return self.total_reservation_at_threshold(capacity, threshold) / self._kbar

    # ------------------------------------------------------------------
    # batch evaluation (whole-grid sweeps)
    # ------------------------------------------------------------------

    @obs.timed("model.total_best_effort_batch")
    def total_best_effort_batch(self, capacities, *, cache: bool = True) -> np.ndarray:
        """``V_B`` over a capacity grid in a handful of numpy calls.

        Capacities are grouped by the planner's (mode, level) — levels
        are powers of two, so grids share a few groups — and each
        group's dense head runs as one chunked matrix product over
        terms identical to the scalar path's.  TAIL groups then add the
        shared polynomial tail, one Horner pass over the group's grid
        from the memoised moment table (no per-point series work).
        Capacities needing the Euler-Maclaurin integral fall back to
        the scalar path (counted as ``batch.fallback_scalar``).
        Results land in the same per-capacity cache the scalar path
        uses, so gap solvers mixing both paths never recompute.

        ``cache=False`` bypasses the per-capacity LRU entirely (neither
        read nor written).  The bandwidth-gap solver uses it for its
        Chandrupatla probes: each probe point is evaluated exactly once
        per solve, so caching them buys nothing and evicts the sweep's
        reusable entries; the per-point Python cache traffic is also a
        measurable slice of a solve's wall time.
        """
        caps = self._grid(capacities)
        totals = np.zeros(caps.size)
        if cache:
            todo = []
            for i, c in enumerate(caps):
                if c == 0.0:
                    continue
                cached = self._b_cache.get(float(c))
                if cached is not None:
                    totals[i] = cached
                else:
                    todo.append(i)
            todo_idx = np.asarray(todo, dtype=np.int64)
        else:
            todo_idx = np.flatnonzero(caps != 0.0)
        if todo_idx.size == 0:
            return totals
        modes, levels = self._plan_batch(caps[todo_idx])
        for mode, n in sorted(set(zip(modes.tolist(), levels.tolist()))):
            idx = todo_idx[(modes == mode) & (levels == n)]
            if mode == _MODE_EM:
                if obs.enabled():
                    obs.counter("batch.fallback_scalar").inc(int(idx.size))
                for i in idx:
                    totals[i] = self.total_best_effort(float(caps[i]))
                continue
            self._ensure_terms(n)
            sums = share_weighted_sums(
                caps[idx], self._kpk[:n], self._utility, k_start=1, k_stop=n
            )
            if mode == _MODE_TAIL:
                table = series.shared_moment_tail_table(self._load, n)
                sums = sums + series.power_series_tail(
                    self._maclaurin.coefficients, table, caps[idx]
                )
            totals[idx] = sums
            if cache:
                for j, i in enumerate(idx):
                    self._b_cache.put(float(caps[i]), float(sums[j]))
        return totals

    @obs.timed("model.total_reservation_batch")
    def total_reservation_batch(self, capacities) -> np.ndarray:
        """``V_R`` over a capacity grid: batch ``k_max`` + one masked sum."""
        caps = self._grid(capacities)
        totals = np.zeros(caps.size)
        todo = []
        for i, c in enumerate(caps):
            if c == 0.0:
                continue
            cached = self._r_cache.get(float(c))
            if cached is not None:
                totals[i] = cached
            else:
                todo.append(i)
        if not todo:
            return totals
        idx = np.asarray(todo, dtype=np.int64)
        kmax = self._fixed.k_max_batch(caps[idx])
        floor = max(1, self._load.support_min)
        live = kmax >= floor
        for j in np.flatnonzero(~live):
            self._r_cache.put(float(caps[idx[j]]), 0.0)
        if np.any(live):
            sub_idx = idx[live]
            sub_caps = caps[sub_idx]
            sub_kmax = kmax[live]
            top = int(sub_kmax.max())
            self._ensure_terms(top)
            admitted = share_weighted_sums(
                sub_caps,
                self._kpk[: top + 1],
                self._utility,
                k_start=1,
                k_stop=top + 1,
                kmax=sub_kmax,
            )
            sf = np.asarray(self._load.sf_array(sub_kmax), dtype=float)
            at_cap = np.asarray(
                self._utility(sub_caps / sub_kmax), dtype=float
            )
            sums = admitted + sub_kmax * at_cap * sf
            totals[sub_idx] = sums
            for j, i in enumerate(sub_idx):
                self._r_cache.put(float(caps[i]), float(sums[j]))
        return totals

    def best_effort_batch(self, capacities) -> np.ndarray:
        """Normalised ``B`` over a capacity grid."""
        return self.total_best_effort_batch(capacities) / self._kbar

    def reservation_batch(self, capacities) -> np.ndarray:
        """Normalised ``R`` over a capacity grid."""
        return self.total_reservation_batch(capacities) / self._kbar

    def _gap_probe(self, probes: np.ndarray) -> np.ndarray:
        """``B`` at the batch inversion's probes, with ``cache=False``."""
        return self.total_best_effort_batch(probes, cache=False) / self._kbar

    # ------------------------------------------------------------------
    # the paper's reported quantities
    # ------------------------------------------------------------------

    def best_effort(self, capacity: float) -> float:
        """Normalised best-effort utility ``B(C) = V_B(C)/k_bar``."""
        return self.total_best_effort(capacity) / self._kbar

    def reservation(self, capacity: float) -> float:
        """Normalised reservation utility ``R(C) = V_R(C)/k_bar``."""
        return self.total_reservation(capacity) / self._kbar

    def overload_probability(self, capacity: float) -> float:
        """Probability the offered load exceeds the admission threshold."""
        kmax = self.k_max(capacity)
        if kmax < 1:
            return 1.0
        return self._load.sf(kmax)

    def blocking_fraction(self, capacity: float) -> float:
        """Expected fraction of flows denied a reservation.

        ``theta(C) = sum_{k>k_max} P(k) (k - k_max) / k_bar`` — the
        flow-weighted blocking rate, used by the retrying extension.
        """
        kmax = self.k_max(capacity)
        if kmax < 1:
            return 1.0
        # sum_{k>kmax} P(k) k = mean_tail(kmax+1); sum_{k>kmax} P(k) = sf(kmax)
        blocked = self._load.mean_tail(kmax + 1) - kmax * self._load.sf(kmax)
        return max(0.0, blocked) / self._kbar

    def capacity_for_best_effort(
        self, target: float, *, upper_limit: float = 1e9
    ) -> float:
        """Smallest capacity with ``B(C) >= target`` (inverse planning).

        The operator's question in the provisioning debate: how much
        bandwidth buys a given service level *without* reservations?
        ``target`` must be in ``(0, 1)``.
        """
        if not 0.0 < target < 1.0:
            raise ValueError(f"target utility must be in (0, 1), got {target!r}")
        return invert_monotone(
            self.best_effort,
            target,
            0.0,
            max(2.0 * self._kbar, 1.0),
            increasing=True,
            upper_limit=upper_limit,
            label=f"capacity for B = {target}",
        )

    def capacity_for_reservation(
        self, target: float, *, upper_limit: float = 1e9
    ) -> float:
        """Smallest capacity with ``R(C) >= target``."""
        if not 0.0 < target < 1.0:
            raise ValueError(f"target utility must be in (0, 1), got {target!r}")
        return invert_monotone(
            self.reservation,
            target,
            0.0,
            max(2.0 * self._kbar, 1.0),
            increasing=True,
            upper_limit=upper_limit,
            label=f"capacity for R = {target}",
        )

    # ------------------------------------------------------------------
    # derivative (used by the welfare model's first-order conditions)
    # ------------------------------------------------------------------

    def best_effort_marginal(self, capacity: float, *, step: Optional[float] = None) -> float:
        """``dV_B/dC`` by central difference (V_B is smooth in C).

        For rigid utilities V_B is piecewise-constant and this is not
        meaningful; the welfare model uses the exact jump structure
        instead.
        """
        h = step if step is not None else 1e-5 * max(1.0, capacity)
        lo = max(0.0, capacity - h)
        return (self.total_best_effort(capacity + h) - self.total_best_effort(lo)) / (
            capacity + h - lo
        )

    def reservation_marginal(self, capacity: float, *, step: Optional[float] = None) -> float:
        """``dV_R/dC`` by central difference (smooth utilities only)."""
        h = step if step is not None else 1e-5 * max(1.0, capacity)
        lo = max(0.0, capacity - h)
        return (self.total_reservation(capacity + h) - self.total_reservation(lo)) / (
            capacity + h - lo
        )
