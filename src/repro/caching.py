"""In-process memoisation utilities: bounded, float-tolerant caches.

The analytic models memoise per-capacity totals (``V_B(C)``,
``V_R(C)``, retry fixed points).  Two pitfalls with a plain dict:

- **Float identity misses.**  Sweeps and root finders evaluate at
  capacities that are equal to within the solvers' x-tolerance but not
  bit-identical (``100.0`` vs ``100.0 + 1e-14``), so a raw float key
  never hits.  :class:`BoundedCache` rounds float keys to a fixed
  number of decimals — matching
  :data:`repro.numerics.solvers.XTOL` (1e-12) by default — so
  solver-tolerance-equal capacities share one entry.
- **Unbounded growth.**  A long sweep (or the bandwidth-gap solver
  probing thousands of capacities) grows the dict without limit.
  :class:`BoundedCache` is an LRU: once ``maxsize`` entries exist, the
  least recently used one is evicted.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Hashable, Optional

#: Decimals float keys are rounded to — matches the root finders'
#: absolute x-tolerance (``repro.numerics.solvers.XTOL == 1e-12``).
ROUND_DECIMALS = 12

#: Default entry bound; per-capacity scalars are tiny, so this caps
#: memory while comfortably covering any figure sweep.
DEFAULT_MAXSIZE = 4096


class BoundedCache:
    """An LRU mapping whose float keys are rounded to a tolerance.

    Parameters
    ----------
    maxsize:
        Maximum number of entries kept; the least recently *used*
        entry is evicted on overflow.
    round_decimals:
        Float keys are rounded to this many decimals before lookup and
        store, so keys equal to within the matching solver tolerance
        collapse to one entry.  Non-float keys pass through unchanged.
        ``None`` keeps float keys exact (for step functions of the key,
        where two nearby floats may straddle a jump).
    """

    __slots__ = ("_data", "_maxsize", "_decimals")

    def __init__(
        self,
        maxsize: int = DEFAULT_MAXSIZE,
        *,
        round_decimals: Optional[int] = ROUND_DECIMALS,
    ):
        if maxsize < 1:
            raise ValueError(f"maxsize must be >= 1, got {maxsize!r}")
        self._data: OrderedDict = OrderedDict()
        self._maxsize = int(maxsize)
        self._decimals = None if round_decimals is None else int(round_decimals)

    def canonical_key(self, key: Hashable) -> Hashable:
        """The stored form of ``key`` (floats rounded to tolerance)."""
        if self._decimals is not None and isinstance(key, float):
            return round(key, self._decimals)
        return key

    def get(self, key: Hashable, default=None):
        """Value for ``key`` (tolerance-rounded), or ``default``."""
        k = self.canonical_key(key)
        try:
            value = self._data[k]
        except KeyError:
            return default
        self._data.move_to_end(k)
        return value

    def put(self, key: Hashable, value) -> None:
        """Store ``value`` under the tolerance-rounded ``key``."""
        k = self.canonical_key(key)
        self._data[k] = value
        self._data.move_to_end(k)
        while len(self._data) > self._maxsize:
            self._data.popitem(last=False)

    def __contains__(self, key: Hashable) -> bool:
        return self.canonical_key(key) in self._data

    def __len__(self) -> int:
        return len(self._data)

    @property
    def maxsize(self) -> int:
        """The entry bound."""
        return self._maxsize

    def clear(self) -> None:
        """Drop every entry."""
        self._data.clear()
