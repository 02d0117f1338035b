"""Seeded request mixes for the two service workloads.

The seed is the only input: the same seed and the same served surface
domains (read from ``GET /v1/surfaces``, so a refit that moves a domain
moves the traffic with it) give the same request list.  A request is a
plain dict; :func:`payload` turns it into HTTP bytes and :func:`key`
into the identity the correctness check groups answers by.

``serve-surface``: 95% ``GET /v1/point`` at in-domain x over every
certified (quantity, load) surface, 5% ``POST /v1/batch`` of 64
in-domain points.  Nothing should leave the surfaces.

``serve-exact``: every request misses the surfaces — rigid utility,
adaptive x beyond the fitted domain, ``kbar`` other than the config's,
and ``engine=meanfield``.  Every other request repeats an earlier one
(a cache or memo read); the rest are new (an exact solve plus a cache
write), drawn in blocks that each hold the same mix of kinds.
"""

from __future__ import annotations

import json
import math
import random
import urllib.parse
from typing import Dict, List, Sequence

from loadgen import encode

#: Mean loads for what-if queries (the config's own is 100).
KBARS = (70.0, 85.0, 115.0, 130.0)
#: Mean-field populations: a small pool, so first solves and memo
#: reads both occur.
MEANFIELD_KBARS = (50.0, 100.0, 200.0, 400.0)
#: Beyond the fitted price domain gamma is finite only a little way
#: out (it turns NaN by p ~ 0.35 on exponential load, 0.6 on Poisson),
#: so these queries stay on Poisson load within 1.25x the domain.
GAMMA_LOAD = "poisson"
GAMMA_REACH = 1.25


def domains(described: dict) -> Dict[str, dict]:
    """Surfaces by ``quantity/load`` from a ``/v1/surfaces`` answer."""
    out = {}
    for s in described["surfaces"]:
        if s.get("kind") == "chebyshev1d":
            out[f"{s['quantity']}/{s['load']}"] = s
    if not out:
        raise ValueError("the service reports no 1-D surfaces")
    return out


def _draw(rng: random.Random, lo: float, hi: float, log_x: bool) -> float:
    if log_x:
        return math.exp(rng.uniform(math.log(lo), math.log(hi)))
    return rng.uniform(lo, hi)


def surface_requests(seed: int, described: dict, count: int, tag: str) -> List[dict]:
    """In-domain point and batch queries over every certified surface."""
    rng = random.Random(f"{seed}/surface/{tag}")
    surfaces = sorted(domains(described).values(), key=lambda s: (s["quantity"], s["load"]))
    out = []
    for _ in range(count):
        s = rng.choice(surfaces)
        lo, hi = s["domain"]
        base = {"quantity": s["quantity"], "load": s["load"], "utility": s["utility"]}
        if rng.random() < 0.05:
            xs = [_draw(rng, lo, hi, s["log_x"]) for _ in range(64)]
            out.append({"endpoint": "batch", **base, "x": xs})
        else:
            out.append({"endpoint": "point", **base, "x": _draw(rng, lo, hi, s["log_x"])})
    return out


#: One block of new ``serve-exact`` queries, as (kind, quantity) pairs.
#: Every block holds the same mix, and loads take turns within it, so a
#: pass's cost does not hinge on how the dice fell.
EXACT_BLOCK = (
    (("rigid", "delta"),) * 3 + (("rigid", "Delta"),) * 3
    + (("beyond", "delta"),) * 3 + (("beyond", "Delta"),) * 3
    + (("gamma", "gamma"),) * 1
    + (("kbar", "delta"),) * 2 + (("kbar", "Delta"),) * 2
    + (("meanfield", "delta"),) * 4 + (("batch", "delta"),) * 1
)


def _fresh_exact(
    rng: random.Random, kind: str, quantity: str, load: str, doms: Dict[str, dict]
) -> dict:
    lo, hi = doms[f"{quantity}/{load}"]["domain"]
    if kind == "rigid":  # rigid utility: no surface is ever fitted
        return {"endpoint": "point", "quantity": quantity, "load": load,
                "utility": "rigid", "x": rng.uniform(lo, hi)}
    if kind == "beyond":  # adaptive, beyond the fitted capacity domain
        return {"endpoint": "point", "quantity": quantity, "load": load,
                "utility": "adaptive", "x": rng.uniform(hi, 2.5 * hi)}
    if kind == "gamma":  # adaptive gamma beyond the fitted price domain
        _, ghi = doms[f"gamma/{GAMMA_LOAD}"]["domain"]
        return {"endpoint": "point", "quantity": "gamma",
                "load": GAMMA_LOAD, "utility": "adaptive",
                "x": rng.uniform(ghi, GAMMA_REACH * ghi)}
    if kind == "kbar":  # a what-if mean load no surface covers
        return {"endpoint": "point", "quantity": quantity, "load": load,
                "utility": "adaptive", "x": rng.uniform(lo, hi),
                "kbar": rng.choice(KBARS)}
    if kind == "meanfield":  # the mean-field engine, delta on Poisson load only
        kbar = rng.choice(MEANFIELD_KBARS)
        return {"endpoint": "point", "quantity": "delta", "load": "poisson",
                "utility": rng.choice(("adaptive", "rigid")),
                "x": rng.uniform(0.25 * kbar, 4.0 * kbar), "kbar": kbar,
                "engine": "meanfield"}
    return {"endpoint": "batch", "quantity": "delta", "load": load,
            "utility": "adaptive",
            "x": [rng.uniform(hi, 2.5 * hi) for _ in range(16)]}


def exact_requests(
    seed: int, described: dict, count: int, tag: str, history: List[dict]
) -> List[dict]:
    """Surface-missing queries; every other one repeats an entry of ``history``.

    ``history`` is shared across phases and grows with every new query,
    so later phases repeat earlier phases' queries too.
    """
    rng = random.Random(f"{seed}/exact/{tag}")
    doms = domains(described)
    loads = sorted({key.split("/")[1] for key in doms})
    block: List[tuple] = []
    out = []
    for i in range(count):
        if history and i % 2:
            out.append(rng.choice(history))
            continue
        if not block:
            block = list(EXACT_BLOCK)
            rng.shuffle(block)
        kind, quantity = block.pop()
        req = _fresh_exact(rng, kind, quantity, loads[len(block) % len(loads)], doms)
        history.append(req)
        out.append(req)
    return out


def payload(req: dict) -> bytes:
    """HTTP bytes: surface points as GET, everything else as POST JSON."""
    fields = {k: v for k, v in req.items() if k != "endpoint"}
    if req["endpoint"] == "point" and "kbar" not in req and "engine" not in req:
        query = urllib.parse.urlencode({k: repr(v) if isinstance(v, float) else v
                                        for k, v in fields.items()})
        return encode("GET", f"/v1/point?{query}")
    return encode("POST", f"/v1/{req['endpoint']}", json.dumps(fields).encode())


def key(req: dict) -> str:
    return json.dumps(req, sort_keys=True)


def answer_values(req: dict, answer: dict) -> List[float]:
    return [answer["value"]] if req["endpoint"] == "point" else list(answer["values"])


def matches(got: Sequence[float], want: Sequence[float], exact: bool) -> bool:
    """Bit-for-bit for surface answers; rtol 1e-12 otherwise."""
    if len(got) != len(want):
        return False
    try:
        for a, b in zip(got, want):
            if exact:
                if not (a == b or (math.isnan(a) and math.isnan(b))):
                    return False
            elif not abs(a - b) <= 1e-12 * max(abs(a), abs(b)):
                return False
    except TypeError:  # a value that is not a number
        return False
    return True
