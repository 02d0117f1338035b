"""Content-addressed on-disk result cache for the experiment runner.

Every cache entry is addressed by a digest of

- the experiment id,
- the qualified name of the experiment's *digest target* (so ids
  registered through argument-rebinding lambdas hash identically to
  direct callables — see :class:`repro.experiments.registry.Experiment`),
- a canonical hash of the :class:`~repro.experiments.params.PaperConfig`,
- a fingerprint of the whole ``repro`` package source.

Any code or config change therefore changes the address, and a stale
entry is simply never looked up again — there is no mutation-based
invalidation to get wrong.

Entries are canonical JSON (sorted keys, fixed separators), so the
same experiment under the same config always produces **byte-identical**
files; determinism is testable with a file hash.  Writes go through
:func:`repro.ioutils.atomic_write_text`, so a worker killed mid-write
can never leave a truncated (poisoned) entry; at worst it leaves an
orphaned ``*.tmp-*`` file which :meth:`ResultCache.sweep` removes.

Cache traffic is observable when :mod:`repro.obs` is enabled:
``runner.cache.hits`` / ``misses`` / ``writes`` / ``corrupt`` count
lookups, and a corrupt entry (unparsable JSON, schema drift, payload
hash mismatch) is deleted and treated as a miss — the runner then
recomputes.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import pathlib
from functools import lru_cache
from typing import List, Optional, Tuple

import numpy as np

from repro import obs
from repro.experiments.checkpoints import Checkpoint
from repro.experiments.params import PaperConfig
from repro.experiments.registry import Experiment
from repro.ioutils import atomic_write_text, sweep_tmp_files

#: Entry format version; bumping it invalidates every existing entry.
CACHE_SCHEMA = "repro.runner.cache/v1"

#: Default cache directory (relative to the working directory).
DEFAULT_CACHE_DIR = ".repro-cache"


# ----------------------------------------------------------------------
# digests
# ----------------------------------------------------------------------


def config_digest(config: Optional[PaperConfig]) -> str:
    """Canonical hash of a config (``None`` hashes as the default).

    Dataclass fields are serialised to sorted-key JSON; ``repr``-exact
    float serialisation makes the digest stable across processes.  The
    fields are read shallowly (every one is a scalar or a flat tuple),
    which serialises exactly as ``dataclasses.asdict`` would at a third
    of its cost.
    """
    payload = (
        None
        if config is None
        else {f.name: getattr(config, f.name) for f in dataclasses.fields(config)}
    )
    text = json.dumps(payload, sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@lru_cache(maxsize=1)
def code_fingerprint() -> str:
    """Hash of every ``.py`` file in the installed ``repro`` package.

    Conservative by design: *any* source change invalidates every
    entry.  Experiments are cheap relative to serving stale numbers.
    """
    import repro

    root = pathlib.Path(repro.__file__).parent
    digest = hashlib.sha256()
    for path in sorted(root.rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode("utf-8"))
        digest.update(b"\0")
        digest.update(path.read_bytes())
        digest.update(b"\0")
    return digest.hexdigest()


def target_name(exp: Experiment) -> str:
    """Qualified name of the callable the entry is digested from."""
    target = exp.digest_target
    return f"{target.__module__}.{target.__qualname__}"


def cache_key(exp: Experiment, config: Optional[PaperConfig]) -> str:
    """The content address of one (experiment, config, code) triple."""
    return _address(exp, config_digest(config))


def _address(exp: Experiment, digest: str) -> str:
    """:func:`cache_key` from an already computed config digest."""
    material = "\n".join(
        [CACHE_SCHEMA, exp.exp_id, target_name(exp), digest, code_fingerprint()]
    )
    return hashlib.sha256(material.encode("utf-8")).hexdigest()


# ----------------------------------------------------------------------
# result (de)serialisation
# ----------------------------------------------------------------------


def encode_result(result: object) -> Tuple[str, object]:
    """``(kind, payload)`` — the JSON-ready form of a generator result."""
    from repro.verify.report import VerificationReport

    if isinstance(result, VerificationReport):
        return "verification", result.to_dict()
    if isinstance(result, dict):
        return "series", {k: np.asarray(v).tolist() for k, v in result.items()}
    if (
        isinstance(result, (list, tuple))
        and result
        and isinstance(result[0], Checkpoint)
    ):
        return "checkpoints", [
            {
                "exp_id": row.exp_id,
                "description": row.description,
                "paper_value": row.paper_value,
                "measured": row.measured,
                "matches": row.matches,
            }
            for row in result
        ]
    return "repr", repr(result)


def decode_result(kind: str, payload: object) -> object:
    """Inverse of :func:`encode_result` (``repr`` stays a string)."""
    if kind == "series":
        return {k: np.asarray(v) for k, v in payload.items()}
    if kind == "checkpoints":
        return [
            Checkpoint(
                exp_id=row["exp_id"],
                description=row["description"],
                paper_value=row["paper_value"],
                measured=row["measured"],
                matches=row["matches"],
            )
            for row in payload
        ]
    if kind == "verification":
        from repro.verify.report import VerificationReport

        return VerificationReport.from_dict(payload)
    if kind == "repr":
        return payload
    raise ValueError(f"unknown cached result kind {kind!r}")


def _canonical_json(obj: object) -> str:
    """Deterministic JSON text — the byte-identical entry encoding."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def payload_sha256(payload: object) -> str:
    """Digest of the canonical encoding of a result payload."""
    return hashlib.sha256(_canonical_json(payload).encode("utf-8")).hexdigest()


def build_entry(
    exp: Experiment, config: Optional[PaperConfig], result: object
) -> dict:
    """The full, self-verifying cache entry for one computed result."""
    kind, payload = encode_result(result)
    digest = config_digest(config)
    return {
        "schema": CACHE_SCHEMA,
        "exp_id": exp.exp_id,
        "function": target_name(exp),
        "config_digest": digest,
        "code_fingerprint": code_fingerprint(),
        "key": _address(exp, digest),
        "result_kind": kind,
        "result": payload,
        "payload_sha256": payload_sha256(payload),
    }


# ----------------------------------------------------------------------
# the cache proper
# ----------------------------------------------------------------------


def _count(name: str) -> None:
    if obs.enabled():
        obs.counter(name).inc()


class ResultCache:
    """Directory of content-addressed experiment results."""

    def __init__(self, root=DEFAULT_CACHE_DIR):
        self.root = pathlib.Path(root)

    def entry_path(
        self,
        exp: Experiment,
        config: Optional[PaperConfig],
        *,
        key: Optional[str] = None,
    ) -> pathlib.Path:
        """Where this (experiment, config, code) triple lives on disk.

        ``key`` is the triple's :func:`cache_key` when the caller
        already has it.
        """
        if key is None:
            key = cache_key(exp, config)
        safe_id = exp.exp_id.replace(".", "_").replace("/", "_")
        return self.root / safe_id / f"{key[:32]}.json"

    def load(
        self, exp: Experiment, config: Optional[PaperConfig]
    ) -> Optional[dict]:
        """The verified entry for this triple, or ``None`` on a miss.

        A present-but-invalid entry (truncated by some non-atomic
        writer, hand-edited, schema drift, payload digest mismatch) is
        counted as ``runner.cache.corrupt``, deleted best-effort, and
        reported as a miss so the caller recomputes.
        """
        key = cache_key(exp, config)
        path = self.entry_path(exp, config, key=key)
        try:
            text = path.read_text(encoding="utf-8")
        except (FileNotFoundError, OSError):
            _count("runner.cache.misses")
            obs.emit("cache.miss", id=exp.exp_id)
            return None
        entry = self._validate(key, text)
        if entry is None:
            _count("runner.cache.corrupt")
            _count("runner.cache.misses")
            obs.emit("cache.miss", id=exp.exp_id, corrupt=True)
            try:
                path.unlink()
            except OSError:
                pass
            return None
        _count("runner.cache.hits")
        obs.emit("cache.hit", id=exp.exp_id)
        return entry

    @staticmethod
    def _validate(key: str, text: str) -> Optional[dict]:
        try:
            entry = json.loads(text)
        except ValueError:
            return None
        if not isinstance(entry, dict):
            return None
        if entry.get("schema") != CACHE_SCHEMA:
            return None
        if entry.get("key") != key:
            return None
        if entry.get("payload_sha256") != payload_sha256(entry.get("result")):
            return None
        return entry

    def store(
        self, exp: Experiment, config: Optional[PaperConfig], result: object
    ) -> dict:
        """Atomically write the entry for ``result``; return it.

        Deterministic: the same (experiment, config, code) triple
        always serialises to byte-identical JSON.
        """
        entry = build_entry(exp, config, result)
        atomic_write_text(
            self.entry_path(exp, config, key=entry["key"]), _canonical_json(entry)
        )
        _count("runner.cache.writes")
        obs.emit("cache.write", id=exp.exp_id)
        return entry

    def sweep(self) -> List[pathlib.Path]:
        """Remove temp files orphaned by killed writers; return them."""
        return sweep_tmp_files(self.root)
