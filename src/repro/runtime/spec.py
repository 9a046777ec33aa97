"""Canonical trial specifications and content-addressed fingerprints.

A *trial* is the atomic unit of experimental work: one seeded simulation of
one (workload, scheme, adversary factory) cell.  :class:`TrialSpec` packages
the four ingredients; :func:`fingerprint_trial` derives a :class:`TrialKey`
— a stable content hash of the cell — so that results can be cached and
deduplicated across runs and across processes.

The fingerprint is computed from a *canonical payload*: a JSON-able structure
built recursively from the spec with deterministic ordering everywhere a
Python container could introduce nondeterminism (dict/set iteration order,
``PYTHONHASHSEED``).  Callables are described by their import path; lambdas
and closures have no stable import path, so any spec that contains one is
marked ``stable=False`` and simply bypasses the cache instead of poisoning it.

Canonicalisation walks the whole workload (graph, protocol, inputs), which is
by far the most expensive part of fingerprinting.  A sweep grid shares the
same workload / scheme / adversary-factory *objects* across hundreds of
trials, so :func:`fingerprint_trial` memoises the canonical payload per
object (identity-keyed, weakly referenced — see :class:`_PayloadMemo`) and
interns the finished :class:`TrialKey` on the :class:`TrialSpec`.

**The memo adds a contract**: the identity state of a workload / scheme /
factory must not change between fingerprints of the same object (lazy
``_``-prefixed caches are excluded from the payload and may change freely).
Every in-tree path satisfies it — schemes and workload containers are frozen,
and the builders make fresh objects per experiment — but code that mutates,
say, a protocol's public inputs in place and reuses the object would be
served the pre-mutation fingerprint.  Mutating callers must rebuild the
object (builders are cheap) or call :func:`clear_payload_memo`.
"""

from __future__ import annotations

import functools
import hashlib
import inspect
import json
import random
import weakref
from dataclasses import dataclass, fields, is_dataclass
from typing import Any, Callable, Dict, List, Mapping, Tuple

from repro.adversary.base import Adversary
from repro.core.parameters import SchemeParameters

AdversaryFactory = Callable[[int], Adversary]

#: Bump when the canonical-payload rules change incompatibly, so stale
#: on-disk cache entries are never matched against new fingerprints.
#: 2 = the 2.0.0 CRS seed-derivation break (see ``repro.hashing.seeds``):
#: CRS-scheme trials compute different transcripts than under schema 1, so
#: every pre-break fingerprint must miss.
TRIAL_KEY_SCHEMA = 2

#: Maximum recursion depth of the canonicalisation; deeper structures are
#: summarised by type name and mark the key unstable.
_MAX_DEPTH = 16


def derive_trial_seed(base_seed: int, trial: int) -> int:
    """The per-trial seed derivation used by the experiment harness.

    Kept as a single shared function so that serial and parallel backends —
    and any code that needs to predict the seed of trial ``i`` — agree by
    construction.
    """
    return base_seed + 1000 * trial + 17


@dataclass(frozen=True)
class TrialSpec:
    """One seeded simulation of a (workload, scheme, adversary) cell.

    ``workload`` is any object with ``name`` and ``protocol`` attributes
    (duck-typed to avoid importing :mod:`repro.experiments` from here).
    """

    workload: Any
    scheme: SchemeParameters
    adversary_factory: AdversaryFactory
    seed: int


@dataclass(frozen=True)
class TrialKey:
    """Content-addressed identity of a trial.

    ``stable`` is False when the spec contains something without a canonical
    description (a lambda, a closure, an exotic object); unstable keys are
    still unique within a process but must not be used for cross-run caching.
    """

    digest: str
    stable: bool

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        suffix = "" if self.stable else " (unstable)"
        return f"{self.digest}{suffix}"


class _Canonicalizer:
    """Recursively convert an object into a deterministic JSON-able payload."""

    def __init__(self) -> None:
        self.stable = True

    def convert(self, obj: Any, depth: int = 0) -> Any:
        if depth > _MAX_DEPTH:
            self.stable = False
            return {"__truncated__": type(obj).__qualname__}
        if obj is None or isinstance(obj, (bool, int, float, str)):
            return obj
        if isinstance(obj, bytes):
            return {"__bytes__": obj.hex()}
        if isinstance(obj, random.Random):
            # The generator state is a deterministic function of how the
            # object was seeded and used so far.
            version, internal, gauss = obj.getstate()
            return {"__random__": [version, list(internal), gauss]}
        if isinstance(obj, Mapping):
            items = [
                [self.convert(key, depth + 1), self.convert(value, depth + 1)]
                for key, value in obj.items()
            ]
            items.sort(key=lambda pair: _sort_token(pair[0]))
            return {"__map__": items}
        if isinstance(obj, (set, frozenset)):
            members = [self.convert(member, depth + 1) for member in obj]
            members.sort(key=_sort_token)
            return {"__set__": members}
        if isinstance(obj, (list, tuple)):
            return [self.convert(member, depth + 1) for member in obj]
        if is_dataclass(obj) and not isinstance(obj, type):
            return {
                "__dataclass__": _qualified_name(type(obj)),
                "fields": {
                    spec.name: self.convert(getattr(obj, spec.name), depth + 1)
                    for spec in fields(obj)
                },
            }
        if isinstance(obj, functools.partial):
            return {
                "__partial__": self.convert(obj.func, depth + 1),
                "args": [self.convert(arg, depth + 1) for arg in obj.args],
                "keywords": self.convert(dict(obj.keywords), depth + 1),
            }
        if inspect.ismethod(obj):
            return {
                "__method__": obj.__func__.__qualname__,
                "self": self.convert(obj.__self__, depth + 1),
            }
        if inspect.isfunction(obj) or inspect.isbuiltin(obj):
            name = _qualified_name(obj)
            if "<lambda>" in name or "<locals>" in name:
                # No import path: unique in this process, meaningless in the
                # next one.
                self.stable = False
                return {"__callable__": name, "unstable": True}
            return {"__callable__": name}
        if isinstance(obj, type):
            return {"__class__": _qualified_name(obj)}
        state = getattr(obj, "__dict__", None)
        if state is not None:
            # Underscored attributes are lazily-computed caches (for instance a
            # protocol's ``_schedule``): derived from the public state, so
            # including them would make the fingerprint depend on whether the
            # object has been *used*, not just on what it *is*.
            public = {key: value for key, value in state.items() if not key.startswith("_")}
            return {
                "__object__": _qualified_name(type(obj)),
                "state": self.convert(public, depth + 1),
            }
        self.stable = False
        return {"__opaque__": _qualified_name(type(obj))}


def _qualified_name(obj: Any) -> str:
    module = getattr(obj, "__module__", "") or ""
    qualname = getattr(obj, "__qualname__", None) or getattr(obj, "__name__", repr(obj))
    return f"{module}.{qualname}" if module else str(qualname)


def _sort_token(payload: Any) -> str:
    """A total order over canonical payloads (JSON text compares reliably)."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"), default=str)


def canonical_payload(obj: Any) -> Tuple[Any, bool]:
    """Canonicalise ``obj``; returns ``(payload, stable)``.  Unmemoised —
    every call re-walks the object (see :func:`memoized_payload`)."""
    canonicalizer = _Canonicalizer()
    payload = canonicalizer.convert(obj)
    return payload, canonicalizer.stable


class _PayloadMemo:
    """Identity-keyed memo of canonical payloads.

    Keys are ``id(obj)`` guarded by a weak reference (an id can be recycled
    after the object dies; the weakref both detects that and evicts the entry
    via its callback), so the memo never keeps a workload alive and never
    serves a payload for a different object that happens to reuse the
    address.  Objects that do not support weak references fall back to
    unmemoised canonicalisation — correctness is never traded for speed.
    """

    def __init__(self) -> None:
        self._entries: Dict[int, Tuple[Any, Any, bool]] = {}
        self.hits = 0
        self.misses = 0

    def lookup(self, obj: Any) -> Tuple[Any, bool]:
        key = id(obj)
        entry = self._entries.get(key)
        if entry is not None and entry[0]() is obj:
            self.hits += 1
            return entry[1], entry[2]
        self.misses += 1
        payload, stable = canonical_payload(obj)
        try:
            ref = weakref.ref(obj, lambda _, key=key: self._entries.pop(key, None))
        except TypeError:
            return payload, stable  # not weak-referenceable: do not memoise
        self._entries[key] = (ref, payload, stable)
        return payload, stable

    def clear(self) -> None:
        self._entries.clear()
        self.hits = 0
        self.misses = 0


_payload_memo = _PayloadMemo()


def memoized_payload(obj: Any) -> Tuple[Any, bool]:
    """Like :func:`canonical_payload`, but served from the identity memo when
    the same object was canonicalised before (one walk per unique workload /
    scheme / factory instead of one per trial)."""
    return _payload_memo.lookup(obj)


def payload_memo_stats() -> Dict[str, int]:
    """Hit/miss/size counters of the payload memo (observable in tests)."""
    return {
        "hits": _payload_memo.hits,
        "misses": _payload_memo.misses,
        "entries": len(_payload_memo._entries),
    }


def clear_payload_memo() -> None:
    """Drop every memoised payload and reset the counters."""
    _payload_memo.clear()


def _package_version() -> str:
    # Imported lazily: repro/__init__ imports the runtime, so a module-level
    # import here would be circular.
    from repro import __version__

    return __version__


def fingerprint_trial(spec: TrialSpec) -> TrialKey:
    """Content-address a trial: equal fingerprints ⇒ interchangeable results.

    The package version is part of the payload, so a persistent cache is
    invalidated wholesale whenever the simulator's code (and hence possibly
    its behaviour) changes — stale results are never served across upgrades.

    The workload / scheme / factory payloads come from the identity memo
    (:func:`memoized_payload`) and the finished key is interned on the spec,
    so a sweep grid canonicalises each unique ingredient once, not once per
    trial.  The digest is byte-identical to unmemoised fingerprinting.
    """
    interned = spec.__dict__.get("_trial_key")
    if interned is not None:
        return interned
    workload_payload, workload_stable = memoized_payload(spec.workload)
    scheme_payload, scheme_stable = memoized_payload(spec.scheme)
    factory_payload, factory_stable = memoized_payload(spec.adversary_factory)
    payload = {
        "schema": TRIAL_KEY_SCHEMA,
        "version": _package_version(),
        "workload": workload_payload,
        "scheme": scheme_payload,
        "adversary_factory": factory_payload,
        "seed": spec.seed,
    }
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
    key = TrialKey(digest=digest, stable=workload_stable and scheme_stable and factory_stable)
    # TrialSpec is frozen; the interned key is a pure function of the spec, so
    # stashing it is observationally immutable (and invisible to fields()).
    object.__setattr__(spec, "_trial_key", key)
    return key


def build_trial_specs(
    workload: Any,
    scheme: SchemeParameters,
    adversary_factory: AdversaryFactory,
    seeds: List[int],
) -> List[TrialSpec]:
    """Expand one experimental cell into its per-seed trial specs."""
    return [
        TrialSpec(
            workload=workload,
            scheme=scheme,
            adversary_factory=adversary_factory,
            seed=seed,
        )
        for seed in seeds
    ]
