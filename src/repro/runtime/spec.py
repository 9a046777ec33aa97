"""Trial specifications and their declared keys.

A *trial* is the atomic unit of experimental work: one seeded simulation of
one (workload, scheme, adversary factory) cell.  :class:`TrialSpec` packages
the four ingredients; :func:`fingerprint_trial` derives the trial's key — a
SHA-256 hex digest of what determines its result — so that results can be
cached and deduplicated across runs and across processes.

The key hashes declarations, not objects: the workload's builder name and
keyword arguments (``Workload.declaration``), the scheme's fields, the
factory's class and fields, the seed, and two counters.
:data:`TRIAL_KEY_SCHEMA` versions the key's layout; :data:`REALISATION`
versions the code's results, and ``tests/goldens/realisations.json`` binds
each value to the bytes of the golden grid, so a change that moves results
cannot keep the keys of the results it moved.
"""

from __future__ import annotations

import hashlib
import inspect
import json
from dataclasses import asdict, dataclass, is_dataclass
from typing import Any, Callable, List

from repro.adversary.base import Adversary
from repro.core.parameters import SchemeParameters

AdversaryFactory = Callable[[int], Adversary]

#: Bump when the key's layout changes, so stale on-disk cache entries are
#: never matched against new keys.  3 = keys hash declarations (workload
#: builder and arguments, scheme and factory fields) and :data:`REALISATION`
#: instead of a reflective walk of the objects and the package version.
TRIAL_KEY_SCHEMA = 3

#: Bump when a change moves any trial's result, and add the new golden grid's
#: SHA-256 under the new value in ``tests/goldens/realisations.json``
#: (``scripts/regen_goldens.py`` prints the line).  Old cache lines then miss.
REALISATION = 1


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

    ``workload`` is any object with ``name``, ``protocol`` and
    ``declaration`` attributes (duck-typed to avoid importing
    :mod:`repro.experiments` from here).
    """

    workload: Any
    scheme: SchemeParameters
    adversary_factory: AdversaryFactory
    seed: int


def _import_path(obj: Any) -> str:
    """``module.qualname`` of a module-level class or function; the
    ``default`` of the key's ``json.dumps``, so a callable held in a factory
    field is keyed by where it is defined."""
    if not (isinstance(obj, type) or inspect.isfunction(obj)):
        raise TypeError(f"{obj!r} is neither data nor a function, so it cannot enter a trial key")
    name = f"{obj.__module__}.{obj.__qualname__}"
    if "<lambda>" in name or "<locals>" in name:
        raise TypeError(f"{name} has no import path, so it cannot enter a trial key")
    return name


def _factory_declaration(factory: AdversaryFactory) -> List[Any]:
    """The factory's part of a trial key: its class's import path and fields."""
    if not is_dataclass(factory) or isinstance(factory, type):
        raise TypeError(
            f"adversary factory {factory!r} is not a dataclass instance, so it declares no trial key"
        )
    return [_import_path(type(factory)), asdict(factory)]


def fingerprint_trial(spec: TrialSpec) -> str:
    """The trial's key: equal keys ⇒ interchangeable results."""
    payload = {
        "schema": TRIAL_KEY_SCHEMA,
        "realisation": REALISATION,
        "workload": spec.workload.declaration,
        "scheme": asdict(spec.scheme),
        "adversary_factory": _factory_declaration(spec.adversary_factory),
        "seed": spec.seed,
    }
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"), default=_import_path)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def build_trial_specs(
    workload: Any,
    scheme: SchemeParameters,
    adversary_factory: AdversaryFactory,
    seeds: List[int],
) -> List[TrialSpec]:
    """Expand one experimental cell into its per-seed trial specs.

    Raises ``TypeError`` for a factory that declares no key: one that is
    not a dataclass, or whose fields hold a lambda or a local callable.
    """
    # Key the factory once here: without a cache no trial is ever keyed, and
    # a refused factory must fail before any trial runs, cached or not.
    json.dumps(_factory_declaration(adversary_factory), default=_import_path)
    return [
        TrialSpec(
            workload=workload,
            scheme=scheme,
            adversary_factory=adversary_factory,
            seed=seed,
        )
        for seed in seeds
    ]
