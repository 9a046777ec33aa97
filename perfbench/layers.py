"""Per-layer timing for the benchmark's traced run.

The traced run times each layer from outside, at the call into it from the
layer above: the public entry points in ``ENTRY_POINTS`` are wrapped for the
duration of the run, and the engine's own obs spans (``phase``,
``iteration``, ``trial``, ``trial_set``, ``cache_probe``) are received by
:class:`LayerTracer`.  Both push frames onto one stack, so they form one
tree and every layer's self time is its frames' duration minus the time of
the frames nested in them.

A call into a layer from inside the same layer (``packed_slots`` reading
through ``packed_bits``, a composite adversary's per-slot replay) is not a
new frame: per-slot wrapping costs more than the layer it measures.  For the
same reason adversaries are timed through a proxy the transport holds, so
only the transport's calls into the adversary are frames.

An entry point that no longer exists is listed in ``report()["missing"]``
instead of failing the run.
"""

from __future__ import annotations

import functools
import importlib
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from repro.obs import MetricsRegistry, Tracer, use_obs


def _expand_hook(counters: Dict[str, float], args: tuple, result: Any) -> None:
    """Requested seed bits against the stream span one expansion covers."""
    if len(args) == 2:  # packed_slots(self, [(offset, length), ...])
        slots = list(args[1])
    else:  # packed_bits(self, offset, count)
        slots = [(args[1], args[2])]
    if slots:
        counters["hashing.seed_bits_requested"] += sum(length for _, length in slots)
        counters["hashing.stream_span_bits"] += (
            max(offset + length for offset, length in slots) - min(offset for offset, _ in slots)
        )


def _exchange_hook(counters: Dict[str, float], args: tuple, result: Any) -> None:
    counters["randomness_exchange.failures"] += sum(1 for ok in result.agreed.values() if not ok)


#: (layer, module, attribute path, hook).  Functions are patched in the module
#: that calls them, methods on the class.
ENTRY_POINTS: Tuple[Tuple[str, str, str, Optional[Callable]], ...] = (
    ("coding.encode", "repro.coding.block_code", "BinaryBlockCode.encode", None),
    ("coding.decode", "repro.coding.block_code", "BinaryBlockCode.decode", None),
    ("randomness_exchange", "repro.core.engine", "run_randomness_exchange", _exchange_hook),
    ("hashing.expand", "repro.hashing.small_bias", "SmallBiasGenerator.packed_slots", _expand_hook),
    ("hashing.expand", "repro.hashing.small_bias", "SmallBiasGenerator.packed_bits", _expand_hook),
    ("hashing.seeds", "repro.hashing.seeds", "CrsSeedSource.seeds_for_iteration", None),
    ("hashing.seeds", "repro.hashing.seeds", "ExchangedSeedSource.seeds_for_iteration", None),
    ("hashing.digest", "repro.hashing.inner_product", "InnerProductHash.digest_many", None),
    ("meeting_points.build", "repro.core.meeting_points", "MeetingPointsSession.build_message_packed", None),
    ("meeting_points.build", "repro.core.meeting_points", "MeetingPointsSession.build_message", None),
    ("meeting_points.reply", "repro.core.meeting_points", "MeetingPointsSession.process_reply_packed", None),
    ("meeting_points.reply", "repro.core.meeting_points", "MeetingPointsSession.process_reply", None),
    ("engine.run", "repro.core.engine", "InteractiveCodingSimulator.__init__", None),
    ("engine.run", "repro.core.engine", "InteractiveCodingSimulator.run", None),
    ("transport", "repro.network.transport", "NoisyNetwork.exchange_window_packed", None),
    ("transport", "repro.network.transport", "NoisyNetwork.exchange_window", None),
    ("transport", "repro.network.transport", "NoisyNetwork.exchange_window_per_slot", None),
    ("transport", "repro.network.transport", "NoisyNetwork.exchange_phase", None),
    ("transport", "repro.network.transport", "NoisyNetwork.transmit", None),
    ("baselines", "repro.experiments.table1", "run_uncoded", None),
    ("baselines", "repro.experiments.table1", "run_repetition", None),
    ("runtime.specs", "repro.experiments.harness", "build_trial_specs", None),
    ("runtime.fingerprint", "repro.runtime.executor", "fingerprint_trial", None),
    ("runtime.cache", "repro.runtime.cache", "ResultCache.get", None),
    ("runtime.cache", "repro.runtime.cache", "ResultCache.put", None),
)

#: The adversary methods a transport may call; each that exists is timed.
ADVERSARY_ENTRY_POINTS = ("corrupt_window_packed", "corrupt_window", "corrupt", "corruption_schedule")
#: Where the transport receives its adversary (the proxy is installed there).
ADVERSARY_HOOK = ("repro.network.transport", "NoisyNetwork.__post_init__")

#: The engine's obs span names, mapped onto layers.
OBS_SPANS = {
    "iteration": "engine.run",
    "trial": "runtime.execute",
    "trial_set": "runtime.harness",
    "cache_probe": "runtime.harness",
}


class _Frame:
    """Context manager for one obs span: a frame on the shared stack."""

    __slots__ = ("tracer", "layer", "frame", "start")

    def __init__(self, tracer: "LayerTracer", layer: str) -> None:
        self.tracer = tracer
        self.layer = layer

    def __enter__(self) -> None:
        self.frame = [self.layer, 0.0]
        self.tracer.stack.append(self.frame)
        self.start = perf_counter()
        return None

    def __exit__(self, *exc_info: object) -> None:
        self.tracer.close(self.frame, perf_counter() - self.start)


class LayerTracer(Tracer):
    """An obs tracer that folds spans into per-layer self time as they close.

    Only ``span`` and ``trial`` are overridden; they yield ``None`` like an
    unsampled span, so no span dicts are kept.
    """

    def __init__(self) -> None:
        super().__init__(sample_every=1)
        #: Open frames, innermost last: ``[layer, seconds of nested frames]``.
        self.stack: List[list] = []
        self.self_seconds: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.errors: Dict[str, int] = defaultdict(int)
        self.counters: Dict[str, float] = defaultdict(float)

    def span(self, name: str, parent_id: Optional[str] = None, **attrs: Any) -> _Frame:
        if name == "phase":
            return _Frame(self, f"engine.{attrs.get('phase', 'unknown')}")
        return _Frame(self, OBS_SPANS.get(name, f"obs.{name}"))

    def trial(self, parent_id: Optional[str] = None, **attrs: Any) -> _Frame:
        return self.span("trial")

    def close(self, frame: list, elapsed: float) -> None:
        stack = self.stack
        stack.pop()
        layer = frame[0]
        self.self_seconds[layer] += elapsed - frame[1]
        self.calls[layer] += 1
        if stack:
            stack[-1][1] += elapsed

    def timed(self, layer: str, function: Callable, hook: Optional[Callable] = None) -> Callable:
        """``function`` wrapped so each outermost call into ``layer`` is a frame.

        ``close`` is inlined: on a per-window entry point the frame's own
        cost is most of the tracing overhead."""
        stack, self_seconds, calls, clock = self.stack, self.self_seconds, self.calls, perf_counter

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            if stack and stack[-1][0] == layer:
                return function(*args, **kwargs)
            frame = [layer, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = function(*args, **kwargs)
            except BaseException:
                self.errors[layer] += 1
                raise
            finally:
                elapsed = clock() - start
                stack.pop()
                self_seconds[layer] += elapsed - frame[1]
                calls[layer] += 1
                if stack:
                    stack[-1][1] += elapsed
            if hook is not None:
                hook(self.counters, args, result)
            return result

        return wrapper


class _AdversaryProbe:
    """Stands in for the adversary inside the transport; the transport's
    calls into it are timed, everything else passes through."""

    def __init__(self, adversary: Any, tracer: LayerTracer) -> None:
        self._adversary = adversary
        for name in ADVERSARY_ENTRY_POINTS:
            method = getattr(adversary, name, None)
            if method is not None:
                setattr(self, name, tracer.timed("adversary", method))

    def __getattr__(self, name: str) -> Any:
        return getattr(self._adversary, name)


def _resolve(module_name: str, path: str) -> Tuple[Any, str]:
    """The object holding the attribute, and the attribute name."""
    owner: Any = importlib.import_module(module_name)
    *parents, attribute = path.split(".")
    for parent in parents:
        owner = getattr(owner, parent)
    if not hasattr(owner, attribute):
        raise AttributeError(attribute)
    return owner, attribute


_ABSENT = object()


class _Patches:
    """Attribute replacements, undone in reverse order."""

    def __init__(self) -> None:
        self.undo: List[Tuple[Any, str, Any]] = []

    def set(self, owner: Any, attribute: str, value: Any) -> None:
        self.undo.append((owner, attribute, vars(owner).get(attribute, _ABSENT)))
        setattr(owner, attribute, value)

    def restore(self) -> None:
        for owner, attribute, previous in reversed(self.undo):
            if previous is _ABSENT:
                delattr(owner, attribute)
            else:
                setattr(owner, attribute, previous)
        self.undo.clear()


class TracedRun:
    """What a traced run collected; ``report()`` is JSON-able."""

    def __init__(self, tracer: LayerTracer, registry: MetricsRegistry, missing: List[str]) -> None:
        self.tracer = tracer
        self.registry = registry
        self.missing = missing

    def report(self) -> Dict[str, Any]:
        tracer = self.tracer
        return {
            "self_seconds": dict(tracer.self_seconds),
            "calls": dict(tracer.calls),
            "errors": dict(tracer.errors),
            "counters": dict(tracer.counters),
            "obs": self.registry.flat_snapshot(),
            "missing": self.missing,
        }


@contextmanager
def traced() -> Iterator[TracedRun]:
    """Wrap every entry point that exists and install the tracer and a
    metrics registry as the ambient obs context.  Simulators capture the
    obs context when built, so enter this before the trials to trace."""
    tracer = LayerTracer()
    registry = MetricsRegistry()
    patches = _Patches()
    missing: List[str] = []
    for layer, module_name, path, hook in ENTRY_POINTS:
        try:
            owner, attribute = _resolve(module_name, path)
        except (ImportError, AttributeError):
            missing.append(f"{module_name}.{path}")
            continue
        patches.set(owner, attribute, tracer.timed(layer, getattr(owner, attribute), hook))
    try:
        from repro.adversary.base import Adversary

        missing.extend(
            f"repro.adversary.base.Adversary.{name}" for name in ADVERSARY_ENTRY_POINTS if not hasattr(Adversary, name)
        )
        owner, attribute = _resolve(*ADVERSARY_HOOK)
    except (ImportError, AttributeError):
        missing.append(".".join(ADVERSARY_HOOK))
    else:
        original = getattr(owner, attribute)

        @functools.wraps(original)
        def install_probe(network, *args, **kwargs):
            original(network, *args, **kwargs)
            network.adversary = _AdversaryProbe(network.adversary, tracer)

        patches.set(owner, attribute, install_probe)
    try:
        with use_obs(metrics=registry, tracer=tracer):
            yield TracedRun(tracer, registry, missing)
    finally:
        patches.restore()
