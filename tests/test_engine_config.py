"""EngineConfig: one frozen switchboard, fingerprint-invisible by contract.

:class:`repro.core.config.EngineConfig` holds the three execution switches
(``fast_hashing``, ``batched_transport`` and ``packed``).  This suite pins the
three promises it makes:

* **Fingerprint invisibility** — the configuration selects among bit-identical
  execution paths, so it must never alter a trial fingerprint or cache key: a
  result computed under any configuration is served for the same trial under
  any other.
* **Bit-identity** — the reference profile (everything off) and the default
  profile (everything on) produce identical results on real noisy trials.
* **One surface** — the config object is the only way to pick a path; the
  removed switches and keywords fail loudly instead of being ignored.
"""

from __future__ import annotations

from dataclasses import fields

import pytest

from repro.core.config import DEFAULT_ENGINE_CONFIG, REFERENCE_ENGINE_CONFIG, EngineConfig
from repro.core.engine import InteractiveCodingSimulator, simulate
from repro.core.parameters import crs_oblivious_scheme, scheme_by_name
from repro.experiments.factories import RandomNoiseFactory
from repro.experiments.harness import run_trials
from repro.experiments.workloads import gossip_workload
from repro.runtime import ResultCache, use_runtime
from repro.runtime.spec import TrialSpec, build_trial_specs, fingerprint_trial


@pytest.fixture
def cell():
    workload = gossip_workload("clique", 4, 3, seed=0)
    scheme = crs_oblivious_scheme()
    factory = RandomNoiseFactory(fraction=scheme.nominal_noise_fraction(workload.protocol.graph))
    return workload, scheme, factory


# ---------------------------------------------------------------------------
# Fingerprint invisibility
# ---------------------------------------------------------------------------


def test_engine_config_never_enters_the_fingerprint(cell):
    workload, scheme, factory = cell
    digests = set()
    for engine in (None, DEFAULT_ENGINE_CONFIG, REFERENCE_ENGINE_CONFIG,
                   EngineConfig(packed=False, fast_hashing=False)):
        spec = TrialSpec(
            workload=workload, scheme=scheme, adversary_factory=factory, seed=17, engine=engine
        )
        key = fingerprint_trial(spec)
        assert key.stable
        digests.add(key.digest)
    assert len(digests) == 1, "engine configuration leaked into the trial fingerprint"


def test_build_trial_specs_threads_engine(cell):
    workload, scheme, factory = cell
    specs = build_trial_specs(workload, scheme, factory, [17, 1017], engine=REFERENCE_ENGINE_CONFIG)
    assert [spec.engine for spec in specs] == [REFERENCE_ENGINE_CONFIG] * 2
    assert fingerprint_trial(specs[0]) == fingerprint_trial(
        TrialSpec(workload=workload, scheme=scheme, adversary_factory=factory, seed=17)
    )


def test_cached_result_served_across_configurations(cell):
    """A trial computed under the default profile is a cache hit for the same
    trial under the reference profile — the strongest observable form of
    fingerprint invisibility."""
    workload, scheme, factory = cell
    cache = ResultCache()
    first = run_trials(
        workload, scheme, factory, trials=2, cache=cache, store=None,
        engine=DEFAULT_ENGINE_CONFIG,
    )
    assert cache.stats.hits == 0 and cache.stats.stores == 2
    second = run_trials(
        workload, scheme, factory, trials=2, cache=cache, store=None,
        engine=REFERENCE_ENGINE_CONFIG,
    )
    assert cache.stats.hits == 2, "reference-profile rerun should be served from cache"
    assert [run.as_dict() for run in first.runs] == [run.as_dict() for run in second.runs]


def test_runtime_context_supplies_ambient_engine(cell, monkeypatch):
    """run_trials resolves the ambient EngineConfig into each spec so worker
    processes (which never inherit the context) run the right configuration."""
    workload, scheme, factory = cell
    captured = []

    import repro.experiments.harness as harness

    original = harness.build_trial_specs

    def spy(*args, **kwargs):
        specs = original(*args, **kwargs)
        captured.extend(specs)
        return specs

    monkeypatch.setattr(harness, "build_trial_specs", spy)
    with use_runtime(engine=REFERENCE_ENGINE_CONFIG):
        run_trials(workload, scheme, factory, trials=1, cache=None, store=None)
    assert captured and all(spec.engine == REFERENCE_ENGINE_CONFIG for spec in captured)
    captured.clear()
    # An explicit argument wins over the ambient context.
    with use_runtime(engine=REFERENCE_ENGINE_CONFIG):
        run_trials(
            workload, scheme, factory, trials=1, cache=None, store=None,
            engine=DEFAULT_ENGINE_CONFIG,
        )
    assert captured and all(spec.engine == DEFAULT_ENGINE_CONFIG for spec in captured)


# ---------------------------------------------------------------------------
# Bit-identity of the profiles
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("scheme_name", ["algorithm_crs", "algorithm_a", "algorithm_b", "algorithm_c"])
def test_reference_and_default_profiles_bit_identical(scheme_name):
    workload = gossip_workload("clique", 4, 3, seed=0)
    scheme = scheme_by_name(scheme_name)
    fraction = scheme.nominal_noise_fraction(workload.protocol.graph)
    factory = RandomNoiseFactory(fraction=fraction)
    results = {}
    for label, config in [("default", DEFAULT_ENGINE_CONFIG), ("reference", REFERENCE_ENGINE_CONFIG)]:
        result = simulate(
            workload.protocol, scheme=scheme, adversary=factory(3), seed=3, config=config
        )
        results[label] = (result.success, result.metrics.as_dict())
    assert results["default"] == results["reference"]


# ---------------------------------------------------------------------------
# One configuration surface
# ---------------------------------------------------------------------------


def _simulator(**kwargs):
    workload = gossip_workload("clique", 4, 2, seed=0)
    return InteractiveCodingSimulator(workload.protocol, scheme=crs_oblivious_scheme(), **kwargs)


def test_removed_engine_surface_fails_loudly():
    """The deleted switches and keywords raise instead of being ignored."""
    from repro.cli import build_parser

    assert [field.name for field in fields(EngineConfig)] == [
        "fast_hashing", "batched_transport", "packed",
    ]
    with pytest.raises(TypeError):
        EngineConfig(merge_phases=False)
    with pytest.raises(TypeError):
        DEFAULT_ENGINE_CONFIG.with_overrides(batch_rounds=False)
    for keyword in ("batch_rounds", "merge_phases", "fast_hashing", "batched"):
        with pytest.raises(TypeError):
            _simulator(**{keyword: False})
    parser = build_parser()
    for flag in ("--engine-no-merge-phases", "--engine-no-batch-rounds"):
        with pytest.raises(SystemExit) as excinfo:
            parser.parse_args(["simulate", flag])
        assert excinfo.value.code == 2  # argparse usage error


def test_config_object_is_authoritative_without_legacy_keywords():
    sim = _simulator(config=REFERENCE_ENGINE_CONFIG)
    assert sim.config == REFERENCE_ENGINE_CONFIG
    assert sim.fast_hashing is False
    assert sim.packed is False
    assert sim.network.batched is False


def test_with_overrides_returns_new_frozen_config():
    derived = DEFAULT_ENGINE_CONFIG.with_overrides(packed=False)
    assert derived.packed is False and DEFAULT_ENGINE_CONFIG.packed is True
    with pytest.raises(Exception):
        derived.packed = True  # frozen dataclass


# ---------------------------------------------------------------------------
# The 2.0.0 CRS break: pre-break cached state is rejected cleanly
# ---------------------------------------------------------------------------


def test_major_version_and_schemas_reflect_the_crs_break():
    import repro
    from repro.runtime.cache import CACHE_SCHEMA_VERSION
    from repro.runtime.spec import TRIAL_KEY_SCHEMA
    from repro.runtime.store import STORE_SCHEMA_VERSION

    assert repro.__version__.split(".")[0] == "2"
    assert CACHE_SCHEMA_VERSION == 2
    assert TRIAL_KEY_SCHEMA == 2
    # The run store is history, not reusable results: schema deliberately kept.
    assert STORE_SCHEMA_VERSION == 1


def test_pre_break_cache_entries_are_skipped_not_served(tmp_path):
    """A trials.jsonl written before the CRS break (schema 1) must never serve
    results: loading skips every pre-break line without raising, and compact
    sweeps them from disk."""
    import json

    path = tmp_path / "trials.jsonl"
    stale = {
        "schema": 1,
        "key": "f" * 64,
        "metrics": {"anything": "from the 1.x era"},
    }
    path.write_text(json.dumps(stale) + "\n")
    cache = ResultCache(tmp_path)
    assert len(cache) == 0
    outcome = cache.compact()
    assert outcome == {"kept": 0, "dropped_superseded": 0, "dropped_invalid": 1}
    assert path.read_text() == ""


# ---------------------------------------------------------------------------
# Golden fingerprints of the post-break CRS behaviour
# ---------------------------------------------------------------------------


class TestCrsGoldens:
    """Pinned values of the 2.0.0 CRS derivation.

    These are the *new* goldens after the documented break (CrsSeedSource
    expanding through SmallBiasGenerator.packed_slots with hasher-derived slot
    capacities).  They exist so any future change to CRS seed derivation is a
    conscious, version-gated decision — a drift here means another major
    version, not a bugfix.
    """

    def test_crs_seed_source_golden_values(self):
        from repro.hashing.seeds import CrsSeedSource

        source = CrsSeedSource(master_seed=2024, link=(0, 1))
        seeds = [
            source.seed_for(iteration, purpose, 128)
            for iteration in (0, 1)
            for purpose in ("mp_prefix", "mp_counter")
        ]
        assert [hex(value) for value in seeds] == [
            "0xc44727dcadd16e91f6e993981618ace7",
            "0x18d3dc56747c4b87268a4669f6dfa7f1",
            "0x6bad427d510ab6b774d01919bbcab1e1",
            "0x86160139d45b59057320912005c8ac54",
        ]

    def test_crs_trial_golden_metrics(self):
        """One noisy CRS trial (corruptions, rewinds, truncations and a full
        recovery), pinned end to end under the default engine profile."""
        workload = gossip_workload("clique", 4, 4, seed=0)
        scheme = crs_oblivious_scheme()
        factory = RandomNoiseFactory(
            fraction=4 * scheme.nominal_noise_fraction(workload.protocol.graph)
        )
        result = simulate(workload.protocol, scheme=scheme, adversary=factory(2), seed=2)
        metrics = result.metrics.as_dict()
        assert metrics == {
            "scheme": "algorithm_crs",
            "success": True,
            "cc_protocol": 48,
            "cc_simulation": 5664,
            "overhead": 118.0,
            "rate": 0.00847457627118644,
            "noise_fraction": 0.008121468926553672,
            "corruptions": 46,
            "rewinds": 12,
            "truncations": 8,
            "iterations_run": 14,
            "hash_collisions": 0,
        }


# ---------------------------------------------------------------------------
# CLI flag translation
# ---------------------------------------------------------------------------


def test_cli_engine_flags_translate_to_configs():
    from repro.cli import _engine_config, build_parser

    parser = build_parser()
    base = ["table1", "--topologies", "line", "--nodes", "4"]
    assert _engine_config(parser.parse_args(base)) is None
    assert _engine_config(parser.parse_args(base + ["--engine-reference"])) == REFERENCE_ENGINE_CONFIG
    assert _engine_config(
        parser.parse_args(base + ["--engine-no-packed", "--engine-no-fast-hashing"])
    ) == DEFAULT_ENGINE_CONFIG.with_overrides(packed=False, fast_hashing=False)
    assert _engine_config(
        parser.parse_args(["simulate", "--engine-no-batched-transport"])
    ) == DEFAULT_ENGINE_CONFIG.with_overrides(batched_transport=False)
