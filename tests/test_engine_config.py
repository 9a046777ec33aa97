"""One execution path: fingerprints, the per-slot oracle and the removed switches.

The engine used to carry an ``EngineConfig`` of three bit-identical execution
switches.  It now has one path, and the reference semantics live in
``tests/oracle.py``.  This suite pins what survives of the old promises:

* **Fingerprint invisibility** — how a trial executes never alters its
  fingerprint or cache key: the key of a fixed trial is the golden value it
  had while the switches existed, and a result computed through the oracles
  is served for the same trial run in production.
* **Bit-identity** — production and the per-slot, per-call-hashing and
  full-rescan bookkeeping oracles produce identical results on real noisy
  trials.
* **One surface** — the removed configuration module, keywords, spec field
  and CLI flags fail loudly instead of being ignored.
"""

from __future__ import annotations

import pytest
from oracle import use_oracles

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


def test_engine_config_never_enters_the_fingerprint(cell, monkeypatch):
    """The key of a fixed trial is a pinned digest, and routing execution
    through the oracles does not move it.  The digest moves only when the
    canonical payload does (it last moved when ``SchemeParameters`` lost
    ``early_stop`` and ``trace_potential``, the two fields only tests
    set)."""
    workload, scheme, factory = cell
    spec = TrialSpec(workload=workload, scheme=scheme, adversary_factory=factory, seed=17)
    key = fingerprint_trial(spec)
    assert key.stable
    assert key.digest == "8aa36f45306abb83817282eaedb4bf66b2273054bc96ebac9dd42d22187b142f"
    use_oracles(monkeypatch, bookkeeping=True)
    rebuilt = build_trial_specs(workload, scheme, factory, [17])[0]
    assert fingerprint_trial(rebuilt) == key


def test_cached_result_served_across_configurations(cell, monkeypatch):
    """A trial computed through the oracles is a cache hit for the same trial
    in production — the strongest observable form of fingerprint
    invisibility."""
    workload, scheme, factory = cell
    cache = ResultCache()
    with monkeypatch.context() as patched:
        use_oracles(patched, bookkeeping=True)
        first = run_trials(workload, scheme, factory, trials=2, cache=cache, store=None)
    assert cache.stats.hits == 0 and cache.stats.stores == 2
    second = run_trials(workload, scheme, factory, trials=2, cache=cache, store=None)
    assert cache.stats.hits == 2, "the production rerun should be served from cache"
    assert [run.as_dict() for run in first.runs] == [run.as_dict() for run in second.runs]


# ---------------------------------------------------------------------------
# Bit-identity against the oracles
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("scheme_name", ["algorithm_crs", "algorithm_a", "algorithm_b", "algorithm_c"])
def test_reference_and_default_profiles_bit_identical(scheme_name, monkeypatch):
    workload = gossip_workload("clique", 4, 3, seed=0)
    scheme = scheme_by_name(scheme_name)
    fraction = scheme.nominal_noise_fraction(workload.protocol.graph)
    factory = RandomNoiseFactory(fraction=fraction)

    def run():
        simulator = InteractiveCodingSimulator(workload.protocol, scheme=scheme, adversary=factory(3), seed=3)
        result = simulator.run()
        return result.success, result.metrics.as_dict(), vars(simulator.network.stats)

    default = run()
    use_oracles(monkeypatch, bookkeeping=True)
    assert run() == default


# ---------------------------------------------------------------------------
# One execution surface
# ---------------------------------------------------------------------------


def test_removed_engine_surface_fails_loudly(cell):
    """The deleted configuration surface raises instead of being ignored."""
    workload, scheme, factory = cell
    with pytest.raises(ImportError):
        import repro.core.config  # noqa: F401
    with pytest.raises(TypeError):
        simulate(workload.protocol, scheme=scheme, config=None)
    with pytest.raises(TypeError):
        InteractiveCodingSimulator(workload.protocol, scheme=scheme, config=None)
    with pytest.raises(TypeError):
        TrialSpec(workload=workload, scheme=scheme, adversary_factory=factory, seed=1, engine=None)
    with pytest.raises(TypeError):
        build_trial_specs(workload, scheme, factory, [1], engine=None)
    with pytest.raises(TypeError):
        run_trials(workload, scheme, factory, trials=1, cache=None, store=None, engine=None)
    with pytest.raises(TypeError):
        with use_runtime(engine=None):
            pass
    for keyword in ("fast_hashing", "batched", "packed"):
        with pytest.raises(TypeError):
            InteractiveCodingSimulator(workload.protocol, scheme=scheme, **{keyword: False})


def test_cli_engine_flags_translate_to_configs():
    """There is no configuration left to translate to: every ``--engine-*``
    flag is an argparse usage error on every command that took them."""
    from repro.cli import build_parser

    parser = build_parser()
    for argv in (
        ["simulate", "--engine-reference"],
        ["simulate", "--engine-no-packed"],
        ["simulate", "--engine-no-batched-transport"],
        ["table1", "--topologies", "line", "--nodes", "4", "--engine-reference"],
        ["noise-sweep", "--engine-no-fast-hashing"],
        ["simulate", "--engine-no-merge-phases"],
    ):
        with pytest.raises(SystemExit) as excinfo:
            parser.parse_args(argv)
        assert excinfo.value.code == 2  # argparse usage error


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
        seeds = []
        for iteration in (0, 1):
            counter_seed, prefix_seed = source.seeds_for_iteration(iteration, 128, 128)
            seeds += [prefix_seed, counter_seed]
        assert [hex(value) for value in seeds] == [
            "0xc44727dcadd16e91f6e993981618ace7",
            "0x18d3dc56747c4b87268a4669f6dfa7f1",
            "0x6bad427d510ab6b774d01919bbcab1e1",
            "0x86160139d45b59057320912005c8ac54",
        ]

    def test_crs_trial_golden_metrics(self):
        """One noisy CRS trial (corruptions, rewinds, truncations and a full
        recovery), pinned end to end."""
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
