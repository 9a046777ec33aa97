"""Unit tests for channel symbols and statistics."""

from __future__ import annotations

import random

import pytest
from oracle import record_slot

from repro.network.channel import (
    ChannelStats,
    TransmissionContext,
    WindowContext,
    apply_additive_noise,
)
from repro.utils.bitstring import pack_symbols


class TestAdditiveNoise:
    def test_identity_offset(self):
        assert apply_additive_noise(0, 0) == 0
        assert apply_additive_noise(None, 0) is None

    def test_substitution(self):
        assert apply_additive_noise(0, 1) == 1
        assert apply_additive_noise(1, 2) == 0

    def test_deletion(self):
        # 1 + 1 = 2 -> the "no message" symbol
        assert apply_additive_noise(1, 1) is None
        assert apply_additive_noise(0, 2) is None

    def test_insertion(self):
        assert apply_additive_noise(None, 1) == 0
        assert apply_additive_noise(None, 2) == 1

    def test_rejects_bad_offset(self):
        with pytest.raises(ValueError):
            apply_additive_noise(0, 3)

    def test_nonzero_offset_always_changes_symbol(self):
        for sent in (0, 1, None):
            for offset in (1, 2):
                assert apply_additive_noise(sent, offset) != sent


def _ctx(phase="simulation", sender=0, receiver=1, round_index=0) -> TransmissionContext:
    return TransmissionContext(round_index=round_index, sender=sender, receiver=receiver, phase=phase)


def _window_ctx(links, rounds, phase="simulation", iteration=-1, base_round=0) -> WindowContext:
    links = tuple(links)
    index = {link: position for position, link in enumerate(links)}
    return WindowContext(links, index, rounds, phase, iteration, base_round)


def _record(stats: ChannelStats, ctx: TransmissionContext, sent, received) -> None:
    """Account one slot through the transport's window accounting."""
    window = _window_ctx([(ctx.sender, ctx.receiver)], 1, ctx.phase, base_round=ctx.round_index)
    stats.record_window(window, *pack_symbols([sent]), *pack_symbols([received]))


class TestChannelStats:
    def test_counts_transmissions_and_corruptions(self):
        stats = ChannelStats()
        _record(stats, _ctx(), 1, 1)
        _record(stats, _ctx(), 1, 0)
        _record(stats, _ctx(), 0, None)
        _record(stats, _ctx(), None, 1)
        assert stats.transmissions == 3  # the insertion slot carried no sent symbol
        assert stats.substitutions == 1
        assert stats.deletions == 1
        assert stats.insertions == 1
        assert stats.corruptions == 3

    def test_noise_fraction(self):
        stats = ChannelStats()
        assert stats.noise_fraction() == 0.0
        for _ in range(9):
            _record(stats, _ctx(), 1, 1)
        _record(stats, _ctx(), 1, 0)
        assert stats.noise_fraction() == pytest.approx(0.1)

    def test_per_phase_accounting(self):
        stats = ChannelStats()
        _record(stats, _ctx(phase="meeting_points"), 1, 1)
        _record(stats, _ctx(phase="simulation"), 1, 0)
        assert stats.transmissions_by_phase == {"meeting_points": 1, "simulation": 1}
        assert stats.corruptions_by_phase == {"simulation": 1}

    def test_per_link_accounting(self):
        """The corrupted plane names the corrupted links: two slots on link
        ``(2, 3)``, none on ``(0, 1)``."""
        ctx = _window_ctx([(0, 1), (2, 3)], 2)
        stats = ChannelStats()
        corrupted = stats.record_window(ctx, *pack_symbols([1, 1, 1, 0]), *pack_symbols([1, 1, 0, 1]))
        assert ctx.link_positions(corrupted) == [1]
        assert stats.corruptions == 2

    def test_snapshot_keys(self):
        stats = ChannelStats()
        _record(stats, _ctx(), 1, 1)
        snapshot = stats.snapshot()
        assert snapshot["transmissions"] == 1
        assert snapshot["corruptions"] == 0
        assert "noise_fraction" in snapshot


class TestRecordWindow:
    _LINKS = ((0, 1), (1, 0), (1, 2), (2, 1))

    def test_counts_one_window_like_per_slot_records(self):
        ctx = _window_ctx(self._LINKS[:2], 3, iteration=2, base_round=5)
        # link (0, 1): clean, substitution, clean; link (1, 0): deletion,
        # insertion, clean
        sent = [1, 0, None, 1, None, 0]
        received = [1, 1, None, None, 0, 0]
        windowed = ChannelStats()
        corrupted = ctx.link_positions(
            windowed.record_window(ctx, *pack_symbols(sent), *pack_symbols(received))
        )
        per_slot = ChannelStats()
        for position, (s, r) in enumerate(zip(sent, received)):
            record_slot(per_slot, ctx.slot(position), s, r)
        assert windowed == per_slot
        assert corrupted == [0, 1]
        assert windowed.transmissions == 4
        assert windowed.delivered_symbols == 4
        assert windowed.corruptions == 3

    def test_all_silent_window_is_a_no_op(self):
        stats = ChannelStats()
        ctx = _window_ctx(self._LINKS, 5)
        assert ctx.link_positions(stats.record_window(ctx, 0, 0, 0, 0)) == []
        assert stats == ChannelStats()

    def test_matches_per_slot_on_random_windows(self):
        rng = random.Random(13)
        windowed = ChannelStats()
        per_slot = ChannelStats()
        for index in range(50):
            links = rng.sample(self._LINKS, rng.randint(1, len(self._LINKS)))
            rounds = rng.randint(0, 6)
            ctx = _window_ctx(
                links, rounds, rng.choice(["simulation", "meeting_points", "rewind"]),
                iteration=index, base_round=3 * index,
            )
            width = len(links) * rounds
            sent = [rng.choice([0, 1, None]) for _ in range(width)]
            received = [rng.choice([0, 1, None]) for _ in range(width)]
            corrupted = ctx.link_positions(
                windowed.record_window(ctx, *pack_symbols(sent), *pack_symbols(received))
            )
            changed = set()
            for position, (s, r) in enumerate(zip(sent, received)):
                record_slot(per_slot, ctx.slot(position), s, r)
                if s != r:
                    changed.add(position // rounds)
            assert corrupted == sorted(changed)
        assert windowed == per_slot
