"""Unit tests for channel symbols, corruption classification and statistics."""

from __future__ import annotations

import random

import pytest
from oracle import record_slot

from repro.network.channel import (
    ChannelStats,
    TransmissionContext,
    WindowContext,
    apply_additive_noise,
    classify_corruption,
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


class TestClassification:
    def test_clean(self):
        assert classify_corruption(0, 0) is None
        assert classify_corruption(None, None) is None

    def test_substitution(self):
        assert classify_corruption(0, 1) == "substitution"

    def test_deletion(self):
        assert classify_corruption(1, None) == "deletion"

    def test_insertion(self):
        assert classify_corruption(None, 1) == "insertion"


def _ctx(phase="simulation", sender=0, receiver=1, round_index=0) -> TransmissionContext:
    return TransmissionContext(round_index=round_index, sender=sender, receiver=receiver, phase=phase)


def _record(stats: ChannelStats, ctx: TransmissionContext, sent, received) -> None:
    """Account one slot through the transport's window accounting."""
    window = WindowContext(link=(ctx.sender, ctx.receiver), phase=ctx.phase, base_round=ctx.round_index)
    stats.record_window_packed(window, *pack_symbols([sent]), *pack_symbols([received]))


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
        stats = ChannelStats()
        _record(stats, _ctx(sender=2, receiver=3), 1, 0)
        _record(stats, _ctx(sender=2, receiver=3), 0, 1)
        assert stats.corruptions_by_link == {(2, 3): 2}

    def test_snapshot_keys(self):
        stats = ChannelStats()
        _record(stats, _ctx(), 1, 1)
        snapshot = stats.snapshot()
        assert snapshot["transmissions"] == 1
        assert snapshot["corruptions"] == 0
        assert "noise_fraction" in snapshot


class TestRecordWindow:
    def _window_ctx(self, link=(0, 1), phase="simulation"):
        return WindowContext(link=link, phase=phase, iteration=2, base_round=5)

    def test_counts_one_window_like_per_slot_records(self):
        ctx = self._window_ctx()
        sent = [1, 0, None, 1, None]
        received = [1, 1, None, None, 0]  # clean, substitution, clean, deletion, insertion
        windowed = ChannelStats()
        windowed.record_window_packed(ctx, *pack_symbols(sent), *pack_symbols(received))
        per_slot = ChannelStats()
        for offset, (s, r) in enumerate(zip(sent, received)):
            record_slot(per_slot, ctx.slot(offset), s, r)
        assert windowed == per_slot
        assert windowed.transmissions == 3
        assert windowed.delivered_symbols == 3
        assert windowed.corruptions == 3

    def test_all_silent_window_is_a_no_op(self):
        stats = ChannelStats()
        stats.record_window_packed(self._window_ctx(), 0, 0, 0, 0)
        assert stats == ChannelStats()

    def test_matches_per_slot_on_random_windows(self):
        rng = random.Random(13)
        windowed = ChannelStats()
        per_slot = ChannelStats()
        for index in range(50):
            ctx = WindowContext(
                link=(rng.randint(0, 3), rng.randint(4, 7)),
                phase=rng.choice(["simulation", "meeting_points", "rewind"]),
                iteration=index,
                base_round=3 * index,
            )
            width = rng.randint(0, 10)
            sent = [rng.choice([0, 1, None]) for _ in range(width)]
            received = [rng.choice([0, 1, None]) for _ in range(width)]
            windowed.record_window_packed(ctx, *pack_symbols(sent), *pack_symbols(received))
            for offset, (s, r) in enumerate(zip(sent, received)):
                record_slot(per_slot, ctx.slot(offset), s, r)
        assert windowed == per_slot
