from __future__ import annotations

import numpy as np
import pytest

from setinfo import MiRecord, UnknownScheme, demarcken_check, reward


def record(i_xy: float, i_yz: float, i_xz: float, k: int = 1) -> MiRecord:
    return MiRecord(
        k=k, i_xy=i_xy, i_yz=i_yz, i_xz=i_xz,
        i_xy_z=0.0, i_xz_y=0.0, h_x=1.0, h_y=1.0, h_z=1.0, sample_size=10,
    )


class TestDemarckenCheck:
    def test_ordered_values_satisfy(self):
        ok, margins = demarcken_check(record(0.3, 0.2, 0.1))
        assert ok
        assert margins == pytest.approx((0.1, 0.1))

    def test_misordered_values_fail(self):
        ok, margins = demarcken_check(record(0.3, 0.1, 0.2))
        assert not ok
        assert margins == pytest.approx((0.2, -0.1))

    def test_ties_fail_strictly(self):
        ok, margins = demarcken_check(record(0.2, 0.2, 0.2))
        assert not ok
        assert margins == (0.0, 0.0)


class TestReward:
    def test_margin_scheme(self):
        assert reward(record(0.3, 0.2, 0.1), "margin") == pytest.approx(0.1)

    def test_xy_dominance_scheme(self):
        assert reward(record(0.3, 0.1, 0.2), "xy_dominance") == pytest.approx(0.1)

    def test_xy_dominance_tie_not_satisfied(self):
        value = reward(record(0.05, 0.04, 0.05), "xy_dominance")
        assert value == pytest.approx(0.0)
        assert not value > 0

    def test_unknown_scheme(self):
        with pytest.raises(UnknownScheme):
            reward(record(1, 2, 3), "entropy_bonus")

    def test_shift_invariance(self):
        rng = np.random.default_rng(5)
        for scheme in ("margin", "xy_dominance"):
            for _ in range(200):
                vals = rng.normal(size=3)
                base = reward(record(*map(float, vals)), scheme)
                shifted = reward(record(*map(float, vals + 1.0)), scheme)
                assert shifted == pytest.approx(base, abs=1e-12)
