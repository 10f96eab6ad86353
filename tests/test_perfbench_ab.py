"""The paired A/B tool's per-metric verdict (``tools/perfbench_ab.py``).

Hand-made samples, one per outcome, for a lower-is-better metric with
a 10% bound unless stated.  ``quartiles`` is the tool's own (the
exclusive method of :func:`statistics.quantiles`).
"""

from __future__ import annotations

import importlib.util
import os

import pytest

_PATH = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "tools", "perfbench_ab.py",
)
_spec = importlib.util.spec_from_file_location("perfbench_ab", _PATH)
ab = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab)

#: a steady parent: median 100, quartiles 99 / 101 (IQR 2)
BASE = [98.0, 99.0, 99.0, 100.0, 100.0, 100.0, 100.0, 101.0, 101.0, 102.0]


def _verdict(base, head, better="lower", bound=0.1, **failed):
    return ab.verdict(base, head, better=better, bound=bound, **failed)


class TestVerdict:
    def test_gain(self):
        head = [b - 10.0 for b in BASE]
        assert _verdict(BASE, head) == "gain"

    def test_gain_nine_of_ten(self):
        head = [b - 10.0 for b in BASE]
        head[3] = BASE[3] + 1.0  # one lost pair
        assert ab.pair_wins(BASE, head, "lower") == 9
        assert _verdict(BASE, head) == "gain"

    def test_gain_higher_is_better(self):
        head = [b + 10.0 for b in BASE]
        assert _verdict(BASE, head, better="higher") == "gain"

    def test_eight_wins_is_no_gain(self):
        head = [b - 5.0 for b in BASE]
        head[0] = head[1] = 200.0
        assert ab.pair_wins(BASE, head, "lower") == 8
        assert _verdict(BASE, head) == "no regression"

    def test_median_gap_within_iqr_is_no_gain(self):
        head = [b - 1.0 for b in BASE]  # 10/10 wins, gap 1 < IQR 2
        assert _verdict(BASE, head) == "no regression"

    def test_more_failures_forfeit_the_gain(self):
        head = [b - 10.0 for b in BASE]
        assert _verdict(BASE, head, base_failed=0.0, head_failed=0.01) == (
            "no regression"
        )
        assert _verdict(BASE, head, base_failed=0.02, head_failed=0.01) == (
            "gain"
        )

    def test_regression(self):
        head = [b * 1.2 for b in BASE]
        assert _verdict(BASE, head) == "regression"
        assert _verdict(BASE, [b * 0.8 for b in BASE], better="higher") == (
            "regression"
        )

    def test_worse_within_bound_is_no_regression(self):
        head = [b * 1.05 for b in BASE]
        assert _verdict(BASE, head) == "no regression"

    def test_unresolved(self):
        noisy = [60.0, 80.0, 90.0, 95.0, 100.0, 100.0, 105.0, 110.0, 120.0,
                 140.0]
        head = [b * 1.02 for b in noisy]
        assert _verdict(noisy, head) == "unresolved"

    def test_noisy_base_but_every_head_run_better(self):
        """A spread wider than the bound is not unresolved when every run
        of the change beats every run of the parent."""

        noisy = [80.0, 85.0, 90.0, 95.0, 100.0, 100.0, 105.0, 110.0, 115.0,
                 120.0]  # median 100, IQR 22.5 > the 10% bound
        assert _verdict(noisy, [79.0] * 10) == "no regression"
        # the same, but with a median gap beyond the IQR: a gain
        assert _verdict(noisy, [70.0] * 10) == "gain"

    @pytest.mark.parametrize("better", ["lower", "higher"])
    def test_identical_runs(self, better):
        assert _verdict(BASE, list(BASE), better=better) == "no regression"


class TestFailedShare:
    def test_pools_runs(self):
        runs = [{"attempted": 10, "failed": 1}, {"attempted": 30, "failed": 1}]
        assert ab.failed_share(runs) == 2 / 40

    def test_no_attempts(self):
        assert ab.failed_share([{"metrics": {}}]) == 0.0
