"""Whole-split byte identity against ``golden_splits.json``.

Every golden case replays splits 0 and 1 through
:meth:`~repro.core.ErrorTypeRun.run_split`, with the split kernel on
and under ``kernel_disabled()``, and compares the SHA-256 of each
canonical split result with the digest recorded before the split
protocol was collapsed onto one implementation.
"""

import pytest

from golden_splits import case_digests, golden_cases, load_golden

GOLDEN = load_golden()


@pytest.mark.parametrize("mode", ("kernel", "reference"))
@pytest.mark.parametrize("case", sorted(golden_cases()))
def test_split_results_match_golden_digests(case, mode):
    digests = case_digests(case, reference=mode == "reference")
    assert digests == GOLDEN["cases"][case][mode]


def test_golden_covers_every_case():
    assert sorted(GOLDEN["cases"]) == sorted(golden_cases())
