"""The solver's own numbers against the golden table (golden.py).

Every error is compared at a relative tolerance of 1e-9, well above the
CSV's rounding (5e-11 at 11 significant digits) and far below any change
of the scheme; every rate within one unit of its 4th decimal. A PR that
moves a number on purpose regenerates the table with tests/golden.py.
"""

from __future__ import annotations

import pytest

import fracldg.cli
from golden import STUDIES, read_table, run_studies


def _units(rate: str) -> int:
    """A rate as the CSV spells it, in units of its 4th decimal."""
    return round(float(rate) * 1e4)


@pytest.mark.filterwarnings("ignore:central flux weight")  # table5-central-a03's flux
def test_solver_numbers_match_the_golden_table(tmp_path, monkeypatch):
    for var in fracldg.cli._THREAD_VARS:  # main pins them; restored afterwards
        monkeypatch.setenv(var, "1")
    got, want = run_studies(tmp_path), read_table()
    assert len({row[0] for row in want}) == len(STUDIES) == 13
    assert [row[:2] for row in got] == [row[:2] for row in want]
    moved = []
    for (study, param, error, rate), (_, _, error0, rate0) in zip(got, want):
        e, e0 = float(error), float(error0)
        if not abs(e - e0) <= 1e-9 * abs(e0):
            moved.append(f"{study} {param}: error {error} (table {error0})")
        if (rate == "") != (rate0 == "") or rate and abs(_units(rate) - _units(rate0)) > 1:
            moved.append(f"{study} {param}: rate {rate!r} (table {rate0!r})")
    assert not moved, "\n".join(moved)
