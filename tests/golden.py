"""The golden table of the solver's own numbers, and the script that writes it.

golden.csv holds, for each shipped preset and the benchmark's long-memory
config, every row that `fracldg run --deterministic` writes to the study's
CSV: the parameter label, the error (or condition number) at 11
significant digits and the rate at 4 decimals. test_golden.py reruns the
13 studies and compares their numbers with the table, which the presets'
expect blocks (5 digits at error_rtol 0.05) cannot do.

A change that moves a number on purpose regenerates the table with

    PYTHONPATH=src python tests/golden.py

and lists every moved value in CHANGES.md. Nothing else writes the table.
"""

from __future__ import annotations

import csv
import sys
import tempfile
from pathlib import Path

from fracldg.cli import main, presets_dir

TABLE = Path(__file__).resolve().parent / "golden.csv"
HEADER = ("study", "param", "error", "rate")

#: The 12 shipped presets by name, then the benchmark's own config by path.
STUDIES = tuple(p.stem for p in sorted(presets_dir().glob("*.yaml"))) + (
    str(TABLE.parents[1] / "perfbench" / "configs" / "long-memory.yaml"),
)


def run_studies(out: Path) -> list[tuple[str, str, str, str]]:
    """Run every study through main(["run", ..., "--deterministic"]) into
    out and return the (study, param, error, rate) rows of their CSVs, as
    the CSVs spell them."""
    rows = []
    for config in STUDIES:
        if main(["run", "--config", config, "--out", str(out), "--deterministic"]) != 0:
            raise RuntimeError(f"fracldg run --config {config} failed")
        study = Path(config).stem
        lines = (out / f"{study}.csv").read_text(encoding="utf-8").splitlines()
        assert lines[0] == "param,error,rate", lines[0]
        rows += [(study, *line.rsplit(",", 2)) for line in lines[1:]]
    return rows


def read_table() -> list[tuple[str, str, str, str]]:
    with open(TABLE, encoding="utf-8", newline="") as fh:
        header, *rows = csv.reader(fh)
    assert tuple(header) == HEADER, header
    return [tuple(row) for row in rows]


def write_table(rows) -> None:
    with open(TABLE, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(HEADER)
        writer.writerows(rows)


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as out:
        rows = run_studies(Path(out))
    write_table(rows)
    print(f"wrote {len(rows)} rows of {len(STUDIES)} studies to {TABLE}", file=sys.stderr)
