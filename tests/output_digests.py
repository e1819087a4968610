"""SHA-256 of every file the standard CLI pipeline writes, for byte-identity checks.

The pipeline, run in a temporary directory at one generator size and seed:
``simulate``; ``fit --measures all`` at full precision and with
``--precision 2``; ``breakdown --measures all`` by each of the 15 pupil and
school characteristics; and ``compare`` on all six pairs of the
full-precision school scores. Each written file except ``manifest.json``
(it records wall time and the temporary paths) is printed as
``sha256  relative/path``, sorted by path, so two checkouts can be compared
with ``diff``:

    PYTHONPATH=src python tests/output_digests.py --schools 300 --seed 612

The suite checks the 40-school, seed-0 run against ``pipeline_40_0.sha256``
(``test_cli.py``); other sizes are kept out of it, since a national run
(``--schools 3098 --seed 1``) takes about half a minute.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import sys
import tempfile
from pathlib import Path

from vamkit.categories import PUPIL_CHARACTERISTICS, SCHOOL_CHARACTERISTICS, MeasureKind
from vamkit.cli import run


def run_pipeline(root: Path, schools: int, seed: int) -> None:
    def cli(*argv: str) -> None:
        if run(list(argv)) != 0:
            raise SystemExit(f"vamkit {' '.join(argv)} failed")

    sim = root / "simulate"
    cli("simulate", "--schools", str(schools), "--seed", str(seed), "--out", str(sim))
    cohort = ["--pupils", str(sim / "pupils.csv"), "--schools", str(sim / "schools.csv")]
    cli("fit", *cohort, "--measures", "all", "--out", str(root / "fit"))
    cli("fit", *cohort, "--measures", "all", "--precision", "2", "--out", str(root / "fit_p2"))
    for by in PUPIL_CHARACTERISTICS + SCHOOL_CHARACTERISTICS:
        out = str(root / f"breakdown_{by}")
        cli("breakdown", *cohort, "--measures", "all", "--by", by, "--out", out)
    for a, b in itertools.combinations([kind.code for kind in MeasureKind], 2):
        cli(
            "compare",
            "--scores", str(root / "fit" / f"school_scores_{a}.csv"),
            "--scores", str(root / "fit" / f"school_scores_{b}.csv"),
            "--out", str(root / f"compare_{a}_{b}"),
        )


def digests(root: Path) -> list[str]:
    return [
        f"{hashlib.sha256(path.read_bytes()).hexdigest()}  {path.relative_to(root).as_posix()}"
        for path in sorted(root.rglob("*"))
        if path.is_file() and path.name != "manifest.json"
    ]


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--schools", type=int, default=40)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        run_pipeline(Path(tmp), args.schools, args.seed)
        lines = digests(Path(tmp))
    sys.stdout.write("".join(line + "\n" for line in lines))


if __name__ == "__main__":
    main()
