"""Every checked-in output under tests/data, each named by one row.

A row is an `infnet` command line, with `{data}` for tests/data and `{out}`
for a directory of written files, its exit code and the file of its
expected stdout (None: empty).  A file written as `{out}/NAME` must equal
tests/data/NAME byte for byte, stderr must stay empty and each written SVG
must parse as XML.  tests/test_cli.py runs the rows through `cli.main`;
`python tests/golden.py` runs them through the `infnet` on PATH, with
INFNET_SEED unset, and exits 1 if any differs.
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile
import xml.dom.minidom
from pathlib import Path
from typing import Callable, Optional

DATA = Path(__file__).parent / "data"
OUT = "{out}/"

ROWS: list[tuple[str, int, Optional[str]]] = [
    ("validate {data}/cyclic.net", 1, "cyclic.validate.out"),
    ("validate {data}/cycle_tail.net", 1, "cycle_tail.validate.out"),
    ("validate {data}/degree.net", 1, "degree.validate.out"),
    ("validate {data}/repeated.net", 1, "repeated.validate.out"),
    ("validate {data}/two_chains.net", 1, "two_chains.validate.out"),
    ("quantify {data}/ladder.net --chain P --pair Q", 0, "ladder.quantify.out"),
    ("quantify {data}/ladder.net --chain Q", 0, "ladder.quantify_q.out"),
    # 1 -> 2 -> 3 -> 1 is a cycle and 4, 6 and 7 lie below it: the first
    # read closes all six through the Kahn leftovers, which no other row
    # reaches.
    ("quantify {data}/cycle_tail.net --chain P --pair Q --force", 0, "cycle_tail.quantify.out"),
    ("quantify {data}/cycle_tail.net --chain Q --force", 0, "cycle_tail.quantify_q.out"),
    ("distance {data}/ladder.net --p-label 3 --q-label 4", 0, "ladder.distance.out"),
    ("interval {data}/ladder.net --a 2 --b 5", 0, "ladder.interval.out"),
    # The rows of a drawing are the events' longest-path depths.  escape.net's
    # chain names hold &, < and >, which the drawing must escape, and U+0001
    # and U+FFFE, which XML forbids even as references.
    ("hasse {data}/ladder.net --svg {out}/ladder.svg", 0, None),
    ("hasse {data}/two_particles.net --svg {out}/two_particles.svg", 0, None),
    ("hasse {data}/restricted.net --svg {out}/restricted.svg", 0, None),
    ("hasse {data}/escape.net --svg {out}/escape.svg", 0, None),
    # Each file fails validation but has no cycle, so --force draws it.
    ("hasse {data}/degree.net --force --svg {out}/degree.force.svg", 0, None),
    ("hasse {data}/repeated.net --force --svg {out}/repeated.force.svg", 0, None),
    ("hasse {data}/two_chains.net --force --svg {out}/two_chains.force.svg", 0, None),
    ("paths --word PQPPQPQ --svg {out}/zigzag.svg", 0, None),
    # m = 2e-400 underflows a float, yet k, the pair and gamma are each the
    # float nearest their exact root, gamma that of (m+n)**2/(4*m*n),
    # checked in Fractions when the file was made.  beta rounds to -1.0
    # there and in transform.fast.out, whose gamma is 5e9.
    ("transform --m 2e-400 --n 1 --pair 1 1", 0, "transform.tiny.out"),
    ("transform --m 1 --n 1e-20 --pair 1 1", 0, "transform.fast.out"),
    # Each component is the float nearest its exact root, 3*sqrt(2) and
    # 5*sqrt(1/2) here and sqrt(2)*1e100 and sqrt(1/2)*1e-100 below, checked
    # in Fractions against the midpoints to its neighbours when the file was
    # made.  Below, m/n = 2e800 is far past float range, but the components
    # and k = sqrt(2) are not; gamma is.
    ("transform --m 2 --n 1 --pair 3 5", 0, "transform.sqrt2.out"),
    ("transform --m 2e400 --n 1e-400 --pair 1e-300 1e300", 0, "transform.wide.out"),
    # The scalar printed is the input pair's exact dp*dq, which a frame change
    # preserves: the product of the two rounded components, sqrt(3) and
    # sqrt(1/3), is 0.9999999999999999.
    ("transform --m 3 --n 1 --pair 1 1", 0, "transform.sqrt3.out"),
    # The README's example: the mass is sqrt(0.5 * 2) = 1.0 exactly.
    ("kinematics --count 4 --dp 8 --dq 2", 0, "kinematics.readme.out"),
    ("propagate --steps 24 --theta 0.3 --initial Q --out {out}/propagate.csv --trace {out}/propagate.trace",
     0, None),
    ("enumerate --p 3 --q 2 --amplitudes 0.3 --initial Q", 0, "enumerate.amplitudes.out"),
    ("simulate --steps 40 --prob-p 0.3 --seed 7 --count 50 --emit-words", 0, "simulate.words.out"),
    ("simulate --steps 1000 --prob-p 0.3 --seed 7 --count 3000", 0, "simulate.totals.out"),
]


def written(command: str) -> list[str]:
    """The names of the files a row's command writes."""
    return [token[len(OUT):] for token in command.split() if token.startswith(OUT)]


def outputs(row) -> list[str]:
    """The checked-in files a row names: its stdout's, then its written files'."""
    command, _, stdout = row
    return ([stdout] if stdout else []) + written(command)


def mismatches(row, run: Callable[[list[str]], tuple[int, bytes, bytes]], out: Path) -> list[str]:
    """How one row's run differs from its files; `run(argv)` gives (exit code, stdout, stderr)."""
    command, code, stdout = row
    argv = [token.format(data=DATA, out=out) for token in command.split()]
    got_code, got_stdout, got_stderr = run(argv)
    found = [f"exit code {got_code}"] if got_code != code else []
    if got_stdout != ((DATA / stdout).read_bytes() if stdout else b""):
        found.append("stdout differs")
    if got_stderr:
        found.append(f"stderr {got_stderr!r}")
    for name in written(command):
        if (out / name).read_bytes() != (DATA / name).read_bytes():
            found.append(f"{name} differs")
        elif name.endswith(".svg"):
            xml.dom.minidom.parse(str(out / name))  # raises on XML that is not well-formed
    return [f"infnet {command}: {line}" for line in found]


def run_installed(argv: list[str]) -> tuple[int, bytes, bytes]:
    env = {key: value for key, value in os.environ.items() if key != "INFNET_SEED"}
    done = subprocess.run(["infnet", *argv], capture_output=True, env=env)
    return done.returncode, done.stdout, done.stderr


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as out:
        found = [line for row in ROWS for line in mismatches(row, run_installed, Path(out))]
    print("\n".join(found) or f"all {len(ROWS)} rows match")
    sys.exit(1 if found else 0)
