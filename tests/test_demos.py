"""The demos print fixed bytes: each one's stdout is pinned by its sha256.

The digests are the same on CPython 3.10 through 3.13.  A change to a demo's
output is a change to what the library computes or prints, so a digest is
updated only together with a note of why the bytes moved.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

DEMO_SHA256 = {
    "01_partitions_and_dominance.py": "8fd091e52a6ef35fb3d3805f00d93ded5eae9056afb90986a9454b351dbcdc5d",
    "02_representations_and_orbits.py": "84b7803f6d1666ccd04843860767eca6723d634cc7703b09ae02d38bbd61d202",
    "03_dimension_equation.py": "323d59a2cfcf8b8911318959ce9d5380b68a94431aac3062c80c6d28c0931800",
    "04_verifiers.py": "1420144f8856518c73d7ca396120b72264a9b42ac46d4b05f5a431f4e0de6016",
    "05_vanishing_verdicts.py": "5300e82f47f4bc3424b20e496193225180ed54aa7e9c377021e1d7b0772825cb",
}


def test_every_demo_is_pinned():
    assert sorted(p.name for p in (ROOT / "demos").glob("*.py")) == sorted(DEMO_SHA256)


@pytest.mark.parametrize("name", sorted(DEMO_SHA256))
def test_demo_stdout_bytes(name):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / name)],
        capture_output=True, env=env, cwd=ROOT, timeout=120, check=False,
    )
    assert proc.returncode == 0, proc.stderr.decode(errors="replace")
    assert hashlib.sha256(proc.stdout).hexdigest() == DEMO_SHA256[name]
