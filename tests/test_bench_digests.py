"""The benchmark's outputs at seed 7 stay byte for byte what they were.

``perfbench/run.py`` prints a SHA-256 digest of every operation's canonical
output (first pass) to stderr, and its verdict against the known answers as
the last stdout line.  A change that speeds a workload up must leave both
as they are: a reduced Groebner basis, a verdict and its witness are unique.
"""

import json
import pathlib
import re
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent

PINNED = {
    "strict_ci": "be5b1020c5d2abb1dbbc21bda09739915a456c4790de6896dee624bff6f67dac",
    "descent": "3bf5fcf8f4d3814dcf1e160ae394250583973313ab9f8ff1a17bec202b9af1ea",
    "membership": "761160f530095e9ed992dc01fb5a16e0a3420a3d00e0ae3821b72182dc77690e",
}


@pytest.mark.parametrize("workload", sorted(PINNED))
def test_seed_7_digest(workload):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "0", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    assert report["correct"] is True, proc.stderr
    assert report["failed"] == 0, proc.stderr
    digest = re.search(r"^%s: digest ([0-9a-f]{64})," % workload, proc.stderr, re.M)
    assert digest, proc.stderr
    assert digest.group(1) == PINNED[workload]
