"""Every narrative script in demos/ runs to completion against the package."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))
# demo -> sha256 of its stdout: the Gibbs demo draws its one full sweep itself
STDOUT_DIGESTS = {
    "gibbs_sampler_certificates": "893cce0fbedaf99e24abda3af539236c0dcad12cebded4c3dabbb2789009c8be",
}


def test_demos_exist():
    assert DEMOS


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_exits_zero(demo, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(demo)], cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    if demo.stem in STDOUT_DIGESTS:
        assert hashlib.sha256(proc.stdout.encode()).hexdigest() == STDOUT_DIGESTS[demo.stem], proc.stdout
