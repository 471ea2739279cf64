"""Byte-identity gate: the CLI's output files for the bundled demos.

The digests pin ``trace.csv`` and ``commands.csv`` of ``run`` and the
output files of ``compare``, seed 42.  A refactor or optimisation must
leave them unchanged; a deliberate behaviour change updates them and
says which bytes changed and why.
"""

import hashlib

import pytest

from ecofence import cli
from tests.conftest import data_path

RUN_DIGESTS = {
    ("demo_ring", "trace.csv"): "2ff0c4b7cafeb61eb4837ef207ccbecf1bc8e728f4a19e1d6294cebc278f6a33",
    ("demo_ring", "commands.csv"): "98d509309486f1c8cd8d1c7cbb75a8be43c35a362bf70f76f7e29669ec1ad288",
    ("demo_slack", "trace.csv"): "b51af7c0ba8891fd2d29777f1b79b341f65fe98a4c9896fa9989a6b18bcbe7e4",
    ("demo_slack", "commands.csv"): "df79d8b3edd136be80190cd0d1c04ba22b731eb60b01e6d37f9b32fc74b215a7",
    ("demo_lifecycle", "trace.csv"): "a73d905e557fcb17701d427927e440df2b927d162b6eb3c9b56bbe654833fac4",
    ("demo_lifecycle", "commands.csv"): "eb7e7b5b04b7af17e3d5a9b67cb001f68fc31c3907478c8bb5f8eec982b46b9e",
}

COMPARE_DIGESTS = {
    "baseline_trace.csv": "766b241eb63ba1180158af9524e160f435052a5b1bc7d05490389daa854bbda2",
    "control_trace.csv": "2ff0c4b7cafeb61eb4837ef207ccbecf1bc8e728f4a19e1d6294cebc278f6a33",
    "control_commands.csv": "98d509309486f1c8cd8d1c7cbb75a8be43c35a362bf70f76f7e29669ec1ad288",
    "summary.json": "d9297bbd6f8a59a66d930c89eb8f04cecaecb081c27b7427dcec532715249218",
}


def sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("demo", ["demo_ring", "demo_slack", "demo_lifecycle"])
def test_run_outputs_match_golden_digests(demo, tmp_path):
    argv = ["run", "--scenario", str(data_path(f"{demo}.json")), "--seed", "42", "--out", str(tmp_path)]
    assert cli.main(argv) == 0
    for name in ("trace.csv", "commands.csv"):
        assert sha256(tmp_path / name) == RUN_DIGESTS[(demo, name)], name


def test_compare_outputs_match_golden_digests(tmp_path):
    argv = ["compare", "--scenario", str(data_path("demo_ring.json")), "--seed", "42", "--out", str(tmp_path)]
    assert cli.main(argv) == 0
    for name, digest in COMPARE_DIGESTS.items():
        assert sha256(tmp_path / name) == digest, name
