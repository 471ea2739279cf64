"""The README's examples run as written."""

import re

from ecofence.scenario import _CONTROL_KEYS
from tests.conftest import ROOT


def test_library_use_example_runs_from_the_repo_root(monkeypatch, capsys):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library use", 1)[1]
    (example,) = re.findall(r"```python\n(.*?)```", section, re.DOTALL)
    monkeypatch.chdir(ROOT)
    exec(compile(example, "README.md", "exec"), {})
    assert len(capsys.readouterr().out.splitlines()) == 2


def test_control_row_lists_exactly_the_keys_the_loader_accepts():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    (row,) = re.findall(r"^\| `control` \| (.*) \|$", readme, re.MULTILINE)
    assert sorted(re.findall(r"`(\w+)`", row)) == sorted(_CONTROL_KEYS)
