"""The README's examples run as written."""

import re

from tests.conftest import ROOT


def test_library_use_example_runs_from_the_repo_root(monkeypatch, capsys):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library use", 1)[1]
    (example,) = re.findall(r"```python\n(.*?)```", section, re.DOTALL)
    monkeypatch.chdir(ROOT)
    exec(compile(example, "README.md", "exec"), {})
    assert len(capsys.readouterr().out.splitlines()) == 2
