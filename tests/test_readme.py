"""The README's examples run as written."""

import re
import shlex

from ecofence.cli import main
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


def test_command_line_examples_run_as_written(tmp_path, monkeypatch, capsys):
    # the lines run from the repo root, writing under a temporary out/, and
    # problem.json is the README's own problem example; --jobs 4 starts
    # four workers
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Command line", 1)[1].split("\n## ", 1)[0]
    block, problem = re.findall(r"```(?:json)?\n(.*?)```", section, re.DOTALL)
    (tmp_path / "problem.json").write_text(problem, encoding="utf-8")
    monkeypatch.chdir(ROOT)
    lines = block.splitlines()
    assert [line.split()[:2] for line in lines] == [
        ["ecofence", "run"],
        ["ecofence", "compare"],
        ["ecofence", "sweep"],
        ["ecofence", "solve-debug"],
    ]
    for line in lines:
        argv = [
            str(tmp_path / word) if word in ("out/", "problem.json") else word
            for word in shlex.split(line)[1:]
        ]
        assert main(argv) == 0, line
    assert (tmp_path / "out" / "sweep_summary.json").exists()
    assert "objective" in capsys.readouterr().out
