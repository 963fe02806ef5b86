"""Documentation stays executable: every documented command must run."""

import re
import shlex
from pathlib import Path

import pytest

from mqap import parse_instance
from mqap.cli import RUN_OPTIONS, build_parser, main

REPO = Path(__file__).resolve().parent.parent
DOC_FILES = [REPO / "README.md", *sorted((REPO / "docs").glob("*.md"))]


def _fenced_blocks(text: str, language: str) -> list[str]:
    return re.findall(rf"```{language}\n(.*?)```", text, flags=re.DOTALL)


def _command_lines(path: Path) -> list[str]:
    lines = []
    for block in _fenced_blocks(path.read_text(encoding="utf-8"), "bash"):
        for line in block.splitlines():
            line = line.strip()
            if line.startswith("mqap "):
                lines.append(line)
    return lines


@pytest.mark.parametrize("doc", DOC_FILES, ids=lambda p: p.name)
def test_documented_commands_run(doc, tmp_path, monkeypatch, capsys):
    commands = _command_lines(doc)
    if not commands:
        pytest.skip(f"{doc.name} documents no commands")
    monkeypatch.chdir(tmp_path)
    for command in commands:
        argv = shlex.split(command)[1:]
        assert main(argv) == 0, f"documented command failed: {command}"
    capsys.readouterr()


def test_instance_format_example_parses():
    text = (REPO / "docs" / "instance-format.md").read_text(encoding="utf-8")
    example = _fenced_blocks(text, "text")[0]
    inst = parse_instance(example)
    assert inst.n == 2 and inst.m == 1 and inst.name == "tiny"


def _run_table_rows(text: str) -> list[tuple[str, str]]:
    """(flag, config key) of every row in the `mqap run` table."""
    section = text.split("## `mqap run`", 1)[1].split("\n## ", 1)[0]
    return re.findall(r"^\| `(--[a-z-]+)` \| `?([a-z_-]+)`? \|", section, flags=re.MULTILINE)


def test_config_reference_lists_every_run_flag():
    text = (REPO / "docs" / "config-reference.md").read_text(encoding="utf-8")
    parser = build_parser()
    (subparsers,) = [a for a in parser._actions if hasattr(a, "choices") and a.choices]
    for name, sub in subparsers.choices.items():
        for action in sub._actions:
            for flag in action.option_strings:
                if flag in ("-h", "--help"):
                    continue
                assert flag in text, f"{name} flag {flag} missing from config reference"
    # The other direction: every documented `run` row names a live flag and key.
    run_flags = {f for a in subparsers.choices["run"]._actions for f in a.option_strings}
    rows = _run_table_rows(text)
    assert len(rows) == len(RUN_OPTIONS) + 1  # plus --config, which has no key
    for flag, key in rows:
        assert flag in run_flags, f"documented flag {flag} is not a run flag"
        if flag != "--config":
            assert key in RUN_OPTIONS, f"documented config key {key} is not a run option"
            assert flag == "--" + key.replace("_", "-")


def test_reproduction_guide_includes_oracle_experiment():
    text = (REPO / "docs" / "reproduction.md").read_text(encoding="utf-8")
    assert "mqap enumerate" in text
    assert re.search(r"mqap run .*--generations 50 .*--population 20", text)
