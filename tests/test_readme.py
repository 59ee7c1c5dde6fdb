"""README's examples, run as written: the `legarray` commands of its shell
block through `cli.main` in a temporary directory, and its Python block."""

import json
import re
import shlex
from pathlib import Path

import numpy as np

from legarray import images
from legarray.cli import main

README = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")


def _blocks(language):
    return re.findall(rf"^```{language}\n(.*?)^```", README, flags=re.M | re.S)


def _commands(block):
    """(argv, the `# -> ...` line documenting its output or None) per command."""
    commands = []
    for line in block.replace("\\\n", " ").splitlines():
        if line.startswith("legarray "):
            commands.append((shlex.split(line)[1:], None))
        elif line.startswith("# -> ") and commands:
            commands[-1] = (commands[-1][0], line[len("# -> "):])
    return commands


def test_shell_examples(tmp_path, monkeypatch, capsys):
    (block,) = [b for b in _blocks("sh") if "legarray " in b]
    monkeypatch.chdir(tmp_path)
    carrier = images.GrayImage(np.full((243, 243), 128, dtype=np.uint8))
    Path("in.pgm").write_bytes(images.write_pgm(carrier))
    documented = 0
    for argv, result in _commands(block):
        code = main(argv)
        out, err = capsys.readouterr()
        assert (code, err) == (0, ""), argv
        if result is not None:
            # the documented keys, with "..." standing for the rest
            shown = json.loads(result.replace(", ...}", "}"))
            printed = json.loads(out)
            assert {k: printed[k] for k in shown} == shown, argv
            documented += 1
    assert documented == 1
    assert Path("marked.pgm").is_file() and Path("S1.pgm").is_file()


def test_python_example():
    (block,) = _blocks("python")
    exec(compile(block, "README.md", "exec"), {})
