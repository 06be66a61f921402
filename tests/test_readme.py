"""README's library example and CLI examples run as written."""

import pathlib
import re
import shlex

from qpisde.cli import main

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_block_runs(capsys):
    (block,) = re.findall(r"```python\n(.*?)```", README.read_text(), flags=re.S)
    exec(compile(block, str(README), "exec"), {})
    assert capsys.readouterr().out.startswith("scheme,n,l1,l2,linf,n_paths\n")


def test_readme_cli_block_runs(tmp_path):
    (block,) = re.findall(r"## CLI\n\n```sh\n(.*?)```", README.read_text(), flags=re.S)
    commands = [shlex.split(line, comments=True) for line in block.replace("\\\n", " ").splitlines()]
    assert len(commands) >= 4 and all(c[0] == "qpisde" for c in commands)
    for argv in commands:
        k = argv.index("-o")
        argv[k + 1] = str(tmp_path / argv[k + 1])
        assert main(argv[1:]) == 0, argv
        assert (tmp_path / argv[k + 1]).stat().st_size > 0
