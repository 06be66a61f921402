"""README's library example runs as written."""

import pathlib
import re

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_block_runs(capsys):
    (block,) = re.findall(r"```python\n(.*?)```", README.read_text(), flags=re.S)
    exec(compile(block, str(README), "exec"), {})
    assert capsys.readouterr().out.startswith("scheme,n,l1,l2,linf,n_paths\n")
