"""The README's Library example runs as written, so the API it shows cannot drift."""

import pathlib
import re

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def test_readme_library_block_runs():
    section = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    block = re.match(r"\s*```python\n(.*?)```", section, re.S)
    assert block, "the Library section opens with a python block"
    exec(compile(block.group(1), f"{README}:Library", "exec"), {})
