"""The module lists in the package docstring and in the README's Layout block
name exactly the modules under src/wideffn/."""

import re
from pathlib import Path

import wideffn

PACKAGE = Path(wideffn.__file__).resolve().parent
README = Path(__file__).resolve().parents[1] / "README.md"


def test_the_docs_list_every_module_and_no_other():
    on_disk = {path.stem for path in PACKAGE.glob("*.py")} - {"__init__"}
    docstring = wideffn.__doc__.split("Modules:\n")[1]
    in_docstring = set(re.findall(r"^    (\w+) ", docstring, re.M))
    layout = README.read_text(encoding="utf-8").split("## Layout\n")[1].split("```")[1]
    in_readme = set(re.findall(r"^  (\w+)\.py ", layout, re.M))
    assert in_docstring == on_disk
    assert in_readme == on_disk
