"""The README's library example runs as written."""

from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_library_example_runs():
    # A deleted or renamed public name must not leave the docs broken.
    library = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    block = library.split("```python\n", 1)[1].split("```", 1)[0]
    assert "segre_towers" in block
    exec(compile(block, str(README), "exec"), {})
