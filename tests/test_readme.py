"""The README's examples run as written."""

from pathlib import Path

from segre_towers import flag_tower
from segre_towers.cli import load_tower_spec, main

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_library_example_runs():
    # A deleted or renamed public name must not leave the docs broken.
    library = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    block = library.split("```python\n", 1)[1].split("```", 1)[0]
    assert "segre_towers" in block
    exec(compile(block, str(README), "exec"), {})


def test_readme_spec_file_example_is_the_flag_tower(tmp_path, capsys):
    # The README says its spec file describes the flag tower for k = 2.
    section = README.read_text(encoding="utf-8").split("\n### Tower spec files\n", 1)[1]
    text = section.split("```json\n", 1)[1].split("```", 1)[0]
    path = tmp_path / "flag2.json"
    path.write_text(text, encoding="utf-8")
    assert load_tower_spec(str(path)) == flag_tower(2)
    tables = []
    for method in ("closed", "stepwise"):
        assert main(["tower-segre", str(path), "--orders", "2,2", "--method", method]) == 0
        tables.append(capsys.readouterr().out)
    assert tables[0] == tables[1]
    assert len(tables[0].splitlines()) > 1  # a header and at least one row
