import doctest
from pathlib import Path


def test_readme_library_example_runs():
    readme = Path(__file__).resolve().parents[1] / "README.md"
    result = doctest.testfile(str(readme), module_relative=False)
    assert result.attempted == 10
    assert result.failed == 0
