import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def library_example() -> str:
    """The fenced python block of the README's `## Library` section."""
    section = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    section = section.split("\n## ", 1)[0]
    match = re.search(r"^```python\n(.*?)^```$", section, re.M | re.S)
    assert match, "no python block under ## Library"
    return match.group(1)


def test_library_example_runs():
    namespace = {}
    exec(compile(library_example(), str(README), "exec"), namespace)
    # the block computes the same set's totals twice, term by term and streamed
    assert namespace["totals"].total == namespace["report"].total
