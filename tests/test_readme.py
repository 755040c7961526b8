"""The README's Python examples run as written, and its entry-point list
matches the package root."""

import re
from pathlib import Path

import averager

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_python_blocks_run_in_order():
    """Every ```python block of the README runs, in order, in one
    namespace, as a reader would paste them one after another."""
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(),
                        flags=re.MULTILINE | re.DOTALL)
    assert len(blocks) == 3
    namespace = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)
    minus = namespace["minus"]
    assert (minus.seed_candidate, minus.returns) == ("mirror", 1)


def test_lower_level_entry_points_are_re_exported():
    """Every name in averager.__all__ resolves, and every entry point the
    README's "Lower-level entry points" paragraph names in backticks (a
    lowercase identifier; `Dg` and the like are formulas) is one of them,
    as the paragraph's closing sentence says."""
    for name in averager.__all__:
        assert hasattr(averager, name), name
    text = README.read_text()
    start = text.index("Lower-level entry points:")
    end = text.index("re-exported from the package root.", start)
    names = re.findall(r"`([a-z_][a-z0-9_]*)`", text[start:end])
    assert len(names) >= 10, names
    assert set(names) <= set(averager.__all__), (
        sorted(set(names) - set(averager.__all__)))
