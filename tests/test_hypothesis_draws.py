"""tools/hypothesis_draws.py: the examples of a verbose Hypothesis run."""

import hashlib
import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "hypothesis_draws.py"
_spec = importlib.util.spec_from_file_location("hypothesis_draws", TOOL)
hypothesis_draws = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(hypothesis_draws)

OUTPUT = """tests/test_a.py ..Trying example: test_f(
    x=2,
    y=-1,
)
Trying example: test_f(
    x=0,
    y=0,
)
.printed by a test
Trying example: test_g(n=3)
...
3 passed in 0.50s
"""

EXAMPLES = [
    "Trying example: test_f(\n    x=2,\n    y=-1,\n)",
    "Trying example: test_f(\n    x=0,\n    y=0,\n)",
    "Trying example: test_g(n=3)",
]


def test_examples_run_from_the_mark_to_the_closing_parenthesis():
    assert hypothesis_draws.examples(OUTPUT) == EXAMPLES


def test_digest_of_a_fixed_output():
    count, sha = hypothesis_draws.digest(OUTPUT)
    assert count == 3
    assert sha == hashlib.sha256("\n".join(EXAMPLES).encode()).hexdigest()
    assert sha == ("30f10afbdd7d5fce77c733278388be77"
                   "de87d46ebd7b466e17cd875835896f39")


def test_a_run_that_did_not_happen_prints_no_digest(monkeypatch, capsys):
    """pytest's status 2 or higher goes to stderr, with no count and no
    digest; a run whose tests ran, passing or failing, is counted."""
    statuses = iter([4, 1])

    def fake_run(args, **kwargs):
        assert args[1:4] == ["-m", "pytest", "-q"]
        return hypothesis_draws.subprocess.CompletedProcess(
            args, next(statuses), stdout=OUTPUT)

    monkeypatch.setattr(hypothesis_draws.subprocess, "run", fake_run)
    assert hypothesis_draws.main(["tests/test_a.py"]) == 4
    printed = capsys.readouterr()
    assert printed.out == ""
    assert printed.err == "pytest exited with status 4\n"
    assert hypothesis_draws.main(["tests/test_a.py"]) == 1
    printed = capsys.readouterr()
    assert printed.out.splitlines()[0] == "examples  3"
    assert printed.err == ""
