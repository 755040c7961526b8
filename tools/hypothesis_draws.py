"""Count and fingerprint the examples that Hypothesis draws in a test run.

Runs pytest with --hypothesis-verbosity=verbose -s and the given
arguments, and prints the number of examples the run tried and the
sha256 of their text. An example is the 'Trying example:' line that
Hypothesis prints and its argument lines through the closing
parenthesis. The suite's property tests are derandomized, so two trees
that print the same count and digest drew the same examples in the same
order, and a change that moves a draw changes the digest.

Usage: python tools/hypothesis_draws.py [PYTEST ARGS]

The exit status is pytest's. When pytest could not run the tests
(status 2 or higher: interrupted, an internal or usage error, or no
tests collected), its status goes to stderr and no count or digest is
printed, since the examples of a run that did not happen fingerprint
nothing.
"""

from __future__ import annotations

import hashlib
import subprocess
import sys

MARK = "Trying example:"


def examples(text: str) -> list[str]:
    """The examples in verbose Hypothesis output, each as its text from the
    mark through its closing parenthesis. Output printed on the same line
    before the mark, such as pytest's progress dots under -s, is left
    out."""
    found, block = [], None
    for line in text.splitlines():
        if MARK in line:
            block = [line[line.index(MARK):]]
            found.append(block)
            if not line.endswith("("):  # the arguments fit on one line
                block = None
        elif block is not None:
            block.append(line)
            if line == ")":
                block = None
    return ["\n".join(lines) for lines in found]


def digest(text: str) -> tuple[int, str]:
    """(number of examples, sha256 of their text joined by newlines)."""
    found = examples(text)
    return len(found), hashlib.sha256("\n".join(found).encode()).hexdigest()


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "--hypothesis-verbosity=verbose",
         "-s", *args],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    if run.returncode >= 2:
        print(f"pytest exited with status {run.returncode}", file=sys.stderr)
        return run.returncode
    count, sha = digest(run.stdout)
    print(f"examples  {count}")
    print(f"sha256  {sha}")
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
