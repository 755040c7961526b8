"""The package holds what it runs: every name it defines is used."""

import ast
import sys
from pathlib import Path

import averager
from test_cli import run_fresh

PACKAGE = Path(averager.__file__).resolve().parent


def defined_and_loaded(root):
    """The top-level definitions of each module under root, as (module,
    name) pairs, and every name the modules load, as a bare name or as an
    attribute."""
    defined, loaded = [], set()
    for path in sorted(root.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.append((path.stem, node.name))
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = (node.targets if isinstance(node, ast.Assign)
                           else [node.target])
                defined += [(path.stem, name.id) for target in targets
                            for name in ast.walk(target)
                            if isinstance(name, ast.Name)]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                loaded.add(node.id)
            elif isinstance(node, ast.Attribute):
                loaded.add(node.attr)
    return defined, loaded


def test_every_top_level_name_is_used_or_exported():
    """Every top-level function, class and constant of src/averager is
    loaded somewhere in the package or listed in averager.__all__; dunder
    names such as __all__ and __version__ are the module protocol's. A
    formula that only the tests read belongs with them, as the reference
    derivation in tests/reference.py does."""
    defined, loaded = defined_and_loaded(PACKAGE)
    assert len(defined) > 50, defined
    used = loaded | set(averager.__all__)
    unused = [f"{module}.{name}" for module, name in defined
              if name not in used
              and not (name.startswith("__") and name.endswith("__"))]
    assert not unused, unused


def test_exports_resolve_lazily_from_their_modules():
    """Each name of averager.__all__ resolves, on first use, to the object
    its defining module holds; in a new interpreter,
    `from averager import *` binds every one of them, and the benchmark
    child's `from averager import averaging, config, normal_form,
    shooting` imports those modules."""
    for name in averager.__all__:
        value = getattr(averager, name)
        assert getattr(sys.modules[value.__module__], name) is value, name
    done = run_fresh(
        "import types\n"
        "import averager\n"
        "from averager import averaging, config, normal_form, shooting\n"
        "print(all(isinstance(m, types.ModuleType) for m in\n"
        "          (averaging, config, normal_form, shooting)))\n"
        "names = {}\n"
        "exec('from averager import *', names)\n"
        "print(len(averager.__all__),\n"
        "      [name for name in averager.__all__ if name not in names])\n"
    )
    assert done.stdout == f"True\n{len(averager.__all__)} []\n"
