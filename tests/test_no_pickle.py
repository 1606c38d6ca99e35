"""Lint guard: nothing under ``src/repro`` imports pickle or names
``allow_pickle``.

Every runtime ships data only — tuples, control messages and the final
operator state of a process or cluster run — so a pickle import is a
wire coming back, not a convenience.  This walks the AST of every module
so the guard runs with tier-1 and in CI.
"""

import ast
from pathlib import Path

import repro

SRC = Path(repro.__file__).resolve().parent
PICKLE_MODULES = {"pickle", "_pickle", "cPickle"}


def _offences(source: str):
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            modules = [node.module or ""]
        else:
            modules = []
        for module in modules:
            if module.split(".")[0] in PICKLE_MODULES:
                yield node.lineno, f"import {module}"
        name = (
            getattr(node, "id", None)  # ast.Name
            or getattr(node, "attr", None)  # ast.Attribute
            or getattr(node, "arg", None)  # ast.arg / ast.keyword
        )
        if name == "allow_pickle":
            yield node.lineno, "allow_pickle"


def test_guard_catches_each_form():
    snippet = (
        "import pickle\n"
        "from _pickle import loads\n"
        "def f(*, allow_pickle=False):\n"
        "    return g(allow_pickle=allow_pickle), h.allow_pickle\n"
    )
    found = list(_offences(snippet))
    assert [line for line, _ in found] == [1, 2, 3, 4, 4, 4]


def test_src_has_no_pickle():
    modules = sorted(SRC.rglob("*.py"))
    assert len(modules) > 50
    offences = [
        f"{path.relative_to(SRC.parent)}:{line}: {what}"
        for path in modules
        for line, what in _offences(path.read_text())
    ]
    assert offences == []
