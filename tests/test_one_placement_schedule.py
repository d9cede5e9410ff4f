"""One placement schedule in ``src/metaform``.

Every 3D ranker must place trial t as the rank oracle's trial t does, so
``rigidity.Placements`` is the only code that draws from a
``random.Random`` for placements and the only code that rejects
``trials`` below 1.  This test parses each module with ``ast`` and names
where each happens.  The exceptions are ``generate.py``'s graph
generator, which draws graphs, not placements, and ``cli.py``'s
``--trials`` message, which names the option.  So a later ranker cannot
grow its own stream or its own check.
"""
import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "metaform"
MESSAGE = "trials must be >= 1"


def owner_of(top: ast.stmt) -> str:
    return getattr(top, "name", "<module>")


def random_calls(source: str) -> list[str]:
    """The top-level class or function of each call into the ``random``
    module, and of each import from it."""
    found = []
    for top in ast.parse(source).body:
        for node in ast.walk(top):
            drawn = (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id == "random"
            )
            if drawn or (isinstance(node, ast.ImportFrom) and node.module == "random"):
                found.append(owner_of(top))
    return found


def trial_checks(source: str) -> list[str]:
    """The top-level class or function of each string that holds the
    ``trials`` message."""
    return [
        owner_of(top)
        for top in ast.parse(source).body
        for node in ast.walk(top)
        if isinstance(node, ast.Constant) and isinstance(node.value, str) and MESSAGE in node.value
    ]


def sites(find) -> list[tuple[str, str]]:
    return [
        (path.name, owner)
        for path in sorted(SRC.glob("*.py"))
        for owner in find(path.read_text())
    ]


def test_only_placements_draw_from_a_random_stream():
    assert sites(random_calls) == [("generate.py", "_grown"), ("rigidity.py", "Placements")]


def test_only_placements_reject_trials_below_one():
    assert sites(trial_checks) == [("cli.py", "main"), ("rigidity.py", "Placements")]


@pytest.mark.parametrize(
    "source",
    [
        "import random\ndef ranker(seed):\n    rng = random.Random(seed)",
        "import random\nclass Ranker:\n    def trial(self):\n        return random.randint(1, 9)",
        "from random import Random\n",
    ],
    ids=["own-stream", "module-draw", "from-import"],
)
def test_guard_names_each_stream(source):
    assert len(random_calls(source)) == 1


def test_guard_names_each_check():
    source = (
        "def ranker(trials):\n    if trials < 1:\n"
        "        raise InputError('trials must be >= 1')\n"
    )
    assert trial_checks(source) == ["ranker"]
    assert random_calls("import random\ndef f(rng: random.Random):\n    pass\n") == []
