"""Differential references run none of the deciders they check.

Each ``tests/*_reference.py`` keeps a frozen copy of an earlier
decision path.  A reference that imports the live decider from
``metaform`` compares that decider with itself, and its differential
test can no longer fail.  This test parses every reference with ``ast``
and names each such import, whether ``from metaform.m import name`` or
``name`` read as an attribute of a ``metaform`` module.
"""
import ast
from pathlib import Path

import pytest

LIVE_DECIDERS = {
    "_first_nonrigid_terminal_2d",
    "_first_nonrigid_terminal_3d",
    "_decide_merge",
    "_smallest_violating_subset",
    "_counting_screen_3d",
}
REFERENCES = sorted(Path(__file__).parent.glob("*_reference.py"))


def live_imports(source: str) -> list[str]:
    """Each live decider that ``source`` takes from metaform, as written."""
    tree = ast.parse(source)
    found = []
    # Names bound to metaform or one of its modules.
    modules = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "metaform":
            for alias in node.names:
                if alias.name in LIVE_DECIDERS:
                    found.append(f"{node.module}.{alias.name}")
                else:
                    modules.add(alias.asname or alias.name)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "metaform":
                    modules.add(alias.asname or "metaform")
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr in LIVE_DECIDERS:
            base = node.value
            while isinstance(base, ast.Attribute):
                base = base.value
            if isinstance(base, ast.Name) and base.id in modules:
                found.append(ast.unparse(node))
    return found


def test_references_found():
    assert {p.name for p in REFERENCES} >= {
        "persistence_reference.py",
        "fixed_base_reference.py",
        "merge_reference.py",
        "check_meta_reference.py",
    }


@pytest.mark.parametrize("path", REFERENCES, ids=lambda p: p.name)
def test_reference_imports_no_live_decider(path):
    assert live_imports(path.read_text()) == []


@pytest.mark.parametrize(
    "source",
    [
        "from metaform.persistence import TERMINAL_SET_CAP, _first_nonrigid_terminal_2d",
        "from metaform.meta import (\n    merge_bound,\n    _counting_screen_3d as screen,\n)",
        "from metaform import meta\nmeta._decide_merge(m, 2)",
        "import metaform.persistence\nmetaform.persistence._first_nonrigid_terminal_3d",
        "import metaform.meta as m\nm._smallest_violating_subset(x, 2)",
    ],
    ids=["from-import", "from-import-as", "module-attribute", "dotted-import", "import-as"],
)
def test_guard_names_each_import_form(source):
    assert len(live_imports(source)) == 1


def test_guard_passes_own_copies():
    source = (
        "from fixed_base_reference import _first_nonrigid_terminal_3d\n"
        "def _decide_merge(meta, dim):\n    return _counting_screen_3d(meta, 6)\n"
    )
    assert live_imports(source) == []
