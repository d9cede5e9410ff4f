"""The report encoder against ``json.dumps(v, indent=2, sort_keys=True)``.

``cli._encode`` writes reports without the standard library's
pure-Python indented encoder; ``json.dumps`` with the same arguments is
the reference, and the output, or the error raised, must be the same on
any JSON-like value.  ``--format text`` still writes one compact
``json.dumps`` line per top-level key, with the values of the JSON
report.
"""
import contextlib
import io
import json

import pytest
from hypothesis import given, settings, strategies as st

from metaform import cli
from metaform.graph import MetaFormation, export_formation, export_meta_formation

from conftest import complete, pair, shift, singleton, triangle

# Escapes, control characters, non-ASCII and astral code points.
TEXT = st.text(
    st.one_of(
        st.sampled_from('"\\/\b\f\n\r\t\x00\x1f\x7f é€\U0001f600'),
        st.characters(),
    ),
    max_size=8,
)
SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(-(2**70), 2**70),
    st.floats(allow_nan=True, allow_infinity=True),
    TEXT,
)
KEYS = st.one_of(TEXT, st.integers(-5, 5), st.booleans(), st.none(), st.floats())


def containers(children):
    return st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(TEXT, children, max_size=4),
        # One key type per dict, so that sorting them can succeed ...
        st.dictionaries(st.integers(-5, 5), children, max_size=4),
        st.dictionaries(st.floats(), children, max_size=3),
        # ... and mixed ones, whose sort raises TypeError in both encoders.
        st.dictionaries(KEYS, children, max_size=3),
    )


VALUES = st.recursive(SCALARS, containers, max_leaves=24)


def outcome(encode, value):
    try:
        return encode(value)
    except (TypeError, ValueError) as exc:
        return type(exc)


def reference(value):
    return json.dumps(value, indent=2, sort_keys=True)


@settings(max_examples=300, deadline=None)
@given(VALUES)
def test_encoder_matches_json_dumps(value):
    assert outcome(cli._encode, value) == outcome(reference, value)


@pytest.mark.parametrize(
    "value",
    [
        {},
        [],
        (),
        [[]],
        {"a": {}},
        {"a": [[], {}, ()]},
        [{"b": [{}]}],
        {"x": float("nan"), "y": [float("inf"), -float("inf")], "z": -0.0},
        {"nested": {1: [2.5, {"k": None}], 2: True}},
        [{1: 1, 2.5: 2, True: 3}, {None: 0}, {False: []}],
        {"é\"\\\n": "\U0001f600\x00"},
        {"big": 10**40, "neg": -(10**40), "flag": False},
    ],
)
def test_encoder_on_named_values(value):
    assert cli._encode(value) == reference(value)


def emitted(doc, fmt):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        cli._emit(doc, fmt)
    return out.getvalue()


@settings(max_examples=100, deadline=None)
@given(st.dictionaries(TEXT, VALUES, max_size=5))
def test_emit_prints_the_reference_line_for_line(doc):
    assert outcome(lambda d: emitted(d, "json"), doc) == outcome(
        lambda d: reference(d) + "\n", doc
    )


FORMATIONS = {
    "triangle.json": export_formation(triangle()),
    "k5.json": export_formation(complete(5)),
    "pair.json": export_formation(pair(11, 12)),
    "apart.json": '{"vertices": [1, 2], "edges": []}',
}
META = export_meta_formation(
    MetaFormation(
        meta_vertices=(triangle(), shift(triangle(), 3), singleton(9)),
        inter_edges=((4, 1), (5, 2), (9, 3), (9, 6)),
    )
)


@pytest.mark.parametrize(
    "argv",
    [
        ["check-rigidity", "k5.json", "--dim", "3"],
        ["check-rigidity", "apart.json", "--dim", "2"],
        ["check-persistence", "k5.json", "--dim", "2"],
        ["check-persistence", "k5.json", "--dim", "3"],
        ["check-meta", "meta.json", "--dim", "2"],
        ["plan-merge", "triangle.json", "pair.json", "--dim", "2"],
        ["gen", "tetra"],
    ],
)
def test_text_format_carries_the_json_report(tmp_path, argv):
    """Every ``--format text`` line is ``key: json.dumps(value, sort_keys=True)``
    for a top-level key of the JSON report, each key once."""
    for name, text in FORMATIONS.items():
        (tmp_path / name).write_text(text)
    (tmp_path / "meta.json").write_text(META)
    argv = [str(tmp_path / a) if a.endswith(".json") else a for a in argv]
    outputs = {}
    for fmt in ("json", "text"):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main([*argv, "--format", fmt])
        outputs[fmt] = (code, out.getvalue())
    (json_code, json_out), (text_code, text_out) = outputs["json"], outputs["text"]
    assert json_code == text_code
    report = json.loads(json_out)
    assert json_out == reference(report) + "\n"
    lines = text_out.splitlines()
    keys = [line.split(": ", 1)[0] for line in lines]
    assert sorted(keys) == sorted(report)
    assert lines == [f"{k}: {json.dumps(report[k], sort_keys=True)}" for k in keys]
