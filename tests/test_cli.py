"""Command-line behavior: exit codes, report shapes, determinism."""
import contextlib
import io
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from metaform import cli, meta, persistence, planner, rigidity
from metaform.cli import main
from metaform.errors import InputError
from metaform.graph import (
    Formation,
    MetaFormation,
    export_formation,
    parse_formation,
    parse_meta_formation,
)

from conftest import complete, lone_leader_3d, pair, shift, singleton, triangle


def write(tmp_path, name, f):
    path = tmp_path / name
    path.write_text(export_formation(f))
    return str(path)


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def count_calls(monkeypatch, fn):
    """Arguments of every call to ``fn``, under each name metaform binds it to."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    for module in (meta, persistence, planner, rigidity, cli):
        for name, value in vars(module).items():
            if value is fn:
                monkeypatch.setattr(module, name, counted)
    return calls


class TestCheckCommands:
    def test_rigid_formation_exits_zero(self, tmp_path, capsys):
        p = write(tmp_path, "t.json", triangle())
        code, out = run(capsys, ["check-rigidity", p, "--dim", "2"])
        assert code == 0
        assert json.loads(out)["rigid"] is True

    def test_banana_exits_one_with_witness(self, tmp_path, capsys):
        code, out = run(capsys, ["gen", "banana"])
        (tmp_path / "b.json").write_text(out)
        code, out = run(
            capsys, ["check-rigidity", str(tmp_path / "b.json"), "--dim", "3"]
        )
        assert code == 1
        assert json.loads(out)["separatingPair"] == [1, 2]

    def test_persistence_report_echoes_seed(self, tmp_path, capsys):
        p = write(tmp_path, "k4.json", complete(4))
        code, out = run(
            capsys, ["check-persistence", p, "--dim", "3", "--seed", "5"]
        )
        assert code == 0
        assert json.loads(out)["seed"] == 5

    def test_check_meta(self, tmp_path, capsys):
        meta = {
            "metaVertices": [
                {"vertices": [1, 2, 3], "edges": [[2, 1], [3, 1], [3, 2]]},
                {"vertices": [4, 5, 6], "edges": [[5, 4], [6, 4], [6, 5]]},
            ],
            "interEdges": [[1, 4], [1, 5], [2, 4]],
        }
        p = tmp_path / "m.json"
        p.write_text(json.dumps(meta))
        code, out = run(capsys, ["check-meta", str(p), "--dim", "2"])
        assert code == 0
        doc = json.loads(out)
        assert doc["rigid"] and doc["edgeOptimalPersistent"]

    def test_malformed_input_exits_two(self, tmp_path, capsys):
        p = tmp_path / "bad.json"
        p.write_text('{"vertices": [1, 2], "edges": [[1, 2], [2, 1]]}')
        code, _ = run(capsys, ["check-rigidity", str(p), "--dim", "2"])
        assert code == 2

    def test_missing_file_exits_two(self, capsys):
        code, _ = run(capsys, ["check-rigidity", "/nonexistent.json", "--dim", "2"])
        assert code == 2

    def test_formation_read_from_stdin(self, tmp_path, capsys, monkeypatch):
        p = write(tmp_path, "t.json", triangle())
        expected = run(capsys, ["check-rigidity", p, "--dim", "2"])
        monkeypatch.setattr("sys.stdin", io.StringIO(export_formation(triangle())))
        assert run(capsys, ["check-rigidity", "-", "--dim", "2"]) == expected
        assert expected[0] == 0

    def test_an_internal_key_error_is_not_reported_as_an_input_error(
        self, tmp_path, capsys, monkeypatch
    ):
        def broken(*args, **kwargs):
            raise KeyError("internal")

        monkeypatch.setattr(cli, "check_rigidity", broken)
        with pytest.raises(KeyError, match="internal"):
            main(["check-rigidity", write(tmp_path, "t.json", triangle()), "--dim", "2"])
        assert capsys.readouterr().err == ""


TRIALS_COMMANDS = [
    ("check-rigidity", 2),
    ("check-rigidity", 3),
    ("check-persistence", 2),
    ("check-persistence", 3),
    ("check-meta", 2),
    ("check-meta", 3),
    ("plan-merge", 2),
    ("plan-merge", 3),
    ("verify-plan", 3),
]


class TestTrialsValidation:
    @pytest.mark.parametrize("trials", ["0", "-1"])
    @pytest.mark.parametrize("command,dim", TRIALS_COMMANDS)
    def test_trials_below_one_exits_two(self, tmp_path, capsys, command, dim, trials):
        files = [write(tmp_path, "a.json", complete(4)), write(tmp_path, "b.json", complete(4, 5))]
        if command == "check-meta":
            meta = {"metaVertices": [complete(4).to_dict(), complete(4, 5).to_dict()], "interEdges": []}
            files = [str(tmp_path / "m.json")]
            (tmp_path / "m.json").write_text(json.dumps(meta))
        elif command == "verify-plan":
            files = [str(tmp_path / "p.json")]
            (tmp_path / "p.json").write_text(json.dumps({"dim": dim}))
        elif command != "plan-merge":
            files = files[:1]
        code = main([command, *files, "--dim", str(dim), "--trials", trials])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert f"trials must be >= 1, got {trials} (at --trials)" in captured.err

    def test_gen_rejects_zero_trials(self, capsys):
        assert main(["gen", "tetra", "--trials", "0"]) == 2
        assert "(at --trials)" in capsys.readouterr().err

    def test_gen_below_the_kinds_smallest_size_exits_two(self, capsys):
        assert main(["gen", "min-persistent-3d", "-n", "2"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: need at least 3 vertices for this kind, got 2\n"

    def test_3d_graph_under_edge_count_rejects_zero_trials(self, tmp_path, capsys):
        path = write(tmp_path, "path.json", Formation(vertices=(1, 2, 3, 4), edges=((2, 1), (3, 2), (4, 3))))
        assert main(["check-rigidity", path, "--dim", "3", "--trials", "0"]) == 2
        assert "(at --trials)" in capsys.readouterr().err


class TestEmptyVertexSet:
    """An empty formation or member exits 2, located at its vertex list."""

    EMPTY = {"vertices": [], "edges": []}

    @pytest.mark.parametrize("command", ["check-rigidity", "check-persistence"])
    def test_formation(self, tmp_path, capsys, command):
        p = tmp_path / "empty.json"
        p.write_text(json.dumps(self.EMPTY))
        assert main([command, str(p), "--dim", "2"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: empty vertex set (at vertices)\n"

    @pytest.mark.parametrize("dim", [2, 3])
    def test_check_meta_member(self, tmp_path, capsys, dim):
        p = tmp_path / "meta.json"
        doc = {"metaVertices": [complete(4).to_dict(), self.EMPTY], "interEdges": []}
        p.write_text(json.dumps(doc))
        assert main(["check-meta", str(p), "--dim", str(dim)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: empty vertex set (at metaVertices[1].vertices)\n"

    def test_verify_plan_member(self, tmp_path, capsys):
        p = tmp_path / "plan.json"
        doc = {"dim": 2, "collection": [triangle().to_dict(), self.EMPTY], "plan": {"edges": []}}
        p.write_text(json.dumps(doc))
        assert main(["verify-plan", str(p)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: empty vertex set (at collection[1].vertices)\n"

    def test_plan_merge_member_file(self, tmp_path, capsys):
        good = write(tmp_path, "good.json", triangle())
        empty = tmp_path / "empty.json"
        empty.write_text(json.dumps(self.EMPTY))
        assert main(["plan-merge", good, str(empty), "--dim", "2"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: empty vertex set (at {empty}, vertices)\n"


class TestCapValidation:
    @pytest.mark.parametrize("cap", ["0", "-1"])
    def test_cap_below_one_exits_two(self, tmp_path, capsys, cap):
        p = write(tmp_path, "k4.json", complete(4))
        code = main(["check-persistence", p, "--dim", "2", "--cap", cap])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert f"error: cap must be >= 1, got {cap} (at --cap)" in captured.err

    def test_cap_counts_terminals(self, tmp_path, capsys):
        # Oriented K6 in 2D has C(5,2) * C(4,2) * C(3,2) = 180 terminals.
        p = write(tmp_path, "k6.json", complete(6))
        assert main(["check-persistence", p, "--dim", "2", "--cap", "180"]) == 0
        capsys.readouterr()
        assert main(["check-persistence", p, "--dim", "2", "--cap", "179"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "180" in captured.err and "179" in captured.err


NOT_AN_INT = [
    # (command, document, location): each id would otherwise be coerced
    # (1.2 -> 1, true -> 1) or crash with a traceback ("a").
    ("check-rigidity", {"vertices": [1, 2, 3], "edges": [[2, 1], [3, 1.2]]}, "edges[1][1]"),
    ("check-rigidity", {"vertices": [2, 1.7], "edges": []}, "vertices[1]"),
    ("check-rigidity", {"vertices": [2, True], "edges": [[2, 1]]}, "vertices[1]"),
    ("check-rigidity", {"vertices": [2, "a"], "edges": []}, "vertices[1]"),
    (
        "check-meta",
        {"metaVertices": [{"vertices": [1, 2], "edges": [[2, 1]]}, {"vertices": [3, 4.0]}]},
        "metaVertices[1].vertices[1]",
    ),
    (
        "check-meta",
        {"metaVertices": [{"vertices": [1]}, {"vertices": [2]}], "interEdges": [[2, True]]},
        "interEdges[0][1]",
    ),
]


class TestStrictIntegers:
    @pytest.mark.parametrize("command,doc,location", NOT_AN_INT)
    def test_non_integer_id_exits_two(self, tmp_path, capsys, command, doc, location):
        p = tmp_path / "doc.json"
        p.write_text(json.dumps(doc))
        code = main([command, str(p), "--dim", "2"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert f"(at {location})" in captured.err


class TestDocumentShape:
    def test_export_of_scalar_exits_two(self, tmp_path, capsys):
        p = tmp_path / "five.json"
        p.write_text("5")
        assert main(["export", str(p)]) == 2
        assert "document must be a JSON object" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["export", "verify-plan"])
    def test_malformed_json_is_located_at_the_file(self, tmp_path, capsys, command):
        p = tmp_path / "doc.json"
        p.write_text('{"collection": [, "plan"}')
        assert main([command, str(p)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: malformed JSON: Expecting value")
        assert err.endswith(f"(at {p})\n")

    def test_verify_plan_of_empty_collection_is_located_at_collection(self, tmp_path, capsys):
        p = tmp_path / "plan.json"
        p.write_text(json.dumps({"collection": [], "plan": {"edges": []}, "dim": 2}))
        assert main(["verify-plan", str(p)]) == 2
        assert capsys.readouterr().err == "error: empty collection (at collection)\n"

    def test_verify_plan_with_list_plan_exits_two(self, tmp_path, capsys):
        p = tmp_path / "plan.json"
        p.write_text(json.dumps({"collection": [], "plan": [], "dim": 3}))
        assert main(["verify-plan", str(p)]) == 2
        assert "(at plan)" in capsys.readouterr().err

    def test_verify_plan_with_bad_dim_exits_two(self, tmp_path, capsys):
        p = tmp_path / "plan.json"
        p.write_text(json.dumps({"collection": [], "plan": {"edges": []}, "dim": 4}))
        assert main(["verify-plan", str(p)]) == 2
        assert "(at dim)" in capsys.readouterr().err

    def verify_plan_error(self, tmp_path, capsys, members, edges):
        p = tmp_path / "plan.json"
        p.write_text(json.dumps({
            "collection": [f.to_dict() for f in members],
            "plan": {"edges": [{"tail": t, "head": h} for t, h in edges]},
            "dim": 2,
        }))
        assert main(["verify-plan", str(p)]) == 2
        return capsys.readouterr().err

    def triangle_pair_plan(self, tmp_path, edit):
        """A 2D triangle+triangle plan from ``plan_collection``, its edge
        dicts passed through ``edit``, written as a ``verify-plan`` file."""
        members = [triangle(1), triangle(4)]
        plan = planner.plan_collection(members, 2).to_dict()
        for e in plan["edges"]:
            edit(e)
        p = tmp_path / "plan.json"
        p.write_text(json.dumps(
            {"collection": [f.to_dict() for f in members], "plan": plan, "dim": 2}
        ))
        return str(p)

    @pytest.mark.parametrize(
        "field, value, expected",
        [
            ("step", "x", 'an integer, got "x"'),
            ("step", 1.5, "an integer, got 1.5"),
            ("step", True, "an integer, got true"),
            ("rule", 7, "a string, got 7"),
            ("rule", None, "a string, got null"),
        ],
    )
    def test_verify_plan_malformed_step_or_rule_is_located(
        self, tmp_path, capsys, field, value, expected
    ):
        p = self.triangle_pair_plan(tmp_path, lambda e: e.update({field: value}))
        assert main(["verify-plan", p]) == 2
        assert capsys.readouterr().err == f"error: expected {expected} (at plan.edges[0].{field})\n"

    def test_verify_plan_edge_that_is_not_an_object_is_located(self, tmp_path, capsys):
        p = self.triangle_pair_plan(tmp_path, lambda e: None)
        doc = json.loads(Path(p).read_text())
        doc["plan"]["edges"][0] = [1, 4]
        Path(p).write_text(json.dumps(doc))
        assert main(["verify-plan", p]) == 2
        assert capsys.readouterr().err == (
            "error: plan edge must be an object with 'tail' and 'head' (at plan.edges[0])\n"
        )

    def test_verify_plan_without_step_or_rule_keeps_the_defaults(self, tmp_path, capsys):
        p = self.triangle_pair_plan(tmp_path, lambda e: (e.pop("step"), e.pop("rule")))
        code, out = run(capsys, ["verify-plan", p])
        assert code == 0
        assert json.loads(out)["persistent"] is True

    def triangle_pair_plan_ordered(self, tmp_path, order):
        """The triangle+triangle plan with its mergeOrder set to ``order``,
        or taken out when ``order`` is None."""
        p = Path(self.triangle_pair_plan(tmp_path, lambda e: None))
        doc = json.loads(p.read_text())
        if order is None:
            del doc["plan"]["mergeOrder"]
        else:
            doc["plan"]["mergeOrder"] = order
        p.write_text(json.dumps(doc))
        return str(p)

    @pytest.mark.parametrize(
        "order",
        [[7, 7, -3], [0, 0], [1, 1], [0, 2], [-1, 0], [0], [0, 1, 2], []],
        ids=["repeated-and-negative", "repeated-0", "repeated-1", "out-of-range", "negative",
             "too-short", "too-long", "empty"],
    )
    def test_verify_plan_merge_order_not_a_permutation_is_located(
        self, tmp_path, capsys, order
    ):
        p = self.triangle_pair_plan_ordered(tmp_path, order)
        assert main(["verify-plan", p]) == 2
        assert capsys.readouterr().err == (
            "error: 'mergeOrder' must list each collection index 0..1 once"
            " (at plan.mergeOrder)\n"
        )

    def test_verify_plan_merge_order_not_a_list_is_located(self, tmp_path, capsys):
        p = self.triangle_pair_plan_ordered(tmp_path, {"0": 1})
        assert main(["verify-plan", p]) == 2
        assert capsys.readouterr().err == (
            "error: 'mergeOrder' must be a list (at plan.mergeOrder)\n"
        )

    @pytest.mark.parametrize("order", [[0, 1], [1, 0], None], ids=["in-order", "swapped", "absent"])
    def test_verify_plan_merge_order_permutation_or_absent_exits_zero(
        self, tmp_path, capsys, order
    ):
        code, out = run(capsys, ["verify-plan", self.triangle_pair_plan_ordered(tmp_path, order)])
        assert code == 0
        assert json.loads(out)["persistent"] is True

    def test_verify_plan_edge_outside_members_is_located_in_plan(self, tmp_path, capsys):
        err = self.verify_plan_error(tmp_path, capsys, [triangle(1), triangle(4)], [(3, 9)])
        assert "endpoint not in any meta-vertex" in err
        assert err.endswith("(at plan.edges[0])\n")

    def test_verify_plan_intra_member_edge_is_located_in_plan(self, tmp_path, capsys):
        err = self.verify_plan_error(
            tmp_path, capsys, [triangle(1), triangle(4)], [(1, 4), (5, 4)]
        )
        assert "both endpoints in meta-vertex 1" in err
        assert err.endswith("(at plan.edges[1])\n")

    def test_verify_plan_shared_vertex_is_located_in_collection(self, tmp_path, capsys):
        err = self.verify_plan_error(tmp_path, capsys, [triangle(1), triangle(3)], [])
        assert "vertex 3 appears in meta-vertices 0 and 1" in err
        assert err.endswith("(at collection[1])\n")

    def test_verify_plan_of_one_singleton_in_2d_exits_two(self, tmp_path, capsys):
        err = self.verify_plan_error(tmp_path, capsys, [singleton(1)], [])
        assert err == "error: merged graph needs at least two vertices\n"

    def test_verify_plan_of_one_pair_in_3d_exits_two(self, tmp_path, capsys):
        p = tmp_path / "plan.json"
        p.write_text(json.dumps({
            "collection": [pair(1, 2).to_dict()], "plan": {"edges": []}, "dim": 3,
        }))
        assert main(["verify-plan", str(p)]) == 2
        assert capsys.readouterr().err == "error: merged graph needs at least three vertices\n"


UNLOCATED_IN_THE_DOCUMENT = [
    # (command, file text, message): errors with no place inside the file.
    ("check-rigidity", '{"vertices": [1, ', "malformed JSON: Expecting value"),
    ("check-persistence", '{"vertices": [1, ', "malformed JSON: Expecting value"),
    ("check-meta", '{"metaVertices": [, ', "malformed JSON: Expecting value"),
    ("check-rigidity", "5", "formation document must be a JSON object"),
    ("check-persistence", "[1, 2]", "formation document must be a JSON object"),
    ("check-meta", '"meta"', "meta-formation document must be a JSON object"),
    ("check-rigidity", '{"edges": []}', "missing field: 'vertices'"),
    ("check-persistence", '{"edges": []}', "missing field: 'vertices'"),
]


class TestSingleFileErrorsAreLocated:
    """Like ``verify-plan``, the single-file commands locate an error that
    names no place inside the document at the file; the stdout and the
    exit code stay as they were."""

    @pytest.mark.parametrize("command,text,message", UNLOCATED_IN_THE_DOCUMENT)
    def test_located_at_the_file(self, tmp_path, capsys, command, text, message):
        p = tmp_path / "doc.json"
        p.write_text(text)
        assert main([command, str(p), "--dim", "3"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {message}")
        assert captured.err.endswith(f" (at {p})\n")
        assert captured.err.count("(at ") == 1

    def test_errors_inside_the_document_keep_their_place(self, tmp_path, capsys):
        p = tmp_path / "doc.json"
        p.write_text(json.dumps({"vertices": [1, 1]}))
        assert main(["check-rigidity", str(p), "--dim", "3"]) == 2
        assert capsys.readouterr().err == "error: duplicate vertex id 1 (at vertices[1])\n"


FUZZ_KEYS = (
    "vertices", "edges", "metaVertices", "interEdges", "collection",
    "plan", "mergeOrder", "tail", "head", "dim", "rule", "step",
)
json_docs = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(min_value=-1, max_value=5)
    | st.floats(allow_nan=False)
    | st.text(max_size=2),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(FUZZ_KEYS) | st.text(max_size=2), inner, max_size=4),
    max_leaves=16,
)


def run_quiet(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


class TestFuzzedDocuments:
    @settings(max_examples=300, deadline=None)
    @given(json_docs)
    def test_parsers_accept_or_raise_input_error(self, doc):
        text = json.dumps(doc)
        for parse, kind in ((parse_formation, Formation), (parse_meta_formation, MetaFormation)):
            try:
                assert isinstance(parse(text), kind)
            except InputError:
                pass

    @settings(max_examples=300, deadline=None)
    @given(json_docs)
    def test_export_and_verify_plan_exit_cleanly(self, doc):
        with tempfile.TemporaryDirectory() as tmp:
            p = Path(tmp) / "doc.json"
            p.write_text(json.dumps(doc))
            for argv in (["export", str(p)], ["verify-plan", str(p)]):
                code, err = run_quiet(argv)
                assert code in (0, 1, 2)
                if code == 2:
                    assert err.startswith("error: ")


class TestPlanCommands:
    def test_plan_and_verify_round_trip(self, tmp_path, capsys):
        a = write(tmp_path, "a.json", complete(4, 1))
        b = write(tmp_path, "b.json", complete(4, 5))
        code, out = run(capsys, ["plan-merge", a, b, "--dim", "3"])
        assert code == 0
        doc = json.loads(out)
        assert len(doc["plan"]["edges"]) == 6
        assert doc["verification"]["persistent"] is True
        plan_file = tmp_path / "plan.json"
        plan_file.write_text(out)
        code, out = run(capsys, ["verify-plan", str(plan_file)])
        assert code == 0
        assert json.loads(out)["edgeOptimalPersistent"] is True

    @pytest.mark.parametrize("dim", [2, 3])
    def test_same_file_twice_exits_two_located_in_input(self, tmp_path, capsys, dim):
        a = write(tmp_path, "a.json", complete(4, 1))
        assert main(["plan-merge", a, a, "--dim", str(dim)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: vertex 1 is also a vertex of {a} (at {a}, vertices[0])\n"

    def test_partial_overlap_exits_two_located_in_input(self, tmp_path, capsys):
        a = write(tmp_path, "a.json", complete(4, 1))
        b = write(tmp_path, "b.json", complete(4, 5))
        # Vertex 4 of a.json is the last vertex of c.json.
        c = write(tmp_path, "c.json", Formation(
            vertices=(9, 10, 11, 4),
            edges=((10, 9), (11, 9), (11, 10), (4, 9), (4, 10), (4, 11)),
        ))
        assert main(["plan-merge", a, b, c, "--dim", "3"]) == 2
        err = capsys.readouterr().err
        assert err == f"error: vertex 4 is also a vertex of {a} (at {c}, vertices[3])\n"

    def test_parse_error_is_located_in_its_member_file(self, tmp_path, capsys):
        good = write(tmp_path, "good.json", complete(4, 1))
        bad = tmp_path / "bad.json"
        bad.write_text('{"vertices": [5, 6.0]}')
        assert main(["plan-merge", good, str(bad), "--dim", "3"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: expected an integer, got 6.0 (at {bad}, vertices[1])\n"

    def test_malformed_member_file_is_named(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{")
        assert main(["plan-merge", str(bad), "--dim", "2"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: malformed JSON") and err.endswith(f"(at {bad})\n")

    @pytest.mark.parametrize("dim", [2, 3])
    def test_each_member_is_proved_persistent_once(self, tmp_path, capsys, monkeypatch, dim):
        members = [complete(4, 1), pair(8, 9), singleton(12)]
        files = [write(tmp_path, f"m{i}.json", f) for i, f in enumerate(members)]
        proved = count_calls(monkeypatch, persistence.is_persistent)
        forbidden = [
            count_calls(monkeypatch, fn)
            for fn in (meta.meta_rigid, meta.meta_rigid_2d, meta.meta_rigid_3d,
                       rigidity.minimally_rigid_spanning)
        ]
        code, out = run(capsys, ["plan-merge", *files, "--dim", str(dim)])
        assert code == 0
        assert json.loads(out)["verification"]["edgeOptimalPersistent"] is True
        assert [args[0].vertices for args in proved] == [f.vertices for f in members]
        assert forbidden == [[], [], [], []]

    def test_infeasible_pair_exits_one_with_reason(self, tmp_path, capsys):
        a = write(tmp_path, "a.json", lone_leader_3d(1))
        b = write(tmp_path, "b.json", lone_leader_3d(10))
        code, out = run(capsys, ["plan-merge", a, b, "--dim", "3"])
        assert code == 1
        assert json.loads(out)["feasibility"]["reason"] == "3D-two-lone-leaders"


class TestGenAndExport:
    def test_gen_deterministic(self, capsys):
        _, a = run(capsys, ["gen", "min-persistent-2d", "-n", "6", "--seed", "7"])
        _, b = run(capsys, ["gen", "min-persistent-2d", "-n", "6", "--seed", "7"])
        assert a == b
        assert len(json.loads(a)["edges"]) == 2 * 6 - 3

    def test_gen_tetra(self, capsys):
        _, out = run(capsys, ["gen", "tetra"])
        assert len(json.loads(out)["edges"]) == 6

    def test_export_dot(self, tmp_path, capsys):
        _, out = run(capsys, ["gen", "tetra"])
        p = tmp_path / "t.json"
        p.write_text(out)
        code, out = run(capsys, ["export", str(p)])
        assert code == 0
        assert out.startswith("digraph")

    def test_text_format(self, tmp_path, capsys):
        p = write(tmp_path, "t.json", triangle())
        code, out = run(
            capsys, ["check-rigidity", p, "--dim", "2", "--format", "text"]
        )
        assert code == 0
        assert "criterion:" in out and "rigid: true" in out


def outcome(capsys, argv):
    """Exit code, stdout and stderr of one ``main`` call, argparse exits too."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestRepeatedCalls:
    """``main`` reuses one parser; repeated calls in one process must agree."""

    def test_repeated_calls_match_the_first(self, tmp_path, capsys):
        tri = write(tmp_path, "t.json", triangle())
        k5 = write(tmp_path, "k5.json", complete(5))
        argvs = [
            ["check-rigidity", tri, "--dim", "2"],
            ["check-persistence", k5, "--dim", "3", "--seed", "4"],
            ["check-rigidity", tri, "--dim", "7"],
            ["check-rigidity", tri, "--dim", "3", "--trials", "0"],
            ["gen", "tetra", "--format", "text"],
            ["no-such-command"],
            ["check-persistence", tri, "--dim", "2", "--cap", "1"],
            ["export", tri],
            ["check-rigidity", k5, "--dim", "3", "--format", "text"],
        ]
        first = [outcome(capsys, argv) for argv in argvs]
        assert [code for code, _, _ in first] == [0, 0, 2, 2, 0, 2, 0, 0, 0]
        assert "--trials" in first[3][2]
        assert "invalid choice" in first[2][2] and "invalid choice" in first[5][2]
        for _ in range(2):
            assert [outcome(capsys, argv) for argv in argvs] == first
        for argv, expected in reversed(list(zip(argvs, first))):
            assert outcome(capsys, argv) == expected
        assert cli.build_parser() is cli.build_parser()


class TestParseOnce:
    """``main`` parses with the named command's parser alone when it can;
    every outcome must be what the full parser gives."""

    def command_lines(self, tmp_path, capsys):
        a = write(tmp_path, "a.json", triangle())
        b = write(tmp_path, "b.json", triangle(4))
        meta = tmp_path / "m.json"
        meta.write_text(
            json.dumps(
                {
                    "metaVertices": [triangle().to_dict(), triangle(4).to_dict()],
                    "interEdges": [[1, 4], [1, 5], [2, 4]],
                }
            )
        )
        plan = tmp_path / "plan.json"
        code, out = run(capsys, ["plan-merge", a, b, "--dim", "2"])
        assert code == 0
        plan.write_text(out)
        valid = [
            ["check-rigidity", a, "--dim", "2"],
            ["check-persistence", a, "--dim", "3", "--seed", "4", "--cap", "9"],
            ["check-meta", str(meta), "--dim", "2", "--format", "text"],
            ["plan-merge", a, b, "--dim", "2", "--trials", "2"],
            ["verify-plan", str(plan)],
            ["gen", "min-persistent-3d", "-n", "6", "--format", "dot"],
            ["export", a, "--format", "json"],
        ]
        invalid = [
            [],
            ["-h"],
            ["check-rigidity", "-h"],
            ["no-such-command", a],
            ["check-rigidity", a],
            ["check-rigidity", a, "--dim", "4"],
            ["check-rigidity", a, "--dim", "2", "--bogus"],
            ["check-rigidity", a, "--dim", "2", "--trials", "0"],
            ["--dim", "2", "check-rigidity", a],
            ["check-rigidity", a, "--dim", "2", "--format", "dot"],
        ]
        return valid, invalid

    def test_same_outcome_as_the_full_parser(self, tmp_path, capsys, monkeypatch):
        valid, invalid = self.command_lines(tmp_path, capsys)
        full, _ = cli.build_parser()
        full_runs = []
        original = full.parse_args
        monkeypatch.setattr(full, "parse_args", lambda argv: full_runs.append(argv) or original(argv))
        got = [outcome(capsys, argv) for argv in valid + invalid]
        # No valid command line reaches the full parser.
        assert not any(argv in valid for argv in full_runs)
        with monkeypatch.context() as m:
            m.setattr(cli, "build_parser", lambda: (full, {}))
            expected = [outcome(capsys, argv) for argv in valid + invalid]
        assert got == expected
        codes = [code for code, _, _ in got]
        assert codes == [0, 0, 0, 0, 0, 0, 0, 2, 0, 0, 2, 2, 2, 2, 2, 2, 2]
        assert "usage: metaform check-rigidity" in got[len(valid) + 2][1]
        assert "unrecognized arguments: --bogus" in got[len(valid) + 6][2]


@pytest.mark.parametrize(
    "command", ["check-rigidity", "check-persistence", "check-meta", "plan-merge", "verify-plan"]
)
def test_dot_format_is_refused(tmp_path, capsys, command):
    """Only ``gen`` and ``export`` write DOT; the checks exit 2 on it."""
    code, out, err = outcome(
        capsys, [command, write(tmp_path, "a.json", triangle()), "--dim", "2", "--format", "dot"]
    )
    assert (code, out) == (2, "")
    assert f"usage: metaform {command}" in err
    assert "argument --format: invalid choice: 'dot' (choose from 'json', 'text')" in err
