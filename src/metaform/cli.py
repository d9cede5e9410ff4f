"""Command-line front end.

Exit codes: 0 when the queried property holds or a plan is found, 1 when
it fails or the merge is infeasible (a report is still printed), 2 on
input or resource errors.
"""
from __future__ import annotations

import argparse
import functools
import json
import sys

from .errors import InfeasibleMergeError, InputError, MetaformError
from .generate import GEN_KINDS, gen
from .graph import (
    Formation,
    MetaFormation,
    export_dot,
    formation_at,
    json_int,
    load_json,
    parse_formation,
    parse_meta_formation,
)
from .meta import check_meta
from .persistence import TERMINAL_SET_CAP, is_persistent
from .planner import (
    MergePlan,
    PlanEdge,
    feasibility,
    plan_collection,
    prove_members,
    verify_plan,
)
from .rigidity import DEFAULT_SEED, DEFAULT_TRIALS, check_rigidity


_escape = json.encoder.encode_basestring_ascii


def _encode(value, indent: str = "") -> str:
    """``json.dumps(value, indent=2, sort_keys=True)``, written at ``indent``.

    With ``indent`` set, ``json`` always takes its pure-Python encoder.
    This one covers what reports hold: dicts with str keys, lists,
    tuples, str, int, bool and None.  Anything else, floats and non-str
    keys included, goes to ``json.dumps``; its lines after the first are
    moved to ``indent`` (a JSON string holds no raw newline).
    """
    kind = type(value)
    if kind is str:
        return _escape(value)
    if kind is int:
        return int.__repr__(value)
    if value is None:
        return "null"
    if kind is bool:
        return "true" if value else "false"
    inner = indent + "  "
    if kind is list or kind is tuple:
        if not value:
            return "[]"
        items = [
            int.__repr__(v) if type(v) is int else _encode(v, inner) for v in value
        ]
        return f"[\n{inner}" + f",\n{inner}".join(items) + f"\n{indent}]"
    if kind is dict and all(type(k) is str for k in value):
        if not value:
            return "{}"
        items = [
            f"{_escape(k)}: "
            + (int.__repr__(v) if type(v := value[k]) is int else _encode(v, inner))
            for k in sorted(value)
        ]
        return f"{{\n{inner}" + f",\n{inner}".join(items) + f"\n{indent}}}"
    return json.dumps(value, indent=2, sort_keys=True).replace("\n", "\n" + indent)


def _emit(doc: dict, fmt: str) -> None:
    """Print the report: indented JSON with sorted keys, or one
    ``key: value`` line per top-level key with compact JSON values."""
    if fmt == "json":
        print(_encode(doc))
    else:
        for key, value in doc.items():
            print(f"{key}: {json.dumps(value, sort_keys=True)}")


def _read(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path) as fh:
        return fh.read()


def _cmd_check_rigidity(args) -> int:
    f = parse_formation(_read(args.file), args.file)
    verdict = check_rigidity(
        f.underlying(), args.dim, seed=args.seed, trials=args.trials
    )
    doc = {
        "criterion": (
            "2D edge-count characterization (pebble game)"
            if args.dim == 2
            else "3D necessary counting + generic rank oracle"
        ),
        "dim": args.dim,
        "seed": args.seed,
        "trials": args.trials,
    }
    doc.update(verdict.to_dict())
    _emit(doc, args.format)
    return 0 if verdict.rigid else 1


def _cmd_check_persistence(args) -> int:
    f = parse_formation(_read(args.file), args.file)
    verdict = is_persistent(
        f, args.dim, seed=args.seed, trials=args.trials, cap=args.cap
    )
    doc = {
        "criterion": "all terminal subgraphs rigid",
        "dim": args.dim,
        "seed": args.seed,
        "trials": args.trials,
    }
    doc.update(verdict.to_dict())
    _emit(doc, args.format)
    return 0 if verdict.persistent else 1


def _cmd_check_meta(args) -> int:
    meta = parse_meta_formation(_read(args.file), args.file)
    verdict, persistence, optimal = check_meta(meta, args.dim, args.seed, args.trials)
    doc = {
        "criterion": (
            "meta edge-count characterization via substitution"
            if args.dim == 2
            else "meta counting screen + substituted rank oracle"
        ),
        "dim": args.dim,
        "seed": args.seed,
        "trials": args.trials,
        "edgeOptimalPersistent": optimal,
        "mergedPersistence": persistence.to_dict(),
    }
    doc.update(verdict.to_dict())
    _emit(doc, args.format)
    return 0 if verdict.rigid else 1


def _read_collection(paths) -> list[Formation]:
    """One formation per file; a parse error, or a vertex id already used by an
    earlier file (or by the same file given twice), is located by file first."""
    collection = []
    owner: dict[int, str] = {}
    for path in paths:
        try:
            f = parse_formation(_read(path))
            for i, v in enumerate(f.vertices):
                if v in owner:
                    raise InputError(
                        f"vertex {v} is also a vertex of {owner[v]}", f"vertices[{i}]"
                    )
        except InputError as exc:
            where = path if exc.location is None else f"{path}, {exc.location}"
            raise InputError(exc.detail, where) from exc
        owner.update((v, path) for v in f.vertices)
        collection.append(f)
    return collection


def _cmd_plan_merge(args) -> int:
    collection = _read_collection(args.files)
    members = prove_members(collection, args.dim, seed=args.seed, trials=args.trials)
    feas = feasibility(members, args.dim, seed=args.seed, trials=args.trials)
    base = {
        "dim": args.dim,
        "seed": args.seed,
        "trials": args.trials,
        "feasibility": feas.to_dict(),
        "collection": [f.to_dict() for f in collection],
    }
    if not feas.feasible:
        _emit(base, args.format)
        return 1
    try:
        plan = plan_collection(
            members, args.dim, seed=args.seed, trials=args.trials
        )
    except InfeasibleMergeError as exc:
        base["feasibility"] = {"feasible": False, "reason": exc.reason}
        _emit(base, args.format)
        return 1
    report = verify_plan(members, plan, args.dim, seed=args.seed, trials=args.trials)
    base["plan"] = plan.to_dict()
    base["verification"] = report.to_dict()
    _emit(base, args.format)
    return 0


def _plan_edge(e, location: str) -> PlanEdge:
    if not isinstance(e, dict) or "tail" not in e or "head" not in e:
        raise InputError("plan edge must be an object with 'tail' and 'head'", location)
    tail = json_int(e["tail"], f"{location}.tail")
    head = json_int(e["head"], f"{location}.head")
    rule = e.get("rule", "unknown")
    if not isinstance(rule, str):
        raise InputError(f"expected a string, got {json.dumps(rule)}", f"{location}.rule")
    return PlanEdge(tail, head, rule, json_int(e.get("step", 0), f"{location}.step"))


def _cmd_verify_plan(args) -> int:
    doc = load_json(_read(args.file), args.file)
    if not isinstance(doc, dict):
        raise InputError("plan report must be a JSON object", args.file)
    members = doc.get("collection")
    if not isinstance(members, list):
        raise InputError("'collection' must be a list of formations", "collection")
    collection = [formation_at(d, f"collection[{i}]") for i, d in enumerate(members)]
    plan_doc = doc.get("plan")
    if not isinstance(plan_doc, dict) or not isinstance(plan_doc.get("edges"), list):
        raise InputError("'plan' must be an object with an 'edges' list", "plan")
    order = plan_doc.get("mergeOrder", list(range(len(collection))))
    if not isinstance(order, list):
        raise InputError("'mergeOrder' must be a list", "plan.mergeOrder")
    plan = MergePlan(
        edges=tuple(
            _plan_edge(e, f"plan.edges[{i}]") for i, e in enumerate(plan_doc["edges"])
        ),
        merge_order=tuple(
            json_int(x, f"plan.mergeOrder[{i}]") for i, x in enumerate(order)
        ),
    )
    dim = args.dim if args.dim is not None else json_int(doc.get("dim"), "dim")
    if dim not in (2, 3):
        raise InputError(f"dimension must be 2 or 3, got {dim}", "dim")
    if not collection:
        raise InputError("empty collection", "collection")
    if sorted(plan.merge_order) != list(range(len(collection))):
        raise InputError(
            f"'mergeOrder' must list each collection index 0..{len(collection) - 1} once",
            "plan.mergeOrder",
        )
    try:
        plan.apply(collection)
    except InputError as exc:
        # The members and plan edges become the meta-formation's
        # metaVertices and interEdges, index for index.
        field, _, index = exc.location.partition("[")
        report_field = {"metaVertices": "collection", "interEdges": "plan.edges"}[field]
        raise InputError(exc.detail, f"{report_field}[{index}") from exc
    report = verify_plan(collection, plan, dim, seed=args.seed, trials=args.trials)
    out = {"dim": dim, "seed": args.seed, "trials": args.trials}
    out.update(report.to_dict())
    _emit(out, args.format)
    ok = report.persistent and report.missing_dof_conserved
    return 0 if ok else 1


def _cmd_gen(args) -> int:
    f = gen(args.kind, n=args.n, seed=args.seed, trials=args.trials)
    if args.format == "dot":
        print(export_dot(f))
    else:
        doc = {"kind": args.kind, "seed": args.seed}
        doc.update(f.to_dict())
        _emit(doc, args.format)
    return 0


def _cmd_export(args) -> int:
    doc = load_json(_read(args.file), args.file)
    if not isinstance(doc, dict):
        raise InputError("document must be a JSON object", args.file)
    obj = (
        MetaFormation.from_dict(doc)
        if "metaVertices" in doc
        else Formation.from_dict(doc)
    )
    if args.format == "dot":
        print(export_dot(obj))
    else:
        _emit(obj.to_dict(), "json")
    return 0


@functools.cache
def build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The CLI parser and each command's own parser, built once per process.

    ``parse_args`` leaves the parsers as they were, so in-process callers
    that run ``main`` many times share them instead of rebuilding them.
    """
    parser = argparse.ArgumentParser(
        prog="metaform",
        description="Rigidity, persistence and merging of directed formation graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {}

    def command(name, func, help):
        p = commands[name] = sub.add_parser(name, help=help)
        p.set_defaults(func=func)
        return p

    def common(p, dim_required=True, with_cap=False, formats=("json", "text")):
        p.add_argument("--dim", type=int, choices=(2, 3), required=dim_required)
        p.add_argument("--seed", type=int, default=DEFAULT_SEED)
        p.add_argument("--trials", type=int, default=DEFAULT_TRIALS)
        p.add_argument("--format", choices=formats, default="json")
        if with_cap:
            p.add_argument(
                "--cap",
                type=int,
                default=TERMINAL_SET_CAP,
                help="most terminal subgraphs to check; a formation with more "
                "exits 2 before any is built (default: %(default)s)",
            )

    p = command("check-rigidity", _cmd_check_rigidity, "undirected rigidity of a formation")
    p.add_argument("file")
    common(p)

    p = command("check-persistence", _cmd_check_persistence, "persistence of a formation")
    p.add_argument("file")
    common(p, with_cap=True)

    p = command("check-meta", _cmd_check_meta, "rigidity of a merged meta-formation")
    p.add_argument("file")
    common(p)

    p = command("plan-merge", _cmd_plan_merge, "plan a minimal persistent merge")
    p.add_argument("files", nargs="+", help="formation files, one per member")
    common(p)

    p = command("verify-plan", _cmd_verify_plan, "re-check a plan-merge report file")
    p.add_argument("file")
    common(p, dim_required=False)

    p = command("gen", _cmd_gen, "generate a test formation")
    p.add_argument("kind", choices=GEN_KINDS)
    p.add_argument("-n", type=int, default=4)
    common(p, dim_required=False, formats=("json", "text", "dot"))

    p = command("export", _cmd_export, "re-serialize a file as JSON or DOT")
    p.add_argument("file")
    p.add_argument("--format", choices=("json", "dot"), default="dot")

    return parser, commands


def main(argv=None) -> int:
    """Run one command line; return its exit code.

    The named command's parser alone reads the arguments after the
    command name, as the full parser would hand them to it, and reports
    errors with the same usage line.  The full parser runs when
    ``argv[0]`` names no command, or when the command's parser leaves
    arguments it did not recognise, so that those errors come out as
    they always have.
    """
    argv = sys.argv[1:] if argv is None else argv
    parser, commands = build_parser()
    args = extra = None
    if argv and argv[0] in commands:
        args, extra = commands[argv[0]].parse_known_args(argv[1:])
    if args is None or extra:
        args = parser.parse_args(argv)
    try:
        if getattr(args, "trials", 1) < 1:
            raise InputError(f"trials must be >= 1, got {args.trials}", location="--trials")
        if getattr(args, "cap", 1) < 1:
            raise InputError(f"cap must be >= 1, got {args.cap}", location="--cap")
        return args.func(args)
    except MetaformError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
