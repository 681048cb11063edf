"""Command-line surface: one verb per construction, stable JSON out.

Exit codes: 0 success or a true verdict, 1 a false verdict (a refuting
assignment exists, a countermodel was found, a validating frame was not
found, a class check failed), 2 usage or input errors, 3 cap or output
limit errors.  Machine output goes to stdout, diagnostics to stderr.
"-" names stdin for any file argument.  Output is compact JSON; --pretty
switches to indented form.  --limit-bytes B, whose sign is checked
before any command runs, refuses an output of more than B bytes before
any byte of it is written.  `bax enum`, `lax build` and `search
enumerate` get their text from their writers as chunks, which are
written as they are: the whole output is never joined into one string,
and under --pretty each chunk is laid out on its own (`_pretty`), with
no `json.loads` of the output.

Global flags come before the command.  Every command is one row of
`_COMMANDS`: its full path, such as `("search", "enumerate")`, its
handler, its help and its options.  `main` reads an argv of global
flags, a full command path and that command's exact long options, each
once with a value that does not start with "-", from the table alone.
Any other argv, -h among them, goes to the argparse tree that
`build_parser` builds from the same table, so help texts and usage
errors are argparse's, and both routes give the same attributes.

A command reads the library names it calls through the package, as
`nbhd.search.count_frames`, and the package imports a submodule on its
first access, so a process loads only the modules of the commands it
runs: `bax enum` never loads `search`, `genframe` or `duality`, and
`parse` loads `formulas` alone.  Importing this module loads `core`,
whose errors `main` catches and whose codecs the commands share, and
nothing more of the package, nor `argparse`: a command line the table
reads builds no parser.  After the first access a name costs two
attribute reads per call, where an import statement in the command
would run the import system on every call.
"""

from __future__ import annotations

import json
import re
import sys
from functools import lru_cache, partial
from types import SimpleNamespace

import nbhd

from .core import (
    CapExceededError,
    InvalidInputError,
    NbhdError,
    _json_famask,
    _set_lanes,
    algebra_from_json,
    algebra_to_json,
    frame_from_json,
    frame_to_json,
    hom_from_json,
    hom_to_json,
    is_nbhd_morphism,
    morphism_from_json,
    morphism_to_json,
)


class OutputLimitError(NbhdError):
    pass


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _load_json(path: str):
    try:
        return json.loads(_read_text(path))
    except json.JSONDecodeError as exc:
        raise InvalidInputError(f"bad JSON in {path!r}: {exc}") from exc


def _parse_inline_json(text: str, what: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise InvalidInputError(f"bad JSON for {what}: {exc}") from exc


@lru_cache(maxsize=None)
def _token():
    """A token of compact JSON text that --pretty lays out: a string, an
    empty list or object, an opening or closing bracket, or "],[" between
    two lists that holds no empty list.  The text between tokens holds
    only numbers, literals, commas and colons.  Compiled on the first
    layout, so no other process pays for it."""
    return re.compile(r'("(?:[^"\\]|\\.)*"|\[\]|\{\}|\],\[(?!\])|[\[\]{}])')


def _pretty(chunks) -> list[str]:
    """Compact JSON text in chunks, laid out as `json.dumps(obj, indent=2)`
    lays out the object it encodes, one chunk out per non-empty chunk in.

    A comma gains a newline and the indent of its depth, and a colon a
    space.  A non-empty list or object opens with a newline and the next
    depth's indent and closes on a line of its own, while `[]`, `{}` and
    strings stay as they are.  No string may span two chunks.  An opening
    bracket that ends a chunk is laid out with the next chunk, which tells
    whether it opens an empty list."""
    split = _token().split
    out = []
    depth = 0
    carry = ""
    for chunk in chunks:
        if not chunk:
            continue
        pieces = []
        if carry:
            if chunk.startswith(("]", "}")):
                pieces.append(carry + chunk[0])
                chunk = chunk[1:]
            else:
                depth += 1
                pieces.append(carry + "\n" + "  " * depth)
        carry = chunk[-1:] if chunk.endswith(("[", "{")) else ""
        if carry:
            chunk = chunk[:-1]
        for i, part in enumerate(split(chunk)):
            if not i & 1:
                if part:
                    pieces.append(part.replace(",", ",\n" + "  " * depth).replace(":", ": "))
            elif part in ("[", "{"):
                depth += 1
                pieces.append(part + "\n" + "  " * depth)
            elif part in ("]", "}"):
                depth -= 1
                pieces.append("\n" + "  " * depth + part)
            elif part == "],[":
                outer = "\n" + "  " * (depth - 1)
                pieces.append(outer + "]," + outer + "[\n" + "  " * depth)
            else:
                pieces.append(part)
        out.append("".join(pieces))
    return out


# One encoder for every compact dict: json.dumps with separators builds a new one per call.
_COMPACT = json.JSONEncoder(separators=(",", ":"))


def _emit(obj, args) -> None:
    """Write obj as JSON and a newline, compact or under --pretty indented.
    A dict is encoded here; a list is compact JSON text already encoded,
    in the chunks of one of the text writers (`bax.baxspace_chunks`,
    `duality.lax_chunks`, `search.frames_chunks`), which --pretty lays out
    chunk by chunk (`_pretty`).  Every output is ASCII, so its length is
    its size in bytes: --limit-bytes is checked against the sum of the
    chunk lengths and the newline, before any byte is written, and the
    chunks and the newline are written as they are, never joined."""
    if isinstance(obj, list):
        chunks = _pretty(obj) if args.pretty else obj
    else:
        chunks = [json.dumps(obj, indent=2) if args.pretty else _COMPACT.encode(obj)]
    size = sum(map(len, chunks)) + 1
    if args.limit_bytes is not None and size > args.limit_bytes:
        raise OutputLimitError(f"output of {size} bytes exceeds --limit-bytes {args.limit_bytes}")
    sys.stdout.writelines(chunks)
    sys.stdout.write("\n")


def _split_specs(text: str) -> list[str]:
    parts = [part.strip() for part in text.split(",")]
    return [part for part in parts if part]


def _formula_arg(text: str):
    """Formula text or a registry @name, via stdin when '-'."""
    if text == "-":
        text = sys.stdin.read().strip()
    return text


def cmd_parse(args) -> int:
    f = nbhd.formulas.resolve(_formula_arg(args.formula).strip()).formula
    _emit(
        {
            "formula": nbhd.formulas.render(f),
            "vars": list(nbhd.formulas.free_vars(f)),
            "one_step": nbhd.formulas.is_one_step(f),
            "modal_depth": nbhd.formulas.modal_depth(f),
        },
        args,
    )
    return 0


def _algebra_from_args(args):
    if getattr(args, "algebra", None) and getattr(args, "frame", None):
        raise InvalidInputError("give either an algebra or a frame, not both")
    if getattr(args, "algebra", None):
        return algebra_from_json(_load_json(args.algebra))
    if getattr(args, "frame", None):
        return nbhd.duality.complex_algebra(frame_from_json(_load_json(args.frame)))
    raise InvalidInputError("an algebra or a frame input is required")


def cmd_eval(args) -> int:
    alg = _algebra_from_args(args)
    f = nbhd.evaluate.compile_target(_formula_arg(args.formula), alg.n)
    env_raw = _parse_inline_json(args.assign, "--assign")
    if not isinstance(env_raw, dict):
        raise InvalidInputError("--assign must be a JSON object of variable masks")
    value = nbhd.evaluate.eval_formula(alg, f, env_raw)
    _emit({"value": value}, args)
    return 0


def cmd_valid(args) -> int:
    alg = _algebra_from_args(args)
    witness = nbhd.evaluate.find_refuting_assignment(alg, nbhd.evaluate.compile_target(_formula_arg(args.formula), alg.n))
    _emit({"valid": witness is None, "witness": witness}, args)
    return 0 if witness is None else 1


def cmd_dualize(args) -> int:
    if bool(args.frame) == bool(args.algebra):
        raise InvalidInputError("give exactly one of --frame or --algebra")
    if args.frame:
        alg = nbhd.duality.complex_algebra(frame_from_json(_load_json(args.frame)))
        _emit(algebra_to_json(alg), args)
    else:
        frame = nbhd.duality.atom_frame(algebra_from_json(_load_json(args.algebra)))
        _emit(frame_to_json(frame), args)
    return 0


def cmd_bax_enum(args) -> int:
    axs = nbhd.formulas.axiom_set_from_specs(_split_specs(args.axioms), args.n)
    space = nbhd.bax.enumerate_bax(args.n, axs)
    if args.count:
        _emit({"count": len(space.lanes)}, args)
    else:
        _emit(nbhd.bax.baxspace_chunks(space), args)
    return 0


def cmd_bax_map(args) -> int:
    f = morphism_from_json(_load_json(args.morphism))
    axs = nbhd.formulas.axiom_set_from_specs(_split_specs(args.axioms), f.n_dom)
    family = _json_famask(_parse_inline_json(args.family, "--family"), f.n_dom, "--family")
    image = nbhd.bax.bax_map(f, family, axs)
    _emit({"family": _set_lanes(image)}, args)
    return 0


def cmd_lax_build(args) -> int:
    axs = nbhd.formulas.axiom_set_from_specs(_split_specs(args.axioms), args.n)
    _emit(nbhd.duality.lax_chunks(nbhd.duality.lax_algebra(args.n, axs)), args)
    return 0


def cmd_lax_check(args) -> int:
    lax = nbhd.duality.lax_from_json(_load_json(args.lax))
    per = {ax.name: nbhd.duality.onestep_top_check(lax, ax) for ax in lax.space.axioms}
    ok = all(per.values())
    _emit({"ok": ok, "axioms": per}, args)
    return 0 if ok else 1


def cmd_class_check(args) -> int:
    tag = nbhd.classes.parse_class_tag(args.tag)
    if bool(args.frame) == bool(args.algebra):
        raise InvalidInputError("give exactly one of --frame or --algebra")
    if args.frame:
        holds = nbhd.classes.frame_class_check(frame_from_json(_load_json(args.frame)), tag)
    else:
        holds = nbhd.classes.algebra_class_check(algebra_from_json(_load_json(args.algebra)), tag)
    _emit({"tag": args.tag, "holds": holds}, args)
    return 0 if holds else 1


def cmd_class_correspond(args) -> int:
    frame = frame_from_json(_load_json(args.frame))
    report = nbhd.classes.correspondence_check(frame, args.pair)
    _emit(report, args)
    return 0 if report["agree"] else 1


def cmd_gen_validate(args) -> int:
    report = nbhd.genframe.general_frame_report(nbhd.genframe.general_frame_from_json(_load_json(args.general)))
    _emit(report, args)
    return 0 if report["valid"] else 1


def cmd_gen_sigma(args) -> int:
    frame = nbhd.genframe.sigma_extend(nbhd.genframe.general_frame_from_json(_load_json(args.general)))
    _emit(frame_to_json(frame), args)
    return 0


def cmd_gen_pi(args) -> int:
    frame = nbhd.genframe.pi_extend(nbhd.genframe.general_frame_from_json(_load_json(args.general)))
    _emit(frame_to_json(frame), args)
    return 0


def cmd_gen_complement(args) -> int:
    gf = nbhd.genframe.complement_within_admissible(nbhd.genframe.general_frame_from_json(_load_json(args.general)))
    _emit(nbhd.genframe.general_frame_to_json(gf), args)
    return 0


def cmd_gen_truncate(args) -> int:
    frame = frame_from_json(_load_json(args.frame))
    admissible = _json_famask(_parse_inline_json(args.admissible_json, "--admissible"), frame.n, "--admissible")
    gf = nbhd.genframe.truncate(frame, admissible)
    _emit(nbhd.genframe.general_frame_to_json(gf), args)
    return 0


def cmd_gen_descriptive(args) -> int:
    gf = nbhd.genframe.general_frame_from_json(_load_json(args.general))
    sigma = nbhd.genframe.is_sigma_descriptive(gf)
    pi = nbhd.genframe.is_pi_descriptive(gf)
    _emit({"sigma": sigma, "pi": pi}, args)
    return 0 if sigma else 1


def cmd_morphism_check(args) -> int:
    f = morphism_from_json(_load_json(args.morphism))
    dom = frame_from_json(_load_json(args.dom))
    cod = frame_from_json(_load_json(args.cod))
    ok = is_nbhd_morphism(f, dom, cod)
    _emit({"is_morphism": ok}, args)
    return 0 if ok else 1


def cmd_morphism_dualize(args) -> int:
    if bool(args.morphism) == bool(args.hom):
        raise InvalidInputError("give exactly one of --morphism or --hom")
    if args.morphism:
        _emit(hom_to_json(nbhd.duality.dualize_frame_morphism(morphism_from_json(_load_json(args.morphism)))), args)
    else:
        _emit(morphism_to_json(nbhd.duality.dualize_complete_hom(hom_from_json(_load_json(args.hom)))), args)
    return 0


def cmd_search_countermodel(args) -> int:
    constraints = tuple(_split_specs(args.constraints)) if args.constraints else ()
    spec = nbhd.search.SearchSpec(
        target=_formula_arg(args.target) if args.target else None,
        constraints=constraints,
        mode=args.mode,
        max_n=args.max_n,
    )
    result = nbhd.search.find_countermodel(spec)
    _emit(result, args)
    if spec.mode == "find_refuting":
        return 1 if result["found"] else 0
    if spec.mode == "find_validating":
        return 0 if result["found"] else 1
    return 0


def cmd_search_enumerate(args) -> int:
    constraints = _split_specs(args.constraints) if args.constraints else []
    if args.count:
        total = nbhd.search.count_frames(args.n, constraints, canonical=args.canonical)
        _emit({"count": total}, args)
    else:
        _emit(nbhd.search.frames_chunks(args.n, constraints, canonical=args.canonical), args)
    return 0


def _opt(flag, help=None, kind=str, default=None, choices=None, required=False, dest=None):
    """An option row: (flag, dest, kind, required, default, choices, help).
    kind is int, str, or bool for a flag, False unless given.  choices and
    help may be functions, called on use, that read another module."""
    return flag, dest or flag[2:].replace("-", "_"), kind, required, False if kind is bool else default, choices, help


def _now(value):
    return value() if callable(value) else value


_req = partial(_opt, required=True)
_GLOBAL_OPTIONS = (_opt("--pretty", "indented JSON output", bool), _opt("--limit-bytes", "fail with exit 3 if output exceeds this size", int))
_GROUPS = {
    "bax": "families closed under a one-step axiom set",
    "lax": "one-step algebra over the closed families",
    "class": "frame and algebra class membership",
    "gen": "general frames and the sigma/pi extensions",
    "morphism": "point maps between frames and their duals",
    "search": "frame enumeration and countermodel search",
}
# Help texts and options of more than one command, and options of a long help text.
_POINT_MAP, _MASKS = "point map JSON file or -", "JSON list of subset masks"
_N, _AXIOMS, _FORMULA, _GENERAL = _req("--n", kind=int), _req("--axioms"), _req("--formula"), _req("--general")
_FRAME, _ALGEBRA = _opt("--frame", "frame JSON file or -"), _opt("--algebra", "algebra JSON file or -")
_COMPLEX = _opt("--frame", "frame JSON file or -; its complex algebra is used")
_ASSIGN = _req("--assign", 'JSON object, e.g. {"u":1,"v":0}')
_SPECS, _GENERAL_FILE = _req("--axioms", "comma-separated @names or one-step formulas"), _req("--general", "general frame JSON file or -")
_CONSTRAINTS = _opt("--constraints", "comma-separated class tags, @names, or formulas with a box, such as @T or @Four", default="")
_TAG = _req("--tag", lambda: f"frame tags: {', '.join(nbhd.classes.FRAME_TAGS)}; algebra tags: {', '.join(nbhd.classes.ALGEBRA_TAGS)}")
_PAIR = _req("--pair", choices=lambda: nbhd.classes.CORRESPONDENCE_PAIRS)
_ADMISSIBLE = _req("--admissible", _MASKS, dest="admissible_json")
_MODE = _opt("--mode", default="find_refuting", choices=("find_refuting", "find_validating", "count"))
_COUNT = _opt("--count", kind=bool)
# Every command: its full path, its handler, its help (None lists no line
# for it under its group) and its options, in the order -h lists them.
_COMMANDS = {
    ("parse",): (cmd_parse, "parse a formula and report its shape", (_req("--formula", "formula text, @name, or - for stdin"),)),
    ("eval",): (cmd_eval, "evaluate a formula in an algebra under an assignment", (_ALGEBRA, _COMPLEX, _FORMULA, _ASSIGN)),
    ("valid",): (cmd_valid, "exit 0 when the formula holds under every assignment", (_ALGEBRA, _COMPLEX, _FORMULA)),
    ("dualize",): (cmd_dualize, "frame to its algebra, or algebra to its atom frame", (_FRAME, _ALGEBRA)),
    ("bax", "enum"): (cmd_bax_enum, "enumerate all closed families at width n", (_N, _SPECS, _COUNT)),
    ("bax", "map"): (cmd_bax_map, "push a closed family along a point map", (_req("--morphism", _POINT_MAP), _AXIOMS, _req("--family", _MASKS))),
    ("lax", "build"): (cmd_lax_build, None, (_N, _AXIOMS)),
    ("lax", "check"): (cmd_lax_check, "verify each axiom evaluates to the top element", (_req("--lax", "lax algebra JSON file or -"),)),
    ("class", "check"): (cmd_class_check, None, (_FRAME, _ALGEBRA, _TAG)),
    ("class", "correspond"): (cmd_class_correspond, "two-sided frame/algebra property agreement", (_req("--frame"), _PAIR)),
    ("gen", "validate"): (cmd_gen_validate, "report subalgebra closure and separation flags", (_GENERAL_FILE,)),
    ("gen", "sigma"): (cmd_gen_sigma, "sigma extension as a plain frame", (_GENERAL,)),
    ("gen", "pi"): (cmd_gen_pi, "pi extension as a plain frame", (_GENERAL,)),
    ("gen", "complement"): (cmd_gen_complement, "complement the neighborhoods within the admissibles", (_GENERAL,)),
    ("gen", "truncate"): (cmd_gen_truncate, "restrict a frame to an admissible subalgebra", (_req("--frame"), _ADMISSIBLE)),
    ("gen", "descriptive"): (cmd_gen_descriptive, "is the frame its own sigma (and pi) extension; exit 0 when sigma holds", (_GENERAL,)),
    ("morphism", "check"): (cmd_morphism_check, None, (_req("--morphism"), _req("--dom"), _req("--cod"))),
    ("morphism", "dualize"): (cmd_morphism_dualize, None, (_opt("--morphism", _POINT_MAP), _opt("--hom", "atom-map hom JSON file or -"))),
    ("search", "countermodel"): (
        cmd_search_countermodel,
        "smallest frame refuting (or validating) a target",
        (_opt("--target", "formula text or @name"), _CONSTRAINTS, _opt("--max-n", kind=int, default=3), _MODE),
    ),
    ("search", "enumerate"): (
        cmd_search_enumerate,
        "stream or count the frames in a constrained class",
        (_N, _CONSTRAINTS, _opt("--canonical", kind=bool), _COUNT),
    ),
}


def build_parser():
    """The argparse tree of the command table, for help texts and usage
    errors.  argparse is imported here alone."""
    import argparse

    def add(parser, rows):
        for flag, dest, kind, required, default, choices, help in rows:
            typed = {"action": "store_true"} if kind is bool else {"type": int if kind is int else None, "choices": _now(choices)}
            parser.add_argument(flag, dest=dest, required=required, default=default, help=_now(help), **typed)

    parser = argparse.ArgumentParser(prog="nbhd", description="Neighborhood frames, their algebras, and the constructions between them.")
    add(parser, _GLOBAL_OPTIONS)
    sub = parser.add_subparsers(dest="command", required=True)
    groups = {}
    for path, (func, help, rows) in _COMMANDS.items():
        if len(path) == 2 and path[0] not in groups:
            groups[path[0]] = sub.add_parser(path[0], help=_GROUPS[path[0]]).add_subparsers(dest="subcommand", required=True)
        leaf = (groups[path[0]] if len(path) == 2 else sub).add_parser(path[-1], **({"help": help} if help else {}))
        add(leaf, rows)
        leaf.set_defaults(func=func)
    return parser


@lru_cache(maxsize=None)
def _parser():
    """The parser, built on the first argv `_route` leaves to it; parsing
    keeps no state between calls."""
    return build_parser()


def _read_options(argv, i, rows, values):
    """Read argv[i:] into values (dest to value) while each token is the
    flag of a row not read yet.  A flag of kind bool takes no value; any
    other takes the next token, which must not start with "-" and must
    pass int() for kind int and its choices.  The index of the first other
    token, or None where these rules fail."""
    options = {row[0]: row for row in rows}
    while i < len(argv) and argv[i] in options:
        _, dest, kind, _, _, choices, _ = options[argv[i]]
        if kind is bool:
            value, i = True, i + 1
        elif i + 1 < len(argv) and not argv[i + 1].startswith("-"):
            value, i = argv[i + 1], i + 2
        else:
            return None
        try:
            value = int(value) if kind is int else value
        except ValueError:
            return None
        if dest in values or (choices is not None and value not in _now(choices)):
            return None
        values[dest] = value
    return i


def _route(argv: list[str]):
    """`_parser().parse_args(argv)` from the command table alone, when argv
    is global flags, a full command path and that command's options, each
    at most once and every required one given; None for any other argv.
    argparse reads such an argv the same way: an exact option string wins
    over any prefix, and a token that does not start with "-" is a value."""
    values = {}
    i = _read_options(argv, 0, _GLOBAL_OPTIONS, values)
    if i is None:
        return None
    path = tuple(argv[i : i + 1])
    if path not in _COMMANDS:
        path = tuple(argv[i : i + 2])
    func, _, rows = _COMMANDS.get(path, (None, None, ()))
    if func is None or _read_options(argv, i + len(path), rows, values) != len(argv):
        return None
    unread = [row for row in (*_GLOBAL_OPTIONS, *rows) if row[1] not in values]
    if any(row[3] for row in unread):
        return None
    values.update((row[1], row[4]) for row in unread)
    return SimpleNamespace(**values, **dict(zip(("command", "subcommand"), path)), func=func)


def _parse(argv: list[str]):
    """The namespace of argv, by `_route` or else by the whole tree, which
    gives the help text or usage error of any argv the route leaves."""
    namespace = _route(argv)
    return _parser().parse_args(argv) if namespace is None else namespace


def main(argv=None) -> int:
    args = _parse(sys.argv[1:] if argv is None else list(argv))
    try:
        if args.limit_bytes is not None and args.limit_bytes < 0:
            raise InvalidInputError(f"--limit-bytes must be at least 0, got {args.limit_bytes}")
        return args.func(args)
    except (CapExceededError, OutputLimitError) as exc:
        sys.stderr.write(f"nbhd: {exc}\n")
        return 3
    except (InvalidInputError, FileNotFoundError, IsADirectoryError, PermissionError) as exc:
        sys.stderr.write(f"nbhd: {exc}\n")
        return 2
    except BrokenPipeError:
        return 0


if __name__ == "__main__":
    sys.exit(main())
