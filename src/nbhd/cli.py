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

Global flags come before the command.  `main` parses an argv that
begins with a full command path, such as `search enumerate`, by one
parse of that command's own parser, and any other argv by the whole
tree; both give the same namespace and the same usage errors.

A command reads the library names it calls through the package, as
`nbhd.search.count_frames`, and the package imports a submodule on its
first access, so a process loads only the modules of the commands it
runs: `bax enum` never loads `search`, `genframe` or `duality`, and
`parse` loads `formulas` and the `classes` tables the parser reads.
Importing this module loads `core`, whose errors `main` catches and
whose codecs the commands share, and nothing more of the package; the
parser is built on the first `main`.  After the first access a name
costs two attribute reads per call, where an import statement in the
command would run the import system on every call.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from functools import lru_cache

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
        chunks = [json.dumps(obj, indent=2) if args.pretty else json.dumps(obj, separators=(",", ":"))]
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


CONSTRAINTS_HELP = "comma-separated class tags, @names, or formulas with a box, such as @T or @Four"


def build_parser() -> argparse.ArgumentParser:
    from .classes import ALGEBRA_TAGS, CORRESPONDENCE_PAIRS, FRAME_TAGS

    parser = argparse.ArgumentParser(
        prog="nbhd",
        description="Neighborhood frames, their algebras, and the constructions between them.",
    )
    parser.add_argument("--pretty", action="store_true", help="indented JSON output")
    parser.add_argument("--limit-bytes", type=int, default=None, help="fail with exit 3 if output exceeds this size")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("parse", help="parse a formula and report its shape")
    p.add_argument("--formula", required=True, help="formula text, @name, or - for stdin")
    p.set_defaults(func=cmd_parse)

    p = sub.add_parser("eval", help="evaluate a formula in an algebra under an assignment")
    p.add_argument("--algebra", help="algebra JSON file or -")
    p.add_argument("--frame", help="frame JSON file or -; its complex algebra is used")
    p.add_argument("--formula", required=True)
    p.add_argument("--assign", required=True, help='JSON object, e.g. {"u":1,"v":0}')
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("valid", help="exit 0 when the formula holds under every assignment")
    p.add_argument("--algebra", help="algebra JSON file or -")
    p.add_argument("--frame", help="frame JSON file or -; its complex algebra is used")
    p.add_argument("--formula", required=True)
    p.set_defaults(func=cmd_valid)

    p = sub.add_parser("dualize", help="frame to its algebra, or algebra to its atom frame")
    p.add_argument("--frame", help="frame JSON file or -")
    p.add_argument("--algebra", help="algebra JSON file or -")
    p.set_defaults(func=cmd_dualize)

    p_bax = sub.add_parser("bax", help="families closed under a one-step axiom set")
    bax_sub = p_bax.add_subparsers(dest="subcommand", required=True)
    p = bax_sub.add_parser("enum", help="enumerate all closed families at width n")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--axioms", required=True, help="comma-separated @names or one-step formulas")
    p.add_argument("--count", action="store_true")
    p.set_defaults(func=cmd_bax_enum)
    p = bax_sub.add_parser("map", help="push a closed family along a point map")
    p.add_argument("--morphism", required=True, help="point map JSON file or -")
    p.add_argument("--axioms", required=True)
    p.add_argument("--family", required=True, help="JSON list of subset masks")
    p.set_defaults(func=cmd_bax_map)

    p_lax = sub.add_parser("lax", help="one-step algebra over the closed families")
    lax_sub = p_lax.add_subparsers(dest="subcommand", required=True)
    p = lax_sub.add_parser("build")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--axioms", required=True)
    p.set_defaults(func=cmd_lax_build)
    p = lax_sub.add_parser("check", help="verify each axiom evaluates to the top element")
    p.add_argument("--lax", required=True, help="lax algebra JSON file or -")
    p.set_defaults(func=cmd_lax_check)

    p_class = sub.add_parser("class", help="frame and algebra class membership")
    class_sub = p_class.add_subparsers(dest="subcommand", required=True)
    p = class_sub.add_parser("check")
    p.add_argument("--frame", help="frame JSON file or -")
    p.add_argument("--algebra", help="algebra JSON file or -")
    p.add_argument("--tag", required=True, help=f"frame tags: {', '.join(FRAME_TAGS)}; algebra tags: {', '.join(ALGEBRA_TAGS)}")
    p.set_defaults(func=cmd_class_check)
    p = class_sub.add_parser("correspond", help="two-sided frame/algebra property agreement")
    p.add_argument("--frame", required=True)
    p.add_argument("--pair", required=True, choices=CORRESPONDENCE_PAIRS)
    p.set_defaults(func=cmd_class_correspond)

    p_gen = sub.add_parser("gen", help="general frames and the sigma/pi extensions")
    gen_sub = p_gen.add_subparsers(dest="subcommand", required=True)
    p = gen_sub.add_parser("validate", help="report subalgebra closure and separation flags")
    p.add_argument("--general", required=True, help="general frame JSON file or -")
    p.set_defaults(func=cmd_gen_validate)
    p = gen_sub.add_parser("sigma", help="sigma extension as a plain frame")
    p.add_argument("--general", required=True)
    p.set_defaults(func=cmd_gen_sigma)
    p = gen_sub.add_parser("pi", help="pi extension as a plain frame")
    p.add_argument("--general", required=True)
    p.set_defaults(func=cmd_gen_pi)
    p = gen_sub.add_parser("complement", help="complement the neighborhoods within the admissibles")
    p.add_argument("--general", required=True)
    p.set_defaults(func=cmd_gen_complement)
    p = gen_sub.add_parser("truncate", help="restrict a frame to an admissible subalgebra")
    p.add_argument("--frame", required=True)
    p.add_argument("--admissible", dest="admissible_json", required=True, help="JSON list of subset masks")
    p.set_defaults(func=cmd_gen_truncate)
    p = gen_sub.add_parser("descriptive", help="is the frame its own sigma (and pi) extension; exit 0 when sigma holds")
    p.add_argument("--general", required=True)
    p.set_defaults(func=cmd_gen_descriptive)

    p_mor = sub.add_parser("morphism", help="point maps between frames and their duals")
    mor_sub = p_mor.add_subparsers(dest="subcommand", required=True)
    p = mor_sub.add_parser("check")
    p.add_argument("--morphism", required=True)
    p.add_argument("--dom", required=True)
    p.add_argument("--cod", required=True)
    p.set_defaults(func=cmd_morphism_check)
    p = mor_sub.add_parser("dualize")
    p.add_argument("--morphism", help="point map JSON file or -")
    p.add_argument("--hom", help="atom-map hom JSON file or -")
    p.set_defaults(func=cmd_morphism_dualize)

    p_search = sub.add_parser("search", help="frame enumeration and countermodel search")
    search_sub = p_search.add_subparsers(dest="subcommand", required=True)
    p = search_sub.add_parser("countermodel", help="smallest frame refuting (or validating) a target")
    p.add_argument("--target", help="formula text or @name")
    p.add_argument("--constraints", default="", help=CONSTRAINTS_HELP)
    p.add_argument("--max-n", type=int, default=3, dest="max_n")
    p.add_argument("--mode", choices=("find_refuting", "find_validating", "count"), default="find_refuting")
    p.set_defaults(func=cmd_search_countermodel)
    p = search_sub.add_parser("enumerate", help="stream or count the frames in a constrained class")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--constraints", default="", help=CONSTRAINTS_HELP)
    p.add_argument("--canonical", action="store_true")
    p.add_argument("--count", action="store_true")
    p.set_defaults(func=cmd_search_enumerate)

    return parser


@lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    """The parser, built on the first call of main rather than at import;
    parsing keeps no state between calls."""
    return build_parser()


def _parse(argv: list[str]) -> argparse.Namespace:
    """`_parser().parse_args(argv)` by one parse of the leaf parser when
    argv begins with a full command path.

    argparse hands every token after the command words to the leaf
    parser, so the words are walked through the subparser choices, and
    the leaf parses the rest into a namespace that holds each level's
    defaults and command word, as the whole tree leaves them.  Leftover
    tokens are refused by the top parser, in parse_args' words.  Any other
    argv (a global flag or -h first, a word that names no command, a
    missing word) is parsed by the whole tree, and so is one with a token
    the top parser refuses as ambiguous, which starts with "--="."""
    top = parser = _parser()
    namespace = argparse.Namespace()
    depth = 0
    while sub := next((a for a in parser._actions if isinstance(a, argparse._SubParsersAction)), None):
        if depth == len(argv) or argv[depth] not in sub.choices:
            return top.parse_args(argv)
        for action in parser._actions:
            if action.default is not argparse.SUPPRESS:
                setattr(namespace, action.dest, action.default)
        setattr(namespace, sub.dest, argv[depth])
        parser = sub.choices[argv[depth]]
        depth += 1
    if any(arg.startswith("--=") for arg in argv):
        return top.parse_args(argv)
    namespace, extras = parser.parse_known_args(argv[depth:], namespace)
    if extras:
        top.error(f"unrecognized arguments: {' '.join(extras)}")
    return namespace


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
