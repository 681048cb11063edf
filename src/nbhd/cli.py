"""Command-line surface: one verb per construction, stable JSON out.

Exit codes: 0 success or a true verdict, 1 a false verdict (a refuting
assignment exists, a countermodel was found, a validating frame was not
found, a class check failed), 2 usage or input errors, 3 cap or output
limit errors.  Machine output goes to stdout, diagnostics to stderr.
"-" names stdin for any file argument.  Output is compact JSON; --pretty
switches to indented form.  --limit-bytes B, checked before any
command runs, refuses an output of more than B bytes.

Global flags come before the command.  `main` parses an argv that
begins with a full command path, such as `search enumerate`, by one
parse of that command's own parser, and any other argv by the whole
tree; both give the same namespace and the same usage errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import lru_cache

from .bax import bax_map, baxspace_text, enumerate_bax
from .classes import (
    ALGEBRA_TAGS,
    CORRESPONDENCE_PAIRS,
    FRAME_TAGS,
    algebra_class_check,
    correspondence_check,
    frame_class_check,
    parse_class_tag,
)
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
from .duality import (
    atom_frame,
    complex_algebra,
    dualize_complete_hom,
    dualize_frame_morphism,
    lax_algebra,
    lax_from_json,
    lax_text,
    onestep_top_check,
)
from .evaluate import eval_formula, find_refuting_assignment
from .formulas import (
    axiom_set_from_specs,
    expand_named,
    free_vars,
    is_one_step,
    modal_depth,
    parse as parse_formula,
    render,
)
from .genframe import (
    complement_within_admissible,
    general_frame_from_json,
    general_frame_report,
    general_frame_to_json,
    is_pi_descriptive,
    is_sigma_descriptive,
    pi_extend,
    sigma_extend,
    truncate,
)
from .search import (
    SearchSpec,
    compile_target,
    count_frames,
    find_countermodel,
    frames_text,
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


def _emit(obj, args) -> None:
    """Write obj as JSON, compact or under --pretty indented.  A str is
    compact JSON text already encoded.  Every output is ASCII, so its
    length is its size in bytes."""
    if args.pretty:
        text = json.dumps(json.loads(obj) if isinstance(obj, str) else obj, indent=2)
    else:
        text = obj if isinstance(obj, str) else json.dumps(obj, separators=(",", ":"))
    data = text + "\n"
    if args.limit_bytes is not None and len(data) > args.limit_bytes:
        raise OutputLimitError(f"output of {len(data)} bytes exceeds --limit-bytes {args.limit_bytes}")
    sys.stdout.write(data)


def _split_specs(text: str) -> list[str]:
    parts = [part.strip() for part in text.split(",")]
    return [part for part in parts if part]


def _formula_arg(text: str):
    """Formula text or a registry @name, via stdin when '-'."""
    if text == "-":
        text = sys.stdin.read().strip()
    return text


def cmd_parse(args) -> int:
    text = _formula_arg(args.formula)
    f = expand_named(text.strip()).formula if text.strip().startswith("@") else parse_formula(text)
    _emit(
        {
            "formula": render(f),
            "vars": list(free_vars(f)),
            "one_step": is_one_step(f),
            "modal_depth": modal_depth(f),
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
        return complex_algebra(frame_from_json(_load_json(args.frame)))
    raise InvalidInputError("an algebra or a frame input is required")


def cmd_eval(args) -> int:
    alg = _algebra_from_args(args)
    f = compile_target(_formula_arg(args.formula), alg.n)
    env_raw = _parse_inline_json(args.assign, "--assign")
    if not isinstance(env_raw, dict):
        raise InvalidInputError("--assign must be a JSON object of variable masks")
    value = eval_formula(alg, f, env_raw)
    _emit({"value": value}, args)
    return 0


def cmd_valid(args) -> int:
    alg = _algebra_from_args(args)
    witness = find_refuting_assignment(alg, compile_target(_formula_arg(args.formula), alg.n))
    _emit({"valid": witness is None, "witness": witness}, args)
    return 0 if witness is None else 1


def cmd_dualize(args) -> int:
    if bool(args.frame) == bool(args.algebra):
        raise InvalidInputError("give exactly one of --frame or --algebra")
    if args.frame:
        alg = complex_algebra(frame_from_json(_load_json(args.frame)))
        _emit(algebra_to_json(alg), args)
    else:
        frame = atom_frame(algebra_from_json(_load_json(args.algebra)))
        _emit(frame_to_json(frame), args)
    return 0


def cmd_bax_enum(args) -> int:
    axs = axiom_set_from_specs(_split_specs(args.axioms), args.n)
    space = enumerate_bax(args.n, axs)
    if args.count:
        _emit({"count": len(space.lanes)}, args)
    else:
        _emit(baxspace_text(space), args)
    return 0


def cmd_bax_map(args) -> int:
    f = morphism_from_json(_load_json(args.morphism))
    axs = axiom_set_from_specs(_split_specs(args.axioms), f.n_dom)
    family = _json_famask(_parse_inline_json(args.family, "--family"), f.n_dom, "--family")
    image = bax_map(f, family, axs)
    _emit({"family": _set_lanes(image)}, args)
    return 0


def cmd_lax_build(args) -> int:
    axs = axiom_set_from_specs(_split_specs(args.axioms), args.n)
    _emit(lax_text(lax_algebra(args.n, axs)), args)
    return 0


def cmd_lax_check(args) -> int:
    lax = lax_from_json(_load_json(args.lax))
    per = {ax.name: onestep_top_check(lax, ax) for ax in lax.space.axioms}
    ok = all(per.values())
    _emit({"ok": ok, "axioms": per}, args)
    return 0 if ok else 1


def cmd_class_check(args) -> int:
    tag = parse_class_tag(args.tag)
    if bool(args.frame) == bool(args.algebra):
        raise InvalidInputError("give exactly one of --frame or --algebra")
    if args.frame:
        holds = frame_class_check(frame_from_json(_load_json(args.frame)), tag)
    else:
        holds = algebra_class_check(algebra_from_json(_load_json(args.algebra)), tag)
    _emit({"tag": args.tag, "holds": holds}, args)
    return 0 if holds else 1


def cmd_class_correspond(args) -> int:
    frame = frame_from_json(_load_json(args.frame))
    report = correspondence_check(frame, args.pair)
    _emit(report, args)
    return 0 if report["agree"] else 1


def cmd_gen_validate(args) -> int:
    report = general_frame_report(general_frame_from_json(_load_json(args.general)))
    _emit(report, args)
    return 0 if report["valid"] else 1


def cmd_gen_sigma(args) -> int:
    frame = sigma_extend(general_frame_from_json(_load_json(args.general)))
    _emit(frame_to_json(frame), args)
    return 0


def cmd_gen_pi(args) -> int:
    frame = pi_extend(general_frame_from_json(_load_json(args.general)))
    _emit(frame_to_json(frame), args)
    return 0


def cmd_gen_complement(args) -> int:
    gf = complement_within_admissible(general_frame_from_json(_load_json(args.general)))
    _emit(general_frame_to_json(gf), args)
    return 0


def cmd_gen_truncate(args) -> int:
    frame = frame_from_json(_load_json(args.frame))
    admissible = _json_famask(_parse_inline_json(args.admissible_json, "--admissible"), frame.n, "--admissible")
    gf = truncate(frame, admissible)
    _emit(general_frame_to_json(gf), args)
    return 0


def cmd_gen_descriptive(args) -> int:
    gf = general_frame_from_json(_load_json(args.general))
    sigma = is_sigma_descriptive(gf)
    pi = is_pi_descriptive(gf)
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
        _emit(hom_to_json(dualize_frame_morphism(morphism_from_json(_load_json(args.morphism)))), args)
    else:
        _emit(morphism_to_json(dualize_complete_hom(hom_from_json(_load_json(args.hom)))), args)
    return 0


def cmd_search_countermodel(args) -> int:
    constraints = tuple(_split_specs(args.constraints)) if args.constraints else ()
    spec = SearchSpec(
        target=_formula_arg(args.target) if args.target else None,
        constraints=constraints,
        mode=args.mode,
        max_n=args.max_n,
    )
    result = find_countermodel(spec)
    _emit(result, args)
    if spec.mode == "find_refuting":
        return 1 if result["found"] else 0
    if spec.mode == "find_validating":
        return 0 if result["found"] else 1
    return 0


def cmd_search_enumerate(args) -> int:
    constraints = _split_specs(args.constraints) if args.constraints else []
    if args.count:
        total = count_frames(args.n, constraints, canonical=args.canonical)
        _emit({"count": total}, args)
    else:
        _emit(frames_text(args.n, constraints, canonical=args.canonical), args)
    return 0


def build_parser() -> argparse.ArgumentParser:
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
    p.add_argument("--constraints", default="", help="comma-separated class tags, @names, or one-step formulas")
    p.add_argument("--max-n", type=int, default=3, dest="max_n")
    p.add_argument("--mode", choices=("find_refuting", "find_validating", "count"), default="find_refuting")
    p.set_defaults(func=cmd_search_countermodel)
    p = search_sub.add_parser("enumerate", help="stream or count the frames in a constrained class")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--constraints", default="")
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
