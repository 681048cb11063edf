import argparse
import hashlib
import io
import json
import subprocess
import sys
import tracemalloc
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from nbhd import search
from nbhd.bax import baxspace_to_json, enumerate_bax
from nbhd.classes import CLASS_TABLE
from nbhd.cli import _parse, _parser, _pretty, _route, build_parser, main
from nbhd.core import famask_of, frame_from_json, frame_to_json
from nbhd.duality import complex_algebra, lax_algebra, lax_to_json
from nbhd.evaluate import eval_formula
from nbhd.formulas import axiom_set_from_specs, expand_named
from nbhd.genframe import (
    complement_within_admissible,
    general_frame_from_json,
    general_frame_to_json,
    pi_extend,
    sigma_extend,
    truncate,
)
from nbhd.search import enumerate_frames
from srcenv import source_env
from test_bax import SPACES

FRAME = {"n": 2, "N": [[1, 3], [0]]}
GENERAL = {"n": 2, "N": [[3], [3]], "A": [0, 3]}


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def jout(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert err == "", err
    return code, json.loads(out)


def write(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


def test_parse(capsys):
    # Implication is sugar, so the rendered form is its unsweetened AST.
    code, out = jout(capsys, "parse", "--formula", "box(u&v)->box u")
    assert code == 0
    assert out == {
        "formula": "~(box (u & v) & ~box u)",
        "vars": ["u", "v"],
        "one_step": True,
        "modal_depth": 1,
    }
    code, out = jout(capsys, "parse", "--formula", "@M")
    assert code == 0 and out["formula"] == "~(box (u & v) & ~box u)"
    code, _, err = run(capsys, "parse", "--formula", "u &")
    assert code == 2 and err.startswith("nbhd:")
    # @CInf is the conjunction of the @N and @C formulas.
    code, out = jout(capsys, "parse", "--formula", "@CInf")
    assert code == 0 and out == {
        "formula": "box T & (~((box u & box v) & ~box (u & v)) & ~(box (u & v) & ~(box u & box v)))",
        "vars": ["u", "v"],
        "one_step": True,
        "modal_depth": 1,
    }



def test_parse_names_the_offset_valid_names(capsys, tmp_path):
    # Both read the stripped text, so a syntax error has one offset.
    frame = write(tmp_path, "f.json", FRAME)
    for text, offset in (("  box (u", 6), (" u &", 3), ("   ", 0), ("\tbox ~ )", 6)):
        code, out, err = run(capsys, "parse", "--formula", text)
        assert (code, out) == (2, "") and f"at byte {offset}:" in err, text
        assert run(capsys, "valid", "--frame", frame, "--formula", text) == (2, "", err)

def test_eval(capsys, tmp_path):
    frame = write(tmp_path, "f.json", FRAME)
    algebra = write(tmp_path, "a.json", {"n": 2, "box": [2, 1, 0, 1]})
    code, out = jout(capsys, "eval", "--frame", frame, "--formula", "box u", "--assign", '{"u":3}')
    assert code == 0 and out == {"value": 1}
    code, out = jout(capsys, "eval", "--algebra", algebra, "--formula", "box u", "--assign", '{"u":3}')
    assert code == 0 and out == {"value": 1}
    code, _, err = run(capsys, "eval", "--frame", frame, "--algebra", algebra, "--formula", "u", "--assign", "{}")
    assert code == 2 and "not both" in err
    code, _, err = run(capsys, "eval", "--formula", "u", "--assign", '{"u":1}')
    assert code == 2
    code, _, err = run(capsys, "eval", "--frame", frame, "--formula", "u", "--assign", "[1]")
    assert code == 2
    code, _, err = run(capsys, "eval", "--frame", frame, "--formula", "u", "--assign", "{nope")
    assert code == 2
    code, _, err = run(capsys, "eval", "--frame", str(tmp_path / "missing.json"), "--formula", "u", "--assign", "{}")
    assert code == 2
    # A value must be an int subset mask: floats and booleans are refused
    # with exit 2, under a naked variable as much as under box or ~.
    for formula in ("u", "box u", "~u"):
        for value in ("1.5", "true", '"1"'):
            code, out, err = run(capsys, "eval", "--frame", frame, "--formula", formula, "--assign", f'{{"u":{value}}}')
            assert (code, out) == (2, "") and "not a subset mask" in err, (formula, value)
    # A semantic axiom evaluates through its registry formulas.
    code, out = jout(capsys, "eval", "--frame", frame, "--formula", "@CInf", "--assign", '{"u":0,"v":1}')
    assert code == 0 and out == {"value": 1}


def test_valid(capsys, tmp_path):
    frame = write(tmp_path, "f.json", FRAME)
    code, out = jout(capsys, "valid", "--frame", frame, "--formula", "box u -> box u")
    assert code == 0 and out == {"valid": True, "witness": None}
    code, out = jout(capsys, "valid", "--frame", frame, "--formula", "@M")
    assert code == 1 and out["valid"] is False and out["witness"] is not None
    # Semantic axioms answer with their least refuting assignment, which
    # the definitional evaluator refutes too.
    alg = complex_algebra(frame_from_json(FRAME))
    for name, witness in (("@Ck(4)", {"u": 0, "v": 1}), ("@CInf", {"u": 0, "v": 0})):
        code, out = jout(capsys, "valid", "--frame", frame, "--formula", name)
        assert code == 1 and out == {"valid": False, "witness": witness}
        assert eval_formula(alg, expand_named(name, 2).formula, witness) != 0b11
    principal = write(tmp_path, "p.json", {"n": 1, "N": [[1]]})
    code, out = jout(capsys, "valid", "--frame", principal, "--formula", "@Ck(4)")
    assert code == 0 and out == {"valid": True, "witness": None}
    # Up-cones, so both hold on the box table of this Kripke frame.
    kripke = write(tmp_path, "k.json", {"n": 2, "N": [[1, 3], [2, 3]]})
    for name in ("@Ck(4)", "@CInf"):
        code, out = jout(capsys, "valid", "--frame", kripke, "--formula", name)
        assert code == 0 and out == {"valid": True, "witness": None}


def test_dualize_round_trip_bytes(capsys, tmp_path):
    frame = write(tmp_path, "f.json", FRAME)
    code, out, _ = run(capsys, "dualize", "--frame", frame)
    assert code == 0
    assert out == '{"n":2,"box":[2,1,0,1]}\n'
    algebra = write(tmp_path, "a.json", json.loads(out))
    code, back, _ = run(capsys, "dualize", "--algebra", algebra)
    assert code == 0
    assert back == '{"n":2,"N":[[1,3],[0]]}\n'
    code, _, err = run(capsys, "dualize", "--frame", frame, "--algebra", algebra)
    assert code == 2
    code, _, err = run(capsys, "dualize")
    assert code == 2


def test_bax_enum(capsys):
    code, out = jout(capsys, "bax", "enum", "--n", "2", "--axioms", "@M", "--count")
    assert code == 0 and out == {"count": 6}
    code, out = jout(capsys, "bax", "enum", "--n", "2", "--axioms", "@M,@N")
    assert code == 0
    assert out["n"] == 2 and out["axioms"] == ["@M", "@N"]
    assert all(3 in members for members in out["members"])
    # An inline T is the formula T, which every family satisfies, not @T.
    code, out, err = run(capsys, "bax", "enum", "--n", "1", "--axioms", "T")
    assert (code, out, err) == (0, '{"n":1,"axioms":["T"],"members":[[],[0],[1],[0,1]]}\n', "")
    with pytest.raises(SystemExit) as exc:
        main(["bax", "enum", "--n", "1", "--axioms", "@Cont", "--strategy", "backtrack"])
    assert exc.value.code == 2 and "--strategy" in capsys.readouterr().err
    code, _, err = run(capsys, "bax", "enum", "--n", "6", "--axioms", "@M")
    assert code == 3
    # @CInf forces up-closure, so it takes the up-set route at n = 5, past
    # the filter sweep's cap of 4: the 32 principal families.
    code, out = jout(capsys, "bax", "enum", "--n", "5", "--axioms", "@CInf", "--count")
    assert code == 0 and out == {"count": 32}


def limit_sides(capsys, flags, argv, text):
    """--limit-bytes of exactly the output's size, newline included,
    passes; one byte less exits 3 with empty stdout and the message that
    names the size."""
    size = len(text) + 1
    assert run(capsys, *flags, "--limit-bytes", str(size), *argv) == (0, text + "\n", ""), (flags, argv)
    refusal = f"nbhd: output of {size} bytes exceeds --limit-bytes {size - 1}\n"
    assert run(capsys, *flags, "--limit-bytes", str(size - 1), *argv) == (3, "", refusal), (flags, argv)


def test_bax_enum_and_lax_build_text_match_the_dict_route(capsys):
    # The commands write pre-encoded text; both output forms and both
    # sides of the --limit-bytes boundary follow the dict codecs' encodings.
    for verb, n, specs in [("bax", 0, "@M"), ("bax", 3, "@M,@Cont"), ("bax", 4, "@N"), ("bax", 5, "@M"), ("lax", 3, "@M,@N"), ("lax", 4, "@N")]:
        argv = [verb, "enum" if verb == "bax" else "build", "--n", str(n), "--axioms", specs]
        axs = axiom_set_from_specs(specs.split(","), n)
        obj = baxspace_to_json(enumerate_bax(n, axs)) if verb == "bax" else lax_to_json(lax_algebra(n, axs))
        for flags, text in (([], json.dumps(obj, separators=(",", ":"))), (["--pretty"], json.dumps(obj, indent=2))):
            code, out, err = run(capsys, *flags, *argv)
            assert (code, out, err) == (0, text + "\n", ""), (flags, argv)
            limit_sides(capsys, flags, argv, text)


def test_search_enumerate_text_matches_the_dict_route(capsys):
    # The frames are written as text; both output forms and both sides of
    # the --limit-bytes boundary follow the encodings of frame_to_json's dicts.
    for n, constraints, flags in ((0, "", []), (2, "", []), (3, "filter", ["--canonical"]), (3, "kappa:1", [])):
        argv = ["search", "enumerate", "--n", str(n), "--constraints", constraints, *flags]
        frames = enumerate_frames(n, [constraints] if constraints else [], canonical=bool(flags))
        obj = {"frames": [frame_to_json(frame) for frame in frames]}
        for pretty, text in (([], json.dumps(obj, separators=(",", ":"))), (["--pretty"], json.dumps(obj, indent=2))):
            assert run(capsys, *pretty, *argv) == (0, text + "\n", ""), argv
            limit_sides(capsys, pretty, argv, text)


def test_pretty_writers_lay_out_their_compact_text_as_the_indented_round_trip(capsys):
    # --pretty rewrites a text writer's compact chunks; the result equals
    # json.dumps(json.loads(compact), indent=2), for every SPACES axiom set
    # at n <= 5 (at n = 5 only the up-set route answers), lax build, and
    # search enumerate over every class tag at n <= 3.
    def same_layout(argv):
        code, compact, _ = run(capsys, *argv)
        if code == 3:
            return False
        assert run(capsys, "--pretty", *argv) == (0, json.dumps(json.loads(compact), indent=2) + "\n", ""), argv
        return True

    spec_sets = list(dict.fromkeys(",".join(specs) for _, specs in SPACES))
    answered = [n for n in range(6) for specs in spec_sets if same_layout(["bax", "enum", "--n", str(n), "--axioms", specs])]
    # @Ck(2) and @Ck(16) force no up-closure at n = 5, so they are refused there.
    assert len(answered) == 6 * len(spec_sets) - 2
    for n in range(4):
        for specs in spec_sets:
            assert same_layout(["lax", "build", "--n", str(n), "--axioms", specs])
    for tag, _, _ in CLASS_TABLE:
        for n in range(4):
            for canonical in ([], ["--canonical"]):
                if n < 3 or tag not in ("convex", "coconvex", "iv"):
                    assert same_layout(["search", "enumerate", "--n", str(n), "--constraints", tag, *canonical])
    # These three classes write 2-49 MB at n = 3: their layout is checked
    # on the first 32 chunks of frames, closed after the last.
    for tag in ("convex", "coconvex", "iv"):
        for canonical in (False, True):
            chunks = search.frames_chunks(3, (tag,), canonical=canonical)[:64] + ["]}"]
            assert "".join(_pretty(chunks)) == json.dumps(json.loads("".join(chunks)), indent=2), tag


def test_text_writers_write_chunks_never_one_joined_copy(capsys, monkeypatch):
    # Each write to stdout is recorded: the writes join to the dict codec's
    # text, and none is longer than 64 KiB, so no writer or _emit joins
    # the whole output (737 KB, 2.3 MB and 4.9 MB of text here).
    class Writes(io.TextIOBase):
        def __init__(self):
            self.writes = []

        def write(self, text):
            self.writes.append(text)
            return len(text)

    axs = axiom_set_from_specs(["@N"], 4)
    frames = enumerate_frames(4, ["filter"])
    for argv, obj in (
        (["bax", "enum", "--n", "4", "--axioms", "@N"], baxspace_to_json(enumerate_bax(4, axs))),
        (["lax", "build", "--n", "4", "--axioms", "@N"], lax_to_json(lax_algebra(4, axs))),
        (["search", "enumerate", "--n", "4", "--constraints", "filter"], {"frames": [frame_to_json(frame) for frame in frames]}),
    ):
        stdout = Writes()
        monkeypatch.setattr(sys, "stdout", stdout)
        assert main(argv) == 0
        text = json.dumps(obj, separators=(",", ":")) + "\n"
        assert "".join(stdout.writes) == text and len(text) > 700_000, argv
        assert max(map(len, stdout.writes)) <= 64 << 10, argv


def test_workers_flag_is_unrecognized(capsys):
    # The search runs serially and --workers is no flag: before the command
    # argparse takes its value for the command, after it the flag is left over.
    for argv, message in (
        (["--workers", "2", "parse", "--formula", "T"], "invalid choice: '2'"),
        (["search", "countermodel", "--target", "@M", "--workers", "2"], "unrecognized arguments: --workers 2"),
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2 and message in capsys.readouterr().err
    proc = subprocess.run([sys.executable, "-m", "nbhd", "--workers", "2", "parse", "--formula", "T"], capture_output=True, env=source_env())
    assert (proc.returncode, proc.stdout) == (2, b"")


def test_search_level_guard_exits_3(capsys):
    # iv has a whole-frame constraint, so its count scans, and its n = 4
    # level is past the key cap.
    code, out, err = run(capsys, "search", "countermodel", "--mode", "count", "--constraints", "iv", "--max-n", "4")
    assert (code, out) == (3, "") and f"level n=4 has {1 << 64} keys, exceeds cap" in err
    code, out = jout(capsys, "search", "countermodel", "--mode", "count", "--constraints", "filter", "--max-n", "4")
    assert code == 0 and out == {"count": 3161, "checked": 3161}


def test_search_answers_at_n5(capsys):
    # Labeled and unlabeled topologies on n points: OEIS A000798 and A001930.
    for n, labeled, unlabeled in zip(range(6), (1, 1, 4, 29, 355, 6942), (1, 1, 3, 9, 33, 139)):
        argv = ("search", "enumerate", "--n", str(n), "--constraints", "topological", "--count")
        assert run(capsys, *argv) == (0, f'{{"count":{labeled}}}\n', "")
        assert run(capsys, *argv, "--canonical") == (0, f'{{"count":{unlabeled}}}\n', "")
    for argv, out in (
        (("--constraints", "filter"), '{"count":295129,"checked":295129}\n'),
        (("--constraints", "topological"), '{"count":186,"checked":186}\n'),
        (("--target", "@Four", "--constraints", "filter"), '{"count":2187,"checked":295129}\n'),
    ):
        assert run(capsys, "search", "countermodel", "--mode", "count", *argv, "--max-n", "5") == (0, out, "")


def test_search_counts_pointwise_levels_by_orbits(capsys):
    # Levels past the key cap that have no whole-frame constraint are
    # counted by orbits.
    argv = ("search", "countermodel", "--mode", "count", "--max-n", "4")
    assert run(capsys, *argv, "--constraints", "contingency") == (0, '{"count":179229501,"checked":179229501}\n', "")
    assert run(capsys, *argv) == (0, '{"count":768614611827755917,"checked":768614611827755917}\n', "")


def test_search_refusals_by_work(capsys, monkeypatch):
    # Frames whose text would be held: 32^5 filter keys exceed 2^24.
    code, out, err = run(capsys, "search", "enumerate", "--n", "5", "--constraints", "filter")
    assert (code, out) == (3, "") and f"level n=5 has {1 << 25} keys, exceeds cap {1 << 24}" in err
    code, out, err = run(capsys, "search", "enumerate", "--n", "-1")
    assert (code, out) == (2, "")
    # No level past 5 has candidates: a --max-n 6 range is refused before
    # its first level is compiled.
    monkeypatch.setattr(search, "_compile_constraints", lambda *args: pytest.fail("a level was compiled"))
    for argv in (("--mode", "count"), ("--target", "@M"), ("--mode", "count", "--constraints", "filter")):
        code, out, err = run(capsys, "search", "countermodel", *argv, "--max-n", "6")
        assert (code, out) == (3, "") and "find_countermodel: n=6 exceeds cap 5" in err


def test_assignment_guard_fires_only_before_a_sweep(capsys):
    # Seven variables at n = 3 exceed the guard, but it is checked before
    # each target sweep: levels 1-3 of @N,~box(T) have no frame to sweep.
    argv = ("search", "countermodel", "--mode", "count", "--target", "a&b&c&d&e&f&g", "--max-n", "3")
    code, out, err = run(capsys, *argv, "--constraints", "@N,~box(T)")
    assert (code, out, err) == (0, '{"count":1,"checked":1}\n', "")
    code, out, err = run(capsys, *argv, "--constraints", "filter")
    assert (code, out) == (3, "") and "validates: assignment space (2^3)^7 exceeds guard 262144" in err


def test_unconstrained_target_count_at_n3(capsys):
    code, out, err = run(capsys, "search", "countermodel", "--mode", "count", "--target", "@T", "--max-n", "3")
    assert (code, out, err) == (0, '{"count":765,"checked":2804621}\n', "")


def test_rank1_targets_never_sweep(capsys, monkeypatch):
    # A target of modal depth at most 1 is decided by per-point pass
    # planes in every mode: the whole-frame lane test only ever gets the
    # Four of `topological`.  It still tests @Four as a target, whose
    # witness the benchmark pins byte for byte, once per level.
    four = search.compile_algebra(search.compile_target("@Four", 1))
    sweeps = []
    whole = search._whole_lanes
    monkeypatch.setattr(search, "_whole_lanes", lambda planes, n, lanes, program: sweeps.append((n, program)) or whole(planes, n, lanes, program))
    rank1 = ("@M", "@C", "@N", "@Cont", "@Conv", "@CoConv", "@T", "@Ck(2)", "@CInf", "box p -> p | box ~p", "p", "T")
    for target in rank1:
        for mode in ("find_refuting", "find_validating", "count"):
            for constraints, max_n in (("", "2"), ("filter", "3"), ("monotone", "2"), ("topological", "3")):
                argv = ["search", "countermodel", "--target", target, "--mode", mode, "--max-n", max_n]
                code, out, err = run(capsys, *argv, *(["--constraints", constraints] if constraints else []))
                assert code in (0, 1) and err == "" and out, argv
    for target, text in (("@T", '{"count":21,"checked":117}\n'), ("@Conv", '{"count":117,"checked":117}\n')):
        argv = ("search", "countermodel", "--mode", "count", "--target", target, "--constraints", "filter", "--max-n", "3")
        assert run(capsys, *argv) == (0, text, "")
    assert sweeps and {program for _, program in sweeps} == {four}
    sweeps.clear()
    code, out, err = run(capsys, "search", "countermodel", "--target", "@Four", "--constraints", "filter", "--max-n", "4")
    assert (code, out, err) == (1, '{"found":true,"frame":{"n":2,"N":[[3],[1,3]]},"assignment":{"b":1},"checked":5}\n', "")
    assert sweeps == [(0, four), (1, four), (2, four)]


def test_rank1_constraints(capsys):
    # @T and inline formulas of modal depth 1 are constraints; T is the
    # centered class.  A box-free formula with a variable (a misspelt
    # tag) exits 2.
    for argv in (("countermodel", "--mode", "count", "--max-n", "3"), ("enumerate", "--n", "3", "--count")):
        centered = run(capsys, "search", *argv, "--constraints", "centered")
        assert centered[0] == 0
        for constraints in ("@T", "box b -> b", "box p -> p,@T"):
            assert run(capsys, "search", *argv, "--constraints", constraints) == centered, (argv, constraints)
    code, out = jout(capsys, "search", "enumerate", "--n", "2", "--constraints", "filter,box p -> p")
    assert (code, out) == (0, json.loads(run(capsys, "search", "enumerate", "--n", "2", "--constraints", "pretopological")[1]))
    for argv in (("enumerate", "--n", "2"), ("countermodel", "--mode", "count")):
        code, out, err = run(capsys, "search", *argv, "--constraints", "topologcal")
        assert (code, out) == (2, "") and "constraint 'topologcal' has modal depth 0" in err, argv


def test_whole_frame_constraints(capsys):
    # @Four, and Four spelled out, are the class of the tag iv: the same
    # counts and the same enumerate bytes.  Other formulas of modal depth
    # 2 are constraints too.
    for argv in (("countermodel", "--mode", "count", "--max-n", "3"), ("enumerate", "--n", "3", "--count"), ("enumerate", "--n", "2")):
        iv = run(capsys, "search", *argv, "--constraints", "iv")
        assert iv[0] == 0
        for constraints in ("@Four", "box b -> box box b", "iv,@Four"):
            assert run(capsys, "search", *argv, "--constraints", constraints) == iv, (argv, constraints)
    assert run(capsys, "search", "countermodel", "--mode", "count", "--max-n", "3", "--constraints", "iv")[1] == '{"count":43425,"checked":43425}\n'
    argv = ("search", "countermodel", "--mode", "count", "--max-n", "4", "--constraints", "topological,~box~box p -> box~box~p")
    assert run(capsys, *argv) == (0, '{"count":38,"checked":38}\n', "")


def test_bax_map(capsys, tmp_path):
    morphism = write(tmp_path, "m.json", {"n_dom": 2, "n_cod": 1, "map": [0, 0]})
    code, out = jout(capsys, "bax", "map", "--morphism", morphism, "--axioms", "@M", "--family", "[3]")
    assert code == 0 and out == {"family": [1]}
    code, _, err = run(capsys, "bax", "map", "--morphism", morphism, "--axioms", "@M", "--family", "3")
    assert code == 2
    code, _, err = run(capsys, "bax", "map", "--morphism", morphism, "--axioms", "@M", "--family", "[1]")
    assert code == 2
    # The axioms are resolved at the domain's size, where @Ck(70000) is @C;
    # unresolved, its 70,000 variables exceed the cap, exit 3.
    code, out = jout(capsys, "bax", "map", "--morphism", morphism, "--axioms", "@Ck(70000)", "--family", "[3]")
    assert code == 0 and out == {"family": [1]}
    code, out, err = run(capsys, "parse", "--formula", "@Ck(70000)")
    assert (code, out) == (3, "") and "exceeds cap 65536" in err


def test_bax_map_wide_codomain_exits_3(tmp_path):
    # A subprocess with a timeout, so an unbounded loop over the 2^40
    # codomain subsets fails the test instead of hanging the suite.
    morphism = write(tmp_path, "m.json", {"n_dom": 0, "n_cod": 40, "map": []})
    proc = subprocess.run(
        [sys.executable, "-m", "nbhd", "bax", "map", "--morphism", morphism, "--axioms", "@M", "--family", "[]"],
        capture_output=True,
        text=True,
        env=source_env(),
        timeout=30,
    )
    assert proc.returncode == 3 and proc.stdout == ""
    assert proc.stderr == "nbhd: bax_map: n=40 exceeds cap 16\n"


def test_gen_validate_decides_a_wide_powerset_quickly(tmp_path):
    # A is every subset of 16 points: 65,536 members, which a check over
    # pairs of members would visit 2^32 times.  The subprocess timeout
    # fails the test instead of hanging the suite.
    general = write(tmp_path, "g.json", {"n": 16, "N": [[]] * 16, "A": list(range(1 << 16))})
    proc = subprocess.run(
        [sys.executable, "-m", "nbhd", "gen", "validate", "--general", general],
        capture_output=True,
        text=True,
        env=source_env(),
        timeout=30,
    )
    assert proc.returncode == 0 and proc.stderr == ""
    assert proc.stdout == '{"valid":true,"reason":null,"tight":true,"differentiated":true,"compact":true}\n'


def test_family_flags_range_check_members(capsys, tmp_path):
    morphism = write(tmp_path, "m.json", {"n_dom": 2, "n_cod": 1, "map": [0, 0]})
    frame = write(tmp_path, "f.json", {"n": 2, "N": [[3], [3]]})
    for raw in ("[1048576]", "[68719476736]"):
        code, _, err = run(capsys, "bax", "map", "--morphism", morphism, "--axioms", "@M", "--family", raw)
        assert code == 2 and "is not a subset mask for n=2" in err
        code, _, err = run(capsys, "gen", "truncate", "--frame", frame, "--admissible", raw)
        assert code == 2 and "is not a subset mask for n=2" in err
    code, _, err = run(capsys, "bax", "map", "--morphism", morphism, "--axioms", "@M", "--family", "[true]")
    assert code == 2
    code, _, err = run(capsys, "gen", "truncate", "--frame", frame, "--admissible", "[false, true]")
    assert code == 2


def test_lax_build_and_check(capsys, tmp_path):
    code, out = jout(capsys, "lax", "build", "--n", "1", "--axioms", "@C")
    assert code == 0
    assert set(out) == {"n", "axioms", "members", "gen"}
    lax = write(tmp_path, "lax.json", out)
    code, report = jout(capsys, "lax", "check", "--lax", lax)
    assert code == 0 and report == {"ok": True, "axioms": {"C": True}}
    # An inline T round-trips as the formula T, not as the registry @T.
    code, out = jout(capsys, "lax", "build", "--n", "1", "--axioms", "T")
    assert code == 0 and out["axioms"] == ["T"]
    code, report = jout(capsys, "lax", "check", "--lax", write(tmp_path, "t.json", out))
    assert code == 0 and report == {"ok": True, "axioms": {"T": True}}


def test_lax_check_refuses_a_gen_that_is_not_the_transpose(capsys, tmp_path):
    # lax build writes the transpose of the members; lax check accepts it
    # for every fixed one-step registry axiom at n <= 2.
    for axiom in ("@M", "@C", "@N", "@Cont", "@Conv", "@CoConv"):
        for n in range(3):
            code, out = jout(capsys, "lax", "build", "--n", str(n), "--axioms", axiom)
            assert code == 0
            code, report = jout(capsys, "lax", "check", "--lax", write(tmp_path, "lax.json", out))
            assert code == 0 and report == {"ok": True, "axioms": {axiom[1:]: True}}, (axiom, n)
    # For these members lax build writes "gen":[[2],[1,2]]; this gen
    # describes three copies of {0, 1} instead.
    lax = write(tmp_path, "lax.json", {"n": 1, "axioms": ["@M"], "members": [[], [1], [0, 1]], "gen": [[0, 1, 2], [0, 1, 2]]})
    code, out, err = run(capsys, "lax", "check", "--lax", lax)
    assert code == 2 and out == "" and "gen must be the transpose of members" in err
    # Entries may list atoms in any order, as before.
    lax = write(tmp_path, "lax.json", {"n": 1, "axioms": ["@M"], "members": [[], [1], [0, 1]], "gen": [[2], [2, 1, 2]]})
    code, report = jout(capsys, "lax", "check", "--lax", lax)
    assert code == 0 and report == {"ok": True, "axioms": {"M": True}}


def test_lax_check_refuses_unordered_members(capsys, tmp_path):
    # gen is consistent with the members as listed; only their order is at fault.
    for members in ([[2, 3], [3], [1, 3], [0, 1, 2, 3], []], [[1], [1]]):
        gen = [[i for i, fam in enumerate(members) if a in fam] for a in range(4)]
        lax = write(tmp_path, "lax.json", {"n": 2, "axioms": ["@M"], "members": members, "gen": gen})
        code, out, err = run(capsys, "lax", "check", "--lax", lax)
        assert code == 2 and out == "" and "strictly ascending by famask" in err


def test_frame_member_rejections_keep_exit_codes(capsys, tmp_path):
    cases = (
        ({"n": 2, "N": [[True], [0]]}, 2, "expected a list of ints"),
        ({"n": 2, "N": [[0, 1.0], [0]]}, 2, "expected a list of ints"),
        ({"n": 2, "N": [[1], [0, 4]]}, 2, "is not a subset mask for n=2"),
        ({"n": 2, "N": [[4, True], [0]]}, 2, "expected a list of ints"),
        ({"n": 17, "N": [[1 << 16]] + [[]] * 16}, 3, "needs more than 16 points"),
        ({"n": True, "N": [[1]]}, 2, "frame: n must be a nonnegative int, got True"),
    )
    for obj, expected_code, message in cases:
        code, out, err = run(capsys, "dualize", "--frame", write(tmp_path, "f.json", obj))
        assert code == expected_code and out == "" and message in err, obj


DENSE_N4_SHA256 = "e4f6c634e45601fa7792383a8e0bf4c6c6307291b59532a7120dcde65a8cb465"


def test_dense_bax_enum_output_is_pinned():
    # The 32,768 @N families at n = 4.
    proc = subprocess.run(
        [sys.executable, "-m", "nbhd", "bax", "enum", "--n", "4", "--axioms", "@N"],
        capture_output=True,
        env=source_env(),
    )
    assert proc.returncode == 0, proc.stderr
    assert hashlib.sha256(proc.stdout).hexdigest() == DENSE_N4_SHA256
    assert proc.stdout.count(b"],[") == 32767


def test_class_check_and_correspond(capsys, tmp_path):
    frame = write(tmp_path, "f.json", FRAME)
    algebra = write(tmp_path, "a.json", {"n": 2, "box": [2, 1, 0, 1]})
    code, out = jout(capsys, "class", "check", "--frame", frame, "--tag", "monotone")
    assert code == 1 and out == {"tag": "monotone", "holds": False}
    code, out = jout(capsys, "class", "check", "--algebra", algebra, "--tag", "bam")
    assert code == 1 and out == {"tag": "bam", "holds": False}
    principal = write(tmp_path, "p.json", {"n": 1, "N": [[1]]})
    code, out = jout(capsys, "class", "check", "--frame", principal, "--tag", "kappa:2")
    assert code == 0 and out == {"tag": "kappa:2", "holds": True}
    code, _, err = run(capsys, "class", "check", "--frame", frame, "--algebra", algebra, "--tag", "iv")
    assert code == 2
    code, _, err = run(capsys, "class", "check", "--frame", frame, "--tag", "open")
    assert code == 2
    flagged = write(tmp_path, "ab.json", {"n": True, "box": [0, 1]})
    code, out, err = run(capsys, "class", "check", "--algebra", flagged, "--tag", "bam")
    assert code == 2 and out == "" and "algebra: n must be a nonnegative int" in err
    # Algebra tags run on the atom frame's key, so they answer past the
    # assignment-space guard of the formula route: the identity box is
    # convex and normal, a box that is empty everywhere is not normal.
    identity = write(tmp_path, "id7.json", {"n": 7, "box": list(range(1 << 7))})
    code, out = jout(capsys, "class", "check", "--algebra", identity, "--tag", "convex")
    assert code == 0 and out == {"tag": "convex", "holds": True}
    empty = write(tmp_path, "zero10.json", {"n": 10, "box": [0] * (1 << 10)})
    code, out = jout(capsys, "class", "check", "--algebra", empty, "--tag", "normal")
    assert code == 1 and out == {"tag": "normal", "holds": False}
    identity = write(tmp_path, "id10.json", {"n": 10, "box": list(range(1 << 10))})
    for tag in ("normal", "interior"):
        code, out = jout(capsys, "class", "check", "--algebra", identity, "--tag", tag)
        assert code == 0 and out == {"tag": tag, "holds": True}
    code, out = jout(capsys, "class", "correspond", "--frame", frame, "--pair", "IV4")
    assert code == 0
    assert out == {"pair": "IV4", "frame_side": False, "algebra_side": False, "agree": True}
    with pytest.raises(SystemExit) as exc:
        main(["class", "correspond", "--frame", frame, "--pair", "IV5"])
    assert exc.value.code == 2
    capsys.readouterr()
    # A famask over 40 points would take 2^40 bits: every frame tag stops
    # at the width check, before any plane is built.
    # Small members fit a famask at any n, so such a frame decodes first.
    empty = write(tmp_path, "wide.json", {"n": 40, "N": [[]] * 40})
    small = write(tmp_path, "small.json", {"n": 40, "N": [[x, 1 << (x % 16)] for x in range(40)]})
    tracemalloc.start()
    try:
        for wide in (empty, small):
            for tag in ("monotone", "convex", "coconvex", "contingency", "filter", "kappa:2", "centered", "iv", "topological"):
                code, _, err = run(capsys, "class", "check", "--frame", wide, "--tag", tag)
                assert code == 3 and "n=40 exceeds cap 16" in err
        assert tracemalloc.get_traced_memory()[1] < 16 << 20
    finally:
        tracemalloc.stop()


def test_gen_subcommands(capsys, tmp_path):
    general = write(tmp_path, "g.json", GENERAL)
    gf = general_frame_from_json(GENERAL)
    code, out = jout(capsys, "gen", "validate", "--general", general)
    assert code == 0 and out["valid"] is True
    bad = write(tmp_path, "bad.json", {"n": 1, "N": [[]], "A": [1]})
    code, out = jout(capsys, "gen", "validate", "--general", bad)
    assert code == 1 and out["valid"] is False and out["reason"]
    code, out = jout(capsys, "gen", "sigma", "--general", general)
    assert code == 0 and out == frame_to_json(sigma_extend(gf))
    code, out = jout(capsys, "gen", "pi", "--general", general)
    assert code == 0 and out == frame_to_json(pi_extend(gf))
    code, out = jout(capsys, "gen", "complement", "--general", general)
    assert code == 0 and out == general_frame_to_json(complement_within_admissible(gf))
    sharp = {"n": 2, "N": [[3], [3]]}
    frame = write(tmp_path, "f.json", sharp)
    code, out = jout(capsys, "gen", "truncate", "--frame", frame, "--admissible", "[0,3]")
    assert code == 0 and out == general_frame_to_json(truncate(frame_from_json(sharp), famask_of((0, 3))))
    code, _, err = run(capsys, "gen", "truncate", "--frame", frame, "--admissible", "7")
    assert code == 2
    lopsided = write(tmp_path, "l.json", FRAME)
    code, _, err = run(capsys, "gen", "truncate", "--frame", lopsided, "--admissible", "[0,3]")
    assert code == 2 and "box" in err
    code, out = jout(capsys, "gen", "descriptive", "--general", general)
    assert code == 0 and out == {"sigma": True, "pi": False}
    loose = write(tmp_path, "loose.json", {"n": 2, "N": [[0, 3], [0, 3]], "A": [0, 3]})
    code, out = jout(capsys, "gen", "descriptive", "--general", loose)
    assert code == 1 and out["sigma"] is False


def test_morphism_subcommands(capsys, tmp_path):
    morphism = write(tmp_path, "m.json", {"n_dom": 2, "n_cod": 1, "map": [0, 0]})
    dom = write(tmp_path, "dom.json", {"n": 2, "N": [[3], [3]]})
    cod = write(tmp_path, "cod.json", {"n": 1, "N": [[1]]})
    code, out = jout(capsys, "morphism", "check", "--morphism", morphism, "--dom", dom, "--cod", cod)
    assert code == 0 and out == {"is_morphism": True}
    other = write(tmp_path, "cod2.json", {"n": 1, "N": [[0]]})
    code, out = jout(capsys, "morphism", "check", "--morphism", morphism, "--dom", dom, "--cod", other)
    assert code == 1 and out == {"is_morphism": False}
    code, out, _ = run(capsys, "morphism", "dualize", "--morphism", morphism)
    assert code == 0 and out == '{"n_dom":1,"n_cod":2,"atom_map":[0,0]}\n'
    hom = write(tmp_path, "h.json", json.loads(out))
    code, back, _ = run(capsys, "morphism", "dualize", "--hom", hom)
    assert code == 0 and back == '{"n_dom":2,"n_cod":1,"map":[0,0]}\n'
    code, _, err = run(capsys, "morphism", "dualize", "--morphism", morphism, "--hom", hom)
    assert code == 2
    code, _, err = run(capsys, "morphism", "dualize")
    assert code == 2
    flagged = write(tmp_path, "mb.json", {"n_dom": 1, "n_cod": True, "map": [0]})
    code, out, err = run(capsys, "morphism", "dualize", "--morphism", flagged)
    assert code == 2 and out == "" and "n_cod must be a nonnegative int" in err


def test_search_countermodel_cli(capsys):
    code, out, _ = run(capsys, "search", "countermodel", "--target", "@M")
    assert code == 1
    assert out == '{"found":true,"frame":{"n":1,"N":[[0]]},"assignment":{"u":1,"v":0},"checked":3}\n'
    code, out = jout(capsys, "search", "countermodel", "--target", "@M", "--constraints", "monotone", "--max-n", "2")
    assert code == 0 and out["found"] is False and out["checked"] == 25
    code, out = jout(capsys, "search", "countermodel", "--target", "box u", "--mode", "find_validating")
    assert code == 0 and out["frame"] == {"n": 0, "N": []}
    code, out = jout(capsys, "search", "countermodel", "--mode", "count", "--constraints", "monotone", "--max-n", "2")
    assert code == 0 and out == {"count": 25, "checked": 25}
    code, out, _ = run(capsys, "search", "countermodel", "--target", "@M", "--max-n", "5")
    assert code == 1
    assert out == '{"found":true,"frame":{"n":1,"N":[[0]]},"assignment":{"u":1,"v":0},"checked":3}\n'
    code, _, err = run(capsys, "search", "countermodel", "--target", "@M", "--max-n", "6")
    assert code == 3 and "cap" in err
    code, _, err = run(capsys, "search", "countermodel", "--mode", "find_refuting")
    assert code == 2


def test_search_enumerate_cli(capsys):
    code, out = jout(capsys, "search", "enumerate", "--n", "2", "--constraints", "filter", "--count")
    assert code == 0 and out == {"count": 16}
    code, out = jout(capsys, "search", "enumerate", "--n", "2", "--constraints", "filter", "--canonical", "--count")
    assert code == 0 and out == {"count": 10}
    code, out = jout(capsys, "search", "enumerate", "--n", "1", "--constraints", "filter")
    assert code == 0 and out == {"frames": [{"n": 1, "N": [[1]]}, {"n": 1, "N": [[0, 1]]}]}
    # A count with a whole-frame constraint scans, up to the key cap; one
    # without is counted by orbits.
    code, _, err = run(capsys, "search", "enumerate", "--n", "4", "--constraints", "iv", "--count")
    assert code == 3
    assert run(capsys, "search", "enumerate", "--n", "4", "--count") == (0, f'{{"count":{1 << 64}}}\n', "")
    # An inline T constrains nothing; the tag's @M joins a listed @M once.
    code, out = jout(capsys, "search", "enumerate", "--n", "2", "--constraints", "T", "--count")
    assert code == 0 and out == {"count": 256}
    code, out = jout(capsys, "search", "enumerate", "--n", "2", "--constraints", "monotone,@M", "--count")
    assert code == 0 and out == {"count": 36}
    # A repeated spec names the same class; bax enum keeps its refusal.
    code, out = jout(capsys, "search", "enumerate", "--n", "2", "--constraints", "@M,@M", "--count")
    assert code == 0 and out == {"count": 36}
    code, out, err = run(capsys, "bax", "enum", "--n", "2", "--axioms", "@M,@M")
    assert (code, out) == (2, "") and "duplicate names" in err


def test_two_spellings_of_one_constraint_name_one_class(capsys):
    # A formula constraint stands for its parsed formula, whatever its spacing.
    for spec, count in (("box(u&v)->box u", 36), ("box b->b", 16)):
        spaced = spec.replace("->", " -> ").replace("box(", "box (").replace("&", " & ")
        for constraints in (spec, f"{spec},{spaced}", f"{spaced},{spec},{spaced}"):
            code, out = jout(capsys, "search", "enumerate", "--n", "2", "--constraints", constraints, "--count")
            assert (code, out) == (0, {"count": count}), constraints
    both = "box(u&v)->box u,@M,box (u & v) -> box u"
    code, out = jout(capsys, "search", "countermodel", "--mode", "count", "--constraints", both, "--max-n", "2")
    assert (code, out) == (0, {"count": 25, "checked": 25})
    # bax enum takes an axiom set, in which a name may appear once.
    code, out, err = run(capsys, "bax", "enum", "--n", "2", "--axioms", "box(u&v)->box u,box (u & v) -> box u")
    assert (code, out) == (2, "") and "duplicate names" in err


def test_output_flags(capsys):
    code, out, _ = run(capsys, "--pretty", "parse", "--formula", "u")
    assert code == 0 and out.startswith('{\n  "formula"')
    # Compact output is the default; there is no --json flag.
    with pytest.raises(SystemExit) as exc:
        main(["--json", "parse", "--formula", "u"])
    assert exc.value.code == 2 and "--json" in capsys.readouterr().err
    code, _, err = run(capsys, "--limit-bytes", "10", "parse", "--formula", "u")
    assert code == 3 and "exceeds" in err
    code, out, _ = run(capsys, "--limit-bytes", "10000", "parse", "--formula", "u")
    assert code == 0
    assert ", " not in out and ": " not in out
    # A negative limit is a usage error at the flag; 0 refuses any output.
    code, out, err = run(capsys, "--limit-bytes", "-5", "parse", "--formula", "u")
    assert (code, out) == (2, "") and "--limit-bytes must be at least 0, got -5" in err
    code, out, err = run(capsys, "--limit-bytes", "0", "parse", "--formula", "u")
    assert (code, out) == (3, "") and "exceeds --limit-bytes 0" in err


def test_stdin_inputs(capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdin", io.StringIO("box u -> u"))
    code, out = jout(capsys, "parse", "--formula", "-")
    assert code == 0 and out["formula"] == "~(box u & ~u)"
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(FRAME)))
    code, out = jout(capsys, "valid", "--frame", "-", "--formula", "box u -> box u")
    assert code == 0 and out["valid"] is True


def test_successive_main_calls_leak_no_state(capsys):
    # main reuses one parser for every call in a process, and the whole
    # tree and the leaf route share its leaf parsers.
    argv = ("search", "enumerate", "--n", "2")
    code, out = jout(capsys, *argv, "--count")
    assert code == 0 and out == {"count": 256}
    code, out = jout(capsys, *argv)
    assert code == 0 and len(out["frames"]) == 256
    compact = json.dumps(out, separators=(",", ":")) + "\n"
    for _ in range(2):
        code, pretty, _ = run(capsys, "--pretty", *argv)
        assert code == 0 and pretty == json.dumps(out, indent=2) + "\n"
        assert run(capsys, *argv) == (0, compact, "")
        code, counted = jout(capsys, *argv, "--count")
        assert code == 0 and counted == {"count": 256}
        assert run(capsys, "--limit-bytes", "5", *argv)[:2] == (3, "")
        assert run(capsys, *argv) == (0, compact, "")
    code, pretty, _ = run(capsys, "--pretty", "parse", "--formula", "u")
    assert code == 0 and pretty.startswith('{\n  "formula"')
    code, plain, _ = run(capsys, "parse", "--formula", "u")
    assert code == 0 and plain == json.dumps(json.loads(pretty), separators=(",", ":")) + "\n"
    with pytest.raises(SystemExit) as exc:
        main(["search", "enumerate", "--count"])
    assert exc.value.code == 2
    assert "--n" in capsys.readouterr().err
    code, out = jout(capsys, *argv, "--count")
    assert code == 0 and out == {"count": 256}


# The commands of the search-canon benchmark workload.
IN_PROCESS_COMMANDS = (
    "search enumerate --n 3 --constraints filter --canonical",
    "search countermodel --mode count --target @T --constraints filter --max-n 3",
    "search countermodel --mode count --target @Conv --constraints filter --max-n 3",
    "search countermodel --target @Four --constraints filter --max-n 4",
    "search enumerate --n 3 --constraints topological --canonical --count",
)


def test_main_writes_nothing_past_a_redirected_stdout(capfd):
    # A caller that redirects sys.stdout gets every byte, and nothing
    # reaches file descriptor 1: not from a stream saved at import, not at
    # exit.
    for line in IN_PROCESS_COMMANDS:
        buf = io.StringIO()
        with redirect_stdout(buf):
            code = main(line.split())
        assert code in (0, 1) and buf.getvalue().count("\n") == 1 and json.loads(buf.getvalue()), line
    out, _ = capfd.readouterr()
    assert out == ""
    argv = ["search", "countermodel", "--target", "@T", "--constraints", "filter", "--max-n", "3"]
    proc = subprocess.run([sys.executable, "-m", "nbhd", *argv], capture_output=True, text=True, env=source_env())
    assert proc.returncode == 1
    assert len(proc.stdout.splitlines()) == 1 and json.loads(proc.stdout)["found"] is True


def test_benchmark_commands_compile_each_class_level_once(monkeypatch):
    # A work counter, not a timer: every target and mode over one class
    # level shares one compiled level, so the five commands compile filter
    # at n = 0..3 and topological at n = 3, and a second pass compiles none.
    compiled = []
    compile_constraints = search._compile_constraints

    def spy(n, specs):
        compiled.append((n, specs))
        return compile_constraints(n, specs)

    monkeypatch.setattr(search, "_compile_constraints", spy)
    search._class_level.cache_clear()
    for _ in range(2):
        for line in IN_PROCESS_COMMANDS:
            with redirect_stdout(io.StringIO()):
                assert main(line.split()) in (0, 1), line
    assert compiled == [(n, ("filter",)) for n in (3, 0, 1, 2)] + [(3, ("topological",))]


def test_a_warm_repeat_of_the_benchmark_commands_compiles_nothing(monkeypatch):
    # A target is resolved once per stripped text and width: a second pass
    # of the five commands resolves, compiles and walks no formula.
    def one_pass():
        outputs = []
        for line in IN_PROCESS_COMMANDS:
            buf = io.StringIO()
            with redirect_stdout(buf):
                code = main(line.split())
            outputs.append((code, buf.getvalue()))
        return outputs

    cold = one_pass()
    for name in ("compile_target", "modal_depth", "free_vars"):
        monkeypatch.setattr(search, name, lambda *args, name=name: pytest.fail(f"a warm pass called {name}"))
    assert one_pass() == cold
    assert search._target("  @Four ", 2) is search._target("@Four", 2)


def test_runs_are_byte_identical(capsys):
    argv = ("search", "countermodel", "--target", "box v -> v", "--constraints", "filter")
    first = run(capsys, *argv)
    second = run(capsys, *argv)
    assert first == second
    assert first[0] == 1


def test_console_script():
    # Run the [project.scripts] target the way the installed `nbhd` script
    # would, so the entry-point wiring is checked without an install.
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
    target = tomllib.loads(pyproject.read_text())["project"]["scripts"]["nbhd"]
    module, function = target.split(":")
    launcher = f"import sys; from {module} import {function}; sys.exit({function}())"
    proc = subprocess.run(
        [sys.executable, "-c", launcher, "parse", "--formula", "@M"],
        capture_output=True,
        text=True,
        env=source_env(),
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["one_step"] is True


# The commands of the three CLI benchmark workloads.
BENCHMARK_COMMANDS = (
    "bax enum --n 4 --axioms @Cont --count",
    "bax enum --n 4 --axioms @M,@C --count",
    "bax enum --n 5 --axioms @M,@Cont --count",
    "bax enum --n 4 --axioms @N",
    "bax enum --n 5 --axioms @M",
    *IN_PROCESS_COMMANDS,
)


def leaves(parser, path=()):
    """(command words, parser) for each leaf of the parser tree."""
    subs = [action for action in parser._actions if isinstance(action, argparse._SubParsersAction)]
    if not subs:
        yield path, parser
    for sub in subs:
        for word, child in sub.choices.items():
            yield from leaves(child, (*path, word))


def option_argv(action, choice=0):
    """An option of a leaf parser with a value it accepts."""
    if action.nargs == 0:
        return [action.option_strings[0]]
    value = list(action.choices)[choice] if action.choices else "2" if action.type is int else "x"
    return [action.option_strings[0], value]


def parse_corpus():
    """The argvs the command-table route is held to the whole tree on:
    the benchmark commands, each leaf with its required options and with
    each option in turn, and the forms and errors argparse treats apart."""
    corpus = [line.split() for line in BENCHMARK_COMMANDS]
    for path, leaf in leaves(build_parser()):
        options = [action for action in leaf._actions if action.option_strings and action.dest != "help"]
        corpus.append([*path, *(word for action in options if action.required for word in option_argv(action))])
        for action in options:
            rest = [word for other in options if other.required and other is not action for word in option_argv(other)]
            corpus.append([*path, *rest, *option_argv(action, -1)])
    corpus += [
        ["search", "enumerate", "--n=2"],
        ["--limit-bytes=5", "search", "enumerate", "--n", "2"],
        ["search", "enumerate", "--n", "2", "--limit-bytes=5"],
        ["--pre", "bax", "enum", "--n", "2", "--axioms", "@M"],
        ["--lim", "100", "parse", "--formula", "u"],
        ["parse", "--form", "u"],
        ["search", "enumerate", "--n", "2", "--c"],
        ["search", "enumerate", "--n", "2", "--can", "--cou"],
        ["-h"],
        ["search", "-h"],
        ["search", "enumerate", "-h"],
        ["parse", "--help"],
        ["nope"],
        ["search"],
        ["search", "nope"],
        ["bax", "enum", "--n", "2", "--axioms", "@M", "--pretty"],
        ["search", "enumerate", "--n", "2", "--limit-bytes", "5"],
        ["--workers", "2", "search", "enumerate", "--n", "2"],
        ["search", "enumerate", "--n", "2", "--workers", "2"],
        ["search", "enumerate"],
        ["search", "enumerate", "--n", "two"],
        ["search", "countermodel", "--mode", "nope"],
        ["morphism", "dualize", "--morphism", "m.json", "--", "x"],
        # The top parser finds "--=x" ambiguous before any subparser runs.
        ["search", "enumerate", "--n", "2", "--=x"],
        [],
        # Values int() reads past its digits, values starting with "-",
        # repeats, a value that is an option, and the global flags.
        *(["bax", "enum", "--n", n, "--axioms", "@M"] for n in ("+3", "3_0", "٣", " 3")),
        ["parse", "--formula", "-"],
        ["bax", "enum", "--n", "2", "--axioms", ""],
        ["bax", "enum", "--n", "2", "--n", "3", "--axioms", "@M"],
        ["bax", "enum", "--n", "2", "--axioms", "--count"],
        ["search", "countermodel", "--mode=count"],
        ["search", "countermodel", "--max-n", "-1"],
        ["--pretty", "bax", "enum", "--n", "2", "--axioms", "@M"],
        ["--limit-bytes", "0", "bax", "enum", "--n", "2", "--axioms", "@M"],
        ["--pretty", "--limit-bytes", "0", "search", "enumerate", "--n", "2"],
        ["bax", "enum", "--n", "2", "--axioms", "@M", "--canonical"],
        # A lone "-" is a value, as for the stdin pipe of the README.
        ["dualize", "--algebra", "-"],
        ["valid", "--algebra", "-", "--formula", "@T"],
    ]
    return corpus


def parse_outcome(capsys, parse, argv):
    # The route gives a SimpleNamespace and the tree an argparse Namespace,
    # so the outcome holds their attributes.
    try:
        result = ("namespace", vars(parse(list(argv))))
    except SystemExit as exc:
        result = ("exit", exc.code)
    captured = capsys.readouterr()
    return result, captured.out, captured.err


def test_leaf_route_parses_as_the_whole_tree(capsys):
    # Where parse_args succeeds the route returns an equal namespace, and
    # where it exits the route exits with the same code and text.
    corpus = parse_corpus()
    assert len(corpus) > 80
    kinds = set()
    for argv in corpus:
        expected = parse_outcome(capsys, build_parser().parse_args, argv)
        assert parse_outcome(capsys, _parse, argv) == expected, argv
        kinds.add(expected[0][0] if expected[0][0] == "namespace" else expected[0])
    assert kinds == {"namespace", ("exit", 0), ("exit", 2)}


def test_a_lone_dash_value_takes_the_route():
    # "-" names stdin, and argparse reads it as a value, not an option.
    for argv in (["dualize", "--algebra", "-"], ["valid", "--algebra", "-", "--formula", "@T"], ["parse", "--formula", "-"]):
        assert vars(_route(argv)) == vars(build_parser().parse_args(argv)), argv
    assert _route(["bax", "enum", "--n", "-", "--axioms", "@M"]) is None


def test_main_builds_no_parser_for_a_benchmark_command():
    # A work counter, not a timer: main reads every benchmark command from
    # the command table, and the argparse tree is never built.
    _parser.cache_clear()
    for line in BENCHMARK_COMMANDS:
        with redirect_stdout(io.StringIO()):
            assert main(line.split()) in (0, 1)
    assert _parser.cache_info().currsize == 0
