"""End-to-end acceptance gate.

One check per numbered criterion, each printing a single PASS or FAIL
line (run with -s to watch them stream).  Expected values come from the
independent oracles in oracles.py or were hand-derived; the large
deterministic counts are frozen as goldens.  Stated time budgets are
asserted, not just hoped for.
"""

import functools
import json
import random
import subprocess
import sys
import time
from itertools import product
from pathlib import Path

import oracles
from srcenv import source_env
from nbhd import bitslice
from nbhd.bax import bax_map, enumerate_bax, principal_iso
from nbhd.classes import ClassTag, correspondence_check, frame_class_check
from nbhd.core import (
    FrameMorphism,
    InvalidInputError,
    NeighborhoodAlgebra,
    NeighborhoodFrame,
    Relation,
    complement_frame,
    famask_members,
    famask_of,
    from_relation,
    full_mask,
    is_nbhd_morphism,
    up_cone,
)
from nbhd.duality import (
    atom_frame,
    complex_algebra,
    dualize_frame_morphism,
    is_complete_nbhd_hom,
)
from nbhd.evaluate import compile_membership, is_ax_subset, realize_axiom, validates
from nbhd.formulas import axiom_set_from_specs, expand_named
from nbhd.genframe import (
    GeneralFrame,
    all_subalgebras,
    check_general_morphism,
    complement_within_admissible,
    pi_extend,
    sigma_extend,
    sigma_morphism_transfer,
    truncate,
    validate_general_frame,
)

DATA = Path(__file__).parent / "data"

ONE_STEP_AXIOMS = ("@M", "@C", "@N", "@Cont", "@Conv", "@CoConv")


def criterion(num: int, desc: str, budget: float | None = None):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper():
            start = time.perf_counter()
            try:
                fn()
                elapsed = time.perf_counter() - start
                if budget is not None and elapsed >= budget:
                    raise AssertionError(f"took {elapsed:.1f}s, budget {budget:.0f}s")
            except BaseException:
                print(f"criterion {num:2d}: FAIL  {desc}")
                raise
            print(f"criterion {num:2d}: PASS  {desc}  [{time.perf_counter() - start:.1f}s]")

        return wrapper

    return deco


def families(n: int):
    return range(1 << (1 << n))


def all_frames(n: int):
    return [NeighborhoodFrame(n, nbhd) for nbhd in product(families(n), repeat=n)]


def valid_tight_gfs(n: int):
    out = []
    for admissible in all_subalgebras(n):
        members = famask_members(admissible)
        picks = range(1 << len(members))
        for combo in product(picks, repeat=n):
            key = [famask_of(m for i, m in enumerate(members) if pick >> i & 1) for pick in combo]
            gf = GeneralFrame(n, key, admissible)
            try:
                validate_general_frame(gf)
            except InvalidInputError:
                continue
            out.append(gf)
    return out


@criterion(1, "validity on the complex algebra matches per-family membership", budget=10.0)
def test_criterion_01_validity_membership():
    axiom_sets = {spec: axiom_set_from_specs([spec], 2) for spec in ONE_STEP_AXIOMS}
    formulas = {spec: expand_named(spec, 2).formula for spec in ONE_STEP_AXIOMS}
    verdicts = {True: 0, False: 0}
    for frame in all_frames(2):
        alg = complex_algebra(frame)
        for spec in ONE_STEP_AXIOMS:
            valid = validates(alg, formulas[spec])
            member = all(is_ax_subset(fm, axiom_sets[spec], 2) for fm in frame.key())
            assert valid == member, (frame, spec)
            verdicts[valid] += 1
    assert verdicts[True] and verdicts[False]


@criterion(2, "frame/algebra round trips are identities", budget=30.0)
def test_criterion_02_round_trips():
    for n in range(3):
        for frame in all_frames(n):
            assert atom_frame(complex_algebra(frame)) == frame
        for boxes in product(range(1 << n), repeat=1 << n):
            alg = NeighborhoodAlgebra(n, boxes)
            assert complex_algebra(atom_frame(alg)) == alg
    rng = random.Random(2)
    for n in (3, 4):
        for _ in range(10_000):
            frame = NeighborhoodFrame(n, [rng.randrange(1 << (1 << n)) for _ in range(n)])
            assert atom_frame(complex_algebra(frame)) == frame
            alg = NeighborhoodAlgebra(n, tuple(rng.randrange(1 << n) for _ in range(1 << n)))
            assert complex_algebra(atom_frame(alg)) == alg


@criterion(3, "a map is a morphism exactly when its dual is a hom", budget=30.0)
def test_criterion_03_morphism_duality():
    frames = {n: all_frames(n) for n in range(3)}
    algebras = {n: [complex_algebra(f) for f in frames[n]] for n in range(3)}
    positives = negatives = 0
    for n_dom in range(3):
        for n_cod in range(3):
            for fmap in product(range(n_cod), repeat=n_dom):
                f = FrameMorphism(n_dom, n_cod, fmap)
                h = dualize_frame_morphism(f)
                for F, algF in zip(frames[n_dom], algebras[n_dom]):
                    for G, algG in zip(frames[n_cod], algebras[n_cod]):
                        forward = is_nbhd_morphism(f, F, G)
                        dual = is_complete_nbhd_hom(h, algG, algF)
                        assert forward == dual, (f, F, G)
                        if forward:
                            positives += 1
                        else:
                            negatives += 1
    assert positives and negatives


@criterion(4, "closed-family counts match the oracle chain; n=5 golden holds")
def test_criterion_04_bax_counts():
    monotone = axiom_set_from_specs(["@M"])
    principal = axiom_set_from_specs(["@N", "@C", "@M"])
    oracle_counts = [oracles.up_closed_family_count(n) for n in range(4)]
    assert oracle_counts == [2, 3, 6, 20]
    for n in range(4):
        assert len(enumerate_bax(n, monotone).famasks()) == oracle_counts[n]
    # Both spaces backtrack; up to n = 4 they equal the full membership sweep.
    for n in range(5):
        assert len(enumerate_bax(n, principal).famasks()) == 2**n
        for axs in (monotone, principal):
            sweep = bitslice.family_filter(0, 1 << (1 << n), [compile_membership(realize_axiom(ax, n), n) for ax in axs])
            assert enumerate_bax(n, axs).famasks() == tuple(sweep)
    start = time.perf_counter()
    big = enumerate_bax(5, monotone)
    elapsed = time.perf_counter() - start
    assert len(big.famasks()) == 7581
    assert elapsed < 10.0, f"n=5 backtrack took {elapsed:.1f}s"


@criterion(5, "principal families mirror subsets and Kripke boxes")
def test_criterion_05_kripke_collapse():
    principal = axiom_set_from_specs(["@N", "@C", "@M"])
    for n in range(4):
        space = enumerate_bax(n, principal)
        gens = [principal_iso(n, "to_subset", fam) for fam in space.famasks()]
        assert sorted(gens) == list(range(1 << n))
        for fam, c in zip(space.famasks(), gens):
            assert principal_iso(n, "from_subset", c) == fam
    for n_dom in range(4):
        for n_cod in range(4):
            for fmap in product(range(n_cod), repeat=n_dom):
                f = FrameMorphism(n_dom, n_cod, fmap)
                for c in range(1 << n_dom):
                    image = 0
                    for x in range(n_dom):
                        if c >> x & 1:
                            image |= 1 << fmap[x]
                    pushed = bax_map(f, up_cone(c, n_dom), principal)
                    assert pushed == up_cone(image, n_cod), (f, c)
    for n in range(3):
        for succ in product(range(1 << n), repeat=n):
            alg = complex_algebra(from_relation(Relation(n, succ)))
            succ_sets = [oracles.mask_to_set(s) for s in succ]
            for a in range(1 << n):
                expect = oracles.kripke_box(succ_sets, oracles.mask_to_set(a), n)
                assert alg.box[a] == oracles.set_to_mask(expect)


@criterion(6, "centering matches t and idempotence matches four, both sides")
def test_criterion_06_correspondence():
    for n in range(3):
        for frame in all_frames(n):
            for pair in ("CentT", "IV4"):
                assert correspondence_check(frame, pair)["agree"], (frame, pair)
    rng = random.Random(6)
    fams = families(3)
    for _ in range(10_000):
        frame = NeighborhoodFrame(3, tuple(rng.choice(fams) for _ in range(3)))
        for pair in ("CentT", "IV4"):
            assert correspondence_check(frame, pair)["agree"], (frame, pair)


@criterion(7, "pi is the complemented sigma of the complement", budget=60.0)
def test_criterion_07_complement_identity():
    seen = 0
    for n in range(3):
        for gf in valid_tight_gfs(n):
            seen += 1
            roundabout = complement_frame(sigma_extend(complement_within_admissible(gf)))
            assert pi_extend(gf) == roundabout, gf
    assert seen == 1 + 4 + 260
    rng = random.Random(7)
    subalgebras = all_subalgebras(3)
    checked = 0
    for _ in range(20_000):
        if checked == 300:
            break
        admissible = rng.choice(subalgebras)
        members = famask_members(admissible)
        key = [famask_of(m for m in members if rng.random() < 0.5) for _ in range(3)]
        gf = GeneralFrame(3, key, admissible)
        try:
            validate_general_frame(gf)
        except InvalidInputError:
            continue
        checked += 1
        roundabout = complement_frame(sigma_extend(complement_within_admissible(gf)))
        assert pi_extend(gf) == roundabout
    assert checked == 300
    everything = famask_of(range(4))
    for frame in all_frames(2):
        gf = truncate(frame, everything)
        assert sigma_extend(gf) == frame
        assert pi_extend(gf) == frame


@criterion(8, "sigma keeps admissible monotony, convexity, and the trace")
def test_criterion_08_sigma_preservation():
    monotone_hits = convex_hits = 0
    for n in range(3):
        for gf in valid_tight_gfs(n):
            members = famask_members(gf._admissible)
            traces = [famask_members(fm) for fm in gf._key]
            sigma = sigma_extend(gf)
            assert truncate(sigma, gf._admissible) == gf
            a_monotone = all(
                all(b in fam for b in members if b & a == a) for fam in traces for a in fam
            )
            if a_monotone:
                monotone_hits += 1
                assert frame_class_check(sigma, ClassTag("monotone")), gf
            a_convex = all(
                all(e in fam for e in members if c & e == c and e & d == e)
                for fam in traces
                for c in fam
                for d in fam
            )
            if a_convex:
                convex_hits += 1
                assert frame_class_check(sigma, ClassTag("convex")), gf
    assert monotone_hits and convex_hits


@criterion(9, "sigma extension never breaks a convex full morphism")
def test_criterion_09_convex_transfer():
    pools = {n: valid_tight_gfs(n) for n in range(3)}
    assert [len(pools[n]) for n in range(3)] == [1, 4, 260]
    plain = {
        n: {id(gf): NeighborhoodFrame(n, gf._key) for gf in pool}
        for n, pool in pools.items()
    }
    triples = convex_failures = nonconvex_failures = 0
    for n_dom in range(3):
        for n_cod in range(3):
            for fmap in product(range(n_cod), repeat=n_dom):
                f = FrameMorphism(n_dom, n_cod, fmap)
                for dom in pools[n_dom]:
                    dom_plain = plain[n_dom][id(dom)]
                    for cod in pools[n_cod]:
                        try:
                            check_general_morphism(f, dom, cod)
                        except InvalidInputError:
                            continue
                        if not is_nbhd_morphism(f, dom_plain, plain[n_cod][id(cod)]):
                            continue
                        triples += 1
                        report = sigma_morphism_transfer(f, dom, cod)
                        if report["is_morphism"]:
                            continue
                        if report["dom_convex"] and report["cod_convex"]:
                            convex_failures += 1
                        else:
                            nonconvex_failures += 1
    assert triples == 3205
    assert convex_failures == 0
    print(
        f"criterion  9 info: non-convex transfer failure witnesses exist: "
        f"{nonconvex_failures > 0} ({nonconvex_failures} found, informational)"
    )


GOLDEN_COMMANDS = (
    ("valid_m", ("valid", "--algebra", str(DATA / "alg.json"), "--formula", "@M"), 1),
    ("bax_enum_m_count", ("bax", "enum", "--n", "2", "--axioms", "@M", "--count"), 0),
    ("dualize_frame", ("dualize", "--frame", str(DATA / "frame.json")), 0),
    ("countermodel_m", ("search", "countermodel", "--target", "@M"), 1),
    (
        "enum_filter_canonical",
        ("search", "enumerate", "--n", "2", "--constraints", "filter", "--canonical", "--count"),
        0,
    ),
    ("lax_build_m", ("lax", "build", "--n", "3", "--axioms", "@M"), 0),
    ("bax_enum_n3_n", ("bax", "enum", "--n", "3", "--axioms", "@N"), 0),
)

# Needs no installed console script; source_env() points it at the imported source.
NBHD = (sys.executable, "-m", "nbhd")

GOLDEN_LITERALS = {
    "valid_m": b'{"valid":false,"witness":{"u":1,"v":0}}\n',
    "bax_enum_m_count": b'{"count":6}\n',
    "countermodel_m": b'{"found":true,"frame":{"n":1,"N":[[0]]},"assignment":{"u":1,"v":0},"checked":3}\n',
    "enum_filter_canonical": b'{"count":10}\n',
}


@criterion(10, "CLI output is byte-identical across runs and worker counts")
def test_criterion_10_cli_goldens():
    env = source_env()
    for name, argv, expected_code in GOLDEN_COMMANDS:
        golden = (DATA / f"{name}.golden").read_bytes()
        if name in GOLDEN_LITERALS:
            assert golden == GOLDEN_LITERALS[name], name
        for workers in ("1", "4"):
            for _ in range(2):
                proc = subprocess.run(
                    [*NBHD, "--workers", workers, *argv], capture_output=True, env=env
                )
                assert proc.returncode == expected_code, (name, proc.stderr)
                assert proc.stdout == golden, name
    round_golden = (DATA / "dualize_roundtrip.golden").read_bytes()
    assert json.loads(round_golden) == json.loads((DATA / "frame.json").read_bytes())
    for workers in ("1", "4"):
        for _ in range(2):
            first = subprocess.run(
                [*NBHD, "--workers", workers, "dualize", "--frame", str(DATA / "frame.json")],
                capture_output=True,
                env=env,
            )
            second = subprocess.run(
                [*NBHD, "--workers", workers, "dualize", "--algebra", "-"],
                input=first.stdout,
                capture_output=True,
                env=env,
            )
            assert second.returncode == 0
            assert second.stdout == round_golden
