import random
from itertools import product

import pytest

from nbhd.core import (
    CapExceededError,
    FrameMorphism,
    InvalidInputError,
    NeighborhoodFrame,
    complement_frame,
    famask_members,
    famask_of,
    full_mask,
    up_cone,
)
from nbhd.genframe import (
    GeneralFrame,
    all_partitions,
    all_subalgebras,
    check_general_morphism,
    complement_within_admissible,
    general_frame_from_json,
    general_frame_report,
    general_frame_to_json,
    is_differentiated,
    is_pi_descriptive,
    is_sigma_descriptive,
    is_tight,
    pi_extend,
    sigma_extend,
    sigma_morphism_transfer,
    subalgebra_from_partition,
    truncate,
    validate_general_frame,
)

import oracles


A03 = famask_of((0, 3))
FULL2 = famask_of((0, 1, 2, 3))
ALL4 = famask_of((0, 1, 2, 3))


def gf2(fam0, fam1=None, admissible=A03):
    fam1 = fam0 if fam1 is None else fam1
    return GeneralFrame(2, (fam0, fam1), admissible)


def valid_tight_gfs(n):
    for admissible in all_subalgebras(n):
        members = famask_members(admissible)
        subsets_of_a = [
            famask_of(a for a, keep in zip(members, picks) if keep)
            for picks in product((False, True), repeat=len(members))
        ]
        for fams in product(subsets_of_a, repeat=n):
            gf = GeneralFrame(n, fams, admissible)
            try:
                validate_general_frame(gf)
            except InvalidInputError:
                continue
            yield gf


def test_subalgebra_from_partition_examples():
    assert subalgebra_from_partition([3], 2) == A03
    assert subalgebra_from_partition([1, 2], 2) == FULL2
    assert subalgebra_from_partition([1, 6], 3) == famask_of((0, 1, 6, 7))
    with pytest.raises(InvalidInputError):
        subalgebra_from_partition([1], 2)
    with pytest.raises(InvalidInputError):
        subalgebra_from_partition([3, 2], 2)
    with pytest.raises(InvalidInputError):
        subalgebra_from_partition([0, 3], 2)


def test_partition_and_subalgebra_counts_are_bell_numbers():
    for n, bell in ((0, 1), (1, 1), (2, 2), (3, 5), (4, 15)):
        assert sum(1 for _ in all_partitions(n)) == bell
        assert len(all_subalgebras(n)) == bell


def test_validate_general_frame():
    validate_general_frame(gf2(A03))
    with pytest.raises(InvalidInputError):
        validate_general_frame(GeneralFrame(2, (0, 0), famask_of((3,))))
    with pytest.raises(InvalidInputError):
        validate_general_frame(GeneralFrame(2, (0, 0), famask_of((0, 1, 3))))
    # Box of an admissible set must stay admissible.
    with pytest.raises(InvalidInputError):
        validate_general_frame(gf2(famask_of((3,)), 0))


def test_validity_messages_match_the_pair_loop_on_every_admissible_family():
    # Every A at n <= 3, under empty and under random neighborhoods: the
    # plane test and its witness search give the pair loop's first fault.
    rng = random.Random(3)
    seen = set()
    for n in range(4):
        for admissible in range(1 << (1 << n)):
            adm_sets = oracles.family_to_sets(famask_members(admissible))
            differentiated = oracles.is_differentiated(n, adm_sets)
            for key in ((0,) * n, tuple(rng.getrandbits(1 << n) for _ in range(n))):
                nbhd = [oracles.family_to_sets(famask_members(fm)) for fm in key]
                want = oracles.general_frame_fault(n, nbhd, adm_sets)
                report = general_frame_report(GeneralFrame(n, key, admissible))
                assert (report["valid"], report["reason"]) == (want is None, want), (n, admissible, key)
                assert report["differentiated"] == differentiated, (n, admissible)
                seen.add(want and want.split(" at ")[0].split(" the ")[0])
    assert seen == {
        None,
        "general frame: A must contain",
        "general frame: A not closed under complement",
        "general frame: A not closed under union",
        "general frame: A not closed under box",
    }


def test_flags_and_report():
    gf = gf2(A03)
    assert is_tight(gf)
    assert not is_differentiated(gf)
    report = general_frame_report(gf)
    assert report == {"valid": True, "reason": None, "tight": True, "differentiated": False, "compact": True}
    full_gf = gf2(famask_of((1, 3)), famask_of((0,)), admissible=FULL2)
    assert is_differentiated(full_gf)
    loose = GeneralFrame(2, (famask_of((1,)), 0), A03)
    assert not is_tight(loose)
    bad = general_frame_report(GeneralFrame(2, (0, 0), famask_of((3,))))
    assert bad["valid"] is False and isinstance(bad["reason"], str)
    # Members below 2^16 fit any n, but the planes of a 40-point A do not.
    with pytest.raises(CapExceededError):
        is_differentiated(GeneralFrame(40, (0,) * 40, famask_of((0, 1))))


def test_sigma_extend_examples():
    assert sigma_extend(gf2(A03)) == NeighborhoodFrame(2, (ALL4, ALL4))
    assert sigma_extend(gf2(0)) == NeighborhoodFrame(2, (0, 0))
    for gf in valid_tight_gfs(2):
        if gf._admissible == FULL2:
            assert sigma_extend(gf) == NeighborhoodFrame(2, gf._key)
    with pytest.raises(InvalidInputError):
        sigma_extend(GeneralFrame(2, (famask_of((1,)), 0), A03))


def test_pi_extend_examples():
    assert pi_extend(gf2(A03)) == NeighborhoodFrame(2, (ALL4, ALL4))
    assert pi_extend(gf2(0)) == NeighborhoodFrame(2, (0, 0))
    for gf in valid_tight_gfs(2):
        if gf._admissible == FULL2:
            assert pi_extend(gf) == NeighborhoodFrame(2, gf._key)


def test_extensions_match_set_oracle():
    # Every admissible trace of every subalgebra; with one trace at every
    # point, box sends each set to the empty or the full set, so every
    # such general frame is valid.
    for n in (1, 2, 3):
        for admissible in all_subalgebras(n):
            members = famask_members(admissible)
            adm_sets = [oracles.mask_to_set(a) for a in members]
            for bits in range(1 << len(members)):
                trace = famask_of(a for i, a in enumerate(members) if bits >> i & 1)
                gf = GeneralFrame(n, (trace,) * n, admissible)
                sigma = sigma_extend(gf).key()[0]
                pi = pi_extend(gf).key()[0]
                trace_sets = {oracles.mask_to_set(a) for a in famask_members(trace)}
                for e in range(1 << n):
                    e_set = oracles.mask_to_set(e)
                    assert (sigma >> e & 1 == 1) == oracles.sigma_member_sets(e_set, trace_sets, adm_sets)
                    assert (pi >> e & 1 == 1) == oracles.pi_member_sets(e_set, trace_sets, adm_sets)


def test_complement_within_admissible():
    assert complement_within_admissible(gf2(A03))._key == (0, 0)
    flipped = complement_within_admissible(gf2(famask_of((3,))))
    assert flipped._key[0] == famask_of((0,))
    for gf in valid_tight_gfs(2):
        assert complement_within_admissible(complement_within_admissible(gf)) == gf


def test_complement_identity_exhaustive_small():
    seen = 0
    for n in (0, 1, 2):
        for gf in valid_tight_gfs(n):
            seen += 1
            left = pi_extend(gf)
            right = complement_frame(sigma_extend(complement_within_admissible(gf)))
            assert left == right
    assert seen == 1 + 4 + (4 + 256)


def test_complement_identity_sampled_n3():
    rng = random.Random(23)
    subs = all_subalgebras(3)
    checked = 0
    while checked < 60:
        admissible = rng.choice(subs)
        members = famask_members(admissible)
        fams = [famask_of(a for a in members if rng.random() < 0.5) for _ in range(3)]
        gf = GeneralFrame(3, fams, admissible)
        try:
            validate_general_frame(gf)
        except InvalidInputError:
            continue
        checked += 1
        assert pi_extend(gf) == complement_frame(sigma_extend(complement_within_admissible(gf)))


def test_truncate_examples():
    gf = gf2(A03)
    assert truncate(sigma_extend(gf), A03) == gf
    frame = NeighborhoodFrame(2, (famask_of((1, 3)), famask_of((0,))))
    assert truncate(frame, FULL2) == GeneralFrame(2, frame.key(), FULL2)
    allfr = NeighborhoodFrame(2, (ALL4, ALL4))
    assert truncate(allfr, A03) == gf2(A03)
    with pytest.raises(InvalidInputError):
        truncate(NeighborhoodFrame(2, (famask_of((3,)), 0)), A03)


def test_truncate_after_sigma_is_identity():
    for gf in valid_tight_gfs(2):
        assert truncate(sigma_extend(gf), gf._admissible) == gf
    for gf in valid_tight_gfs(1):
        assert truncate(sigma_extend(gf), gf._admissible) == gf


def test_descriptive_predicates():
    # Frozen expectations: within A={0,X} the lone-full-set trace is
    # exactly interval-generated, while {0,X} overshoots at e={0} and e={1}.
    assert is_sigma_descriptive(gf2(famask_of((3,))))
    assert not is_sigma_descriptive(gf2(famask_of((0, 3))))
    assert is_sigma_descriptive(GeneralFrame(2, (ALL4, ALL4), A03))
    for gf in valid_tight_gfs(2):
        if gf._admissible == FULL2:
            assert is_sigma_descriptive(gf)
            assert is_pi_descriptive(gf)
    # Descriptiveness of any sigma extension, read back as a structure.
    for gf in valid_tight_gfs(2):
        sigma = sigma_extend(gf)
        assert is_sigma_descriptive(GeneralFrame(2, sigma.key(), gf._admissible))
        pi = pi_extend(gf)
        assert is_pi_descriptive(GeneralFrame(2, pi.key(), gf._admissible))


def test_sigma_reconstruction_round_trip():
    # sigma_extend(truncate(S)) = S for sigma-descriptive S, exhaustively.
    for admissible in all_subalgebras(2):
        for key in product(range(16), repeat=2):
            gf = GeneralFrame(2, key, admissible)
            try:
                validate_general_frame(gf)
            except InvalidInputError:
                continue
            if not is_sigma_descriptive(gf):
                continue
            frame = NeighborhoodFrame(2, key)
            back = sigma_extend(truncate(frame, admissible))
            assert back == frame


def test_monotone_and_convex_preservation():
    for gf in valid_tight_gfs(2):
        members = famask_members(gf._admissible)
        traces = [famask_members(fm) for fm in gf._key]
        a_monotone = all(
            all(b in fam for b in members if b & a == a)
            for fam in traces
            for a in fam
        )
        if a_monotone:
            for fm in sigma_extend(gf).key():
                assert oracles.is_up_closed(oracles.family_to_sets(famask_members(fm)), 2)
        a_convex = all(
            all(e in fam for e in members if c & e == c and e & d == e)
            for fam in traces
            for c in fam
            for d in fam
        )
        if a_convex:
            for fm in sigma_extend(gf).key():
                assert oracles.is_convex(oracles.family_to_sets(famask_members(fm)), 2)


def test_monotone_sigma_tightness():
    for admissible in all_subalgebras(2):
        for key in product(range(16), repeat=2):
            gf = GeneralFrame(2, key, admissible)
            try:
                validate_general_frame(gf)
            except InvalidInputError:
                continue
            monotone = all(oracles.is_up_closed(oracles.family_to_sets(famask_members(fm)), 2) for fm in key)
            if not monotone or not is_sigma_descriptive(gf):
                continue
            for fm in key:
                rebuilt = 0
                for a in famask_members(fm & admissible):
                    rebuilt |= up_cone(a, 2)
                assert rebuilt == fm


def test_check_general_morphism():
    ident = FrameMorphism(2, 2, (0, 1))
    check_general_morphism(ident, gf2(A03), gf2(A03))
    with pytest.raises(InvalidInputError, match="admissible"):
        check_general_morphism(ident, gf2(A03), gf2(famask_of((1, 3)), famask_of((0,)), admissible=FULL2))
    with pytest.raises(InvalidInputError, match="membership"):
        check_general_morphism(ident, gf2(A03), gf2(famask_of((0,))))
    with pytest.raises(InvalidInputError, match="sizes"):
        check_general_morphism(FrameMorphism(1, 1, (0,)), gf2(A03), gf2(A03))


def expect_general_morphism(f, dom, cod):
    """check_general_morphism raises the set oracle's first failure, in
    its own words, or nothing when the oracle finds none."""
    def sets(gf):
        return [oracles.family_to_sets(famask_members(fm)) for fm in gf._key], oracles.family_to_sets(famask_members(gf._admissible))

    (dom_sets, dom_adm), (cod_sets, cod_adm) = sets(dom), sets(cod)
    failure = oracles.general_morphism_failure(f.map, dom_sets, dom_adm, cod_sets, cod_adm)
    if failure is None:
        check_general_morphism(f, dom, cod)
    elif failure[0] == "admissible":
        message = f"general morphism: preimage of admissible {oracles.set_to_mask(failure[1])} is not admissible"
        with pytest.raises(InvalidInputError, match=f"^{message}$"):
            check_general_morphism(f, dom, cod)
    else:
        message = f"general morphism: membership disagrees at point {failure[1]}, admissible {oracles.set_to_mask(failure[2])}"
        with pytest.raises(InvalidInputError, match=f"^{message}$"):
            check_general_morphism(f, dom, cod)
    return failure and failure[0]


def test_check_general_morphism_matches_set_oracle():
    ident = FrameMorphism(2, 2, (0, 1))
    cases = [
        (ident, gf2(A03), gf2(A03)),
        (ident, gf2(A03), gf2(famask_of((1, 3)), famask_of((0,)), admissible=FULL2)),
        (ident, gf2(A03), gf2(famask_of((0,)))),
    ]
    # General frames with n <= 2, valid or not: any A, any N(x).
    rng = random.Random(41)
    for _ in range(3000):
        n_dom, n_cod = rng.randrange(3), rng.randrange(1, 3)
        gfs = [
            GeneralFrame(n, [rng.getrandbits(1 << n) for _ in range(n)], rng.getrandbits(1 << n))
            for n in (n_dom, n_cod)
        ]
        cases.append((FrameMorphism(n_dom, n_cod, tuple(rng.randrange(n_cod) for _ in range(n_dom))), *gfs))
    # Passing cases: an identity map on one general frame.
    cases += [(FrameMorphism(2, 2, (0, 1)), gf, gf) for gf in rng.sample(list(valid_tight_gfs(2)), 50)]
    outcomes = [expect_general_morphism(*case) for case in cases]
    assert outcomes[:3] == [None, "admissible", "membership"]
    assert {None, "admissible", "membership"} <= set(outcomes[3:])


def test_sigma_morphism_transfer_reports():
    ident = FrameMorphism(2, 2, (0, 1))
    report = sigma_morphism_transfer(ident, gf2(A03), gf2(A03))
    assert report["is_morphism"] and report["witness"] is None
    assert set(report) == {"is_morphism", "dom_convex", "cod_convex", "witness"}
    const = FrameMorphism(2, 2, (0, 0))
    report = sigma_morphism_transfer(const, gf2(A03), gf2(A03))
    assert report["is_morphism"]
    with pytest.raises(InvalidInputError):
        sigma_morphism_transfer(ident, gf2(A03), gf2(famask_of((0,))))


def test_sigma_morphism_transfer_convex_guarantee_on_full_morphisms():
    # The convexity guarantee is quantified over maps that are full
    # neighborhood morphisms on the underlying frames (plus admissible
    # preimages); the admissible-restricted precondition alone admits
    # honest "no" reports.  Light slice here, exhaustive in acceptance.
    from nbhd.core import NeighborhoodFrame, is_nbhd_morphism

    gfs = [gf for gf in valid_tight_gfs(2)]
    proper = [gf for gf in gfs if gf._admissible == A03]
    rng = random.Random(31)
    full = rng.sample([gf for gf in gfs if gf._admissible == FULL2], 16)
    transfers = weak_only_failures = 0
    for pool in (proper, full):
        for dom in pool:
            for cod in pool:
                for fmap in product(range(2), repeat=2):
                    f = FrameMorphism(2, 2, fmap)
                    try:
                        check_general_morphism(f, dom, cod)
                    except InvalidInputError:
                        continue
                    report = sigma_morphism_transfer(f, dom, cod)
                    # The witness is the set oracle's first failure on the extensions.
                    dom_sigma, cod_sigma = ([oracles.family_to_sets(famask_members(fm)) for fm in sigma_extend(gf).key()] for gf in (dom, cod))
                    first = next(oracles.morphism_failures(fmap, dom_sigma, cod_sigma, oracles.subsets(range(2))), None)
                    assert report["is_morphism"] == (first is None)
                    assert report["witness"] == (first and {"x": first[0], "a_cod": oracles.set_to_mask(first[1])})
                    strong = is_nbhd_morphism(f, NeighborhoodFrame(2, dom._key), NeighborhoodFrame(2, cod._key))
                    if report["dom_convex"] and report["cod_convex"]:
                        if strong:
                            transfers += 1
                            assert report["is_morphism"], (dom, cod, fmap)
                        elif not report["is_morphism"]:
                            weak_only_failures += 1
                            assert report["witness"] is not None
    assert transfers > 0
    # The weak precondition really is weaker: failures exist there.
    assert weak_only_failures > 0


def test_json_round_trip():
    gf = gf2(famask_of((3,)))
    obj = general_frame_to_json(gf)
    assert obj == {"n": 2, "N": [[3], [3]], "A": [0, 3]}
    assert general_frame_from_json(obj) == gf
    with pytest.raises(InvalidInputError):
        general_frame_from_json({"n": 2, "N": []})
    with pytest.raises(InvalidInputError):
        general_frame_from_json({"n": "2", "N": [], "A": []})
