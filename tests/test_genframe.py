import random
from itertools import product

import pytest

from nbhd.core import (
    Family,
    FrameMorphism,
    InvalidInputError,
    NeighborhoodFrame,
    complement_frame,
    family_from_famask,
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


A03 = Family((0, 3))
FULL2 = Family((0, 1, 2, 3))
ALL4 = Family((0, 1, 2, 3))


def gf2(fam0, fam1=None, admissible=A03):
    fam1 = fam0 if fam1 is None else fam1
    return GeneralFrame(2, (fam0, fam1), admissible)


def valid_tight_gfs(n):
    for admissible in all_subalgebras(n):
        members = admissible.members
        subsets_of_a = [
            Family(tuple(a for a, keep in zip(members, picks) if keep))
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
    assert subalgebra_from_partition([1, 6], 3) == Family((0, 1, 6, 7))
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
        validate_general_frame(GeneralFrame(2, (Family(()), Family(())), Family((3,))))
    with pytest.raises(InvalidInputError):
        validate_general_frame(GeneralFrame(2, (Family(()), Family(())), Family((0, 1, 3))))
    # Box of an admissible set must stay admissible.
    with pytest.raises(InvalidInputError):
        validate_general_frame(gf2(Family((3,)), Family(())))


def test_flags_and_report():
    gf = gf2(A03)
    assert is_tight(gf)
    assert not is_differentiated(gf)
    report = general_frame_report(gf)
    assert report == {"valid": True, "reason": None, "tight": True, "differentiated": False, "compact": True}
    full_gf = gf2(Family((1, 3)), Family((0,)), admissible=FULL2)
    assert is_differentiated(full_gf)
    loose = GeneralFrame(2, (Family((1,)), Family(())), A03)
    assert not is_tight(loose)
    bad = general_frame_report(GeneralFrame(2, (Family(()), Family(())), Family((3,))))
    assert bad["valid"] is False and isinstance(bad["reason"], str)


def test_sigma_extend_examples():
    assert sigma_extend(gf2(A03)) == NeighborhoodFrame(2, (ALL4, ALL4))
    assert sigma_extend(gf2(Family(()))) == NeighborhoodFrame(2, (Family(()), Family(())))
    for gf in valid_tight_gfs(2):
        if gf.admissible == FULL2:
            assert sigma_extend(gf) == NeighborhoodFrame(2, gf.nbhd)
    with pytest.raises(InvalidInputError):
        sigma_extend(GeneralFrame(2, (Family((1,)), Family(())), A03))


def test_pi_extend_examples():
    assert pi_extend(gf2(A03)) == NeighborhoodFrame(2, (ALL4, ALL4))
    assert pi_extend(gf2(Family(()))) == NeighborhoodFrame(2, (Family(()), Family(())))
    for gf in valid_tight_gfs(2):
        if gf.admissible == FULL2:
            assert pi_extend(gf) == NeighborhoodFrame(2, gf.nbhd)


def test_extensions_match_set_oracle():
    # Every admissible trace of every subalgebra; with one trace at every
    # point, box sends each set to the empty or the full set, so every
    # such general frame is valid.
    for n in (1, 2, 3):
        for admissible in all_subalgebras(n):
            members = admissible.members
            adm_sets = [oracles.mask_to_set(a) for a in members]
            for bits in range(1 << len(members)):
                trace = Family(tuple(a for i, a in enumerate(members) if bits >> i & 1))
                gf = GeneralFrame(n, tuple(trace for _ in range(n)), admissible)
                sigma = sigma_extend(gf)
                pi = pi_extend(gf)
                trace_sets = {oracles.mask_to_set(a) for a in trace.members}
                for e in range(1 << n):
                    e_set = oracles.mask_to_set(e)
                    assert (e in sigma.nbhd[0]) == oracles.sigma_member_sets(e_set, trace_sets, adm_sets)
                    assert (e in pi.nbhd[0]) == oracles.pi_member_sets(e_set, trace_sets, adm_sets)


def test_complement_within_admissible():
    assert complement_within_admissible(gf2(A03)).nbhd == (Family(()), Family(()))
    flipped = complement_within_admissible(gf2(Family((3,))))
    assert flipped.nbhd[0] == Family((0,))
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
        members = admissible.members
        fams = tuple(
            Family(tuple(a for a in members if rng.random() < 0.5)) for _ in range(3)
        )
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
    frame = NeighborhoodFrame(2, (Family((1, 3)), Family((0,))))
    assert truncate(frame, FULL2) == GeneralFrame(2, frame.nbhd, FULL2)
    allfr = NeighborhoodFrame(2, (ALL4, ALL4))
    assert truncate(allfr, A03) == gf2(A03)
    with pytest.raises(InvalidInputError):
        truncate(NeighborhoodFrame(2, (Family((3,)), Family(()))), A03)


def test_truncate_after_sigma_is_identity():
    for gf in valid_tight_gfs(2):
        assert truncate(sigma_extend(gf), gf.admissible) == gf
    for gf in valid_tight_gfs(1):
        assert truncate(sigma_extend(gf), gf.admissible) == gf


def test_descriptive_predicates():
    # Frozen expectations: within A={0,X} the lone-full-set trace is
    # exactly interval-generated, while {0,X} overshoots at e={0} and e={1}.
    assert is_sigma_descriptive(gf2(Family((3,))))
    assert not is_sigma_descriptive(gf2(Family((0, 3))))
    assert is_sigma_descriptive(GeneralFrame(2, (ALL4, ALL4), A03))
    for gf in valid_tight_gfs(2):
        if gf.admissible == FULL2:
            assert is_sigma_descriptive(gf)
            assert is_pi_descriptive(gf)
    # Descriptiveness of any sigma extension, read back as a structure.
    for gf in valid_tight_gfs(2):
        sigma = sigma_extend(gf)
        assert is_sigma_descriptive(GeneralFrame(2, sigma.nbhd, gf.admissible))
        pi = pi_extend(gf)
        assert is_pi_descriptive(GeneralFrame(2, pi.nbhd, gf.admissible))


def test_sigma_reconstruction_round_trip():
    # sigma_extend(truncate(S)) = S for sigma-descriptive S, exhaustively.
    for admissible in all_subalgebras(2):
        for key in product(range(16), repeat=2):
            fams = tuple(family_from_famask(fm) for fm in key)
            gf = GeneralFrame(2, fams, admissible)
            try:
                validate_general_frame(gf)
            except InvalidInputError:
                continue
            if not is_sigma_descriptive(gf):
                continue
            frame = NeighborhoodFrame(2, fams)
            back = sigma_extend(truncate(frame, admissible))
            assert back == frame


def test_monotone_and_convex_preservation():
    for gf in valid_tight_gfs(2):
        members = set(gf.admissible.members)
        a_monotone = all(
            all(b in fam for b in members if b & a == a)
            for fam in gf.nbhd
            for a in fam
        )
        if a_monotone:
            sigma = sigma_extend(gf)
            for fam in sigma.nbhd:
                fam_sets = {oracles.mask_to_set(a) for a in fam.members}
                assert oracles.is_up_closed(fam_sets, 2)
        a_convex = all(
            all(e in fam for e in members if c & e == c and e & d == e)
            for fam in gf.nbhd
            for c in fam
            for d in fam
        )
        if a_convex:
            sigma = sigma_extend(gf)
            for fam in sigma.nbhd:
                fam_sets = {oracles.mask_to_set(a) for a in fam.members}
                assert oracles.is_convex(fam_sets, 2)


def test_monotone_sigma_tightness():
    for admissible in all_subalgebras(2):
        members = set(admissible.members)
        for key in product(range(16), repeat=2):
            fams = tuple(family_from_famask(fm) for fm in key)
            gf = GeneralFrame(2, fams, admissible)
            try:
                validate_general_frame(gf)
            except InvalidInputError:
                continue
            monotone = all(
                oracles.is_up_closed({oracles.mask_to_set(a) for a in fam.members}, 2)
                for fam in fams
            )
            if not monotone or not is_sigma_descriptive(gf):
                continue
            for fam in fams:
                rebuilt = 0
                for a in fam:
                    if a in members:
                        rebuilt |= up_cone(a, 2).famask()
                assert rebuilt == fam.famask()


def test_check_general_morphism():
    ident = FrameMorphism(2, 2, (0, 1))
    check_general_morphism(ident, gf2(A03), gf2(A03))
    with pytest.raises(InvalidInputError, match="admissible"):
        check_general_morphism(ident, gf2(A03), gf2(Family((1, 3)), Family((0,)), admissible=FULL2))
    with pytest.raises(InvalidInputError, match="membership"):
        check_general_morphism(ident, gf2(A03), gf2(Family((0,))))
    with pytest.raises(InvalidInputError, match="sizes"):
        check_general_morphism(FrameMorphism(1, 1, (0,)), gf2(A03), gf2(A03))


def expect_general_morphism(f, dom, cod):
    """check_general_morphism raises the set oracle's first failure, in
    its own words, or nothing when the oracle finds none."""
    def sets(gf):
        return [oracles.family_to_sets(fam.members) for fam in gf.nbhd], oracles.family_to_sets(gf.admissible.members)

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
        (ident, gf2(A03), gf2(Family((1, 3)), Family((0,)), admissible=FULL2)),
        (ident, gf2(A03), gf2(Family((0,)))),
    ]
    # General frames with n <= 2, valid or not: any A, any N(x).
    rng = random.Random(41)
    for _ in range(3000):
        n_dom, n_cod = rng.randrange(3), rng.randrange(1, 3)
        gfs = [
            GeneralFrame(n, tuple(family_from_famask(rng.getrandbits(1 << n)) for _ in range(n)), family_from_famask(rng.getrandbits(1 << n)))
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
        sigma_morphism_transfer(ident, gf2(A03), gf2(Family((0,))))


def test_sigma_morphism_transfer_convex_guarantee_on_full_morphisms():
    # The convexity guarantee is quantified over maps that are full
    # neighborhood morphisms on the underlying frames (plus admissible
    # preimages); the admissible-restricted precondition alone admits
    # honest "no" reports.  Light slice here, exhaustive in acceptance.
    from nbhd.core import NeighborhoodFrame, is_nbhd_morphism

    gfs = [gf for gf in valid_tight_gfs(2)]
    proper = [gf for gf in gfs if gf.admissible == A03]
    rng = random.Random(31)
    full = rng.sample([gf for gf in gfs if gf.admissible == FULL2], 16)
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
                    dom_sigma, cod_sigma = ([oracles.family_to_sets(fam.members) for fam in sigma_extend(gf).nbhd] for gf in (dom, cod))
                    first = next(oracles.morphism_failures(fmap, dom_sigma, cod_sigma, oracles.subsets(range(2))), None)
                    assert report["is_morphism"] == (first is None)
                    assert report["witness"] == (first and {"x": first[0], "a_cod": oracles.set_to_mask(first[1])})
                    strong = is_nbhd_morphism(
                        f, NeighborhoodFrame(2, dom.nbhd), NeighborhoodFrame(2, cod.nbhd)
                    )
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
    gf = gf2(Family((3,)))
    obj = general_frame_to_json(gf)
    assert obj == {"n": 2, "N": [[3], [3]], "A": [0, 3]}
    assert general_frame_from_json(obj) == gf
    with pytest.raises(InvalidInputError):
        general_frame_from_json({"n": 2, "N": []})
    with pytest.raises(InvalidInputError):
        general_frame_from_json({"n": "2", "N": [], "A": []})
