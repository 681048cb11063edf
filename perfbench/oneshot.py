"""The oneshot workload: a seeded stream of independent library calls.

One caller sends each request after the previous one returns (a closed
loop).  Requests cycle through six kinds; within a kind, the carrier size
n in {2, 3, 4}, the axiom, tag or pair, and whether the frame is built
inside the class are fixed by the request's position, so every seed gives
the same mix.  The seed draws the frames, formulas and subalgebras.  A
request gets only generated data (JSON-shaped dicts and formula text) and
goes through the library as a caller would: decode, construct, call.

Answers are checked after the timer stops, through routes that share no
code with the fast paths: `eval_formula` on each refuting assignment and
on every assignment before it, the brute predicates of tests/oracles.py
for validity and class claims, box tables recomputed from the frame for
the duality round trip and the correspondence pairs, and the sigma/pi
interval oracles for the general-frame extensions.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from time import perf_counter_ns

import oracles
from nbhd import classes, core, duality, evaluate, formulas, genframe

PASS_REQUESTS = 2400
CHUNK = 200  # requests between calibrations (clock.py), about 70 ms
KINDS = ("refute_axiom", "refute_formula", "correspond", "roundtrip", "class_check", "extend")
AXIOMS = ("M", "C", "N", "Cont", "Conv", "CoConv", "T", "Four")
TAGS = ("monotone", "convex", "coconvex", "contingency", "filter", "kappa:2", "kappa:3", "centered", "iv", "pretopological", "topological")
PAIRS = ("CentT", "IV4")
VARS = ("p", "q", "r")


@dataclass(frozen=True)
class Request:
    kind: str
    args: tuple
    in_class: bool = False


# Input generation.  Families are lists of subset masks, ascending.

def _members(famask: int) -> list[int]:
    return [a for a in range(famask.bit_length()) if famask >> a & 1]


def _up_cone(c: int, n: int) -> list[int]:
    return [a for a in range(1 << n) if a & c == c]


def _random_family(rng: random.Random, n: int) -> list[int]:
    return _members(rng.getrandbits(1 << n))


def _up_family(rng, n, x):
    gens = rng.sample(range(1 << n), rng.randint(0, 2))
    return [a for a in range(1 << n) if any(a & g == g for g in gens)]


def _filter_family(rng, n, x):
    return _up_cone(rng.getrandbits(n), n)


def _centered_filter_family(rng, n, x):
    return _up_cone(rng.getrandbits(n) | 1 << x, n)


def _regular_family(rng, n, x):
    # Up-closed and closed under pair meets: a filter, or empty.
    return [] if rng.randrange((1 << n) + 1) == 0 else _filter_family(rng, n, x)


def _normal_family(rng, n, x):
    return sorted(set(_random_family(rng, n)) | {(1 << n) - 1})


def _contingency_family(rng, n, x):
    full = (1 << n) - 1
    picks = _random_family(rng, n)
    return sorted(set(picks) | {full ^ a for a in picks})


def _interval_family(rng, n, x):
    top = rng.getrandbits(n)
    bottom = top & rng.getrandbits(n)
    return [a for a in range(1 << n) if a & bottom == bottom and a | top == top]


def _cointerval_family(rng, n, x):
    inside = set(_interval_family(rng, n, x))
    return [a for a in range(1 << n) if a not in inside]


def _centered_family(rng, n, x):
    return [a for a in _random_family(rng, n) if a >> x & 1]


def _preorder_frame(rng, n):
    """Up-cones of a random reflexive, transitive relation: a topological
    frame, so it is in every class this workload names."""
    succ = [rng.getrandbits(n) | 1 << x for x in range(n)]
    changed = True
    while changed:
        changed = False
        for x in range(n):
            reach = succ[x]
            for y in range(n):
                if reach >> y & 1:
                    reach |= succ[y]
            if reach != succ[x]:
                succ[x], changed = reach, True
    return [_up_cone(succ[x], n) for x in range(n)]


# The frames each registry axiom is valid on, and the frame side of each
# correspondence pair, as frame classes.
AXIOM_CLASS = {
    "M": "monotone",
    "C": "regular",
    "N": "normal",
    "Cont": "contingency",
    "Conv": "convex",
    "CoConv": "coconvex",
    "T": "centered",
    "Four": "iv",
}
PAIR_CLASS = {"CentT": "centered", "IV4": "iv"}

# Classes built one family at a time; iv and topological frames come from
# _preorder_frame.
POINTWISE = {
    "monotone": _up_family,
    "regular": _regular_family,
    "normal": _normal_family,
    "contingency": _contingency_family,
    "convex": _interval_family,
    "coconvex": _cointerval_family,
    "centered": _centered_family,
    "filter": _filter_family,
    "kappa:2": _filter_family,
    "kappa:3": _filter_family,
    "pretopological": _centered_filter_family,
}


def _frame(rng: random.Random, n: int, cls: str | None = None) -> dict:
    if cls is None:
        families = [_random_family(rng, n) for _ in range(n)]
    elif cls in POINTWISE:
        families = [POINTWISE[cls](rng, n, x) for x in range(n)]
    else:
        families = _preorder_frame(rng, n)
    return {"n": n, "N": families}


def _formula(rng: random.Random, names: tuple[str, ...], depth: int) -> str:
    if depth == 0 or rng.random() < 0.2:
        return rng.choice(names + names + ("T", "F"))
    op = rng.choice(("~", "box", "box", "&", "|", "->", "<->"))
    if op in ("~", "box"):
        return f"{op} {_formula(rng, names, depth - 1)}"
    return f"({_formula(rng, names, depth - 1)} {op} {_formula(rng, names, depth - 1)})"


def _general_frame(rng: random.Random, n: int) -> dict:
    """A tight general frame: points of one partition block share their
    family of admissible sets, so the box maps A into A."""
    labels = [rng.randrange(n) for _ in range(n)]
    blocks = [sum(1 << x for x in range(n) if labels[x] == b) for b in sorted(set(labels))]
    admissible = sorted({sum(b for i, b in enumerate(blocks) if pick >> i & 1) for pick in range(1 << len(blocks))})
    per_block = [[a for a in admissible if rng.random() < 0.5] for _ in blocks]
    families = [per_block[next(i for i, b in enumerate(blocks) if b >> x & 1)] for x in range(n)]
    return {"n": n, "N": families, "A": admissible}


def make_requests(seed: int) -> list[Request]:
    rng = random.Random(seed)
    out = []
    for i in range(PASS_REQUESTS):
        kind = KINDS[i % len(KINDS)]
        j = i // len(KINDS)
        n = 2 + j % 3
        k = j // 3
        if kind == "refute_axiom":
            name = AXIOMS[k % len(AXIOMS)]
            in_class = k // len(AXIOMS) % 2 == 0
            out.append(Request(kind, ("@" + name, _frame(rng, n, AXIOM_CLASS[name] if in_class else None)), in_class))
        elif kind == "refute_formula":
            text = _formula(rng, VARS[: 1 + k % 3], depth=3)
            out.append(Request(kind, (text, _frame(rng, n))))
        elif kind == "correspond":
            pair = PAIRS[k % 2]
            in_class = k // 2 % 2 == 0
            out.append(Request(kind, (pair, _frame(rng, n, PAIR_CLASS[pair] if in_class else None)), in_class))
        elif kind == "roundtrip":
            out.append(Request(kind, (_frame(rng, n),)))
        elif kind == "class_check":
            tag = TAGS[k % len(TAGS)]
            in_class = k // len(TAGS) % 2 == 0
            out.append(Request(kind, (tag, _frame(rng, n, tag if in_class else None)), in_class))
        else:
            out.append(Request(kind, (("sigma", "pi")[k % 2], _general_frame(rng, n))))
    return out


# The requests, as a library caller writes them.

def refute_axiom(name, obj):
    frame = core.frame_from_json(obj)
    axiom = formulas.expand_named(name, frame.n)
    return evaluate.find_refuting_assignment(duality.complex_algebra(frame), axiom.formula)


def refute_formula(text, obj):
    alg = duality.complex_algebra(core.frame_from_json(obj))
    return evaluate.find_refuting_assignment(alg, formulas.parse(text))


def correspond(pair, obj):
    return classes.correspondence_check(core.frame_from_json(obj), pair)


def roundtrip(obj):
    alg_text = json.dumps(core.algebra_to_json(duality.complex_algebra(core.frame_from_json(obj))))
    back = duality.atom_frame(core.algebra_from_json(json.loads(alg_text)))
    return alg_text, core.frame_to_json(back)


def class_check(tag, obj):
    return classes.frame_class_check(core.frame_from_json(obj), classes.parse_class_tag(tag))


def extend(which, obj):
    gf = genframe.general_frame_from_json(obj)
    return core.frame_to_json(genframe.sigma_extend(gf) if which == "sigma" else genframe.pi_extend(gf))


CALLS = {
    "refute_axiom": refute_axiom,
    "refute_formula": refute_formula,
    "correspond": correspond,
    "roundtrip": roundtrip,
    "class_check": class_check,
    "extend": extend,
}


# Independent checks.

def _box_table(obj: dict) -> list[int]:
    n = obj["n"]
    return [sum(1 << x for x in range(n) if a in obj["N"][x]) for a in range(1 << n)]


def _sets(obj: dict) -> list[set]:
    return [oracles.family_to_sets(members) for members in obj["N"]]


def _centered(obj: dict) -> bool:
    return all(a >> x & 1 for x, fam in enumerate(obj["N"]) for a in fam)


def _iv(obj: dict) -> bool:
    box = _box_table(obj)
    return all(box[a] in fam for fam in obj["N"] for a in fam)


def _complement_sets(fam: set, n: int) -> set:
    return {s for s in oracles.subsets(range(n)) if s not in fam}


FAMILY_ORACLES = {
    "monotone": oracles.is_up_closed,
    "regular": lambda fam, n: not fam or oracles.is_filter_family(fam, n),
    "normal": lambda fam, n: frozenset(range(n)) in fam,
    "contingency": oracles.is_contingency_family,
    "convex": oracles.is_convex,
    "coconvex": lambda fam, n: oracles.is_convex(_complement_sets(fam, n), n),
    "filter": oracles.is_filter_family,
    "kappa:2": lambda fam, n: oracles.is_kappa_complete_family(fam, n, 2),
    "kappa:3": lambda fam, n: oracles.is_kappa_complete_family(fam, n, 3),
}


def _in_class(cls: str, obj: dict) -> bool:
    if cls in FAMILY_ORACLES:
        return all(FAMILY_ORACLES[cls](fam, obj["n"]) for fam in _sets(obj))
    if cls == "centered":
        return _centered(obj)
    if cls == "iv":
        return _iv(obj)
    if cls == "pretopological":
        return _in_class("filter", obj) and _centered(obj)
    return _in_class("pretopological", obj) and _iv(obj)  # topological


def _assignment(names: list[str], n: int, idx: int) -> dict[str, int]:
    values = {}
    for name in reversed(names):
        idx, values[name] = divmod(idx, 1 << n)
    return values


def _check_refutation(formula, obj: dict, witness, valid: bool | None) -> str | None:
    """The witness must refute the formula and every earlier assignment
    must satisfy it; no witness must mean valid, by the class oracle for
    registry axioms and by a full eval_formula sweep for other formulas."""
    n = obj["n"]
    alg = core.NeighborhoodAlgebra(n, tuple(_box_table(obj)))
    full = (1 << n) - 1
    names = formulas.free_vars(formula)
    space = (1 << n) ** len(names)
    if witness is None:
        if valid is not None:
            return None if valid else "no refuting assignment, but the oracle says invalid"
        for idx in range(space):
            if evaluate.eval_formula(alg, formula, _assignment(names, n, idx)) != full:
                return f"no refuting assignment, but assignment {idx} refutes"
        return None
    if valid:
        return "refuting assignment on a frame the oracle validates"
    if sorted(witness) != sorted(names) or not all(0 <= witness[v] <= full for v in names):
        return f"malformed assignment {witness!r}"
    idx = 0
    for v in names:
        idx = idx * (1 << n) + witness[v]
    if evaluate.eval_formula(alg, formula, witness) == full:
        return f"assignment {witness!r} does not refute"
    for earlier in range(idx):
        if evaluate.eval_formula(alg, formula, _assignment(names, n, earlier)) != full:
            return f"assignment {earlier} refutes before the returned one"
    return None


def _expected_extension(which: str, obj: dict) -> dict:
    n = obj["n"]
    admissible = [oracles.mask_to_set(a) for a in obj["A"]]
    member = oracles.sigma_member_sets if which == "sigma" else oracles.pi_member_sets
    families = []
    for trace in _sets(obj):
        families.append([e for e in range(1 << n) if member(oracles.mask_to_set(e), trace, admissible)])
    return {"n": n, "N": families}


def check(req: Request, out) -> str | None:
    """None when the answer is right, else what is wrong."""
    kind = req.kind
    if kind == "refute_axiom":
        name, obj = req.args
        valid = _in_class(AXIOM_CLASS[name[1:]], obj)
        if req.in_class and out is not None:
            return f"frame built in the class of {name} was refuted"
        return _check_refutation(formulas.expand_named(name, obj["n"]).formula, obj, out, valid)
    if kind == "refute_formula":
        text, obj = req.args
        return _check_refutation(formulas.parse(text), obj, out, None)
    if kind == "correspond":
        pair, obj = req.args
        box = _box_table(obj)
        frame_side = _in_class(PAIR_CLASS[pair], obj)
        if pair == "CentT":  # box a <= a
            algebra_side = all(box[a] & ~a == 0 for a in range(len(box)))
        else:  # box a <= box box a
            algebra_side = all(box[a] & ~box[box[a]] == 0 for a in range(len(box)))
        if req.in_class and not frame_side:
            return "frame built in the class fails it"
        want = {"pair": pair, "frame_side": frame_side, "algebra_side": algebra_side, "agree": True}
        return None if out == want else f"report {out!r}, expected {want!r}"
    if kind == "roundtrip":
        (obj,) = req.args
        alg_text, back = out
        if json.loads(alg_text) != {"n": obj["n"], "box": _box_table(obj)}:
            return f"complex algebra {alg_text} is wrong"
        return None if back == obj else f"atom frame {back!r} is not the input frame"
    if kind == "class_check":
        tag, obj = req.args
        want = _in_class(tag, obj)
        if req.in_class and not want:
            return "frame built in the class fails the oracle"
        return None if out is want else f"class {tag}: {out!r}, expected {want!r}"
    which, obj = req.args
    want = _expected_extension(which, obj)
    return None if out == want else f"{which} extension {out!r}, expected {want!r}"


class OneshotWorkload:
    """One pass sends the same PASS_REQUESTS requests.  The first pass is
    checked request by request; later passes must return the same answers."""

    def __init__(self, name: str, seed: int) -> None:
        self.requests = make_requests(seed)
        self.answers: list | None = None

    def run_pass(self, clock, tracer=None):
        """Adds each request's time to `clock`, calibrating before every
        CHUNK requests; returns the failure messages."""
        outs = []
        errors = {}
        for i, req in enumerate(self.requests):
            if i % CHUNK == 0:
                clock.split()
            call = CALLS[req.kind]
            start = perf_counter_ns()
            try:
                out = call(*req.args)
            except Exception as exc:
                out = None
                errors[i] = f"raised {exc!r}"
            end = perf_counter_ns()
            clock.add(end - start)
            outs.append(out)
        failures = []
        for i, (req, out) in enumerate(zip(self.requests, outs)):
            if i in errors:
                problem = errors[i]
            elif self.answers is None:
                problem = check(req, out)
            else:
                problem = None if out == self.answers[i] else "answer differs from the checked first pass"
            if problem:
                failures.append(f"request {i} {req.kind}{req.args[:1]!r}: {problem}")
        if self.answers is None:
            self.answers = [None if i in errors else out for i, out in enumerate(outs)]
        return failures
