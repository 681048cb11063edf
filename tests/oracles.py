"""Independent reference implementations used to freeze expected values.

Everything here recomputes results from definitions using plain sets of
frozensets and double loops, deliberately sharing no representation
tricks (famasks, postfix programs, submask iteration) with the package.
The membership helpers at the end read the package's programs: one
decides them a lane and a row at a time, and the other builds their rows
one assignment at a time with the package's definitional evaluators.
"""

from itertools import permutations, product

from nbhd import evaluate
from nbhd.formulas import And, Box, Not, Var, free_vars


def subsets(points):
    """All subsets of an iterable of points, as frozensets."""
    points = list(points)
    out = [frozenset()]
    for p in points:
        out += [s | {p} for s in out]
    return out


def mask_to_set(mask):
    return frozenset(i for i in range(mask.bit_length()) if mask >> i & 1)


def set_to_mask(s):
    out = 0
    for i in s:
        out |= 1 << i
    return out


def family_to_sets(members):
    return {mask_to_set(m) for m in members}


def is_up_closed(family, n):
    """Direct double loop over the definition."""
    universe = subsets(range(n))
    for a in family:
        for b in universe:
            if a <= b and b not in family:
                return False
    return True


def up_closed_family_count(n):
    """Count up-closed families by filtering every family of subsets."""
    universe = subsets(range(n))
    count = 0
    for picks in product([False, True], repeat=len(universe)):
        family = {s for s, keep in zip(universe, picks) if keep}
        if is_up_closed(family, n):
            count += 1
    return count


def is_convex(family, n):
    """a, b in family and a <= e <= b imply e in family."""
    for a in family:
        for b in family:
            if not a <= b:
                continue
            for e in subsets(range(n)):
                if a <= e <= b and e not in family:
                    return False
    return True


def is_pair_meet_closed(family):
    return all(a & b in family for a in family for b in family)


def is_filter_family(family, n):
    return frozenset(range(n)) in family and is_up_closed(family, n) and is_pair_meet_closed(family)


def is_contingency_family(family, n):
    full = frozenset(range(n))
    return all(full - a in family for a in family)


def is_kappa_complete_family(family, n, kappa):
    """Up-closed and closed under meets of fewer than kappa members,
    the empty meet (the full set) included."""
    if not is_up_closed(family, n):
        return False
    universe = list(family)
    full = frozenset(range(n))
    for r in range(min(kappa - 1, len(universe)) + 1):
        if r == 0:
            if kappa >= 1 and full not in family:
                return False
            continue
        for combo in _combinations(universe, r):
            meet = full
            for s in combo:
                meet = meet & s
            if meet not in family:
                return False
    return True


def _combinations(items, r):
    if r == 0:
        yield ()
        return
    for i in range(len(items)):
        for rest in _combinations(items[i + 1 :], r - 1):
            yield (items[i],) + rest


def theta_member(family, formula_sets, env, n):
    """One-step membership by structural recursion on a tiny AST of
    tuples: ('box', box-free tree), ('top',), ('not', t), ('and', [ts])."""
    kind = formula_sets[0]
    if kind == "box":
        return eval_box_free(formula_sets[1], env, n) in family
    if kind == "top":
        return True
    if kind == "not":
        return not theta_member(family, formula_sets[1], env, n)
    if kind == "and":
        return all(theta_member(family, t, env, n) for t in formula_sets[1])
    raise ValueError(kind)


def eval_box_free(tree, env, n):
    kind = tree[0]
    if kind == "var":
        return env[tree[1]]
    if kind == "top":
        return frozenset(range(n))
    if kind == "not":
        return frozenset(range(n)) - eval_box_free(tree[1], env, n)
    if kind == "and":
        out = frozenset(range(n))
        for t in tree[1]:
            out = out & eval_box_free(t, env, n)
        return out
    raise ValueError(kind)


AXIOM_TREES = {
    "M": ("not", ("and", [("box", ("and", [("var", "u"), ("var", "v")])), ("not", ("box", ("var", "u")))])),
    "N": ("box", ("top",)),
    "C": (
        "and",
        [
            ("not", ("and", [("and", [("box", ("var", "u")), ("box", ("var", "v"))]), ("not", ("box", ("and", [("var", "u"), ("var", "v")])))])),
            ("not", ("and", [("box", ("and", [("var", "u"), ("var", "v")])), ("not", ("and", [("box", ("var", "u")), ("box", ("var", "v"))]))])),
        ],
    ),
    "Cont": (
        "and",
        [
            ("not", ("and", [("box", ("var", "v")), ("not", ("box", ("not", ("var", "v"))))])),
            ("not", ("and", [("box", ("not", ("var", "v"))), ("not", ("box", ("var", "v")))])),
        ],
    ),
}


def axiom_subset_families(n, names):
    """Families over n points that satisfy every named axiom under every
    assignment, as a sorted list of famasks (for comparisons only)."""
    universe = subsets(range(n))
    vars_needed = sorted({v for name in names for v in _tree_vars(AXIOM_TREES[name])})
    out = []
    for picks in product([False, True], repeat=len(universe)):
        family = {s for s, keep in zip(universe, picks) if keep}
        ok = True
        for env_vals in product(universe, repeat=len(vars_needed)):
            env = dict(zip(vars_needed, env_vals))
            if not all(theta_member(family, AXIOM_TREES[name], env, n) for name in names):
                ok = False
                break
        if ok:
            famask = 0
            for s in family:
                famask |= 1 << set_to_mask(s)
            out.append(famask)
    return sorted(out)


def _tree_vars(tree):
    kind = tree[0]
    if kind == "var":
        return {tree[1]}
    if kind in ("box", "not"):
        return _tree_vars(tree[1])
    if kind == "and":
        vs = set()
        for t in tree[1]:
            vs |= _tree_vars(t)
        return vs
    return set()


def kripke_box(successors, a_set, n):
    """{ x | R[x] subseteq a } from the successor map directly."""
    return frozenset(x for x in range(n) if successors[x] <= a_set)


def relabel_key(key, perm):
    """Frame key after renaming point x to perm[x], recomputed from sets."""
    n = len(key)
    new = [0] * n
    for x in range(n):
        members = []
        mask = key[x]
        a = 0
        while mask:
            if mask & 1:
                members.append(a)
            mask >>= 1
            a += 1
        famask = 0
        for m in members:
            img = set_to_mask({perm[i] for i in mask_to_set(m)})
            famask |= 1 << img
        new[perm[x]] = famask
    return tuple(new)


def orbit_minima(keys):
    """The least key of each point-relabeling orbit among the given frame
    keys, ascending."""
    seen = set()
    minima = []
    for key in sorted(set(keys)):
        if key in seen:
            continue
        minima.append(key)
        for perm in permutations(range(len(key))):
            seen.add(relabel_key(key, perm))
    return minima


def orbit_count(keys):
    """Number of point-relabeling orbits among the given frame keys."""
    return len(orbit_minima(keys))


def sigma_member_sets(e_set, trace, admissible):
    """Interval-evidence membership with frozensets: some admissible pair
    c <= e <= d has every admissible set between them inside the trace."""
    for c in admissible:
        if not c <= e_set:
            continue
        for d in admissible:
            if not e_set <= d:
                continue
            if all(a in trace for a in admissible if c <= a <= d):
                return True
    return False


def pi_member_sets(e_set, trace, admissible):
    for c in admissible:
        if not c <= e_set:
            continue
        for d in admissible:
            if not e_set <= d:
                continue
            if not any(a in trace for a in admissible if c <= a <= d):
                return False
    return True


def preimage_set(fmap, a_set):
    """Points x whose image fmap[x] lies in a_set."""
    return frozenset(x for x, y in enumerate(fmap) if y in a_set)


def morphism_failures(fmap, dom, cod, codomain_sets):
    """Every (x, a') where a' in N'(f(x)) and f^-1[a'] in N(x) disagree,
    x ascending and then a' by its mask; dom and cod list each point's
    family as a set of frozensets, and a' ranges over codomain_sets."""
    ordered = sorted(codomain_sets, key=set_to_mask)
    for x, y in enumerate(fmap):
        for a in ordered:
            if (a in cod[y]) != (preimage_set(fmap, a) in dom[x]):
                yield x, a


def general_morphism_failure(fmap, dom, dom_admissible, cod, cod_admissible):
    """The first failure of a general-frame morphism, or None:
    ('admissible', a') when an admissible a' has an inadmissible preimage,
    else ('membership', x, a') for the first disagreement over the
    codomain's admissible sets."""
    for a in sorted(cod_admissible, key=set_to_mask):
        if preimage_set(fmap, a) not in dom_admissible:
            return "admissible", a
    for x, a in morphism_failures(fmap, dom, cod, cod_admissible):
        return "membership", x, a
    return None


def general_frame_fault(n, nbhd, admissible):
    """The first reason a general frame is invalid, in the package's words,
    or None: the pair loop over A (each member a ascending by mask, its
    complement and then its union with each b), then the box of each
    member.  nbhd lists each point's family as a set of frozensets."""
    full = frozenset(range(n))
    if frozenset() not in admissible or full not in admissible:
        return "general frame: A must contain the empty and full sets"
    ordered = sorted(admissible, key=set_to_mask)
    for a in ordered:
        if full - a not in admissible:
            return f"general frame: A not closed under complement at {set_to_mask(a)}"
        for b in ordered:
            if a | b not in admissible:
                return f"general frame: A not closed under union at {set_to_mask(a)}, {set_to_mask(b)}"
    for a in ordered:
        if frozenset(x for x in range(n) if a in nbhd[x]) not in admissible:
            return f"general frame: A not closed under box at {set_to_mask(a)}"
    return None


def is_differentiated(n, admissible):
    """Every pair of distinct points is told apart by an admissible set."""
    return all(any(x in a and y not in a for a in admissible) for x in range(n) for y in range(n) if x != y)


def membership_program_lanes(programs, planes, lanes):
    """Lanes j of the mask `lanes` at which every row of every membership
    program holds, decided one lane and one row at a time over bools:
    lane j reads subset a as a member when bit j of planes[a] is set.
    Postfix opcodes: 0 pushes the membership of the row's subset in slot
    arg, 1 pushes True, 2 negates the top, 3 replaces the top arg values
    by their conjunction (True when arg is 0)."""
    out = 0
    for j in range(lanes.bit_length()):
        if lanes >> j & 1 and all(_row_holds(prog, row, planes, j) for prog in programs for row in prog.rows):
            out |= 1 << j
    return out


def _row_holds(prog, row, planes, j):
    stack = []
    for op, arg in zip(prog.opcodes, prog.opargs):
        if op == 0:
            stack.append(planes[row[arg]] >> j & 1 == 1)
        elif op == 1:
            stack.append(True)
        elif op == 2:
            stack.append(not stack.pop())
        elif op == 3:
            operands = stack[len(stack) - arg:]
            del stack[len(stack) - arg:]
            stack.append(all(operands))
        else:
            raise ValueError(f"unknown membership opcode {op}")
    if len(stack) != 1:
        raise ValueError("membership program leaves more than one value")
    return stack[0]


def membership_rows(f, n, point=None):
    """The distinct rows of f's membership program, in first-seen order,
    built one assignment at a time (first variable most significant).
    The slots are f's distinct boxed arguments and naked variables in the
    order the package lowers them, left to right outside the boxes.  A
    boxed slot reads its argument's value, and a naked variable 2^n + 1
    when `point` lies in its value and 2^n otherwise."""
    slots = {}

    def walk(node):
        if isinstance(node, (Box, Var)):
            slots.setdefault(node)
        elif isinstance(node, Not):
            walk(node.sub)
        elif isinstance(node, And):
            for item in node.items:
                walk(item)

    walk(f)
    names = free_vars(f)
    m = 1 << n
    rows = {}
    for idx in range(m ** len(names)):
        env = evaluate.assignment_at(names, n, idx)
        rows[tuple(evaluate.eval_box_free(node.sub, env, n) if isinstance(node, Box) else m | env[node.name] >> point & 1 for node in slots)] = None
    return tuple(rows)
