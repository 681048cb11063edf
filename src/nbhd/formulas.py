"""Modal formula DSL and the named axiom registry.

Grammar (ASCII, lowercase identifiers; "box" is a reserved word):

    formula := iff
    iff     := impl ("<->" impl)*
    impl    := or ("->" impl)?          right associative
    or      := and ("|" and)*
    and     := unary ("&" unary)*
    unary   := "~" unary | "box" unary | atom
    atom    := "T" | "F" | ident | "(" formula ")"
    ident   := [a-z][a-z0-9_]*

Or, Implies, Iff and F are sugar and are stored desugared, so the AST has
exactly five node shapes: Var, Top, Not, And, Box.  And has arity >= 0;
arity 0 renders as T and arity 1 renders as its item, so rendered output
always reparses to an equal AST.
"""

from __future__ import annotations

import re

from .core import PLAIN_OP_CAP, CapExceededError, InvalidInputError, _setattr, _Value


class Formula(_Value):
    """Base marker for AST nodes.  Every node is a frozen `_Value`, so
    equality and hashing are structural, field by field; each node class
    spells out its own, since every formula-keyed cache lookup hashes the
    tree and may compare it.  A node hashes the tuple of its fields and
    compares a child inside a tuple, which tries identity before
    equality."""

    __slots__ = ()


class Var(Formula):
    __slots__ = _fields = ("name",)

    def __init__(self, name: str) -> None:
        _setattr(self, "name", name)

    def __eq__(self, other):
        if other.__class__ is Var:
            return self.name == other.name
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.name,))


class Top(Formula):
    __slots__ = ()

    def __eq__(self, other):
        if other.__class__ is Top:
            return True
        return NotImplemented

    def __hash__(self) -> int:
        return hash(())


class Not(Formula):
    __slots__ = _fields = ("sub",)

    def __init__(self, sub: Formula) -> None:
        _setattr(self, "sub", sub)

    def __eq__(self, other):
        if other.__class__ is Not:
            return (self.sub,) == (other.sub,)
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.sub,))


class And(Formula):
    __slots__ = _fields = ("items",)

    def __init__(self, items: tuple[Formula, ...]) -> None:
        _setattr(self, "items", items)

    def __eq__(self, other):
        if other.__class__ is And:
            return self.items == other.items
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.items,))


class Box(Formula):
    __slots__ = _fields = ("sub",)

    def __init__(self, sub: Formula) -> None:
        _setattr(self, "sub", sub)

    def __eq__(self, other):
        if other.__class__ is Box:
            return (self.sub,) == (other.sub,)
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.sub,))


TOP = Top()


def bot() -> Formula:
    return Not(TOP)


def disj(a: Formula, b: Formula) -> Formula:
    return Not(And((Not(a), Not(b))))


def implies(a: Formula, b: Formula) -> Formula:
    return Not(And((a, Not(b))))


def iff(a: Formula, b: Formula) -> Formula:
    return And((implies(a, b), implies(b, a)))


class ParseError(InvalidInputError):
    """Syntax error carrying the byte offset and the expected token set."""

    def __init__(self, offset: int, expected: tuple[str, ...], found: str):
        self.offset = offset
        self.expected = tuple(sorted(expected))
        self.found = found
        super().__init__(f"at byte {offset}: expected one of {', '.join(self.expected)}; found {found}")


_TOKEN_RE = re.compile(r"[ \t\r\n]+|<->|->|[&|~()]|[a-z][a-z0-9_]*|[TF]")

_PRIMARY = ("'('", "'~'", "'box'", "'T'", "'F'", "identifier")


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(pos, ("token",), repr(text[pos]))
        lexeme = m.group()
        if not lexeme.isspace():
            if lexeme[0].islower() and lexeme not in ("box",):
                kind = "ident"
            else:
                kind = lexeme
            tokens.append((kind, lexeme, pos))
        pos = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.i]

    def take(self) -> tuple[str, str, int]:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, kind: str) -> tuple[str, str, int]:
        tok = self.peek()
        if tok[0] != kind:
            raise ParseError(tok[2], (f"'{kind}'",), repr(tok[1]) if tok[1] else "end of input")
        return self.take()

    def formula(self) -> Formula:
        node = self.iff()
        tok = self.peek()
        if tok[0] != "end":
            raise ParseError(tok[2], ("'&'", "'|'", "'->'", "'<->'", "end of input"), repr(tok[1]))
        return node

    def iff(self) -> Formula:
        node = self.impl()
        while self.peek()[0] == "<->":
            self.take()
            node = iff(node, self.impl())
        return node

    def impl(self) -> Formula:
        node = self.disj()
        if self.peek()[0] == "->":
            self.take()
            node = implies(node, self.impl())
        return node

    def disj(self) -> Formula:
        node = self.conj()
        while self.peek()[0] == "|":
            self.take()
            node = disj(node, self.conj())
        return node

    def conj(self) -> Formula:
        items = [self.unary()]
        while self.peek()[0] == "&":
            self.take()
            items.append(self.unary())
        if len(items) == 1:
            return items[0]
        return And(tuple(items))

    def unary(self) -> Formula:
        kind, lexeme, offset = self.peek()
        if kind == "~":
            self.take()
            return Not(self.unary())
        if kind == "box":
            self.take()
            return Box(self.unary())
        if kind == "T":
            self.take()
            return TOP
        if kind == "F":
            self.take()
            return bot()
        if kind == "ident":
            self.take()
            return Var(lexeme)
        if kind == "(":
            self.take()
            node = self.iff()
            self.expect(")")
            return node
        raise ParseError(offset, _PRIMARY, repr(lexeme) if lexeme else "end of input")


def parse(text: str) -> Formula:
    return _Parser(text).formula()


def render(f: Formula) -> str:
    if isinstance(f, Var):
        return f.name
    if isinstance(f, Top):
        return "T"
    if isinstance(f, Not):
        return "~" + _render_tight(f.sub)
    if isinstance(f, Box):
        return "box " + _render_tight(f.sub)
    if isinstance(f, And):
        if not f.items:
            return "T"
        if len(f.items) == 1:
            return render(f.items[0])
        return " & ".join(_render_tight(item) for item in f.items)
    raise InvalidInputError(f"render: not a formula node: {f!r}")


def _render_tight(f: Formula) -> str:
    # Only And needs parentheses below & or under ~ / box.
    if isinstance(f, And) and len(f.items) != 1:
        return "(" + render(f) + ")"
    return render(f)


def free_vars(f: Formula) -> list[str]:
    """Variable names in first-occurrence order."""
    seen: dict[str, None] = {}

    def walk(node: Formula) -> None:
        if isinstance(node, Var):
            seen.setdefault(node.name)
        elif isinstance(node, Not):
            walk(node.sub)
        elif isinstance(node, Box):
            walk(node.sub)
        elif isinstance(node, And):
            for item in node.items:
                walk(item)

    walk(f)
    return list(seen)


def is_box_free(f: Formula) -> bool:
    if isinstance(f, Box):
        return False
    if isinstance(f, Not):
        return is_box_free(f.sub)
    if isinstance(f, And):
        return all(is_box_free(item) for item in f.items)
    return True


def is_one_step(f: Formula) -> bool:
    """Boolean combination of T and boxed box-free formulas, no naked variables."""
    if isinstance(f, Box):
        return is_box_free(f.sub)
    if isinstance(f, Top):
        return True
    if isinstance(f, Not):
        return is_one_step(f.sub)
    if isinstance(f, And):
        return all(is_one_step(item) for item in f.items)
    return False


def modal_depth(f: Formula) -> int:
    if isinstance(f, Box):
        return 1 + modal_depth(f.sub)
    if isinstance(f, Not):
        return modal_depth(f.sub)
    if isinstance(f, And):
        return max((modal_depth(item) for item in f.items), default=0)
    return 0


# Named axioms.  A semantic axiom names the finitary registry axioms it
# reduces to on a finite carrier, and its formula is their conjunction:
# on n points a family closed under binary meets and supersets is empty
# or the up-cone of its minimum, so @CInf is @N and @C, and @Ck(k) is @C
# once k >= 2^n values must repeat.  Every spec, an @name or an inline
# formula, becomes an Axiom through `resolve`.


class Axiom(_Value):
    """A named formula.  Besides its fields it keeps two things read again
    and again: its spec text (`spec`), rendered on first use, and
    `_programs`, the membership programs `evaluate` compiled from it, by
    width, so that a warm lookup hashes no formula tree."""

    _fields = ("name", "formula", "one_step", "kappa", "semantic")
    __slots__ = (*_fields, "_spec", "_programs")

    def __init__(self, name: str, formula: Formula, one_step: bool, kappa: int | None = None, semantic: tuple[str, ...] | None = None) -> None:
        _setattr(self, "name", name)
        _setattr(self, "formula", formula)
        _setattr(self, "one_step", one_step)
        _setattr(self, "kappa", kappa)
        _setattr(self, "semantic", semantic)
        _setattr(self, "_spec", None)
        _setattr(self, "_programs", {})

    def spec(self) -> str:
        """The round-trippable spec, '@' and the name for a registry entry.
        An inline axiom is named by its rendering, which no registry name
        is."""
        if self._spec is None:
            _setattr(self, "_spec", self.name if render(self.formula) == self.name else "@" + self.name)
        return self._spec


def _kappa_formula(k: int) -> Formula:
    names = [Var(f"v{i}") for i in range(1, k + 1)]
    boxes = And(tuple(Box(v) for v in names)) if k != 1 else Box(names[0])
    meet = And(tuple(names)) if k != 1 else names[0]
    return iff(boxes, Box(meet))


# Each fixed axiom is parsed once, here; expand_named hands out these.
_FIXED_AXIOMS = {
    name: Axiom(name, f, is_one_step(f))
    for name, f in (
        ("M", parse("box(u & v) -> box u")),
        ("C", parse("box u & box v <-> box(u & v)")),
        ("N", parse("box T")),
        ("Cont", parse("box v <-> box ~v")),
        ("Conv", parse("box(v & v1) & box(v | v2) -> box v")),
        ("CoConv", parse("box v -> box(v & v1) | box(v | v2)")),
        ("T", parse("box b -> b")),
        ("Four", parse("box b -> box box b")),
    )
}

_CK_RE = re.compile(r"^Ck\((\d+)\)$")

REGISTRY_NAMES = tuple(_FIXED_AXIOMS) + ("Ck(k)", "CInf")


def _semantic(bare: str, names: tuple[str, ...], kappa: int | None = None) -> Axiom:
    """The axiom standing for the conjunction of the named registry axioms."""
    parts = [_FIXED_AXIOMS[name].formula for name in names]
    return Axiom(bare, parts[0] if len(parts) == 1 else And(tuple(parts)), True, kappa, names)


def expand_named(name: str, n: int | None = None) -> Axiom:
    """Resolve a registry name, with or without the leading '@'.

    Ck(k) keeps its k-variable formula while k < 2^n and degrades to the
    formula of @C once instantiation values must repeat; CInf is always
    the formulas of @N and @C.  When n is unknown, Ck(k) keeps its
    k-variable formula, refused above 2^PLAIN_OP_CAP variables: any such
    k is @C at every carrier size the package accepts.
    """
    bare = name[1:] if name.startswith("@") else name
    if bare in _FIXED_AXIOMS:
        return _FIXED_AXIOMS[bare]
    if bare == "CInf":
        return _semantic(bare, ("N", "C"))
    m = _CK_RE.match(bare)
    if m:
        k = int(m.group(1))
        if k < 1:
            raise InvalidInputError("Ck(k): k must be at least 1")
        if n is not None and k >= (1 << n):
            return _semantic(bare, ("C",), k)
        if k > 1 << PLAIN_OP_CAP:
            raise CapExceededError(f"Ck(k): k={k} exceeds cap {1 << PLAIN_OP_CAP}")
        return Axiom(bare, _kappa_formula(k), True, kappa=k)
    raise InvalidInputError(f"unknown axiom name {name!r}")


class AxiomSet(_Value):
    """Name-keyed collection of one-step axioms."""

    __slots__ = _fields = ("axioms",)

    def __init__(self, axioms: tuple[Axiom, ...]) -> None:
        names = [ax.name for ax in axioms]
        if len(set(names)) != len(names):
            raise InvalidInputError(f"axiom set: duplicate names in {names}")
        for ax in axioms:
            if not ax.one_step:
                raise InvalidInputError(f"axiom set: @{ax.name} is not a one-step axiom")
        _setattr(self, "axioms", axioms)

    def __iter__(self):
        return iter(self.axioms)

    def __len__(self) -> int:
        return len(self.axioms)

    def specs(self) -> list[str]:
        """The axioms' round-trippable spec strings (`Axiom.spec`)."""
        return [ax.spec() for ax in self.axioms]


def resolve(spec: str, n: int | None = None) -> Axiom:
    """The axiom a stripped spec names: the registry entry of an '@Name'
    at width n (`expand_named`), and otherwise the parsed formula, named
    by its rendering.  Every axiom spec, search target and constraint is
    resolved here."""
    if spec.startswith("@"):
        return expand_named(spec, n)
    f = parse(spec)
    return Axiom(render(f), f, is_one_step(f))


def axiom_set_from_specs(specs: list[str], n: int | None = None) -> AxiomSet:
    """Build an AxiomSet from '@Name' entries and inline one-step formulas."""
    axioms = []
    for spec in specs:
        spec = spec.strip()
        if not spec:
            raise InvalidInputError("axiom set: empty entry")
        ax = resolve(spec, n)
        # A registry axiom that is not one-step is refused by AxiomSet.
        if not (ax.one_step or spec.startswith("@")):
            raise InvalidInputError(f"axiom set: {spec!r} is not one-step")
        axioms.append(ax)
    return AxiomSet(tuple(axioms))
