"""Surface syntax for CBoxes: concept terms, role axioms, queries.

The textual format is line-oriented.  Each non-blank, non-comment line is one
statement:

    decl role part-of : 2
    decl role has-price : (concept, num)
    role proper-part = restrict part-of at 1 to Proper
    role cont-in sub part-of
    role part-of o part-of sub part-of
    role has-all o (has-left, has-right) sub has-both guard Assembled
    Endocarditis sub Inflammation and exists has-loc . Endocardium
    A equiv B and exists r . C
    ? Endocarditis sub Heartdisease

Concepts:  names, `top`, `bot`, `C and D`, `exists r . C`,
`exists r . (C1, C2)` for roles with several filler positions, and numeric
intervals `num up 3`, `num down 7/2`, `num [1/2, 5]`.

`equiv` is sugar for two `sub` statements and disappears at parse time.

A concept nests at most MAX_NESTING levels: each `exists` and each pair
of parentheses (around a sub-concept or a filler list) opens one.  Deeper
input is a ParseError.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Iterator, Optional, Union


class LoctameError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(LoctameError):
    def __init__(self, msg: str, line: int, col: int):
        super().__init__(f"{line}:{col}: {msg}")
        self.line = line
        self.col = col


class CheckError(LoctameError):
    """A well-formedness violation (arities, sorts, undeclared things)."""


CONCEPT = "concept"
NUM = "num"

RESERVED = {
    "decl", "role", "sub", "nsub", "equiv", "guard", "exists", "and",
    "top", "bot", "num", "up", "down", "id", "restrict", "at", "to", "o",
}


# ---------------------------------------------------------------------------
# concept terms
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Name:
    name: str

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class Top:
    def __str__(self) -> str:
        return "top"


@dataclass(frozen=True)
class Bot:
    def __str__(self) -> str:
        return "bot"


TOP = Top()
BOT = Bot()


@dataclass(frozen=True)
class And:
    args: tuple["Concept", ...]

    def __post_init__(self):
        if len(self.args) < 2:
            raise ValueError("conjunction needs at least two conjuncts")

    def __str__(self) -> str:
        # a nested And is parenthesized to round-trip structurally; no
        # helper call per level, so the deepest concepts render too
        parts = []
        for a in self.args:
            parts.append(f"({a})" if isinstance(a, And) else str(a))
        return " and ".join(parts)


@dataclass(frozen=True)
class Exists:
    role: str
    fillers: tuple["Concept", ...]

    def __str__(self) -> str:
        if len(self.fillers) == 1:
            f = self.fillers[0]
            return (f"exists {self.role} . ({f})" if isinstance(f, And)
                    else f"exists {self.role} . {f}")
        parts = []
        for f in self.fillers:
            parts.append(str(f))
        return f"exists {self.role} . ({', '.join(parts)})"


@dataclass(frozen=True)
class Interval:
    """A numeric interval: lo=None means unbounded below, hi=None above.

    `num up q` is Interval(q, None), `num down q` is Interval(None, q),
    `num [a, b]` is Interval(a, b).  Both ends None is the numeric top,
    which has no surface form but shows up when intervals are intersected.
    """

    lo: Optional[Fraction]
    hi: Optional[Fraction]

    def __post_init__(self):
        if self.lo is not None and self.hi is not None and self.lo > self.hi:
            raise ValueError(f"empty interval [{self.lo}, {self.hi}]")

    def __str__(self) -> str:
        if self.lo is None and self.hi is None:
            return "top"
        if self.hi is None:
            return f"num up {_frac(self.lo)}"
        if self.lo is None:
            return f"num down {_frac(self.hi)}"
        return f"num [{_frac(self.lo)}, {_frac(self.hi)}]"


Concept = Union[Name, Top, Bot, And, Exists, Interval]


def _frac(q: Fraction) -> str:
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


# ---------------------------------------------------------------------------
# axioms
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GCI:
    lhs: Concept
    rhs: Concept

    def __str__(self) -> str:
        return f"{self.lhs} sub {self.rhs}"


@dataclass(frozen=True)
class RoleInclusion:
    """`chain[0] o chain[1] o ... sub rhs`, or the head+tuple form.

    parallel=False: sequential composition, read right to left; every
    element but the last must be binary.  len(chain) == 1 is a plain
    role inclusion.  rhs None means the composition is included in the
    identity (only for len >= 2).

    parallel=True: chain[0] applied on top of the tuple of the remaining
    roles; chain[0] must have one filler per tuple element.
    """

    chain: tuple[str, ...]
    rhs: Optional[str]
    guard: Optional[Concept] = None
    parallel: bool = False

    def __post_init__(self):
        if not self.chain:
            raise ValueError("empty role chain")
        if self.rhs is None and len(self.chain) < 2:
            raise ValueError("identity inclusion needs a composition")
        if self.parallel and len(self.chain) < 2:
            raise ValueError("tuple composition needs tail roles")

    def __str__(self) -> str:
        if self.parallel:
            lhs = f"{self.chain[0]} o ({', '.join(self.chain[1:])})"
        else:
            lhs = " o ".join(self.chain)
        s = f"role {lhs} sub {self.rhs if self.rhs is not None else 'id'}"
        if self.guard is not None:
            s += f" guard {self.guard}"
        return s

    def split_chain(self, fresh: Callable[[], str]) -> list["RoleInclusion"]:
        """Rewrite a sequential chain longer than two into two-step ones,
        right to left, naming each new composition with a `fresh()` role.
        The guard stays on the innermost step: its fresh role has no other
        source, so the guard still controls every derivation."""
        if self.parallel or len(self.chain) <= 2:
            return [self]
        out, chain, guard = [], list(self.chain), self.guard
        while len(chain) > 2:
            aux = fresh()
            out.append(RoleInclusion((chain[-2], chain[-1]), aux, guard))
            guard = None
            chain[-2:] = [aux]
        out.append(RoleInclusion(tuple(chain), self.rhs))
        return out


@dataclass(frozen=True)
class RoleRestriction:
    """`role name = restrict base at position to concept`.

    position counts filler slots of the base role from 1; the declared
    role has that slot removed, its extension requiring some element of
    `concept` there.
    """

    name: str
    base: str
    position: int
    concept: Concept

    def __str__(self) -> str:
        return f"role {self.name} = restrict {self.base} at {self.position} to {self.concept}"


@dataclass(frozen=True)
class Query:
    lhs: Concept
    rhs: Concept

    def __str__(self) -> str:
        return f"? {self.lhs} sub {self.rhs}"


@dataclass(frozen=True)
class CBox:
    # role name -> sorts of all positions (subject first); subject is
    # always "concept"
    roles: dict[str, tuple[str, ...]] = field(default_factory=dict)
    restrictions: tuple[RoleRestriction, ...] = ()
    gcis: tuple[GCI, ...] = ()
    role_incls: tuple[RoleInclusion, ...] = ()
    queries: tuple[Query, ...] = ()

    def __str__(self) -> str:
        return render_cbox(self)


def render_cbox(cbox: CBox) -> str:
    lines = []
    for name, sig in cbox.roles.items():
        if all(s == CONCEPT for s in sig):
            lines.append(f"decl role {name} : {len(sig)}")
        else:
            lines.append(f"decl role {name} : ({', '.join(sig)})")
    for r in cbox.restrictions:
        lines.append(str(r))
    for ri in cbox.role_incls:
        lines.append(str(ri))
    for g in cbox.gcis:
        lines.append(str(g))
    for q in cbox.queries:
        lines.append(str(q))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# tokenizer
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Token:
    kind: str  # "ident", "number", "punct", "eol"
    text: str
    line: int
    col: int


_PUNCT = {"(", ")", ",", ".", ":", "=", "?", "[", "]"}


def _tokenize(text: str) -> Iterator[Token]:
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0]
        i, n = 0, len(line)
        any_tok = False
        while i < n:
            ch = line[i]
            if ch.isspace():
                i += 1
                continue
            col = i + 1
            if ch in _PUNCT:
                yield Token("punct", ch, lineno, col)
                i += 1
            elif ch.isdigit() or (ch == "-" and i + 1 < n and line[i + 1].isdigit()):
                j = i + 1
                while j < n and (line[j].isdigit() or line[j] in "./"):
                    # a '.' directly followed by a non-digit ends the number
                    # (it is the filler dot of an existential)
                    if line[j] == "." and not (j + 1 < n and line[j + 1].isdigit()):
                        break
                    j += 1
                yield Token("number", line[i:j], lineno, col)
                i = j
            elif ch.isalpha() or ch == "_":
                j = i + 1
                while j < n and (line[j].isalnum() or line[j] in "_-"):
                    j += 1
                yield Token("ident", line[i:j], lineno, col)
                i = j
            else:
                raise ParseError(f"unexpected character {ch!r}", lineno, col)
            any_tok = True
        if any_tok:
            yield Token("eol", "", lineno, n + 1)


# the parser and the recursive passes after it (translation, closure,
# purification, rendering) handle every concept nested this deep within
# Python's default recursion limit; 330 levels overflowed the parser
MAX_NESTING = 200


class _Parser:
    def __init__(self, text: str):
        self.toks = list(_tokenize(text))
        self.pos = 0
        self.nesting = 0

    # -- token plumbing ----------------------------------------------------

    def peek(self) -> Optional[Token]:
        return self.toks[self.pos] if self.pos < len(self.toks) else None

    def next(self) -> Token:
        tok = self.peek()
        if tok is None:
            last = self.toks[-1] if self.toks else Token("eol", "", 1, 1)
            raise ParseError("unexpected end of input", last.line, last.col)
        self.pos += 1
        return tok

    def expect(self, kind: str, text: Optional[str] = None) -> Token:
        tok = self.next()
        if tok.kind != kind or (text is not None and tok.text != text):
            want = text if text is not None else kind
            raise ParseError(f"expected {want!r}, got {tok.text!r}", tok.line, tok.col)
        return tok

    def at(self, kind: str, text: Optional[str] = None) -> bool:
        tok = self.peek()
        return (tok is not None and tok.kind == kind
                and (text is None or tok.text == text))

    def eat(self, kind: str, text: Optional[str] = None) -> bool:
        if self.at(kind, text):
            self.pos += 1
            return True
        return False

    def ident(self, what: str = "name") -> str:
        tok = self.next()
        if tok.kind != "ident":
            raise ParseError(f"expected {what}, got {tok.text!r}", tok.line, tok.col)
        if tok.text in RESERVED:
            raise ParseError(f"{tok.text!r} is a keyword, not a {what}", tok.line, tok.col)
        if tok.text.startswith("_"):
            raise ParseError(f"names starting with '_' are reserved: {tok.text!r}",
                             tok.line, tok.col)
        return tok.text

    def fraction(self) -> Fraction:
        tok = self.next()
        if tok.kind != "number":
            raise ParseError(f"expected a number, got {tok.text!r}", tok.line, tok.col)
        try:
            return Fraction(tok.text)
        except (ValueError, ZeroDivisionError):
            raise ParseError(f"bad number {tok.text!r}", tok.line, tok.col) from None

    # -- concepts ----------------------------------------------------------

    def concept(self) -> Concept:
        first = self.unary()
        if not self.at("ident", "and"):
            return first
        args = [first]
        while self.eat("ident", "and"):
            args.append(self.unary())
        return And(tuple(args))

    def nest(self, tok: Token) -> None:
        self.nesting += 1
        if self.nesting > MAX_NESTING:
            raise ParseError(f"concept nested deeper than {MAX_NESTING} levels",
                             tok.line, tok.col)

    def unary(self) -> Concept:
        if self.at("ident", "exists"):
            self.nest(self.next())
            role = self.ident("role name")
            self.expect("punct", ".")
            c = Exists(role, self.fillers())
            self.nesting -= 1
            return c
        return self.primary()

    def fillers(self) -> tuple[Concept, ...]:
        if self.at("punct", "("):
            self.nest(self.next())
            items = [self.concept()]
            while self.eat("punct", ","):
                items.append(self.concept())
            self.expect("punct", ")")
            self.nesting -= 1
            return tuple(items)
        return (self.unary(),)

    def primary(self) -> Concept:
        if self.at("punct", "("):
            self.nest(self.next())
            c = self.concept()
            self.expect("punct", ")")
            self.nesting -= 1
            return c
        if self.eat("ident", "top"):
            return TOP
        if self.eat("ident", "bot"):
            return BOT
        if self.at("ident", "num"):
            return self.interval()
        return Name(self.ident("concept name"))

    def interval(self) -> Interval:
        tok = self.expect("ident", "num")
        if self.eat("ident", "up"):
            return Interval(self.fraction(), None)
        if self.eat("ident", "down"):
            return Interval(None, self.fraction())
        if self.eat("punct", "["):
            lo = self.fraction()
            self.expect("punct", ",")
            hi = self.fraction()
            close = self.expect("punct", "]")
            if lo > hi:
                raise ParseError(f"empty interval [{lo}, {hi}]", close.line, close.col)
            return Interval(lo, hi)
        raise ParseError("expected 'up', 'down' or '[' after 'num'", tok.line, tok.col)

    # -- statements ----------------------------------------------------------

    def statement(self, cbox_parts: dict) -> None:
        if self.eat("ident", "decl"):
            self.parse_decl(cbox_parts)
        elif self.at("ident", "role"):
            self.parse_role_stmt(cbox_parts)
        elif self.eat("punct", "?"):
            lhs = self.concept()
            self.expect("ident", "sub")
            rhs = self.concept()
            cbox_parts["queries"].append(Query(lhs, rhs))
        else:
            lhs = self.concept()
            tok = self.next()
            if tok.text == "nsub" and "negated" in cbox_parts:
                cbox_parts["negated"].append(Query(lhs, self.concept()))
            elif tok.kind != "ident" or tok.text not in ("sub", "equiv"):
                raise ParseError(f"expected 'sub' or 'equiv', got {tok.text!r}",
                                 tok.line, tok.col)
            else:
                rhs = self.concept()
                cbox_parts["gcis"].append(GCI(lhs, rhs))
                if tok.text == "equiv":
                    cbox_parts["gcis"].append(GCI(rhs, lhs))
        self.expect("eol")

    def side_tag(self) -> Optional[str]:
        """Eat an `A:` or `B:` tag, the first two characters of a
        statement, and return its side."""
        tag = self.toks[self.pos:self.pos + 2]
        if (len(tag) == 2 and tag[0].text in ("A", "B")
                and tag[1].text == ":" and tag[1].col == tag[0].col + 1):
            self.pos += 2
            return tag[0].text
        return None

    def parse_decl(self, cbox_parts: dict) -> None:
        self.expect("ident", "role")
        name = self.ident("role name")
        colon = self.expect("punct", ":")
        if name in cbox_parts["roles"]:
            raise ParseError(f"role {name!r} declared twice", colon.line, colon.col)
        if self.at("number"):
            tok = self.next()
            try:
                arity = int(tok.text)
            except ValueError:
                raise ParseError(f"bad arity {tok.text!r}", tok.line, tok.col) from None
            if arity < 2:
                raise ParseError("a role needs at least a subject and one filler",
                                 tok.line, tok.col)
            cbox_parts["roles"][name] = (CONCEPT,) * arity
        else:
            self.expect("punct", "(")
            sorts = [self.sort()]
            while self.eat("punct", ","):
                sorts.append(self.sort())
            close = self.expect("punct", ")")
            if len(sorts) < 2:
                raise ParseError("a role needs at least a subject and one filler",
                                 close.line, close.col)
            if sorts[0] != CONCEPT:
                raise ParseError("the subject position of a role must have sort "
                                 "'concept'", close.line, close.col)
            cbox_parts["roles"][name] = tuple(sorts)

    def sort(self) -> str:
        tok = self.next()
        if tok.kind == "ident" and tok.text in (CONCEPT, NUM):
            return tok.text
        raise ParseError(f"expected 'concept' or 'num', got {tok.text!r}",
                         tok.line, tok.col)

    def parse_role_stmt(self, cbox_parts: dict) -> None:
        self.expect("ident", "role")
        first = self.ident("role name")
        if self.eat("punct", "="):
            self.expect("ident", "restrict")
            base = self.ident("role name")
            self.expect("ident", "at")
            tok = self.expect("number")
            try:
                pos = int(tok.text)
            except ValueError:
                raise ParseError(f"bad position {tok.text!r}", tok.line, tok.col) from None
            if pos < 1:
                raise ParseError("positions count filler slots from 1", tok.line, tok.col)
            self.expect("ident", "to")
            concept = self.concept()
            cbox_parts["restrictions"].append(RoleRestriction(first, base, pos, concept))
            return

        chain = [first]
        parallel = False
        while self.eat("ident", "o"):
            if self.eat("punct", "("):
                if len(chain) > 1:
                    tok = self.peek()
                    raise ParseError("a tuple of roles must follow the first role "
                                     "directly", tok.line, tok.col)
                chain.append(self.ident("role name"))
                while self.eat("punct", ","):
                    chain.append(self.ident("role name"))
                self.expect("punct", ")")
                parallel = len(chain) > 2
                break
            chain.append(self.ident("role name"))

        self.expect("ident", "sub")
        if self.eat("ident", "id"):
            rhs: Optional[str] = None
            if len(chain) < 2:
                tok = self.toks[self.pos - 1]
                raise ParseError("only compositions can be included in the identity",
                                 tok.line, tok.col)
        else:
            rhs = self.ident("role name")
        guard = self.concept() if self.eat("ident", "guard") else None
        cbox_parts["role_incls"].append(
            RoleInclusion(tuple(chain), rhs, guard, parallel))

    def parse_cbox(self) -> CBox:
        parts = _cbox_parts()
        while self.peek() is not None:
            self.statement(parts)
        return _cbox(parts)


def _cbox_parts() -> dict:
    return {"roles": {}, "restrictions": [], "gcis": [], "role_incls": [],
            "queries": []}


def _cbox(parts: dict) -> CBox:
    return CBox(
        roles=parts["roles"],
        restrictions=tuple(parts["restrictions"]),
        gcis=tuple(parts["gcis"]),
        role_incls=tuple(parts["role_incls"]),
        queries=tuple(parts["queries"]),
    )


def parse_cbox(text: str) -> CBox:
    return _Parser(text).parse_cbox()


def parse_concept(text: str) -> Concept:
    p = _Parser(text)
    c = p.concept()
    if p.eat("eol"):
        pass
    if p.peek() is not None:
        tok = p.peek()
        raise ParseError(f"trailing input {tok.text!r}", tok.line, tok.col)
    return c


# ---------------------------------------------------------------------------
# well-formedness
# ---------------------------------------------------------------------------

@dataclass
class RoleEnv:
    """Resolved role signatures, with restrictions flattened away.

    sigs maps every role name (declared, implicitly binary, or introduced
    by a restriction) to its position sorts.  expansions maps a restricted
    role to (base, filler_position, concept) with the base itself already
    resolved (restrictions may chain).
    """

    sigs: dict[str, tuple[str, ...]]
    expansions: dict[str, tuple[str, int, Concept]]

    def fillers(self, role: str) -> tuple[str, ...]:
        return self.sigs[role][1:]


def _used_roles(cbox: CBox) -> Iterator[str]:
    def walk(c: Concept) -> Iterator[str]:
        if isinstance(c, Exists):
            yield c.role
            for f in c.fillers:
                yield from walk(f)
        elif isinstance(c, And):
            for a in c.args:
                yield from walk(a)

    for g in cbox.gcis:
        yield from walk(g.lhs)
        yield from walk(g.rhs)
    for q in cbox.queries:
        yield from walk(q.lhs)
        yield from walk(q.rhs)
    for ri in cbox.role_incls:
        yield from ri.chain
        if ri.rhs is not None:
            yield ri.rhs
        if ri.guard is not None:
            yield from walk(ri.guard)
    for r in cbox.restrictions:
        yield r.base
        yield from walk(r.concept)


def resolve_roles(cbox: CBox) -> RoleEnv:
    """Compute the final signature of every role.

    Undeclared roles default to binary, all-concept.  Restricted roles get
    the base signature with the restricted filler slot removed.
    """
    sigs = dict(cbox.roles)
    expansions: dict[str, tuple[str, int, Concept]] = {}
    pending = list(cbox.restrictions)
    restricted = {r.name for r in pending}
    for name in _used_roles(cbox):
        if name not in sigs and name not in restricted:
            sigs[name] = (CONCEPT, CONCEPT)
    # restrictions may refer to each other; resolve in dependency order
    progress = True
    while pending and progress:
        progress = False
        for r in pending[:]:
            if r.name in sigs:
                raise CheckError(f"role {r.name!r} defined twice")
            if r.base in sigs:
                base_sig = sigs[r.base]
                fillers = len(base_sig) - 1
                if not 1 <= r.position <= fillers:
                    raise CheckError(
                        f"restriction of {r.base!r} at {r.position}: the role has "
                        f"{fillers} filler position(s)")
                if fillers == 1:
                    raise CheckError(
                        f"cannot restrict {r.base!r}: a role needs at least one "
                        "remaining filler")
                sig = base_sig[:r.position] + base_sig[r.position + 1:]
                sigs[r.name] = sig
                expansions[r.name] = (r.base, r.position, r.concept)
                pending.remove(r)
                progress = True
    if pending:
        names = ", ".join(sorted(r.name for r in pending))
        raise CheckError(f"unresolvable role restriction(s): {names}")
    return RoleEnv(sigs, expansions)


def concept_sort(c: Concept, env: RoleEnv) -> str:
    """The sort of a concept term; raises CheckError on ill-sorted terms."""
    if isinstance(c, (Name, Exists)):
        if isinstance(c, Exists):
            sig = env.sigs.get(c.role)
            if sig is None:
                raise CheckError(f"unknown role {c.role!r}")
            want = sig[1:]
            if len(c.fillers) != len(want):
                raise CheckError(
                    f"role {c.role!r} needs {len(want)} filler(s), got {len(c.fillers)}")
            for f, w in zip(c.fillers, want):
                # top and bot are polymorphic: they take the position's sort
                got = w if isinstance(f, (Top, Bot)) else concept_sort(f, env)
                if got != w:
                    raise CheckError(
                        f"filler of {c.role!r} has sort {got}, expected {w}: {f}")
        return CONCEPT
    if isinstance(c, Interval):
        return NUM
    if isinstance(c, (Top, Bot)):
        # polymorphic: adopts the sort of its context; calling code treats
        # top/bot specially.  At top level they count as concept.
        return CONCEPT
    if isinstance(c, And):
        sorts = set()
        for a in c.args:
            if isinstance(a, (Top, Bot)):
                continue
            sorts.add(concept_sort(a, env))
        if len(sorts) > 1:
            raise CheckError(f"conjunction mixes sorts {sorted(sorts)}: {c}")
        return sorts.pop() if sorts else CONCEPT
    raise CheckError(f"unknown concept term {c!r}")


def check_cbox(cbox: CBox) -> RoleEnv:
    """Validate arities and sorts; returns the resolved role environment."""
    env = resolve_roles(cbox)

    for g in cbox.gcis:
        ls, rs = concept_sort(g.lhs, env), concept_sort(g.rhs, env)
        if ls != rs and not isinstance(g.lhs, (Top, Bot)) and not isinstance(g.rhs, (Top, Bot)):
            raise CheckError(f"inclusion mixes sorts: {g}")
    for q in cbox.queries:
        ls, rs = concept_sort(q.lhs, env), concept_sort(q.rhs, env)
        if ls != rs and not isinstance(q.lhs, (Top, Bot)) and not isinstance(q.rhs, (Top, Bot)):
            raise CheckError(f"query mixes sorts: {q}")

    for r in cbox.restrictions:
        base_sig = env.sigs[r.base]
        want = base_sig[r.position]
        got = concept_sort(r.concept, env)
        if not isinstance(r.concept, (Top, Bot)) and got != want:
            raise CheckError(
                f"restriction of {r.base!r} at {r.position} needs sort {want}, "
                f"got {got}: {r.concept}")

    for ri in cbox.role_incls:
        _check_role_incl(ri, env)
    return env


def _check_role_incl(ri: RoleInclusion, env: RoleEnv) -> None:
    for name in ri.chain + ((ri.rhs,) if ri.rhs is not None else ()):
        if name not in env.sigs:
            raise CheckError(f"unknown role {name!r} in {ri}")
    if ri.guard is not None:
        check_guard_sort(ri.guard, env)

    head, tails = ri.chain[0], ri.chain[1:]
    if not tails:  # plain inclusion
        if env.fillers(head) != env.fillers(ri.rhs):
            raise CheckError(f"role inclusion mixes signatures: {ri}")
        return
    if ri.parallel:
        if len(env.fillers(head)) != len(tails):
            raise CheckError(
                f"{head!r} needs one filler per tail role in {ri}")
        if any(s != CONCEPT for s in env.fillers(head)):
            raise CheckError(
                f"the composing positions of {head!r} must have sort 'concept'")
        flat = tuple(s for t in tails for s in env.fillers(t))
    else:
        # sequential: all but the last must be binary concept-roles
        for name in ri.chain[:-1]:
            if env.fillers(name) != (CONCEPT,):
                raise CheckError(
                    f"{name!r} must be a binary concept-role to be composed in {ri}")
        flat = env.fillers(ri.chain[-1])
    if ri.rhs is None:
        for t in tails:
            if env.fillers(t) != (CONCEPT,):
                raise CheckError(
                    f"identity inclusions need binary concept-roles, got {t!r}")
    else:
        if env.fillers(ri.rhs) != flat:
            raise CheckError(f"role inclusion mixes signatures: {ri}")


def check_guard_sort(guard: Concept, env: RoleEnv) -> None:
    if concept_sort(guard, env) != CONCEPT:
        raise CheckError(f"a guard must have sort 'concept': {guard}")


# ---------------------------------------------------------------------------
# interpolation problems
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class InterpolationInput:
    """Two-sided input: `A:`/`B:` prefixed inclusion lines, shared role
    statements unprefixed, and exactly one `B: C nsub D` line giving the
    subsumption whose failure the B side asserts."""

    cbox: CBox                       # role decls/axioms shared by both sides
    a_gcis: tuple[GCI, ...]
    b_gcis: tuple[GCI, ...]
    neg: Query                       # the B-side non-subsumption

    a_role_incls: tuple[RoleInclusion, ...] = ()
    b_role_incls: tuple[RoleInclusion, ...] = ()


def parse_interpolation_input(text: str) -> InterpolationInput:
    """One pass over the file: each statement goes to the shared CBox or,
    after its side tag, to that side, and each rejection is reported at
    the statement that causes it."""
    p = _Parser(text)
    parts = {side: {**_cbox_parts(), "negated": []}
             for side in ("A", "B", None)}
    neg: Optional[Query] = None
    while p.peek() is not None:
        start = p.peek()
        side = p.side_tag()
        if side is not None and p.eat("eol"):
            continue                # a tag alone on its line
        box = parts[side]
        p.statement(box)
        if box["negated"]:
            if side != "B":
                raise ParseError("the negated inclusion belongs on the B side",
                                 start.line, start.col)
            if neg is not None:
                raise ParseError("more than one 'nsub' line",
                                 start.line, start.col)
            neg = box["negated"].pop()
        if side is None and (box["gcis"] or box["queries"]):
            raise ParseError("untagged lines may only declare or relate roles",
                             start.line, start.col)
        if side is not None and (box["roles"] or box["restrictions"]
                                 or box["queries"]):
            raise ParseError("side-tagged lines may only contain inclusions",
                             start.line, start.col)
    if neg is None:
        raise ParseError("an interpolation problem needs one 'B: C nsub D' line",
                         len(text.splitlines()) or 1, 1)
    a, b = parts["A"], parts["B"]
    return InterpolationInput(
        cbox=_cbox(parts[None]), a_gcis=tuple(a["gcis"]),
        b_gcis=tuple(b["gcis"]), neg=neg,
        a_role_incls=tuple(a["role_incls"]),
        b_role_incls=tuple(b["role_incls"]))
