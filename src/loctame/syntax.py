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
input is a ParseError.  A restricted role's expansion (the concepts its
restriction chain plugs in) nests at most MAX_NESTING levels too,
counting each `exists` and each conjunction; a deeper one is a
CheckError.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from fractions import Fraction
from typing import (Any, Callable, Container, Iterator, NamedTuple, Optional,
                    Union)


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
    """A concept name."""
    name: str

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class Top:
    """The top concept."""

    def __str__(self) -> str:
        return "top"


@dataclass(frozen=True)
class Bot:
    """The bottom concept."""

    def __str__(self) -> str:
        return "bot"


TOP = Top()
BOT = Bot()


@dataclass(frozen=True)
class And:
    """A conjunction of two or more concepts."""
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
    """An existential restriction: the role and its tuple of fillers."""
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
    """A concept inclusion `lhs sub rhs`."""
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
    """A `? lhs sub rhs` question."""
    lhs: Concept
    rhs: Concept

    def __str__(self) -> str:
        return f"? {self.lhs} sub {self.rhs}"


@dataclass(frozen=True)
class CBox:
    """A parsed file: role declarations, axioms and queries."""
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
# scanner
# ---------------------------------------------------------------------------

# str.isdigit holds for these besides the decimal digits of `\d`
# (superscripts, subscripts, circled digits, ...): they start or continue
# a number token, which Fraction and int then reject.  Regex `\s`, `\w`
# and `\d` are str.isspace, isalnum-or-'_' and isdecimal already.
_OTHER_DIGITS = ("\u00b2\u00b3\u00b9\u1369-\u1371\u19da\u2070\u2074-\u2079"
                 "\u2080-\u2089\u2460-\u2468\u2474-\u247c\u2488-\u2490"
                 "\u24ea\u24f5-\u24fd\u24ff\u2776-\u277e\u2780-\u2788"
                 "\u278a-\u2792\U00010a40-\U00010a43\U00010e60-\U00010e68"
                 "\U00011052-\U0001105a\U0001f100-\U0001f10a")
_DIGIT = rf"[\d{_OTHER_DIGITS}]"

# a token after optional blanks: a number (a '.' ends it unless a digit
# follows, so `exists r . 2` keeps its filler dot), an ASCII name,
# punctuation, or anything else up to the end of its word, which is a
# name if it starts with a letter (str.isalpha) and an error otherwise
_TOKEN = re.compile(rf"""\s*(?:
    (?P<number>-?{_DIGIT}(?:{_DIGIT}|/|\.(?={_DIGIT}))*)
  | (?P<name>[A-Za-z_][\w-]*)
  | (?P<punct>[()\[\],.:=?])
  | (?P<other>\S[\w-]*))""", re.VERBOSE)


def _scan(text: str) -> list[tuple[str, str, int, int]]:
    """(kind, text, line, col) for each token of each line, `#` comments
    cut; a line with a token ends with an ("eol", "", line, col) token."""
    toks: list[tuple[str, str, int, int]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0]
        first = len(toks)
        # without rstrip the search would start again at each blank of a
        # trailing run, quadratic in its length
        for m in _TOKEN.finditer(line.rstrip()):
            kind = m.lastgroup
            word = m[kind]
            col = m.start(kind) + 1
            if kind == "other":
                if not word[0].isalpha():
                    raise ParseError(f"unexpected character {word[0]!r}",
                                     lineno, col)
                kind = "name"
            toks.append((kind, word, lineno, col))
        if len(toks) > first:
            toks.append(("eol", "", lineno, len(line) + 1))
    return toks


# the parser and the recursive passes after it (translation, closure,
# purification, rendering) handle every concept nested this deep within
# Python's default recursion limit; 330 levels overflowed the parser
MAX_NESTING = 200


class _Decl(NamedTuple):
    """`decl role name : ...`: the role's sorts, subject first."""
    name: str
    sig: tuple[str, ...]


class _Negated(NamedTuple):
    """`C nsub D`: the B side of an interpolation problem refutes C <= D."""
    query: Query


class _Parser:
    """Reads the scanned tokens by index.  A statement ends at its line's
    end-of-line token, and reading inside a statement never moves past
    one, so it never runs off the token list."""

    def __init__(self, text: str):
        self.toks = _scan(text)
        self.pos = 0
        self.nesting = 0

    # -- token plumbing ----------------------------------------------------

    def more(self) -> bool:
        return self.pos < len(self.toks)

    def next(self) -> tuple[str, str, int, int]:
        tok = self.toks[self.pos]
        self.pos += 1
        return tok

    def error(self, msg: str) -> ParseError:
        """A ParseError at the token just read."""
        return ParseError(msg, *self.toks[self.pos - 1][2:])

    def eat(self, text: str) -> bool:
        if self.toks[self.pos][1] == text:
            self.pos += 1
            return True
        return False

    def expect(self, text: str) -> None:
        """Read a token, which must be `text` ("" for the end of line)."""
        got = self.next()[1]
        if got != text:
            raise self.error(f"expected {text or 'eol'!r}, got {got!r}")

    def ident(self, what: str = "name") -> str:
        kind, text, _, _ = self.next()
        if kind != "name":
            raise self.error(f"expected {what}, got {text!r}")
        if text in RESERVED:
            raise self.error(f"{text!r} is a keyword, not a {what}")
        if text[0] == "_":
            raise self.error(f"names starting with '_' are reserved: {text!r}")
        return text

    def number(self, convert: Callable[[str], Any] = Fraction,
               what: str = "number") -> Any:
        """The next token as a number: a Fraction, or an int (`convert`)
        for an arity or a position (`what`)."""
        kind, text, _, _ = self.next()
        if kind != "number":
            raise self.error(f"expected a number, got {text!r}")
        try:
            return convert(text)
        except (ValueError, ZeroDivisionError):
            raise self.error(f"bad {what} {text!r}") from None

    # -- concepts ----------------------------------------------------------

    def concept(self) -> Concept:
        args = [self.unary()]
        while self.eat("and"):
            args.append(self.unary())
        return args[0] if len(args) == 1 else And(tuple(args))

    def opens(self, text: str) -> bool:
        """Eat `text`, an `exists` or a `(`, if it comes next, and count
        the nesting level it opens."""
        if not self.eat(text):
            return False
        self.nesting += 1
        if self.nesting > MAX_NESTING:
            raise self.error(f"concept nested deeper than {MAX_NESTING} levels")
        return True

    def unary(self) -> Concept:
        if self.opens("exists"):
            role = self.ident("role name")
            self.expect(".")
            c = Exists(role, self.fillers())
            self.nesting -= 1
            return c
        return self.primary()

    def fillers(self) -> tuple[Concept, ...]:
        if self.opens("("):
            items = [self.concept()]
            while self.eat(","):
                items.append(self.concept())
            self.expect(")")
            self.nesting -= 1
            return tuple(items)
        return (self.unary(),)

    def primary(self) -> Concept:
        if self.opens("("):
            c = self.concept()
            self.expect(")")
            self.nesting -= 1
            return c
        if self.eat("top"):
            return TOP
        if self.eat("bot"):
            return BOT
        if self.eat("num"):
            return self.interval()
        return Name(self.ident("concept name"))

    def interval(self) -> Interval:
        if self.eat("up"):
            return Interval(self.number(), None)
        if self.eat("down"):
            return Interval(None, self.number())
        if not self.eat("["):
            raise self.error("expected 'up', 'down' or '[' after 'num'")
        lo = self.number()
        self.expect(",")
        hi = self.number()
        self.expect("]")
        if lo > hi:
            raise self.error(f"empty interval [{lo}, {hi}]")
        return Interval(lo, hi)

    # -- statements ----------------------------------------------------------

    def statement(self, declared: Container[str], negated: bool = False
                  ) -> list:
        """What one line states, read through its end of line: a _Decl,
        a RoleRestriction, a RoleInclusion, a Query, one GCI (two for
        `equiv`) or, where `negated` admits one, a _Negated.  `declared`
        holds the roles declared so far."""
        if self.eat("decl"):
            out = [self.decl(declared)]
        elif self.eat("role"):
            out = [self.role_axiom()]
        elif self.eat("?"):
            lhs = self.concept()
            self.expect("sub")
            out = [Query(lhs, self.concept())]
        else:
            lhs = self.concept()
            text = self.next()[1]
            if text == "nsub" and negated:
                out = [_Negated(Query(lhs, self.concept()))]
            elif text not in ("sub", "equiv"):
                raise self.error(f"expected 'sub' or 'equiv', got {text!r}")
            else:
                rhs = self.concept()
                out = [GCI(lhs, rhs)]
                if text == "equiv":
                    out.append(GCI(rhs, lhs))
        self.expect("")
        return out

    def side_tag(self) -> Optional[str]:
        """Eat an `A:` or `B:` tag, the first two characters of a
        statement, and return its side."""
        tag, colon = self.toks[self.pos:self.pos + 2]
        if tag[1] in ("A", "B") and colon[1] == ":" and colon[3] == tag[3] + 1:
            self.pos += 2
            return tag[1]
        return None

    def decl(self, declared: Container[str]) -> _Decl:
        self.expect("role")
        name = self.ident("role name")
        self.expect(":")
        if name in declared:
            raise self.error(f"role {name!r} declared twice")
        if self.toks[self.pos][0] == "number":
            sorts = [CONCEPT] * self.number(int, "arity")
        else:
            self.expect("(")
            sorts = [self.sort()]
            while self.eat(","):
                sorts.append(self.sort())
            self.expect(")")
        if len(sorts) < 2:
            raise self.error("a role needs at least a subject and one filler")
        if sorts[0] != CONCEPT:
            raise self.error("the subject position of a role must have sort "
                             "'concept'")
        return _Decl(name, tuple(sorts))

    def sort(self) -> str:
        text = self.next()[1]
        if text not in (CONCEPT, NUM):
            raise self.error(f"expected 'concept' or 'num', got {text!r}")
        return text

    def role_axiom(self) -> Union[RoleRestriction, RoleInclusion]:
        first = self.ident("role name")
        if self.eat("="):
            self.expect("restrict")
            base = self.ident("role name")
            self.expect("at")
            pos = self.number(int, "position")
            if pos < 1:
                raise self.error("positions count filler slots from 1")
            self.expect("to")
            return RoleRestriction(first, base, pos, self.concept())

        chain = [first]
        parallel = False
        while self.eat("o"):
            if self.eat("("):
                if len(chain) > 1:
                    raise ParseError("a tuple of roles must follow the first "
                                     "role directly", *self.toks[self.pos][2:])
                chain.append(self.ident("role name"))
                while self.eat(","):
                    chain.append(self.ident("role name"))
                self.expect(")")
                parallel = len(chain) > 2
                break
            chain.append(self.ident("role name"))

        self.expect("sub")
        if self.eat("id"):
            rhs: Optional[str] = None
            if len(chain) < 2:
                raise self.error("only compositions can be included in the "
                                 "identity")
        else:
            rhs = self.ident("role name")
        guard = self.concept() if self.eat("guard") else None
        return RoleInclusion(tuple(chain), rhs, guard, parallel)


def _cbox(roles: dict[str, tuple[str, ...]], statements: list) -> CBox:
    """The declared roles and the statements of each kind, in order."""
    def of(kind: type) -> tuple:
        return tuple(s for s in statements if isinstance(s, kind))
    return CBox(roles=roles, restrictions=of(RoleRestriction), gcis=of(GCI),
                role_incls=of(RoleInclusion), queries=of(Query))


def parse_cbox(text: str) -> CBox:
    p = _Parser(text)
    roles: dict[str, tuple[str, ...]] = {}
    statements: list = []
    while p.more():
        for s in p.statement(roles):
            if isinstance(s, _Decl):
                roles[s.name] = s.sig
            else:
                statements.append(s)
    return _cbox(roles, statements)


def parse_concept(text: str) -> Concept:
    p = _Parser(text)
    if not p.more():
        raise ParseError("unexpected end of input", 1, 1)
    c = p.concept()
    p.eat("")
    if p.more():
        raise p.error(f"trailing input {p.next()[1]!r}")
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
    # a use of a restricted role plugs in its chain's concepts, so its
    # expansion nests as deep as its base's and its concept; the passes
    # after translation recurse that deep.  Each pass settles the roles
    # whose concepts use only roles settled before, in resolution order; a
    # role whose concept uses it grows until it is rejected
    depth = dict.fromkeys(expansions, 0)
    changed = True
    while changed:
        changed = False
        for name, (base, _, concept) in expansions.items():
            d = max(depth.get(base, 0), _nesting(concept, depth))
            if d > MAX_NESTING:
                raise CheckError(f"role {name!r} expands to a concept nested "
                                 f"deeper than {MAX_NESTING} levels")
            if d != depth[name]:
                depth[name] = d
                changed = True
    return RoleEnv(sigs, expansions)


def _nesting(c: Concept, depth: dict[str, int]) -> int:
    """How deep a concept's term nests: one level per `exists` and per
    conjunction, and a restricted role's expansion (depth) at its use."""
    if isinstance(c, Exists):
        return 1 + max(depth.get(c.role, 0),
                       *(_nesting(f, depth) for f in c.fillers))
    if isinstance(c, And):
        return 1 + max(_nesting(a, depth) for a in c.args)
    return 0


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
    roles: dict[str, tuple[str, ...]] = {}
    parts: dict[Optional[str], list] = {None: [], "A": [], "B": []}
    neg: Optional[Query] = None
    while p.more():
        start = p.toks[p.pos][2:]
        side = p.side_tag()
        if side is not None and p.eat(""):
            continue                # a tag alone on its line
        # a side's declarations are rejected below, not checked for repeats
        for s in p.statement(roles if side is None else (), negated=True):
            if isinstance(s, _Negated):
                if side != "B":
                    raise ParseError("the negated inclusion belongs on the B "
                                     "side", *start)
                if neg is not None:
                    raise ParseError("more than one 'nsub' line", *start)
                neg = s.query
            elif side is None and isinstance(s, (GCI, Query)):
                raise ParseError("untagged lines may only declare or relate "
                                 "roles", *start)
            elif side is not None and not isinstance(s, (GCI, RoleInclusion)):
                raise ParseError("side-tagged lines may only contain "
                                 "inclusions", *start)
            elif isinstance(s, _Decl):
                roles[s.name] = s.sig
            else:
                parts[side].append(s)
    if neg is None:
        raise ParseError("an interpolation problem needs one 'B: C nsub D' line",
                         len(text.splitlines()) or 1, 1)
    a, b = _cbox({}, parts["A"]), _cbox({}, parts["B"])
    return InterpolationInput(
        cbox=_cbox(roles, parts[None]), a_gcis=a.gcis, b_gcis=b.gcis,
        neg=neg, a_role_incls=a.role_incls, b_role_incls=b.role_incls)
