"""Core data model for PROLEG knowledge bases.

Terms, atoms, rules, exception declarations, fact bases, and the
substitution machinery (application and most-general unification with
occurs check) that the evaluator builds on. Every value here is
immutable after construction, so programs and fact bases can be shared
freely between concurrent evaluations.
"""

from __future__ import annotations

import re
from functools import cache, cached_property
from operator import attrgetter, is_not
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Mapping, Optional, Union

if TYPE_CHECKING:
    from .engine import DependencyGraph, ProgramIndex

# The one definition of a name, shared by the constructors below, the
# tokenizer and the lint config: constants, functors, predicates and rule
# ids match IDENT_PATTERN; variables match VARIABLE_PATTERN. ASCII only.
IDENT_PATTERN = r"[a-z][A-Za-z0-9_]*"
VARIABLE_PATTERN = r"[A-Z_][A-Za-z0-9_]*"
_IDENT_RE = re.compile(IDENT_PATTERN)
_VARIABLE_RE = re.compile(VARIABLE_PATTERN)


def _check_name(pattern: re.Pattern, name: str, what: str) -> None:
    if not pattern.fullmatch(name):
        raise ValueError(f"invalid {what}: {name!r}")


def escape_text(value: str) -> str:
    """Escape a string for inclusion in double quotes in the surface syntax
    and in DOT: backslash first, so no escape it writes is escaped again."""
    return (value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
            .replace("\t", "\\t").replace("\r", "\\r"))


# Looked up once here rather than on each field write below and in ``_built``.
_new = object.__new__
_setattr = object.__setattr__


class Record:
    """Base of the package's immutable records. A subclass names its
    constructor parameters, in order, in ``_fields``, and the fields that
    equality and hashing compare in ``_compared`` when that is fewer; its
    constructor writes each field once with ``object.__setattr__``, or,
    as ``TraceNode``'s does, fills the instance dict in one update.

    Two records are equal when they are of the same class and their
    compared fields are; the hash is the hash of the compared fields'
    tuple. ``repr`` shows every field, and ``pickle`` rebuilds a record
    through its constructor. Assigning or deleting an attribute raises
    AttributeError. The term classes keep equality and hashing of their
    own, with the same results, because the engine calls them on every
    goal. ``TraceNode`` keeps its own equality, hashing and ``repr``, also
    with the same results, so that they walk a trace of any depth without
    recursion."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()
    _compared: tuple[str, ...] = ()

    def __init_subclass__(cls) -> None:
        super().__init_subclass__()
        if "_compared" not in cls.__dict__:
            cls._compared = cls._fields
        # The compared fields' tuple, read by a getter built once per class:
        # ``attrgetter`` of several names returns their tuple, of one name
        # the bare value.
        if len(cls._compared) == 1:
            value = attrgetter(*cls._compared)
            cls._key = staticmethod(lambda record: (value(record),))
        else:
            cls._key = staticmethod(attrgetter(*cls._compared))

    def _init(self, *values: object) -> None:
        for name, value in zip(self._fields, values):
            _setattr(self, name, value)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        key = self._key
        return key(self) == key(other)

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __repr__(self) -> str:
        values = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({values})"

    def __reduce__(self):
        # Through the constructor: a slotted class has no instance dict for
        # pickle to fill, and a kept hash must not travel between processes,
        # since string hashes differ between them.
        return self.__class__, tuple([getattr(self, name) for name in self._fields])

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


class _Named(Record):
    """A term that is its name: a Constant or a Variable."""

    __slots__ = _fields = ("name",)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.name == other.name

    def __hash__(self) -> int:
        return hash((self.name,))

    def __str__(self) -> str:
        return self.name


class Constant(_Named):
    """A named individual, e.g. ``case1``."""

    __slots__ = ()

    def __init__(self, name: str) -> None:
        _check_name(_IDENT_RE, name, "constant name")
        _setattr(self, "name", name)


class Variable(_Named):
    """A logic variable; names start with an uppercase letter or underscore."""

    __slots__ = ()

    def __init__(self, name: str) -> None:
        _check_name(_VARIABLE_RE, name, "variable name")
        _setattr(self, "name", name)


class _Literal(Record):
    """A term that is its value: an Integer or a Text. The value's class is
    exactly the subclass's ``_type``, so a bool is not an Integer."""

    __slots__ = _fields = ("value",)

    def __init__(self, value: object) -> None:
        if value.__class__ is not self._type:
            raise TypeError(f"{self.__class__.__name__} value must be {self._type.__name__}, "
                            f"got {value!r}")
        _setattr(self, "value", value)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.value == other.value

    def __hash__(self) -> int:
        return hash((self.value,))


class Integer(_Literal):
    """A signed integer literal."""

    __slots__ = ()
    _type = int

    def __str__(self) -> str:
        return str(self.value)


class Text(_Literal):
    """A quoted string literal; may hold arbitrary characters."""

    __slots__ = ()
    _type = str

    def __str__(self) -> str:
        return f'"{escape_text(self.value)}"'


class Compound(Record):
    """A functor applied to one or more argument terms."""

    __slots__ = ("functor", "args", "_hash")
    _fields = ("functor", "args")

    def __init__(self, functor: str, args: tuple["Term", ...]) -> None:
        _check_name(_IDENT_RE, functor, "functor name")
        args = tuple(args)
        if len(args) < 1:
            raise ValueError("compound terms need at least one argument")
        _setattr(self, "functor", functor)
        _setattr(self, "args", args)
        _setattr(self, "_hash", hash((functor, args)))

    # Hashing, equality, printing and repr use no recursion, so a term
    # nested any number of levels deep works at the default recursion
    # limit. The hash is the hash of its fields tuple, taken once when the
    # term is built from its arguments' own (see also ``_built``).

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return _same_terms(self, other)

    def __str__(self) -> str:
        return _term_text(self)

    def __repr__(self) -> str:
        return f"<Compound {self}>"


Term = Union[Constant, Variable, Integer, Text, Compound]


def _same_terms(x: Compound, y: Compound) -> bool:
    pending = [(x, y)]
    while pending:
        x, y = pending.pop()
        if x.__class__ is Compound and y.__class__ is Compound:
            if x is not y:
                if x._hash != y._hash or x.functor != y.functor or len(x.args) != len(y.args):
                    return False
                pending.extend(zip(x.args, y.args))
        elif x != y:
            return False
    return True


def _term_text(term: Compound) -> str:
    parts: list[str] = []
    pending: list = [term]  # terms still to write, and the literal text between them
    while pending:
        item = pending.pop()
        if item.__class__ is str:
            parts.append(item)
        elif item.__class__ is Compound:
            parts += (item.functor, "(")
            pending.append(")")
            for arg in reversed(item.args[1:]):
                pending += (arg, ", ")
            pending.append(item.args[0])
        else:
            parts.append(str(item))
    return "".join(parts)


class Atom(Record):
    """A predicate applied to zero or more terms.

    Predicates are keyed by name and arity: ``p/1`` and ``p/2`` are
    distinct predicates.
    """

    # No __slots__: the class attribute ``_hash`` answers until the hash
    # is first taken, so building an atom writes two fields, not three.
    _fields = ("predicate", "args")

    def __init__(self, predicate: str, args: tuple[Term, ...] = ()) -> None:
        _check_name(_IDENT_RE, predicate, "predicate name")
        _setattr(self, "predicate", predicate)
        _setattr(self, "args", tuple(args))

    # The hash is the hash of its fields tuple, kept on first use: the
    # engine looks a ground goal up once when its table knows it, and
    # otherwise three or four times (the table entry, the fact test, and
    # the result's store or removal or both), while many atoms it builds
    # are never hashed at all.
    _hash = None

    def __hash__(self) -> int:
        value = self._hash
        if value is None:
            value = hash((self.predicate, self.args))
            _setattr(self, "_hash", value)
        return value

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.predicate == other.predicate and self.args == other.args

    @property
    def key(self) -> tuple[str, int]:
        return (self.predicate, len(self.args))

    @property
    def indicator(self) -> str:
        return f"{self.predicate}/{len(self.args)}"

    def __str__(self) -> str:
        if not self.args:
            return self.predicate
        return f"{self.predicate}({', '.join(map(str, self.args))})"

    def __repr__(self) -> str:
        return f"<Atom {self}>"


PredicateKey = tuple[str, int]


def indicator(key: PredicateKey) -> str:
    """Render a (name, arity) predicate key as ``name/arity``."""
    return f"{key[0]}/{key[1]}"


class SourceRef(Record):
    """A citation linking a statement back to authoritative text."""

    __slots__ = _fields = ("citation",)

    def __init__(self, citation: str) -> None:
        if not citation:
            raise ValueError("source citation must be non-empty")
        self._init(citation)


class Rule(Record):
    """A general rule: the head holds when every body atom holds.

    ``line`` is the 1-based source line of the statement when the rule
    came from a file; it never participates in structural equality. The
    head predicate may not be ``exception``: the grammar reserves it for
    exception declarations, so such a rule would serialize as text that
    does not parse.
    """

    __slots__ = _fields = ("id", "head", "body", "source", "line")
    _compared = ("id", "head", "body", "source")

    def __init__(self, id: str, head: Atom, body: tuple[Atom, ...] = (),
                 source: Optional[SourceRef] = None, line: Optional[int] = None) -> None:
        _check_name(_IDENT_RE, id, "rule id")
        if head.predicate == "exception":
            raise ValueError("'exception' is reserved for exception declarations")
        self._init(id, head, tuple(body), source, line)

    @property
    def is_range_restricted(self) -> bool:
        """True when every head variable also occurs in the body."""
        body_vars = set()
        for atom in self.body:
            body_vars.update(variables_of(atom))
        return set(variables_of(self.head)) <= body_vars


class ExceptionDecl(Record):
    """Declares that a proven exception defeats the conclusion ``head``."""

    __slots__ = _fields = ("head", "exception", "source", "line")
    _compared = ("head", "exception", "source")

    def __init__(self, head: Atom, exception: Atom, source: Optional[SourceRef] = None,
                 line: Optional[int] = None) -> None:
        self._init(head, exception, source, line)


class Program(Record):
    """An ordered rule base plus its exception declarations.

    Rule order is preserved: the evaluator tries rules in this order.
    """

    # No __slots__: ``dependency_graph`` and ``solve_index`` are kept in
    # the instance dict, not as fields, so equality, hashing and pickle
    # leave them out.
    _fields = ("rules", "exceptions")

    def __init__(self, rules: tuple[Rule, ...] = (),
                 exceptions: tuple[ExceptionDecl, ...] = ()) -> None:
        rules = tuple(rules)
        seen: set[str] = set()
        for rule in rules:
            if rule.id in seen:
                raise ValueError(f"duplicate rule id: {rule.id!r}")
            seen.add(rule.id)
        self._init(rules, tuple(exceptions))

    def defined_predicates(self) -> frozenset[PredicateKey]:
        """Predicate keys that appear as the head of at least one rule."""
        return frozenset(rule.head.key for rule in self.rules)

    @cached_property
    def dependency_graph(self) -> "DependencyGraph":
        """The numbered predicate dependency graph that ``stratify``,
        ``solve`` and ``lint`` read: built on first use and kept. It
        records the first cycle through an exception edge, if any, as
        data, and raises nothing."""
        from .engine import DependencyGraph

        return DependencyGraph(self)

    @cached_property
    def solve_index(self) -> "ProgramIndex":
        """The program-side state ``solve`` searches with: built on first
        use and kept, since a Program never changes. Raises Unstratified,
        and keeps nothing, when the program does not stratify."""
        from .engine import ProgramIndex

        return ProgramIndex(self)


class FactBase(Record):
    """The ground atoms describing one case, kept apart from the rules."""

    # No __slots__, as for Program, so that derived state can be kept.
    _fields = ("facts",)

    def __init__(self, facts: frozenset[Atom] = frozenset()) -> None:
        facts = frozenset(facts)
        for atom in facts:
            if not is_ground(atom):
                raise ValueError(f"facts must be ground: {atom}")
        self._init(facts)

    def __contains__(self, atom: Atom) -> bool:
        return atom in self.facts

    def __len__(self) -> int:
        return len(self.facts)


def _record(cls: type, *values: object):
    """A record of ``cls`` whose field values, in ``_fields`` order, are
    already known to be valid, as the parser knows them: it skips the
    constructor's checks and copies. The term classes have ``_built``."""
    obj = _new(cls)
    obj._init(*values)
    return obj


def is_ground(value: Union[Term, Atom]) -> bool:
    """True when the term or atom contains no variable anywhere."""
    for _ in _iter_variables(value):
        return False
    return True


def variables_of(value: Union[Term, Atom]) -> list[str]:
    """Variable names in first-occurrence order, without duplicates."""
    seen: list[str] = []
    for name in _iter_variables(value):
        if name not in seen:
            seen.append(name)
    return seen


def _iter_variables(value: Union[Term, Atom]) -> Iterator[str]:
    if isinstance(value, Variable):
        yield value.name
    elif isinstance(value, (Compound, Atom)):
        stack = [iter(value.args)]  # the arguments left at each open level
        while stack:
            for arg in stack[-1]:
                if isinstance(arg, Variable):
                    yield arg.name
                elif isinstance(arg, Compound):
                    stack.append(iter(arg.args))
                    break
            else:
                stack.pop()


# The field each term kind the resolver and the parser build keeps its name in.
_NAME_FIELD = {Constant: "name", Variable: "name", Compound: "functor", Atom: "predicate"}


def _built(cls: type, name: str, args: Optional[tuple] = None):
    """A Constant or Variable (``args`` None), Compound or Atom made from
    parts already known to be valid: a name that matches its pattern
    (checked when first built, or by the tokenizer's regex) and a tuple of
    terms. It skips the public constructors' name check and tuple copy,
    which the resolver and the parser would otherwise pay on every term
    they build, and takes a compound's hash as ``Compound`` does."""
    obj = _new(cls)
    # An atom's fields not through ``obj.__dict__``: that would make a real
    # instance dict, and every later attribute read of the atom would be slower.
    _setattr(obj, _NAME_FIELD[cls], name)
    if args is not None:
        _setattr(obj, "args", args)
        if cls is Compound:
            _setattr(obj, "_hash", hash((name, args)))
    return obj


def _renamed(args: tuple, rename: Callable[[str], Optional[Term]]) -> tuple:
    """``args`` with each variable replaced by ``rename(name)`` unless that
    is None, once: the terms put in are not searched again. Each compound
    in which nothing was replaced comes back as it is, and so does ``args``."""
    replaced = 0
    stack = []  # each open compound, the arguments left and done above it, ``replaced`` at entry
    left, done = iter(args), []
    while True:
        for term in left:
            if term.__class__ is Variable:
                new = rename(term.name)
                if new is not None:
                    term = new
                    replaced += 1
            elif term.__class__ is Compound:
                stack.append((term, left, done, replaced))
                left, done = iter(term.args), []
                break
            done.append(term)
        else:
            if not stack:
                return tuple(done) if replaced else args
            term, left, above, entry = stack.pop()
            above.append(term if replaced == entry else _built(Compound, term.functor, tuple(done)))
            done = above


def renamed_variables(names: Iterable[str], serial: int) -> tuple[Variable, ...]:
    """The variable ``name#serial`` for each of ``names``, in order.

    No name the surface syntax or the public constructors accept holds
    ``#``, so a renamed variable never captures a variable a user wrote;
    renamings with distinct serials stay apart.
    """
    suffix = f"#{serial}"
    return tuple([_built(Variable, name + suffix) for name in names])


def rename_apart(atoms: tuple[Atom, ...], names: Iterable[str], serial: int) -> tuple[Atom, ...]:
    """The atoms with each variable in ``names`` renamed apart, to its
    ``renamed_variables`` form."""
    names = tuple(names)
    mapping = dict(zip(names, renamed_variables(names, serial)))
    return tuple(_built(Atom, atom.predicate, _renamed(atom.args, mapping.get)) for atom in atoms)


@cache  # ``_G<i>``, built once per process
def _canonical(i: int) -> Variable:
    return _built(Variable, f"_G{i}")


def canonical_atom(atom: Atom) -> Atom:
    """Rename the atom's variables to ``_G0, _G1, ...`` in occurrence order.

    Two atoms that are identical up to variable renaming canonicalise to
    the same atom, which is what the evaluator's loop check compares. It
    rebuilds only the arguments that hold a variable: a ground atom comes
    back as itself, so ``canonical_atom(a) is a`` tells whether it is ground.
    """
    for arg in atom.args:
        if arg.__class__ is Variable or arg.__class__ is Compound:
            break
    else:  # nothing to rename
        return atom
    names: dict[str, Variable] = {}
    args = _renamed(atom.args, lambda name: names.get(name)
                    or names.setdefault(name, _canonical(len(names))))
    return atom if args is atom.args else _built(Atom, atom.predicate, args)


class Substitution:
    """An immutable finite map from variable names to terms.

    Bindings are triangular: a bound term may itself contain variables
    bound elsewhere in the map. ``apply`` dereferences fully, so its
    output mentions only unbound variables.
    """

    __slots__ = ("_bindings",)

    def __init__(self, bindings: Optional[Mapping[str, Term]] = None) -> None:
        self._bindings: dict[str, Term] = dict(bindings) if bindings else {}

    def get(self, name: str) -> Optional[Term]:
        return self._bindings.get(name)

    def items(self) -> Iterator[tuple[str, Term]]:
        return iter(self._bindings.items())

    def __contains__(self, name: str) -> bool:
        return name in self._bindings

    def __len__(self) -> int:
        return len(self._bindings)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Substitution):
            return NotImplemented
        return self._bindings == other._bindings

    def __repr__(self) -> str:
        inner = ", ".join(f"{k} -> {v}" for k, v in sorted(self._bindings.items()))
        return f"{{{inner}}}"


EMPTY_SUBSTITUTION = Substitution()


def _owning(bindings: dict[str, Term]) -> Substitution:
    """A Substitution over ``bindings`` itself, which no one else holds."""
    subst = object.__new__(Substitution)
    subst._bindings = bindings
    return subst


def _walk(bindings: Mapping[str, Term], term: Term) -> Term:
    """Follow variable bindings until a non-variable or unbound variable."""
    steps = 0
    limit = len(bindings) + 1
    while isinstance(term, Variable):
        bound = bindings.get(term.name)
        if bound is None:
            return term
        term = bound
        steps += 1
        if steps > limit:
            raise ValueError("cyclic substitution")
    return term


def apply(subst: Substitution, term: Term) -> Term:
    """Apply a substitution, dereferencing bindings all the way down.

    Each subterm no binding reaches comes back as the very object it was,
    so the result is the term itself exactly when it equals it; it is a
    fixpoint of further application. Each dereference step costs O(1), so
    the cost is linear in the term and the binding links followed. Raises
    ValueError on a cyclic substitution.
    """
    return _apply(subst._bindings, term)


def _apply(bindings: Mapping[str, Term], term: Term) -> Term:
    term = _walk(bindings, term)
    if not isinstance(term, Compound):
        return term
    # ``path`` holds the bound variables dereferenced between the root and
    # the term in hand, so meeting one again is a cycle. It is made on the
    # first dereference. ``stack`` holds each compound being rebuilt with
    # the names its own dereference added to ``path``, which leave again
    # when it is done, so siblings never see each other's names, and with
    # the dereferences made at its entry: one that met no more is kept.
    path: Optional[set[str]] = None
    stack = []
    reached = 0
    while True:
        chain = None
        if isinstance(term, Variable) and term.name in bindings:
            if path is None:
                path = set()
            chain = []
            reached += 1
            while isinstance(term, Variable) and term.name in bindings:
                if term.name in path:
                    raise ValueError(f"cyclic substitution through {term.name}")
                path.add(term.name)
                chain.append(term.name)
                term = bindings[term.name]
        if isinstance(term, Compound):
            stack.append((term, term.args, [], chain, reached))
            term = term.args[0]
            continue
        if chain:
            path.difference_update(chain)
        while stack:  # hand the finished term to the compound it belongs to
            outer, args, built, chain, entry = stack[-1]
            built.append(term)
            if len(built) < len(args):
                term = args[len(built)]
                break
            stack.pop()
            term = outer if reached == entry else _built(Compound, outer.functor, tuple(built))
            if chain:
                path.difference_update(chain)
        else:
            return term


def apply_atom(subst: Substitution, atom: Atom) -> Atom:
    """``apply`` to each argument; the atom itself when no binding reaches one."""
    bindings = subst._bindings
    if not bindings:
        return atom
    args = tuple([_apply(bindings, a) for a in atom.args])
    return atom if not any(map(is_not, args, atom.args)) else _built(Atom, atom.predicate, args)


def _occurs(bindings: Mapping[str, Term], name: str, term: Term) -> bool:
    pending = [term]
    while pending:
        term = _walk(bindings, pending.pop())
        if isinstance(term, Variable):
            if term.name == name:
                return True
        elif isinstance(term, Compound):
            pending.extend(term.args)
    return False


def unify(a: Term, b: Term, subst: Optional[Substitution] = None) -> Optional[Substitution]:
    """Most-general unifier of two terms, or None when there is none.

    The occurs check is always on: a variable never unifies with a term
    containing it, so no cyclic binding can ever be produced. When both
    sides are unbound variables, the one from ``a`` is bound to ``b``'s.
    """
    return _unify((a,), (b,), subst)


def unify_atoms(a: Atom, b: Atom, subst: Optional[Substitution] = None) -> Optional[Substitution]:
    """Unify two atoms; fails immediately unless predicate keys match."""
    if a.predicate != b.predicate or len(a.args) != len(b.args):
        return None
    return _unify(a.args, b.args, subst)


def _unify(xs: tuple[Term, ...], ys: tuple[Term, ...],
           subst: Optional[Substitution]) -> Optional[Substitution]:
    """Unify the argument pairs left to right in one worklist. The
    bindings are copied once, on the first new binding, so a call that
    binds nothing allocates nothing and returns ``subst`` itself."""
    s = subst if subst is not None else EMPTY_SUBSTITUTION
    bindings = s._bindings
    owned = False
    pending: Optional[list[tuple[Term, Term]]] = None
    index = 0
    while True:
        if pending:
            x, y = pending.pop()
        elif index < len(xs):
            x, y = xs[index], ys[index]
            index += 1
        else:
            return _owning(bindings) if owned else s
        if isinstance(x, Variable):
            x = _walk(bindings, x)
        if isinstance(y, Variable):
            y = _walk(bindings, y)
        if x == y:
            continue
        if isinstance(x, Variable):
            name, term = x.name, y
        elif isinstance(y, Variable):
            name, term = y.name, x
        elif (
            isinstance(x, Compound)
            and isinstance(y, Compound)
            and x.functor == y.functor
            and len(x.args) == len(y.args)
        ):
            if pending is None:
                pending = []
            pending.extend(zip(x.args, y.args))
            continue
        else:
            return None
        if isinstance(term, Compound) and _occurs(bindings, name, term):
            return None
        if not owned:
            bindings = dict(bindings)
            owned = True
        bindings[name] = term
