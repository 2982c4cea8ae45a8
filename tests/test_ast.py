"""Terms, substitutions, and unification."""

from __future__ import annotations

import pickle
import textwrap

import pytest
from hypothesis import given, strategies as st

from proleg.ast import (
    Atom,
    Compound,
    Constant,
    FactBase,
    Integer,
    Program,
    Rule,
    SourceRef,
    Substitution,
    Text,
    Variable,
    apply,
    apply_atom,
    canonical_atom,
    is_ground,
    rename_apart,
    unify,
    unify_atoms,
    variables_of,
)
from proleg.parser import parse_program, serialize

from helpers import (
    brute_force_unifiable,
    naive_apply_fixpoint,
    reference_canonical,
    run_fresh_python,
)


def C(name):
    return Constant(name)


def V(name):
    return Variable(name)


def f(*args):
    return Compound("f", tuple(args))


def g(*args):
    return Compound("g", tuple(args))


class TestApply:
    def test_single_binding(self):
        s = Substitution({"X": C("a")})
        assert apply(s, f(V("X"), V("Y"))) == f(C("a"), V("Y"))

    def test_empty_substitution_is_identity(self):
        assert apply(Substitution(), f(C("a"))) == f(C("a"))

    def test_chained_bindings_fully_dereference(self):
        s = Substitution({"X": g(V("Y")), "Y": C("b")})
        result = apply(s, V("X"))
        assert result == g(C("b"))
        # Cross-check against naive rewrite-to-fixpoint.
        assert result == naive_apply_fixpoint({"X": g(V("Y")), "Y": C("b")}, V("X"))

    def test_ground_terms_unchanged(self):
        s = Substitution({"X": C("a")})
        term = f(C("a"), Integer(3), Text("hi"))
        assert apply(s, term) == term

    # Each binds X into a cycle: through a compound, through a compound's
    # second argument and back, and around a loop of three variables.
    CYCLES = [
        {"X": f(V("X"))},
        {"X": f(C("a"), V("Y")), "Y": V("X")},
        {"X": V("Y"), "Y": V("Z"), "Z": V("X")},
    ]

    def test_cyclic_substitution_detected(self):
        for bindings in self.CYCLES:
            with pytest.raises(ValueError):
                apply(Substitution(bindings), V("X"))

    def test_variable_repeated_in_sibling_arguments_is_not_a_cycle(self):
        # The second Y is reached after the first has been fully applied;
        # a cycle check that kept the first Y's names would reject it.
        bindings = {"X": f(V("Y"), V("Y")), "Y": g(V("Z")), "Z": C("a")}
        assert apply(Substitution(bindings), V("X")) == f(g(C("a")), g(C("a")))


class TestUnify:
    def test_textbook_mgu(self):
        s = unify(f(V("X"), C("b")), f(C("a"), V("Y")))
        assert s is not None
        assert s == Substitution({"X": C("a"), "Y": C("b")})

    def test_occurs_check(self):
        assert unify(V("X"), f(V("X"))) is None

    def test_shared_variable_clash(self):
        a = f(V("X"), V("X"))
        b = f(C("a"), C("b"))
        assert unify(a, b) is None
        # Independent confirmation: no assignment over {a, b} matches.
        assert not brute_force_unifiable(a, b, ["a", "b"])

    def test_different_functors_fail(self):
        assert unify(f(C("a")), g(C("a"))) is None

    def test_unify_atoms_requires_same_key(self):
        assert unify_atoms(Atom("p", (C("a"),)), Atom("p")) is None
        assert unify_atoms(Atom("p", (V("X"),)), Atom("p", (C("a"),))) is not None


# Random acyclic substitutions: each variable maps to a term over
# constants and strictly later variables, so chains always terminate.
_names = [f"V{i}" for i in range(5)]


def _term_over(draw_const, tail_vars, depth):
    base = st.one_of(
        st.sampled_from([C("a"), C("b"), Integer(1)]),
        st.sampled_from([V(n) for n in tail_vars]) if tail_vars else st.just(C("a")),
    )
    if depth == 0:
        return base
    return st.one_of(
        base,
        st.builds(lambda x: f(x), _term_over(draw_const, tail_vars, depth - 1)),
    )


@st.composite
def acyclic_substitutions(draw):
    bindings = {}
    for i, name in enumerate(_names):
        if draw(st.booleans()):
            bindings[name] = draw(_term_over(None, _names[i + 1 :], 2))
    return Substitution(bindings)


@st.composite
def arbitrary_terms(draw):
    depth = draw(st.integers(min_value=0, max_value=3))

    def build(d):
        if d == 0 or draw(st.booleans()):
            return draw(
                st.sampled_from(
                    [C("a"), C("b"), Integer(7), Text("t"), V("V0"), V("V2"), V("V4"), V("X")]
                )
            )
        return Compound("f", tuple(build(d - 1) for _ in range(draw(st.integers(1, 2)))))

    return build(depth)


@given(acyclic_substitutions(), arbitrary_terms())
def test_apply_matches_naive_rewrite_to_fixpoint(s, t):
    assert apply(s, t) == naive_apply_fixpoint(dict(s.items()), t)


@given(acyclic_substitutions(), arbitrary_terms())
def test_apply_is_idempotent(s, t):
    once = apply(s, t)
    assert apply(s, once) == once


@given(arbitrary_terms(), arbitrary_terms())
def test_mgu_makes_terms_equal(a, b):
    s = unify(a, b)
    if s is not None:
        assert apply(s, a) == apply(s, b)


@given(arbitrary_terms(), arbitrary_terms())
def test_unify_is_symmetric_in_success(a, b):
    assert (unify(a, b) is None) == (unify(b, a) is None)


# Terms for the identity tests. Each leaf is a new object, so equal terms
# are usually separate ones; an atom may also repeat an argument object.
# The variables are ones a substitution may bind (V0-V4) and ones it
# never binds, among them user variables named like canonical ones.
_leaves = st.one_of(
    st.builds(Variable, st.sampled_from(["V0", "V1", "V3", "X", "_G1", "_G0", "_G10"])),
    st.builds(Constant, st.sampled_from(["a", "b"])),
    st.builds(Integer, st.integers(-2, 2)),
    st.builds(Text, st.sampled_from(["", "t", "_G0"])),
)
_terms = st.recursive(_leaves, lambda inner: st.builds(
    Compound, st.sampled_from(["f", "g"]), st.lists(inner, min_size=1, max_size=3).map(tuple)),
    max_leaves=8)


@st.composite
def identity_atoms(draw):
    args = draw(st.lists(_terms, max_size=4))
    if args and draw(st.booleans()):
        args.append(draw(st.sampled_from(args)))
    return Atom(draw(st.sampled_from(["p", "q"])), tuple(args))


def _rebuilt_only_where(old, new, names):
    """Every subterm of ``old`` that holds none of the variables ``names``
    is the very object at its place in ``new``; each compound that holds
    one is a new object."""
    if not set(variables_of(old)) & names:
        return new is old
    if isinstance(old, Compound):
        return new is not old and all(
            _rebuilt_only_where(o, n, names) for o, n in zip(old.args, new.args))
    return True  # a variable, replaced


@given(acyclic_substitutions(), identity_atoms())
def test_apply_and_canonical_atom_hand_back_every_subterm_they_leave_alone(s, atom):
    bindings = dict(s.items())
    result = apply_atom(s, atom)
    assert result == Atom(atom.predicate,
                          tuple(naive_apply_fixpoint(bindings, arg) for arg in atom.args))
    assert (result is atom) == (result == atom)
    for arg, new in zip(atom.args, result.args):
        assert apply(s, arg) == new and (apply(s, arg) is arg) == (new == arg)
        assert _rebuilt_only_where(arg, new, set(bindings))
    canon = canonical_atom(atom)
    assert canon == reference_canonical(atom)
    # A non-ground atom always comes back new, even when it is already
    # canonical, since the engine reads ``canonical_atom(a) is a`` as "a is
    # ground".
    assert (canon is atom) == is_ground(atom)
    names = set(variables_of(atom))
    assert all(_rebuilt_only_where(arg, new, names) for arg, new in zip(atom.args, canon.args))
    assert canonical_atom(canon) == canon


def _structure(term):
    """The term as nested tuples, which Python compares and hashes itself."""
    if isinstance(term, Compound):
        return (term.functor, tuple(_structure(a) for a in term.args))
    return term


def _rebuilt(term):
    if isinstance(term, Compound):
        return Compound(term.functor, tuple(_rebuilt(a) for a in term.args))
    return term


def _reference_text(term):
    if isinstance(term, Compound):
        return f"{term.functor}({', '.join(_reference_text(a) for a in term.args)})"
    return str(term)


@given(arbitrary_terms(), arbitrary_terms())
def test_term_equality_hash_and_text_match_a_recursive_reference(a, b):
    assert (a == b) == (_structure(a) == _structure(b))
    assert (a != b) == (_structure(a) != _structure(b))
    twin = _rebuilt(a)
    assert twin == a and hash(twin) == hash(a)
    assert str(a) == _reference_text(a)
    if isinstance(a, Compound):
        # The hash of its fields tuple.
        assert hash(a) == hash((a.functor, a.args))
        assert pickle.loads(pickle.dumps(a)) == a
    atom = Atom("p", (a, b))
    assert hash(atom) == hash(("p", (a, b))) == hash(Atom("p", (twin, b)))
    assert pickle.loads(pickle.dumps(atom)) == atom


def test_term_operations_handle_deep_terms_at_the_default_recursion_limit():
    # A fresh interpreter, so the limit is the default one.
    script = textwrap.dedent("""
        import sys
        from proleg.ast import (Atom, Compound, Constant, Substitution, Variable, apply,
                                canonical_atom, is_ground, rename_apart, unify, variables_of)

        def deep(leaf, n=5000):
            for _ in range(n):
                leaf = Compound('s', (leaf,))
            return leaf

        ground, twin = deep(Constant('z')), deep(Constant('z'))
        open_atom = Atom('p', (deep(Variable('X')), Variable('Y')))
        chain = Substitution({f'V{i}': Compound('s', (Variable(f'V{i + 1}'),))
                              for i in range(5000)})
        print(ground == twin, hash(ground) == hash(twin), ground != deep(Constant('y')))
        print(len(str(open_atom)), is_ground(ground), variables_of(open_atom))
        print(apply(chain, Variable('V0')) == deep(Variable('V5000')))
        print(canonical_atom(open_atom) == Atom('p', (deep(Variable('_G0')), Variable('_G1'))))
        renamed = rename_apart((open_atom,), ['X', 'Y'], 1)[0]
        print(str(renamed) == str(open_atom).replace('X', 'X#1').replace('Y', 'Y#1'))
        print(unify(Variable('X'), deep(Variable('X'))), unify(twin, deep(Variable('Q'))))
        print(repr(open_atom) == f'<Atom {open_atom}>', repr(ground)[:16])
        print(sys.getrecursionlimit())
    """)
    done = run_fresh_python("-c", script)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == [
        "True True True",
        "15007 True ['X', 'Y']",
        "True",
        "True",
        "True",
        "None {Q -> z}",
        "True <Compound s(s(s(",
        "1000",
    ]


def test_pickled_compound_rehashes_in_another_process():
    # String hashes differ between processes, so a hash cached in one
    # process is wrong in another: unpickling must rebuild it. The dump
    # hashes each term first, so an atom has a cached hash to leave behind.
    for term in ("Compound('f', (Constant('a'), Compound('g', (Variable('X'),))))",
                 "Atom('p', (Constant('a'), Compound('g', (Variable('X'),))))"):
        dump = run_fresh_python(
            "-c", f"import pickle, sys; from proleg.ast import *; term = {term}; hash(term); "
                  f"sys.stdout.write(pickle.dumps(term).hex())",
            env={"PYTHONHASHSEED": "1"})
        assert dump.returncode == 0, dump.stderr
        load = run_fresh_python(
            "-c", f"import pickle; from proleg.ast import *; "
                  f"print({{pickle.loads(bytes.fromhex('{dump.stdout}')): 1}}.get({term}))",
            env={"PYTHONHASHSEED": "2"})
        assert (load.returncode, load.stdout, load.stderr) == (0, "1\n", ""), term


class TestModelInvariants:
    def test_factbase_rejects_variables(self):
        with pytest.raises(ValueError):
            FactBase(frozenset({Atom("p", (V("X"),))}))

    def test_program_rejects_duplicate_rule_ids(self):
        with pytest.raises(ValueError):
            Program((Rule("r1", Atom("p")), Rule("r1", Atom("q"))))

    def test_compound_requires_args(self):
        with pytest.raises(ValueError):
            Compound("f", ())

    def test_name_validation(self):
        with pytest.raises(ValueError):
            Constant("Upper")
        with pytest.raises(ValueError):
            Variable("lower")
        with pytest.raises(ValueError):
            Atom("Bad")
        with pytest.raises(ValueError):
            Variable("X#1")  # the form rename_apart gives

    @pytest.mark.parametrize("make, value", [
        (Integer, "x"), (Integer, True), (Integer, 1.0), (Text, 5), (Text, b"a"), (Text, None),
    ])
    def test_literals_take_only_their_own_type(self, make, value):
        with pytest.raises(TypeError, match=f"^{make.__name__} value must be "):
            make(value)

    def test_accepted_literals_round_trip_through_the_surface_syntax(self):
        values = (Integer(0), Integer(-12), Integer(10**30), Text(""), Text('a"b\\c\nd\te\rf'))
        rule = Rule("r1", Atom("p", values))
        assert parse_program(serialize(Program((rule,)))).rules[0].head == rule.head

    def test_source_citation_must_be_non_empty(self):
        with pytest.raises(ValueError, match="^source citation must be non-empty$"):
            SourceRef("")

    def test_substitution_lookup_and_repr(self):
        s = Substitution({"Y": C("b"), "X": f(V("Z"))})
        assert s.get("X") == f(V("Z")) and s.get("Z") is None
        assert "Y" in s and "Z" not in s
        assert len(s) == 2 and len(Substitution()) == 0
        assert repr(s) == "{X -> f(Z), Y -> b}"

    def test_is_ground_and_variables_of(self):
        atom = Atom("p", (f(V("X"), C("a")), V("Y"), V("X")))
        assert not is_ground(atom)
        assert variables_of(atom) == ["X", "Y"]
        assert is_ground(Atom("p", (C("a"),)))

    def test_canonical_atom_is_renaming_invariant(self):
        left = Atom("p", (V("A"), f(V("B"), V("A"))))
        right = Atom("p", (V("Q"), f(V("R"), V("Q"))))
        assert canonical_atom(left) == canonical_atom(right)

    def test_canonical_atom_returns_a_ground_atom_itself(self):
        ground = Atom("p", (f(C("a")), Integer(2)))
        assert canonical_atom(ground) is ground
        assert canonical_atom(Atom("p", (V("X"),))) == Atom("p", (V("_G0"),))

    def test_canonical_atom_renames_variables_already_named_like_its_own(self):
        atom = Atom("p", (V("_G1"), V("X"), V("_G1")))
        assert canonical_atom(atom) == Atom("p", (V("_G0"), V("_G1"), V("_G0")))
        canonical = Atom("p", (g(C("a")), f(V("_G0"), g(C("b")))))
        again = canonical_atom(canonical)
        assert again == canonical and again is not canonical
        assert again.args[0] is canonical.args[0]
        assert again.args[1] is not canonical.args[1]
        assert again.args[1].args[1] is canonical.args[1].args[1]

    def test_rename_apart_renames_only_the_named_variables(self):
        head, body = Atom("p", (f(V("X"), C("a")), V("Y"))), Atom("q", (V("X"),))
        renamed = rename_apart((head, body), ["X"], 3)
        assert [str(atom) for atom in renamed] == ["p(f(X#3, a), Y)", "q(X#3)"]
        # The built terms compare and hash like checked ones.
        twin = Atom("p", (f(V("Z"), C("a")), V("Y")))
        assert canonical_atom(renamed[0]) == canonical_atom(twin)
        assert hash(canonical_atom(renamed[0])) == hash(canonical_atom(twin))

    def test_structural_equality_and_hash(self):
        a1 = Atom("p", (C("a"), Integer(1)))
        a2 = Atom("p", (C("a"), Integer(1)))
        assert a1 == a2
        assert hash(a1) == hash(a2)
        assert len({a1, a2}) == 1

    def test_rule_range_restriction_flag(self):
        restricted = Rule("r1", Atom("p", (V("X"),)), (Atom("q", (V("X"),)),))
        loose = Rule("r2", Atom("p", (V("X"),)), (Atom("q", (V("Y"),)),))
        assert restricted.is_range_restricted
        assert not loose.is_range_restricted
