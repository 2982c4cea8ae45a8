"""Terms, substitutions, and unification."""

from __future__ import annotations

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
    Substitution,
    Text,
    Variable,
    apply,
    canonical_atom,
    is_ground,
    rename_apart,
    unify,
    unify_atoms,
    variables_of,
)

from helpers import brute_force_unifiable, naive_apply_fixpoint


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
