"""The public API of the package's record classes, pinned class by class:
constructor parameters, equality, hashing, repr, immutability and pickling.
A change to how the records are written must leave every one of these as
it is."""

from __future__ import annotations

import inspect
import pickle
from pathlib import Path

import pytest

from proleg.ast import (
    Atom,
    Compound,
    Constant,
    ExceptionDecl,
    FactBase,
    Integer,
    Program,
    Rule,
    SourceRef,
    Text,
    Variable,
)
from proleg.convert import ConvertReport
from proleg.engine import EngineConfig
from proleg.gdpr import CaseFile, TraceFragment
from proleg.lint import LintCheck, LintConfig, LintFinding
from proleg.parser import ParseError, PrologClause
from proleg.trace import EdgeKind, Outcome, TraceNode

EMPTY = inspect.Parameter.empty

a, b, X = Constant("a"), Constant("b"), Variable("X")
p_a = Atom("p", (a,))
q_X = Atom("q", (X,))
ref = SourceRef("Art. 6(1)(a)")
rule = Rule("r1", p_a, (q_X,), ref, 3)
decl = ExceptionDecl(p_a, q_X, None, 7)
leaf = TraceNode(q_X, Outcome.FAILURE)
fragment = TraceFragment(p_a, Outcome.SUCCESS, "root")
path = Path("rules.proleg")


class Record:
    """One class's pin: its parameters in order, as (name, default); a
    value for each; another value for each compared field; the fields
    left out of equality and hashing; and the repr of the sample."""

    def __init__(self, cls, params, values, others, text, uncompared=()):
        self.cls, self.params, self.values = cls, params, values
        self.others, self.text, self.uncompared = others, text, uncompared

    def make(self, **changes):
        return self.cls(**{**self.values, **changes})

    def compared(self):
        return [name for name, _ in self.params if name not in self.uncompared]


RECORDS = [
    Record(Constant, [("name", EMPTY)], {"name": "a"}, {"name": "b"}, "Constant(name='a')"),
    Record(Variable, [("name", EMPTY)], {"name": "X"}, {"name": "Y"}, "Variable(name='X')"),
    Record(Integer, [("value", EMPTY)], {"value": -3}, {"value": 3}, "Integer(value=-3)"),
    Record(Text, [("value", EMPTY)], {"value": 'say "hi"'}, {"value": "hi"},
           "Text(value='say \"hi\"')"),
    Record(Compound, [("functor", EMPTY), ("args", EMPTY)],
           {"functor": "f", "args": (a, X)}, {"functor": "g", "args": (a,)},
           "<Compound f(a, X)>"),
    Record(Atom, [("predicate", EMPTY), ("args", ())],
           {"predicate": "p", "args": (a, Compound("f", (X,)))},
           {"predicate": "q", "args": (b,)}, "<Atom p(a, f(X))>"),
    Record(SourceRef, [("citation", EMPTY)], {"citation": "Art. 6(1)(a)"}, {"citation": "Art. 7"},
           "SourceRef(citation='Art. 6(1)(a)')"),
    Record(Rule, [("id", EMPTY), ("head", EMPTY), ("body", ()), ("source", None), ("line", None)],
           {"id": "r1", "head": p_a, "body": (q_X,), "source": ref, "line": 3},
           {"id": "r2", "head": q_X, "body": (), "source": None, "line": 4},
           "Rule(id='r1', head=<Atom p(a)>, body=(<Atom q(X)>,), source=SourceRef("
           "citation='Art. 6(1)(a)'), line=3)", uncompared=("line",)),
    Record(ExceptionDecl,
           [("head", EMPTY), ("exception", EMPTY), ("source", None), ("line", None)],
           {"head": p_a, "exception": q_X, "source": None, "line": 7},
           {"head": q_X, "exception": p_a, "source": ref, "line": 8},
           "ExceptionDecl(head=<Atom p(a)>, exception=<Atom q(X)>, source=None, line=7)",
           uncompared=("line",)),
    Record(Program, [("rules", ()), ("exceptions", ())],
           {"rules": (rule,), "exceptions": (decl,)}, {"rules": (), "exceptions": ()},
           f"Program(rules=({rule!r},), exceptions=({decl!r},))"),
    Record(FactBase, [("facts", frozenset())], {"facts": frozenset({p_a})},
           {"facts": frozenset()}, "FactBase(facts=frozenset({<Atom p(a)>}))"),
    Record(TraceNode,
           [("goal", EMPTY), ("outcome", EMPTY), ("via", None), ("defeated", False),
            ("children", ()), ("note", None)],
           {"goal": p_a, "outcome": Outcome.SUCCESS, "via": "r1", "defeated": True,
            "children": ((EdgeKind.EXCEPTION, leaf),), "note": "n"},
           {"goal": q_X, "outcome": Outcome.FAILURE, "via": None, "defeated": False,
            "children": (), "note": None},
           "TraceNode(goal=<Atom p(a)>, outcome=<Outcome.SUCCESS: 'o'>, via='r1', "
           "defeated=True, children=((<EdgeKind.EXCEPTION: 'exception'>, TraceNode("
           "goal=<Atom q(X)>, outcome=<Outcome.FAILURE: 'x'>, via=None, defeated=False, "
           "children=(), note=None)),), note='n')"),
    Record(EngineConfig, [("max_depth", 512), ("max_steps", 100_000)],
           {"max_depth": 10, "max_steps": 20}, {"max_depth": 11, "max_steps": 21},
           "EngineConfig(max_depth=10, max_steps=20)"),
    Record(ConvertReport,
           [("converted_rules", EMPTY), ("generated_exceptions", EMPTY),
            ("synthesized_predicates", ()), ("warnings", ())],
           {"converted_rules": 2, "generated_exceptions": 1,
            "synthesized_predicates": ("h__via_1",), "warnings": ("skipped query at line 1",)},
           {"converted_rules": 3, "generated_exceptions": 0, "synthesized_predicates": (),
            "warnings": ()},
           "ConvertReport(converted_rules=2, generated_exceptions=1, synthesized_predicates="
           "('h__via_1',), warnings=('skipped query at line 1',))"),
    Record(LintConfig,
           [("presupposed_predicates", (("data_is_processed", 1), ("processing_occurs", 1))),
            ("universal_condition_predicates", (("compliant_with_art5_principles", 1),)),
            ("declared_fact_schema", ())],
           {"presupposed_predicates": (("p", 1),), "universal_condition_predicates": (),
            "declared_fact_schema": (("f", 2),)},
           {"presupposed_predicates": (), "universal_condition_predicates": (("u", 1),),
            "declared_fact_schema": ()},
           "LintConfig(presupposed_predicates=(('p', 1),), universal_condition_predicates=(), "
           "declared_fact_schema=(('f', 2),))"),
    Record(LintFinding,
           [("check_id", EMPTY), ("severity", EMPTY), ("statement", EMPTY), ("line", EMPTY),
            ("message", EMPTY), ("related", ())],
           {"check_id": LintCheck.ORPHAN_EXCEPTION, "severity": "warning",
            "statement": "exception(p, q)", "line": 4, "message": "no rule derives p/0",
            "related": ("r1",)},
           {"check_id": LintCheck.UNDEFINED_PREDICATE, "severity": "error", "statement": "r1",
            "line": None, "message": "m", "related": ()},
           "LintFinding(check_id=<LintCheck.ORPHAN_EXCEPTION: 'ORPHAN_EXCEPTION'>, "
           "severity='warning', statement='exception(p, q)', line=4, "
           "message='no rule derives p/0', related=('r1',))"),
    Record(ParseError, [("line", EMPTY), ("column", EMPTY), ("message", EMPTY), ("snippet", "")],
           {"line": 1, "column": 2, "message": "expected '.'", "snippet": "p(a"},
           {"line": 2, "column": 3, "message": "m", "snippet": ""},
           "ParseError(line=1, column=2, message=\"expected '.'\", snippet='p(a')"),
    Record(PrologClause, [("head", EMPTY), ("positive_body", ()), ("negated_body", ())],
           {"head": p_a, "positive_body": (q_X,), "negated_body": (Atom("r"),)},
           {"head": q_X, "positive_body": (), "negated_body": ()},
           "PrologClause(head=<Atom p(a)>, positive_body=(<Atom q(X)>,), "
           "negated_body=(<Atom r>,))"),
    Record(TraceFragment, [("goal", EMPTY), ("outcome", EMPTY), ("edge", EMPTY)],
           {"goal": p_a, "outcome": Outcome.SUCCESS, "edge": "root"},
           {"goal": q_X, "outcome": Outcome.FAILURE, "edge": "exception"},
           "TraceFragment(goal=<Atom p(a)>, outcome=<Outcome.SUCCESS: 'o'>, edge='root')"),
    Record(CaseFile,
           [("id", EMPTY), ("description", EMPTY), ("ruleset_path", EMPTY), ("program", EMPTY),
            ("facts", EMPTY), ("query", EMPTY), ("expected", EMPTY), ("fragments", ())],
           {"id": "c1", "description": "d", "ruleset_path": path, "program": Program(),
            "facts": FactBase(), "query": p_a, "expected": Outcome.SUCCESS,
            "fragments": (fragment,)},
           {"id": "c2", "description": "e", "ruleset_path": Path("other.proleg"),
            "program": Program((rule,)), "facts": FactBase({p_a}), "query": q_X,
            "expected": Outcome.FAILURE, "fragments": ()},
           f"CaseFile(id='c1', description='d', ruleset_path={path!r}, program=Program("
           "rules=(), exceptions=()), facts=FactBase(facts=frozenset()), query=<Atom p(a)>, "
           f"expected=<Outcome.SUCCESS: 'o'>, fragments=({fragment!r},))"),
]


def test_every_record_class_is_pinned_once():
    assert len({record.cls for record in RECORDS}) == len(RECORDS) == 20


@pytest.fixture(params=RECORDS, ids=lambda record: record.cls.__name__)
def record(request):
    return request.param


def test_constructor_parameters(record):
    params = inspect.signature(record.cls).parameters.values()
    assert [(p.name, p.default) for p in params] == record.params
    assert {p.kind for p in params} == {inspect.Parameter.POSITIONAL_OR_KEYWORD}
    assert list(record.values) == [name for name, _ in record.params]
    x = record.make()
    assert record.cls(*record.values.values()) == x
    assert {name: getattr(x, name) for name in record.values} == record.values


def test_equality_over_the_compared_fields(record):
    x = record.make()
    assert x == record.make() and not x != record.make()
    assert x != "x" and x.__eq__("x") is NotImplemented
    for name in record.compared():
        assert x != record.make(**{name: record.others[name]}), name
    for name in record.uncompared:
        twin = record.make(**{name: record.others[name]})
        assert twin == x and hash(twin) == hash(x)


def test_hash_is_the_hash_of_the_compared_fields_tuple(record):
    x = record.make()
    assert hash(x) == hash(tuple(getattr(x, name) for name in record.compared()))
    assert hash(x) == hash(record.make())


def test_repr(record):
    assert repr(record.make()) == record.text


def test_fields_cannot_be_assigned_or_deleted(record):
    x = record.make()
    for name in record.values:
        with pytest.raises(AttributeError):
            setattr(x, name, record.others[name])
        with pytest.raises(AttributeError):
            delattr(x, name)
    assert {name: getattr(x, name) for name in record.values} == record.values


def test_pickle_round_trip(record):
    x = record.make()
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        copy = pickle.loads(pickle.dumps(x, protocol))
        assert copy.__class__ is record.cls and copy == x and hash(copy) == hash(x)
        assert {name: getattr(copy, name) for name in record.values} == record.values
