"""``parse_facts`` reads flat ground facts one regex match per fact and
hands any other text to the token parser: both paths must agree."""

from __future__ import annotations

import random
import time

import pytest

from proleg import parser
from proleg.parser import ParseFailure, parse_facts

NAMES = ("p", "q", "consent_given", "a1", "r_X9", "exception")
CONSTANTS = ("a", "b", "c1", "s_0", "xY", "exception")
BLANKS = ("", " ", "  ", "\n", "\t", "\r\n", "\n\n", " \t\r\n ")
COMMENTS = ("%", "% note", "% p(a).", "%% q(b, c).", "%p.", "% X(1) #id \f")
# What the mutations put in.
ARGUMENTS = ("X", "_", "_y", "12", "-3", '"s"', '"a, b"', "f(a)", "g(h(b), c)")
ODD_BLANKS = ("\f", "\v", "\xa0", "\ufeff")
NON_ASCII = ("caf\xe9", "\xdf", "p\u0663", "\xe9")


def random_fact(rng: random.Random) -> list[str]:
    name = rng.choice(NAMES)
    if name == "exception" or rng.random() < 0.8:
        tokens = [name, "("]
        for _ in range(2 if name == "exception" else rng.randint(1, 3)):
            tokens += [rng.choice(CONSTANTS), ","]
        tokens[-1] = ")"
        return tokens + ["."]
    return [name, "."]


def separator(rng: random.Random, comments: bool) -> str:
    """Blanks, and between facts also line comments."""
    if not comments or rng.random() < 0.6:
        return rng.choice(BLANKS) if rng.random() < 0.5 else ""
    return "".join(rng.choice(BLANKS) + rng.choice(COMMENTS) + "\n" + rng.choice(BLANKS)
                   for _ in range(rng.randint(1, 2)))


def random_facts(rng: random.Random) -> list[list[str]]:
    facts: list[list[str]] = []
    for _ in range(rng.randint(0, 12)):
        if facts and rng.random() < 0.2:
            facts.append(list(rng.choice(facts)))  # a duplicate
        else:
            facts.append(random_fact(rng))
    return facts


def render(facts: list[list[str]], rng: random.Random) -> str:
    text = "".join(separator(rng, True) + "".join(token + separator(rng, False)
                                                  for token in fact) for fact in facts)
    if rng.random() < 0.3:  # a last comment, with no newline
        text += rng.choice(BLANKS) + rng.choice(COMMENTS)
    return text


# Each mutation takes a file's facts (each a list of tokens) and a random
# generator, and changes the facts in place.
def mutate_argument(facts, rng):
    fact = rng.choice([fact for fact in facts if "(" in fact])
    fact[rng.randrange(2, len(fact) - 2, 2)] = rng.choice(ARGUMENTS)


def mutate_id_annotation(facts, rng):
    facts.insert(rng.randint(0, len(facts)), ["#id", " ", "r1", "\n"])


def mutate_missing_period(facts, rng):
    rng.choice(facts).pop()


def mutate_empty_arguments(facts, rng):
    fact = rng.choice(facts)
    fact[:] = [fact[0], " ", "(", ")", "."]


def mutate_non_ascii_name(facts, rng):
    fact = rng.choice(facts)
    fact[0] = rng.choice(NON_ASCII) if rng.random() < 0.5 else fact[0] + rng.choice(NON_ASCII)


def mutate_commented_token(facts, rng):
    """A comment that holds one token of a fact, the rest of which goes on
    on the next line: a match that backtracked into the comment would read
    a fact there."""
    fact = rng.choice(facts)
    index = rng.randrange(len(fact))
    fact[index] = "%" + fact[index] + "\n"


STRUCTURAL = (mutate_argument, mutate_id_annotation, mutate_missing_period,
              mutate_empty_arguments, mutate_non_ascii_name, mutate_commented_token)


def mutated_text(rng: random.Random) -> str:
    """A flat fact file with one mutation. An odd blank goes in at a random
    offset, so it may land in a comment, where it changes nothing."""
    facts = random_facts(rng) or [random_fact(rng)]
    kind = rng.randrange(len(STRUCTURAL) + 1)
    if kind == len(STRUCTURAL):
        text = render(facts, rng)
        offset = rng.randint(0, len(text))
        return text[:offset] + rng.choice(ODD_BLANKS) + text[offset:]
    if kind == 0 and not any("(" in fact for fact in facts):
        facts.append(["p", "(", "a", ")", "."])
    STRUCTURAL[kind](facts, rng)
    return render(facts, rng)


def outcome(parse, text: str):
    """The facts in iteration order, or the errors with their positions
    and snippets."""
    try:
        return list(parse(text).facts)
    except ParseFailure as failure:
        return [(e.line, e.column, e.message, e.snippet) for e in failure.errors]


def test_flat_fact_files_are_read_without_the_token_parser(monkeypatch):
    rng = random.Random(21)
    texts = [render(random_facts(rng), rng) for _ in range(2000)]
    expected = [outcome(parser._token_facts, text) for text in texts]

    def no_token_parser(text):
        raise AssertionError(f"the token parser read {text!r}")

    monkeypatch.setattr(parser, "_token_facts", no_token_parser)
    for text, facts in zip(texts, expected):
        assert outcome(parse_facts, text) == facts, text
    assert sum(bool(facts) for facts in expected) > 1500


def test_mutated_fact_files_parse_as_the_token_parser_parses_them():
    rng = random.Random(7)
    failures = 0
    for _ in range(10000):
        text = mutated_text(rng)
        expected = outcome(parser._token_facts, text)
        assert outcome(parse_facts, text) == expected, text
        failures += bool(expected) and isinstance(expected[0], tuple)
    assert failures > 8000  # most mutations are errors; one in a comment is not


@pytest.mark.parametrize("text", [
    " \n" * 500_000,
    " " * 1_000_000 + "!",
    "p" * 100_000 + "(",
    "p(" + "a" * 100_000 + " b).",
], ids=["blanks", "blanks-then-badchar", "long-name", "long-argument"])
def test_long_inputs_take_linear_time(text):
    start = time.perf_counter()
    outcome(parse_facts, text)
    assert time.perf_counter() - start < 1.0
