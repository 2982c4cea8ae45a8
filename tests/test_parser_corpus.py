"""A pinned corpus for the parser: what every entry point returns on a
fixed, seeded set of texts, compared byte for byte with
``data/parser_corpus.jsonl``.

The corpus mixes random text over the alphabet of ``test_parser.py``'s
``_SOURCE_CHARS``, random runs of token-sized fragments (which reach
deeper into the grammar before failing) and ``serialize``d random
programs. For each text the file holds, one JSON object per line, what
``tokenize``, ``parse_program``, ``parse_facts``, ``parse_atom`` and
``parse_prolog_subset`` give: the result in its surface form, or every
error's ``str`` and snippet.

Regenerate the file only for an intended change of behaviour::

    PYTHONPATH=src python tests/test_parser_corpus.py
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

from proleg.parser import (
    ParseFailure,
    parse_atom,
    parse_facts,
    parse_program,
    parse_prolog_subset,
    serialize,
    tokenize,
)

sys.path.insert(0, str(Path(__file__).parent))
from helpers import random_source_program  # noqa: E402

PINNED = Path(__file__).parent / "data" / "parser_corpus.jsonl"
SEED = 20261018

_ALPHABET = list('pqX_(),.<=:-?\\+;!#"%17 \n')
_FRAGMENTS = [
    "p", "q(", "f(", "X", "_Y", "c1", "-3", "42", '"s"', '"a\\"b"', '"open', "(", ")",
    ",", ".", "<=", ":-", "?-", "\\+", ";", "!", "exception(", "#source ", "#id ",
    "#foo", "% note\n", " ", "\n", "\r\n", "\t", "$", "é", "ß(", "99999999999999999999",
]


def _random_char(rng: random.Random) -> str:
    roll = rng.random()
    if roll < 0.6:
        return rng.choice(_ALPHABET)
    if roll < 0.8:
        return chr(rng.randrange(0x80))
    code = rng.randrange(0x80, 0x110000)
    return chr(code) if not 0xD800 <= code < 0xE000 else "\ufffd"


def _prolog_text(rng: random.Random, program) -> str:
    """The program's rules as restricted Prolog, some body atoms negated,
    with an occasional directive or query between them."""
    lines = []
    for rule in program.rules:
        if rng.random() < 0.2:
            lines.append(rng.choice([":- dynamic p/1.", "?- q(X).", ":- initialization(main)."]))
        body = [("\\+ " if rng.random() < 0.3 else "") + str(atom) for atom in rule.body]
        lines.append(f"{rule.head} :- {', '.join(body)}." if body else f"{rule.head}.")
    return "".join(line + "\n" for line in lines)


def _mutated(rng: random.Random, text: str) -> str:
    """The text with one to three random edits: a fragment or character
    put in, or a span taken out."""
    for _ in range(rng.randint(1, 3)):
        at = rng.randint(0, len(text))
        roll = rng.random()
        if roll < 0.4:
            text = text[:at] + rng.choice(_FRAGMENTS) + text[at:]
        elif roll < 0.7:
            text = text[:at] + _random_char(rng) + text[at:]
        else:
            text = text[:at] + text[at + rng.randint(1, 6):]
    return text


def corpus() -> list[tuple[str, bool]]:
    """(text, whether to pin its tokens) pairs; the longer texts pin only
    the token count."""
    rng = random.Random(SEED)
    short = ["".join(_random_char(rng) for _ in range(rng.randint(0, 40))) for _ in range(200)]
    short += ["".join(rng.choice(_FRAGMENTS) for _ in range(rng.randint(1, 20)))
              for _ in range(120)]
    long = []
    for _ in range(50):
        program = random_source_program(rng)
        atoms = [atom for rule in program.rules for atom in (rule.head, *rule.body)]
        long += [serialize(program), _prolog_text(rng, program),
                 "".join(f"{atom}.\n" for atom in atoms), str(rng.choice(atoms or ["p"]))]
    long += [_mutated(rng, rng.choice(long)) for _ in range(100)]
    return [(text, True) for text in short] + [(text, False) for text in long]


def _errors(failure: ParseFailure) -> dict:
    return {"errors": [[str(e), e.snippet] for e in failure.errors]}


def _outcome(parse, render):
    def outcome(text: str) -> dict:
        try:
            return render(parse(text))
        except ParseFailure as failure:
            return _errors(failure)
    return outcome


def _program(program) -> dict:
    return {"text": serialize(program),
            "rule_lines": [r.line for r in program.rules],
            "exception_lines": [d.line for d in program.exceptions]}


def _clauses(result) -> dict:
    clauses, warnings = result
    return {"clauses": [[str(c.head), [str(a) for a in c.positive_body],
                         [str(a) for a in c.negated_body]] for c in clauses],
            "warnings": warnings}


ENTRY_POINTS = {
    "program": _outcome(parse_program, _program),
    "facts": _outcome(parse_facts, lambda facts: {"facts": sorted(map(str, facts.facts))}),
    "atom": _outcome(parse_atom, lambda atom: {"atom": str(atom)}),
    "prolog": _outcome(parse_prolog_subset, _clauses),
}


def entry(text: str, pin_tokens: bool) -> dict:
    tokens, errors = tokenize(text)
    row = {"text": text,
           "tokens": ([[t.kind, t.value, t.line, t.column] for t in tokens] if pin_tokens
                      else len(tokens)),
           "token_errors": [[str(e), e.snippet] for e in errors]}
    row.update((name, outcome(text)) for name, outcome in ENTRY_POINTS.items())
    return row


def render_corpus() -> str:
    return "".join(json.dumps(entry(*item), sort_keys=True, separators=(",", ":")) + "\n" for item in corpus())


def test_parser_corpus_is_pinned():
    pinned = PINNED.read_text(encoding="ascii").splitlines(keepends=True)
    rendered = render_corpus().splitlines(keepends=True)
    assert len(rendered) == len(pinned)
    for index, (got, want) in enumerate(zip(rendered, pinned)):
        assert got == want, f"corpus entry {index}"


if __name__ == "__main__":
    PINNED.write_text(render_corpus(), encoding="ascii")
