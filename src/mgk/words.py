"""Formal words in named generators and their inverses.

Words are stored as flat, unreduced sequences of signed letters; free
reduction is available but never forced.  The text grammar:

    word    :=  factor*                   (empty input is the identity, "1")
    factor  :=  atom postfix*
    atom    :=  NAME  |  "1"  |  "(" word ")"  |  "[" word "," word "]"
    postfix :=  "'"  |  "^" ["-"] DIGITS

NAME is alphanumeric starting with a letter (m1, z2, lambda, ...),
postfix ' inverts, [u,v] is the commutator u v u' v', juxtaposition is
the product.
"""

from __future__ import annotations

import re

from .errors import WordSyntaxError

NAME = re.compile(r"[A-Za-z][A-Za-z0-9]*")  # a generator name
_TOKEN = re.compile(r"\s*(%s|\d+|[\[\](),'^-])" % NAME.pattern)


class Word:
    __slots__ = ("letters",)

    def __init__(self, letters=()):
        self.letters = tuple((g, e) for g, e in letters)
        for g, e in self.letters:
            if e not in (1, -1):
                raise ValueError("letter exponents must be +1 or -1")

    @classmethod
    def _trusted(cls, letters: tuple) -> "Word":
        """A word on a tuple of letters already known to be valid."""
        word = cls.__new__(cls)
        word.letters = letters
        return word

    @classmethod
    def gen(cls, name: str) -> "Word":
        return cls(((name, 1),))

    @classmethod
    def parse(cls, text: str) -> "Word":
        return _WordParser(text).parse()

    def __len__(self):
        return len(self.letters)

    def __mul__(self, other: "Word") -> "Word":
        return Word._trusted(self.letters + other.letters)

    def __invert__(self) -> "Word":
        return Word._trusted(tuple((g, -e) for g, e in reversed(self.letters)))

    def __pow__(self, n: int) -> "Word":
        base = self if n >= 0 else ~self
        return Word._trusted(base.letters * abs(n))

    def free_reduce(self) -> "Word":
        out = []
        for let in self.letters:
            if out and out[-1][0] == let[0] and out[-1][1] == -let[1]:
                out.pop()
            else:
                out.append(let)
        return Word._trusted(tuple(out))

    def substitute(self, name: str, replacement: "Word") -> "Word":
        """Replace every occurrence of name^(+-1) by replacement^(+-1)."""
        out, inverse = [], (~replacement).letters
        for g, e in self.letters:
            if g == name:
                out.extend(replacement.letters if e > 0 else inverse)
            else:
                out.append((g, e))
        return Word._trusted(tuple(out))

    def erase(self, name: str) -> "Word":
        """Delete every letter of the given generator (set it to 1)."""
        return Word._trusted(tuple(let for let in self.letters if let[0] != name))

    def __eq__(self, other):
        return isinstance(other, Word) and self.letters == other.letters

    def __hash__(self):
        return hash(self.letters)

    def __str__(self):
        if not self.letters:
            return "1"
        return " ".join(g + ("'" if e < 0 else "") for g, e in self.letters)

    def __repr__(self):
        return "Word(%r)" % (str(self),)


IDENTITY = Word()


def commutator(u: Word, v: Word) -> Word:
    """[u, v] = u v u' v'."""
    return u * v * ~u * ~v


def _tokenize(text):
    """The tokens as (text, position), ended by (None, len(text))."""
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            bad = len(text) - len(text[pos:].lstrip())
            if bad < len(text):
                raise WordSyntaxError("unexpected character %r" % text[bad], bad)
            break
        tokens.append((m.group(1), m.start(1)))
        pos = m.end()
    tokens.append((None, len(text)))
    return tokens


class _WordParser:
    def __init__(self, text):
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self):
        return self.tokens[self.i][0]

    def next(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def parse(self):
        w = self.word()
        tok, pos = self.tokens[self.i]
        if tok is not None:
            raise WordSyntaxError("unexpected %r" % tok, pos)
        return w

    def word(self):
        letters = []
        while True:
            tok = self.peek()
            if tok is None or tok in (")", "]", ","):
                return Word._trusted(tuple(letters))
            letters += self.factor().letters

    def factor(self):
        w = self.atom()
        while True:
            tok = self.peek()
            if tok == "'":
                self.next()
                w = ~w
            elif tok == "^":
                self.next()
                sign = 1
                if self.peek() == "-":
                    self.next()
                    sign = -1
                tok, pos = self.next()
                if tok is None or not tok.isdigit():
                    raise WordSyntaxError("expected an integer after ^", pos)
                w = w ** (sign * int(tok))
            else:
                return w

    def atom(self):
        # entered only at a token that starts a factor, never at the end
        tok, pos = self.next()
        if tok == "(":
            w = self.word()
            self.expect(")")
            return w
        if tok == "[":
            u = self.word()
            self.expect(",")
            v = self.word()
            self.expect("]")
            return commutator(u, v)
        if tok == "1":
            return IDENTITY
        if tok[0].isalpha():
            return Word.gen(tok)
        raise WordSyntaxError("unexpected %r" % tok, pos)

    def expect(self, wanted):
        tok, pos = self.tokens[self.i]
        if tok != wanted:
            raise WordSyntaxError("expected %r" % wanted, pos)
        self.i += 1
