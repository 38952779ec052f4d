"""Formal words in named generators and their inverses.

Words are flat, unreduced sequences of signed letters.  The text grammar:

    word    :=  factor*                   (empty input is the identity, "1")
    factor  :=  atom postfix*
    atom    :=  NAME  |  "1"  |  "(" word ")"  |  "[" word "," word "]"
    postfix :=  "'"  |  "^" ["-"] DIGITS

NAME is alphanumeric starting with a letter (m1, z2, lambda, ...),
postfix ' inverts, [u,v] is the commutator u v u' v', juxtaposition is
the product.  The parser makes one pass over the tokens with an explicit
stack of open brackets, so it needs no recursion at any depth.  No word
that `Word.parse`, `*`, `**` or `substitute` builds has more than
`MAX_LETTERS` letters (the letter budget): each refuses a longer one with
`BudgetExceeded` before allocating it.
"""

from __future__ import annotations

import re

from .errors import BudgetExceeded, MgkError, WordSyntaxError

NAME = re.compile(r"[A-Za-z][A-Za-z0-9]*")  # a generator name
# a name takes the primes written right after it, so m3' is one token and
# one letter; a detached prime (m3 ') is a token of its own
_TOKEN = re.compile(r"%s'*|\d+|[\[\](),'^-]" % NAME.pattern)
MAX_LETTERS = 2 ** 22  # the letter budget


def _check_names(names):
    for g in names:
        if not (isinstance(g, str) and NAME.fullmatch(g)):
            raise MgkError("%r is not a generator name" % (g,))


def bounded_int(digits: str, cap: int) -> int:
    """min(int(digits), cap) for decimal digits of any script and number.

    Leading zeros are dropped and no more digits than cap has reach int(),
    so a long string never meets Python's limit on int() of a str."""
    if not digits.isascii():
        digits = "".join(str(int(c)) for c in digits)
    digits = digits.lstrip("0")
    return cap if len(digits) > len(str(cap)) else min(int(digits or 0), cap)


def _check_length(n):
    """Refuse a word of n letters if n is over the letter budget."""
    if n > MAX_LETTERS:
        raise BudgetExceeded("word longer than the letter limit of %d letters"
                             % MAX_LETTERS)


class Word:
    __slots__ = ("letters",)

    def __init__(self, letters=()):
        """letters: pairs (name, e), each name matching NAME and each e the
        int 1 or -1; anything else raises MgkError."""
        self.letters = tuple((g, e) for g, e in letters)
        for g, e in self.letters:
            if type(e) is not int or e not in (1, -1):
                raise MgkError("letter exponents must be the int 1 or -1")
        _check_names(dict.fromkeys(g for g, _ in self.letters))  # in word order

    @classmethod
    def _trusted(cls, letters: tuple) -> "Word":
        """A word on a tuple of letters already known to be valid."""
        word = cls.__new__(cls)
        word.letters = letters
        return word

    @classmethod
    def gen(cls, name: str) -> "Word":
        _check_names((name,))
        return cls._trusted(((name, 1),))

    @classmethod
    def parse(cls, text: str) -> "Word":
        return cls._trusted(_parse(text))

    def __len__(self):
        return len(self.letters)

    def __mul__(self, other: "Word") -> "Word":
        _check_length(len(self.letters) + len(other.letters))
        return Word._trusted(self.letters + other.letters)

    def __invert__(self) -> "Word":
        return Word._trusted(tuple((g, -e) for g, e in reversed(self.letters)))

    def __pow__(self, n: int) -> "Word":
        if not self.letters:
            return self
        _check_length(abs(n) * len(self.letters))
        base = self if n >= 0 else ~self
        return Word._trusted(base.letters * abs(n))

    def substitute(self, name: str, replacement: "Word") -> "Word":
        """Replace every occurrence of name^(+-1) by replacement^(+-1)."""
        hits = sum(g == name for g, _ in self.letters)
        _check_length(len(self.letters) + hits * (len(replacement.letters) - 1))
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
        return "Word.parse(%r)" % (str(self),)


IDENTITY = Word()


def commutator(u: Word, v: Word) -> Word:
    """[u, v] = u v u' v'."""
    return u * v * ~u * ~v


def _inverse(letters):
    return [(g, -e) for g, e in reversed(letters)]


def _closer(frame):
    """The token that must end the word open in frame."""
    bracket, _, comma = frame
    return ")" if bracket == "(" else "," if comma is None else "]"


def _parse(text):
    """The letters of text: one pass over its tokens, keeping the letters of
    every open word in one list and each open bracket on an explicit stack."""
    tokens = _TOKEN.findall(text)
    if "".join(tokens) != "".join(text.split()):  # a character no token takes
        _raise_bad_character(text)
    letters = []
    frames = []  # open brackets: [bracket, start, start of v or None]
    last = None  # start of the innermost open word's last factor, if any
    i, end = 0, len(tokens)
    while i < end:
        tok = tokens[i]
        i += 1
        if tok[0].isalpha():
            last = len(letters)
            if tok[-1] != "'":
                letters.append((tok, 1))
            else:  # each prime inverts
                name = tok.rstrip("'")
                letters.append((name, (-1) ** (len(tok) - len(name))))
        elif tok == "'" and last is not None:
            letters[last:] = _inverse(letters[last:])
        elif tok == "^" and last is not None:
            factor = letters[last:]
            if i < end and tokens[i] == "-":
                i += 1
                factor = _inverse(factor)
            if i == end or not tokens[i].isdigit():
                _raise_syntax("expected an integer after ^", text, i)
            # every count over the letter budget reads as MAX_LETTERS + 1
            count = bounded_int(tokens[i], MAX_LETTERS + 1)
            i += 1
            if count and factor:
                _check_length(len(letters) + (count - 1) * len(factor))
                letters[last:] = factor * count
            else:
                del letters[last:]
        elif tok == "(" or tok == "[":
            frames.append([tok, len(letters), None])
            last = None
        elif tok == "1":
            last = len(letters)
        elif tok in (")", ",", "]") and frames:
            frame = frames[-1]
            if tok != _closer(frame):
                _raise_syntax("expected %r" % _closer(frame), text, i - 1)
            _, start, comma = frame
            if tok == ",":
                frame[2] = len(letters)
                last = None
                continue
            if tok == "]":  # [u,v] = u v u' v'
                _check_length(2 * len(letters) - start)
                u, v = letters[start:comma], letters[comma:]
                letters += _inverse(u)
                letters += _inverse(v)
            frames.pop()
            last = start
        else:
            _raise_syntax("unexpected %r" % tok, text, i - 1)
    if frames:
        _raise_syntax("expected %r" % _closer(frames[-1]), text, end)
    _check_length(len(letters))
    return tuple(letters)


def _raise_bad_character(text):
    """Name the first non-space character that starts no token."""
    pos = 0
    for m in _TOKEN.finditer(text + "1"):  # the extra token ends the last gap
        gap = text[pos:m.start()].lstrip()
        if gap:
            bad = m.start() - len(gap)
            raise WordSyntaxError("unexpected character %r" % text[bad], bad)
        pos = m.end()


def _raise_syntax(message, text, i):
    """Raise at the i-th token of text, or at its end if there are only i."""
    starts = [m.start() for m in _TOKEN.finditer(text)]
    raise WordSyntaxError(message, starts[i] if i < len(starts) else len(text))
