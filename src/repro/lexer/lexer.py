"""A maximal-munch C lexer with layout preservation.

Lexing is the first of the paper's three steps (Table 1).  The lexer:

* splices line continuations (backslash-newline) while keeping a map
  back to physical line numbers,
* strips whitespace and comments into per-token ``layout`` annotations
  instead of discarding them (so refactorings can restore source text),
* produces ``NEWLINE`` tokens at the end of every logical line, which
  the preprocessor needs to delimit directives, and
* lexes C preprocessing numbers (not C numeric constants), as the
  standard requires before preprocessing.

Keywords are not distinguished here — any identifier may be a macro
name — so keyword classification happens in the parser front-end.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Iterator, List, Tuple

from repro.lexer.tokens import Token, TokenKind

# Multi-character punctuators, longest first so maximal munch works by
# scanning this list in order.
_PUNCTUATORS = [
    "...", "<<=", ">>=",
    "->", "++", "--", "<<", ">>", "<=", ">=", "==", "!=", "&&", "||",
    "+=", "-=", "*=", "/=", "%=", "&=", "^=", "|=",
    "[", "]", "(", ")", "{", "}", ".", "&", "*", "+", "-", "~", "!",
    "/", "%", "<", ">", "^", "|", "?", ":", ";", "=", ",",
]

_IDENT_START = frozenset(
    "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_$")
_IDENT_CONT = _IDENT_START | frozenset("0123456789")
_DIGITS = frozenset("0123456789")


class LexerError(Exception):
    """Raised on malformed input such as an unterminated literal."""

    def __init__(self, message: str, file: str, line: int, col: int):
        super().__init__(f"{file}:{line}:{col}: {message}")
        self.file = file
        self.line = line
        self.col = col


class Lexer:
    """Tokenizes one translation-unit text."""

    def __init__(self, text: str, filename: str = "<input>"):
        self.filename = filename
        self._text, self._line_starts = _splice_continuations(text)
        self._last = len(self._text) - 1
        self._pos = 0

    # -- public API ----------------------------------------------------

    def tokens(self) -> Iterator[Token]:
        """Yield all tokens including NEWLINEs, ending with EOF."""
        text = self._text
        length = len(text)
        while True:
            layout = self._consume_layout()
            if self._pos >= length:
                yield self._make(TokenKind.EOF, "", layout)
                return
            char = text[self._pos]
            if char == "\n":
                token = self._make(TokenKind.NEWLINE, "\n", layout)
                self._pos += 1
                yield token
                continue
            yield self._lex_token(layout)

    # -- layout ----------------------------------------------------------

    def _consume_layout(self) -> str:
        """Consume horizontal whitespace and comments (not newlines)."""
        text = self._text
        length = len(text)
        start = self._pos
        while self._pos < length:
            char = text[self._pos]
            if char in " \t\v\f\r":
                self._pos += 1
            elif text.startswith("/*", self._pos):
                end = text.find("*/", self._pos + 2)
                if end < 0:
                    line, col = self._where(self._pos)
                    raise LexerError("unterminated comment",
                                     self.filename, line, col)
                self._pos = end + 2
            elif text.startswith("//", self._pos):
                end = text.find("\n", self._pos)
                self._pos = length if end < 0 else end
            else:
                break
        return text[start:self._pos]

    # -- tokens ----------------------------------------------------------

    def _lex_token(self, layout: str) -> Token:
        text = self._text
        pos = self._pos
        char = text[pos]
        # Wide literals: L'x' and L"x".
        if char == "L" and pos + 1 < len(text) and text[pos + 1] in "'\"":
            return self._lex_literal(layout, prefix="L")
        if char in _IDENT_START:
            end = pos + 1
            while end < len(text) and text[end] in _IDENT_CONT:
                end += 1
            token = self._make(TokenKind.IDENTIFIER, text[pos:end], layout)
            self._pos = end
            return token
        if char in _DIGITS or (char == "." and pos + 1 < len(text)
                               and text[pos + 1] in _DIGITS):
            return self._lex_pp_number(layout)
        if char in "'\"":
            return self._lex_literal(layout, prefix="")
        if text.startswith("##", pos):
            token = self._make(TokenKind.HASHHASH, "##", layout)
            self._pos = pos + 2
            return token
        if char == "#":
            token = self._make(TokenKind.HASH, "#", layout)
            self._pos = pos + 1
            return token
        for punct in _PUNCTUATORS:
            if text.startswith(punct, pos):
                token = self._make(TokenKind.PUNCTUATOR, punct, layout)
                self._pos = pos + len(punct)
                return token
        token = self._make(TokenKind.OTHER, char, layout)
        self._pos = pos + 1
        return token

    def _lex_pp_number(self, layout: str) -> Token:
        """A C preprocessing number: more permissive than C constants."""
        text = self._text
        pos = self._pos
        end = pos + 1
        while end < len(text):
            char = text[end]
            if char in "eEpP" and end + 1 < len(text) and text[end + 1] in "+-":
                end += 2
            elif char in _IDENT_CONT or char == ".":
                end += 1
            else:
                break
        token = self._make(TokenKind.NUMBER, text[pos:end], layout)
        self._pos = end
        return token

    def _lex_literal(self, layout: str, prefix: str) -> Token:
        text = self._text
        pos = self._pos
        quote_pos = pos + len(prefix)
        quote = text[quote_pos]
        end = quote_pos + 1
        terminated = False
        while end < len(text):
            char = text[end]
            if char == "\\":
                # An escape consumes the next character even if it is
                # the quote; a backslash at EOF leaves the literal open.
                end += 2
                continue
            if char == quote:
                end += 1
                terminated = True
                break
            if char == "\n":
                break
            end += 1
        end = min(end, len(text))
        if not terminated:
            line, col = self._where(pos)
            kind = "character" if quote == "'" else "string"
            raise LexerError(f"unterminated {kind} constant",
                             self.filename, line, col)
        kind = TokenKind.CHARACTER if quote == "'" else TokenKind.STRING
        token = self._make(kind, text[pos:end], layout)
        self._pos = end
        return token

    # -- positions ---------------------------------------------------------

    def _where(self, pos: int) -> Tuple[int, int]:
        # Past the end (EOF) the line is that of the last character.
        last = self._last
        line = bisect_right(self._line_starts, min(pos, last)) + 1 \
            if last >= 0 else 1
        # Column: distance back to the previous newline in spliced text.
        newline = self._text.rfind("\n", 0, pos)
        return line, pos - newline

    def _make(self, kind: TokenKind, text: str, layout: str) -> Token:
        line, col = self._where(self._pos)
        return Token(kind, text, self.filename, line, col, layout)


def _splice_continuations(text: str) -> Tuple[str, List[int]]:
    """Remove backslash-newline pairs, keeping the physical line breaks.

    Returns the spliced text and the sorted offsets into it at which a
    new physical line begins, so a character at offset ``pos`` lies on
    line ``bisect_right(starts, pos) + 1``.  A continuation records
    the offset where its characters were removed.  Text without a
    backslash-newline is returned unchanged.
    """
    if "\\\n" not in text and "\\\r\n" not in text:
        starts: List[int] = []
        newline = text.find("\n")
        while newline >= 0:
            starts.append(newline + 1)
            newline = text.find("\n", newline + 1)
        return text, starts
    out: List[str] = []
    starts = []
    size = 0
    i = 0
    length = len(text)
    while i < length:
        if text[i] == "\\" and i + 1 < length and text[i + 1] == "\n":
            starts.append(size)
            i += 2
            continue
        # Also handle backslash + CRLF.
        if text[i] == "\\" and text.startswith("\r\n", i + 1):
            starts.append(size)
            i += 3
            continue
        out.append(text[i])
        size += 1
        if text[i] == "\n":
            starts.append(size)
        i += 1
    return "".join(out), starts


def lex(text: str, filename: str = "<input>") -> List[Token]:
    """Tokenize ``text``, returning all tokens including the final EOF."""
    return list(Lexer(text, filename).tokens())


def lex_logical_lines(text: str,
                      filename: str = "<input>") -> List[List[Token]]:
    """Tokenize and group into logical lines (NEWLINE/EOF stripped).

    Empty lines are preserved as empty lists so the preprocessor can
    track conditional nesting by line.
    """
    lines: List[List[Token]] = []
    current: List[Token] = []
    for token in Lexer(text, filename).tokens():
        if token.kind is TokenKind.NEWLINE:
            lines.append(current)
            current = []
        elif token.kind is TokenKind.EOF:
            if current:
                lines.append(current)
        else:
            current.append(token)
    return lines
