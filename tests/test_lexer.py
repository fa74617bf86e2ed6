"""Unit tests for the C lexer."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.lexer import LexerError, TokenKind, lex, lex_logical_lines, \
    render_tokens
from repro.lexer.lexer import Lexer, _splice_continuations
from repro.lexer.tokens import EMPTY_HIDE_SET, Token


def kinds(text):
    return [t.kind for t in lex(text) if t.kind is not TokenKind.EOF]


def texts(text):
    return [t.text for t in lex(text)
            if t.kind not in (TokenKind.EOF, TokenKind.NEWLINE)]


class TestBasics:
    def test_empty_input(self):
        tokens = lex("")
        assert len(tokens) == 1
        assert tokens[0].kind is TokenKind.EOF

    def test_identifier(self):
        (tok,) = [t for t in lex("foo_bar2") if t.kind is TokenKind.IDENTIFIER]
        assert tok.text == "foo_bar2"

    def test_keywords_are_identifiers(self):
        assert kinds("if else while")[:3] == [TokenKind.IDENTIFIER] * 3

    def test_simple_declaration(self):
        assert texts("int x = 42;") == ["int", "x", "=", "42", ";"]

    def test_newline_tokens(self):
        assert kinds("a\nb") == [TokenKind.IDENTIFIER, TokenKind.NEWLINE,
                                 TokenKind.IDENTIFIER]


class TestNumbers:
    @pytest.mark.parametrize("literal", [
        "42", "0x1F", "0755", "3.14", "1e10", "1E-5", "0x1p+4",
        "42UL", "1.5f", ".5", "123abc",  # pp-number is permissive
    ])
    def test_pp_numbers(self, literal):
        tokens = [t for t in lex(literal) if t.kind is TokenKind.NUMBER]
        assert len(tokens) == 1
        assert tokens[0].text == literal

    def test_number_then_op(self):
        assert texts("1+2") == ["1", "+", "2"]

    def test_exponent_sign_consumed(self):
        assert texts("1e+5+x") == ["1e+5", "+", "x"]


class TestLiterals:
    def test_string(self):
        (tok,) = [t for t in lex('"hello world"')
                  if t.kind is TokenKind.STRING]
        assert tok.text == '"hello world"'

    def test_string_with_escapes(self):
        (tok,) = [t for t in lex(r'"a\"b\\c"') if t.kind is TokenKind.STRING]
        assert tok.text == r'"a\"b\\c"'

    def test_char(self):
        (tok,) = [t for t in lex("'x'") if t.kind is TokenKind.CHARACTER]
        assert tok.text == "'x'"

    def test_char_escape(self):
        (tok,) = [t for t in lex(r"'\n'") if t.kind is TokenKind.CHARACTER]
        assert tok.text == r"'\n'"

    def test_wide_string(self):
        (tok,) = [t for t in lex('L"wide"') if t.kind is TokenKind.STRING]
        assert tok.text == 'L"wide"'

    def test_wide_char(self):
        (tok,) = [t for t in lex("L'w'") if t.kind is TokenKind.CHARACTER]
        assert tok.text == "L'w'"

    def test_unterminated_string_raises(self):
        with pytest.raises(LexerError):
            lex('"oops')

    def test_unterminated_comment_raises(self):
        with pytest.raises(LexerError):
            lex("/* never closed")


class TestPunctuators:
    def test_three_char(self):
        assert texts("a <<= b") == ["a", "<<=", "b"]
        assert texts("f(x, ...)") == ["f", "(", "x", ",", "...", ")"]

    def test_maximal_munch(self):
        assert texts("a+++b") == ["a", "++", "+", "b"]
        assert texts("a->b") == ["a", "->", "b"]

    def test_hash_kinds(self):
        tokens = lex("# ##")
        assert tokens[0].kind is TokenKind.HASH
        assert tokens[1].kind is TokenKind.HASHHASH


class TestLayout:
    def test_layout_attached(self):
        tokens = lex("a  /* c */ b")
        b = [t for t in tokens if t.text == "b"][0]
        assert b.layout == "  /* c */ "
        assert b.has_space_before

    def test_line_comment_is_layout(self):
        lines = lex_logical_lines("a // comment\nb")
        assert [t.text for t in lines[0]] == ["a"]

    def test_roundtrip_with_layout(self):
        source = "int  main ( void ) { /*x*/ return 0 ; }"
        assert render_tokens(lex(source)) == source

    def test_render_without_layout_inserts_needed_spaces(self):
        rendered = render_tokens(lex("int x"), with_layout=False)
        assert rendered == "int x"

    def test_render_avoids_accidental_glue(self):
        tokens = lex("a + +b")
        rendered = render_tokens(tokens, with_layout=False)
        assert "++" not in rendered


class TestContinuations:
    def test_spliced_identifier(self):
        assert texts("fo\\\no") == ["foo"]

    def test_spliced_directive_line(self):
        lines = lex_logical_lines("#define X \\\n 42\nY")
        assert [t.text for t in lines[0]] == ["#", "define", "X", "42"]
        assert [t.text for t in lines[1]] == ["Y"]

    def test_line_numbers_after_splice(self):
        lines = lex_logical_lines("a \\\n b\nc")
        c = lines[1][0]
        assert c.text == "c"
        assert c.line == 3


class TestPositions:
    def test_line_and_col(self):
        tokens = [t for t in lex("a\n  b")
                  if t.kind is TokenKind.IDENTIFIER]
        assert (tokens[0].line, tokens[0].col) == (1, 1)
        assert (tokens[1].line, tokens[1].col) == (2, 3)

    def test_filename_recorded(self):
        (tok,) = [t for t in lex("x", filename="f.c")
                  if t.kind is TokenKind.IDENTIFIER]
        assert tok.file == "f.c"


class TestLogicalLines:
    def test_grouping(self):
        lines = lex_logical_lines("a b\n\nc")
        assert [[t.text for t in line] for line in lines] == \
            [["a", "b"], [], ["c"]]

    def test_directive_line(self):
        lines = lex_logical_lines("#ifdef X\nint a;\n#endif")
        assert lines[0][0].kind is TokenKind.HASH
        assert [t.text for t in lines[0]] == ["#", "ifdef", "X"]


def _reference_line_map(text):
    """Spliced text plus the physical line of every spliced character,
    built one character at a time."""
    out, line_map, line, i = [], [], 1, 0
    while i < len(text):
        if text.startswith("\\\n", i):
            line, i = line + 1, i + 2
            continue
        if text.startswith("\\\r\n", i):
            line, i = line + 1, i + 3
            continue
        out.append(text[i])
        line_map.append(line)
        if text[i] == "\n":
            line += 1
        i += 1
    return "".join(out), line_map


class _ReferenceLexer(Lexer):
    """The lexer with positions read off a per-character line map."""

    def __init__(self, text, filename="<input>"):
        super().__init__(text, filename)
        spliced, self._map = _reference_line_map(text)
        assert spliced == self._text

    def _where(self, pos):
        line_map = self._map
        line = line_map[pos] if pos < len(line_map) else (
            line_map[-1] if line_map else 1)
        return line, pos - self._text.rfind("\n", 0, pos)


def _positions(lexer_class, text):
    try:
        return [(t.kind, t.text, t.line, t.col, t.layout)
                for t in lexer_class(text, "f.c").tokens()]
    except LexerError as error:
        return ("error", str(error), error.line, error.col)


_pieces = st.sampled_from(
    ["a", "bc", "1", " ", "\t", "\n", "\r\n", "\\\n", "\\\r\n", "\\",
     "\"", "'", "/*", "*/", "//", "#", "+", ";"])


class TestSpliceFastPath:
    def test_text_without_continuation_is_not_copied(self):
        text = "int a;\r\n#define B 1\nint c;\n"
        spliced, starts = _splice_continuations(text)
        assert spliced is text
        assert starts == [8, 20, 27]

    @settings(max_examples=300, deadline=None)
    @given(st.lists(_pieces, max_size=40).map("".join))
    def test_positions_match_per_character_map(self, text):
        assert _positions(Lexer, text) == _positions(_ReferenceLexer, text)

    @pytest.mark.parametrize("text, line, col", [
        ('int a;\n  "abc\n', 2, 3),
        ('int a; \\\n\n  "abc\n', 3, 3),
        ("int a;\r\n  'x\r\n", 2, 3),
        ("int a; \\\r\n\r\n  'x", 3, 3),
        ("a\n/* open", 2, 1),
        ("a \\\n\\\n/* open", 3, 3),
    ])
    def test_error_positions(self, text, line, col):
        with pytest.raises(LexerError) as info:
            lex(text)
        assert (info.value.line, info.value.col) == (line, col)
        assert _positions(Lexer, text) == _positions(_ReferenceLexer, text)

    @pytest.mark.parametrize("newline", ["\n", "\r\n"])
    def test_token_positions_with_and_without_continuation(self, newline):
        plain = f"int a;{newline}int b;{newline}"
        spliced = f"int \\{newline}a;{newline}int b;{newline}"
        b_plain = [t for t in lex(plain) if t.text == "b"][0]
        b_spliced = [t for t in lex(spliced) if t.text == "b"][0]
        assert (b_plain.line, b_plain.col) == (2, 5)
        assert (b_spliced.line, b_spliced.col) == (3, 5)
        eof = lex(spliced)[-1]
        assert eof.kind is TokenKind.EOF and eof.line == 3


class TestHideSets:
    def test_fresh_tokens_share_the_empty_hide_set(self):
        one = Token(TokenKind.IDENTIFIER, "a")
        two = lex("b")[0]
        assert one.no_expand is EMPTY_HIDE_SET
        assert two.no_expand is one.no_expand
        assert one.copy().no_expand is EMPTY_HIDE_SET

    def test_expansion_leaves_original_hide_set_unchanged(self):
        from repro.cpp import Preprocessor
        preprocessor = Preprocessor(builtins={})
        unit = preprocessor.preprocess("#define F(x) x + F\nF(y)\n", "t.c")
        # The unexpanded text tokens, as lexed.
        originals = list(preprocessor._root)
        assert [token.text for token in originals] == ["F", "(", "y", ")"]
        assert [token.text for token in unit.tree] == ["y", "+", "F"]
        assert "F" in unit.tree[2].no_expand
        assert all(token.no_expand is EMPTY_HIDE_SET for token in originals)
        assert EMPTY_HIDE_SET == frozenset()
