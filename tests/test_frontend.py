"""Tests for the lexer, the parser, and the pretty-printer round trip.

``TestGolden`` pins the front end against checked-in files: the AST (spans
included) of well-formed programs and the rendered outcome of malformed
ones.  Regenerate after an intentional front-end change with::

    REPRO_REGEN_GOLDEN=1 PYTHONPATH=src python -m pytest tests/test_frontend.py
"""

import hashlib
import json
import os
from pathlib import Path

import pytest

from repro.descend.api import render_failure
from repro.descend.ast import terms as T
from repro.descend.ast.printer import print_program
from repro.descend.ast.types import ArrayType, ArrayViewType, RefType
from repro.descend.frontend import parse_program, tokenize
from repro.descend.frontend.lexer import EOF_PADDING
from repro.descend.frontend.tokens import TokenKind
from repro.descend.source import SourceFile
from repro.descend.typeck import check_program
from repro.errors import DescendError, DescendSyntaxError, DescendTypeError

GOLDEN_DIR = Path(__file__).parent / "golden" / "frontend"
EXAMPLE = Path(__file__).parent.parent / "examples" / "scale_vec.descend"

SCALE_SRC = """
fn scale_vec(vec: &uniq gpu.global [f64; 256]) -[grid: gpu.grid<X<8>, X<32>>]-> () {
    sched(X) block in grid {
        sched(X) thread in block {
            vec.group::<32>[[block]][[thread]] = vec.group::<32>[[block]][[thread]] * 3.0
        }
    }
}
"""

HOST_SRC = """
fn host_scale(h_vec: &uniq cpu.mem [f64; 256]) -[t: cpu.thread]-> () {
    let d_vec = GpuGlobal::alloc_copy(&(*h_vec));
    scale_vec::<<<X<8>, X<32>>>>(&uniq *d_vec);
    copy_mem_to_host(&uniq *h_vec, &(*d_vec))
}
"""


#: One-character punctuation by its text.
ONE_CHAR = {kind.value: kind for kind in TokenKind if len(kind.value) == 1}


def _lexed(text):
    """``(kind, text, start)`` of every token before EOF, or the error's
    ``(message, start, end)``."""
    try:
        tokens = tokenize(text)
    except DescendSyntaxError as exc:
        span = exc.diagnostic.labels[0].span
        return (exc.diagnostic.message, span.start, span.end)
    end = tokens.kinds.index(TokenKind.EOF)
    return list(zip(tokens.kinds[:end], tokens.texts[:end], tokens.starts[:end]))


def _spec_token(char, offset):
    """What the lexical rules say ``char`` lexes to on its own at ``offset``:
    a token list, or an ``unexpected character`` error."""
    if char in " \t\r\n":
        return []
    if char in "0123456789":
        return [(TokenKind.INT, char, offset)]
    if char.isalpha() or char == "_":
        return [(TokenKind.IDENT, char, offset)]
    if char in ONE_CHAR:
        return [(ONE_CHAR[char], char, offset)]
    return (f"unexpected character {char!r}", offset, offset + 1)


def _then(head, rest):
    """``head`` tokens followed by ``rest``, unless ``rest`` is an error."""
    return rest if isinstance(rest, tuple) else head + rest


class TestLexer:
    def test_basic_tokens(self):
        kinds = tokenize("fn foo ( ) { }").kinds
        assert kinds[:6] == [
            TokenKind.IDENT,
            TokenKind.IDENT,
            TokenKind.LPAREN,
            TokenKind.RPAREN,
            TokenKind.LBRACE,
            TokenKind.RBRACE,
        ]
        assert kinds[-1] == TokenKind.EOF

    def test_two_char_tokens(self):
        kinds = tokenize(":: .. && || == != <= >= -> =>").kinds
        assert TokenKind.COLONCOLON in kinds and TokenKind.DOTDOT in kinds
        assert TokenKind.ARROW in kinds and TokenKind.FATARROW in kinds

    def test_numbers(self):
        tokens = tokenize("42 3.5 0")
        assert tokens.kinds[0] == TokenKind.INT and tokens.texts[0] == "42"
        assert tokens.kinds[1] == TokenKind.FLOAT and tokens.texts[1] == "3.5"

    def test_range_is_not_a_float(self):
        kinds = tokenize("[0..4]").kinds
        assert TokenKind.DOTDOT in kinds
        assert TokenKind.FLOAT not in kinds

    def test_comments_are_skipped(self):
        tokens = tokenize("// line comment\nfn /* block */ foo")
        assert tokens.texts[: tokens.kinds.index(TokenKind.EOF)] == ["fn", "foo"]

    def test_offsets_and_eof_padding(self):
        tokens = tokenize("fn  x /* c */ ")
        assert tokens.starts[:2] == [0, 4] and tokens.ends[:2] == [2, 5]
        assert tokens.kinds[2:] == [TokenKind.EOF] * EOF_PADDING
        assert tokens.starts[2:] == tokens.ends[2:] == [14] * EOF_PADDING

    def test_unexpected_character(self):
        with pytest.raises(DescendSyntaxError):
            tokenize("fn $")
        assert _lexed("fn $") == ("unexpected character '$'", 3, 4)

    def test_unterminated_block_comment(self):
        with pytest.raises(DescendSyntaxError):
            tokenize("/* never closed")
        assert _lexed("fn /*/ x") == ("unterminated block comment", 3, 4)

    def test_lexical_error_comes_before_parse_error(self):
        with pytest.raises(DescendSyntaxError, match="unexpected character"):
            parse_program("let let let $")

    @pytest.mark.parametrize("text, offset", [("let x = \u00b2;", 8), ("1\u0661", 1), ("x = 1.\u0661", 6)])
    def test_only_ascii_digits_are_digits(self, text, offset):
        # `²` and `١` are str.isdigit(), but only ASCII 0-9 are digits
        assert _lexed(text) == (f"unexpected character {text[offset]!r}", offset, offset + 1)

    def test_every_code_point_below_u3000_follows_the_rules(self):
        # The spec is the running Python's own str predicates, whose
        # Unicode tables differ between versions.
        for code in range(0x3000):
            if 0xD800 <= code <= 0xDFFF:
                continue
            char = chr(code)
            alone = _spec_token(char, 0)
            assert _lexed(char) == alone, char
            if char.isalnum() or char == "_":
                after_x = [(TokenKind.IDENT, "x" + char, 0)]
            else:
                after_x = _then([(TokenKind.IDENT, "x", 0)], _spec_token(char, 1))
            assert _lexed("x" + char) == after_x, char
            if char in "0123456789":
                after_1 = [(TokenKind.INT, "1" + char, 0)]
            else:
                after_1 = _then([(TokenKind.INT, "1", 0)], _spec_token(char, 1))
            assert _lexed("1" + char) == after_1, char


class TestParser:
    def test_parse_gpu_function(self):
        prog = parse_program(SCALE_SRC)
        assert [f.name for f in prog.fun_defs] == ["scale_vec"]
        fun_def = prog.fun_defs[0]
        assert isinstance(fun_def.params[0].ty, RefType)
        assert fun_def.exec_spec.is_gpu()
        sched_term = fun_def.body.stmts[0]
        assert isinstance(sched_term, T.Sched)

    def test_parse_host_function_with_launch(self):
        prog = parse_program(SCALE_SRC + HOST_SRC)
        host = prog.fun("host_scale")
        launches = [s for s in host.body.stmts if isinstance(s, T.KernelLaunch)]
        assert len(launches) == 1
        assert launches[0].name == "scale_vec"

    def test_parse_nested_array_and_view_types(self):
        src = """
        fn f(a: & gpu.global [[f64; 4]; 8], b: &uniq gpu.global [f64; 16])
            -[grid: gpu.grid<X<1>, X<16>>]-> () {
            sched(X) block in grid { sched(X) thread in block { } }
        }
        """
        prog = parse_program(src)
        a_ty = prog.fun_defs[0].params[0].ty
        assert isinstance(a_ty, RefType)
        assert isinstance(a_ty.referent, ArrayType)
        assert isinstance(a_ty.referent.elem, ArrayType)

    def test_parse_view_type(self):
        src = """
        fn f(a: & gpu.global [[f64; 4]]) -[grid: gpu.grid<X<1>, X<4>>]-> () {
            sched(X) block in grid { sched(X) thread in block { } }
        }
        """
        a_ty = parse_program(src).fun_defs[0].params[0].ty
        assert isinstance(a_ty.referent, ArrayViewType)

    def test_parse_split_and_sync(self):
        src = """
        fn k(arr: &uniq gpu.global [f64; 64]) -[grid: gpu.grid<X<1>, X<64>>]-> () {
            sched(X) block in grid {
                split(X) block at 32 {
                    lo => { },
                    hi => { }
                };
                sync
            }
        }
        """
        prog = parse_program(src)
        stmts = prog.fun_defs[0].body.stmts[0].body.stmts
        assert isinstance(stmts[0], T.SplitExec)
        assert isinstance(stmts[1], T.Sync)

    def test_parse_for_nat_and_generics(self):
        src = """
        fn k<n: nat>(arr: &uniq gpu.global [f64; n]) -[grid: gpu.grid<X<1>, X<n>>]-> () {
            sched(X) block in grid {
                sched(X) thread in block {
                    for i in [0..4] { arr[[thread]] = 1.0 }
                }
            }
        }
        """
        prog = parse_program(src)
        fun_def = prog.fun_defs[0]
        assert fun_def.generics[0].name == "n"

    def test_parse_view_with_view_argument(self):
        src = """
        fn k(m: & gpu.global [[f64; 4]; 4]) -[grid: gpu.grid<X<1>, X<4>>]-> () {
            sched(X) block in grid {
                sched(X) thread in block {
                    let x = m.map(rev)[[thread]][0]
                }
            }
        }
        """
        prog = parse_program(src)
        let_stmt = prog.fun_defs[0].body.stmts[0].body.stmts[0].body.stmts[0]
        assert isinstance(let_stmt, T.LetTerm)

    def test_syntax_error_reports_span(self):
        with pytest.raises(DescendSyntaxError) as excinfo:
            parse_program("fn broken(")
        assert excinfo.value.diagnostic is not None

    def test_assignment_to_non_place_rejected(self):
        src = """
        fn host() -[t: cpu.thread]-> () {
            1 = 2
        }
        """
        with pytest.raises(DescendSyntaxError):
            parse_program(src)

    def test_missing_fn_keyword(self):
        with pytest.raises(DescendSyntaxError):
            parse_program("let x = 3")


def _caret(src):
    """The source text under a syntax error's caret."""
    with pytest.raises(DescendSyntaxError) as excinfo:
        parse_program(src)
    span = excinfo.value.diagnostic.labels[0].span
    return excinfo.value.diagnostic.message, src[span.start : span.end]


class TestParserDiagnostics:
    """Errors raised after their token was consumed point at it, not past it."""

    def test_unknown_kind_points_at_the_kind(self):
        src = "fn f<n: foo>() -[t: cpu.thread]-> () { }"
        assert _caret(src) == ("unknown kind `foo`", "foo")

    def test_unknown_execution_level_points_at_the_level(self):
        src = "fn f() -[t: gpu.warp]-> () { }"
        assert _caret(src) == ("unknown execution level `gpu.warp`", "gpu.warp")

    def test_double_brackets_point_at_the_element_type(self):
        src = "fn f(a: & gpu.global [[f64]]) -[t: cpu.thread]-> () { }"
        assert _caret(src) == ("`[[...]]` must contain an array type", "f64")

    def test_borrow_of_a_non_place_points_at_the_operand(self):
        src = "fn f() -[t: cpu.thread]-> () { let x = &uniq 3; }"
        assert _caret(src) == ("expected a place expression", "3")
        src = "fn f() -[t: cpu.thread]-> () { let x = *(1 + 2); }"
        assert _caret(src) == ("expected a place expression", "(1 + 2)")


class TestRoundTrip:
    def test_print_then_reparse_scale(self):
        prog = parse_program(SCALE_SRC + HOST_SRC)
        printed = print_program(prog)
        reparsed = parse_program(printed)
        check_program(reparsed)
        assert [f.name for f in reparsed.fun_defs] == [f.name for f in prog.fun_defs]

    def test_print_then_reparse_builder_programs(self):
        from repro.descend_programs import reduce, transpose

        for program_ in (
            transpose.build_transpose_program(n=32, tile=8, rows=2),
            reduce.build_reduce_program(n=256, block_size=32),
        ):
            printed = print_program(program_)
            reparsed = parse_program(printed)
            check_program(reparsed)

    def test_parsed_program_typechecks_and_rejects_bad_variant(self):
        check_program(parse_program(SCALE_SRC))
        bad = SCALE_SRC.replace("[[block]][[thread]] =", "[[thread]][[block]] =", 1)
        with pytest.raises((DescendTypeError, DescendSyntaxError)):
            check_program(parse_program(bad))


# ---------------------------------------------------------------------------
# Golden front-end outputs
# ---------------------------------------------------------------------------

#: Strings inserted into the paper sources, one at every 23rd character
#: (cycling through the list): characters the lexer rejects or must not read
#: as digits, and fragments that open comments, floats, ranges, generic
#: arguments and selects.
INSERTS = ("$", "\u00b2", "\u0661", "\x0c", "\u00e9", "/*", "0.", "..", "::<", "[[")


def _paper_sources():
    from repro.benchsuite.runner import _DESCEND_BUILDERS
    from repro.benchsuite.workloads import workload

    return {
        name: print_program(build(workload(name, "small").params))
        for name, build in _DESCEND_BUILDERS.items()
    }


def _well_formed_sources():
    from repro.fuzz.generate import build_program, spec_for_case

    sources = {f"{name}.descend": text for name, text in _paper_sources().items()}
    sources["scale_vec.descend"] = EXAMPLE.read_text()
    for index in range(200):
        sources[f"fuzz-0-{index}.descend"] = print_program(build_program(spec_for_case(0, index)))
    return sources


def _malformed_sources():
    """Each paper source cut after every 13th token, and each with one of
    ``INSERTS`` at every 23rd character; keyed by source, edit and offset."""
    sources = {}
    for name, text in _paper_sources().items():
        tokens = tokenize(text)
        for end in tokens.ends[: tokens.kinds.index(TokenKind.EOF)][12::13]:
            sources[f"{name} cut@{end}"] = (name, text[:end])
        for step, at in enumerate(range(0, len(text), 23)):
            insert = INSERTS[step % len(INSERTS)]
            sources[f"{name} +{insert!r}@{at}"] = (name, text[:at] + insert + text[at:])
    return sources


def _outcome(text, name):
    """The rendered diagnostic of a parse, ``ok``, or an uncaught exception."""
    try:
        parse_program(text, name)
    except DescendError as exc:
        return render_failure(exc, SourceFile(text, name))
    except Exception as exc:  # a crash is an outcome the golden file records
        return f"uncaught {type(exc).__name__}: {exc}"
    return "ok"


def _check_golden(file_name, actual):
    path = GOLDEN_DIR / file_name
    if os.environ.get("REPRO_REGEN_GOLDEN") == "1":
        GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(actual, indent=1, ensure_ascii=False) + "\n", encoding="utf-8")
        pytest.skip(f"regenerated {path}")
    assert path.exists(), f"missing {path}; generate it with REPRO_REGEN_GOLDEN=1 python -m pytest {__file__}"
    expected = json.loads(path.read_text(encoding="utf-8"))
    changed = [key for key in expected.keys() | actual.keys() if expected.get(key) != actual.get(key)]
    assert not changed, f"{len(changed)} entries differ from {path}, e.g. {sorted(changed)[:5]}"


class TestGolden:
    def test_ast_of_well_formed_programs(self):
        digests = {
            name: hashlib.sha256(repr(parse_program(text, name)).encode()).hexdigest()
            for name, text in _well_formed_sources().items()
        }
        _check_golden("ast_sha256.json", digests)

    def test_outcome_of_malformed_programs(self):
        sources = _malformed_sources()
        outcomes = {key: _outcome(text, f"{name}.descend") for key, (name, text) in sources.items()}
        assert len(outcomes) > 300
        _check_golden("malformed.json", outcomes)
