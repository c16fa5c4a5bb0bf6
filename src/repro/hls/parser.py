"""Recursive-descent parser for mini-C.

Grammar (EBNF, whitespace/comments elided)::

    program    := statement*
    statement  := decl | assign ';' | if | for | ';'
    decl       := ('in'|'out')? type declarator (',' declarator)* ';'
    declarator := IDENT ('[' NUMBER ']')? ('=' expr)?
    assign     := lvalue ('='|'+='|'-='|'*='|'/='|'%='|'&='|'|='|'^='|'<<='|'>>=') expr
                | lvalue '++' | lvalue '--'
    if         := 'if' '(' expr ')' block ('else' block)?
    for        := 'for' '(' assign ';' expr ';' assign ')' block
    block      := '{' statement* '}' | statement
    lvalue     := IDENT ('[' expr ']')?

Expressions use C precedence: ternary > logical-or > logical-and >
bit-or > bit-xor > bit-and > equality > relational > shift > additive >
multiplicative > unary > primary.
"""

from __future__ import annotations

from repro.errors import ParseError
from repro.hls.ast_nodes import (
    ArrayRef,
    Assign,
    BinaryOp,
    Conditional,
    Decl,
    Expr,
    For,
    If,
    NumberLit,
    Program,
    Stmt,
    UnaryOp,
    VarRef,
)
from repro.hls.lexer import Token, TokenKind, tokenize

_ASSIGN_OPS = ("=", "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "<<=", ">>=")

# Binary precedence climbing table: level -> operators at that level.
_BINARY_LEVELS = (
    ("||",),
    ("&&",),
    ("|",),
    ("^",),
    ("&",),
    ("==", "!="),
    ("<", "<=", ">", ">="),
    ("<<", ">>"),
    ("+", "-"),
    ("*", "/", "%"),
)


class Parser:
    """Single-pass recursive-descent parser over a token list."""

    def __init__(self, tokens: list[Token]) -> None:
        self._tokens = tokens
        self._pos = 0

    # -- token plumbing -------------------------------------------------------
    @property
    def _current(self) -> Token:
        return self._tokens[self._pos]

    def _advance(self) -> Token:
        token = self._current
        if token.kind is not TokenKind.EOF:
            self._pos += 1
        return token

    def _expect_punct(self, text: str) -> Token:
        token = self._current
        if not token.is_punct(text):
            raise ParseError(f"expected {text!r}, found {token.text!r}", token.line, token.column)
        return self._advance()

    def _expect_ident(self) -> Token:
        token = self._current
        if token.kind is not TokenKind.IDENT:
            raise ParseError(f"expected identifier, found {token.text!r}", token.line, token.column)
        return self._advance()

    # -- program --------------------------------------------------------------
    def parse_program(self, name: str = "program") -> Program:
        statements: list[Stmt] = []
        while self._current.kind is not TokenKind.EOF:
            statements.extend(self._parse_statement())
        return Program(statements=statements, name=name)

    # -- statements -----------------------------------------------------------
    def _parse_statement(self) -> list[Stmt]:
        token = self._current
        if token.is_punct(";"):
            self._advance()
            return []
        if token.is_keyword("in", "out", "int", "short", "char"):
            return self._parse_decl()
        if token.is_keyword("if"):
            return [self._parse_if()]
        if token.is_keyword("for"):
            return [self._parse_for()]
        if token.kind is TokenKind.IDENT:
            assign = self._parse_assign()
            self._expect_punct(";")
            return [assign]
        raise ParseError(
            f"unexpected token {token.text!r}", token.line, token.column
        )

    def _parse_decl(self) -> list[Decl]:
        token = self._current
        qualifier = ""
        if token.is_keyword("in", "out"):
            qualifier = token.text
            self._advance()
        type_token = self._current
        if not type_token.is_keyword("int", "short", "char"):
            raise ParseError(
                f"expected a type, found {type_token.text!r}",
                type_token.line,
                type_token.column,
            )
        self._advance()
        declarators: list[Decl] = []
        while True:
            name_token = self._expect_ident()
            array_size: int | None = None
            init: Expr | None = None
            if self._current.is_punct("["):
                self._advance()
                size_token = self._current
                if size_token.kind is not TokenKind.NUMBER:
                    raise ParseError(
                        "array size must be a constant",
                        size_token.line,
                        size_token.column,
                    )
                array_size = int(size_token.text, 0)
                self._advance()
                self._expect_punct("]")
            if self._current.is_op("="):
                self._advance()
                init = self._parse_expr()
            declarators.append(
                Decl(
                    qualifier=qualifier,
                    ctype=type_token.text,
                    name=name_token.text,
                    array_size=array_size,
                    init=init,
                    line=name_token.line,
                )
            )
            if self._current.is_punct(","):
                self._advance()
                continue
            break
        self._expect_punct(";")
        return declarators

    def _parse_if(self) -> If:
        token = self._advance()  # 'if'
        self._expect_punct("(")
        cond = self._parse_expr()
        self._expect_punct(")")
        then_body = self._parse_block()
        else_body: tuple[Stmt, ...] = ()
        if self._current.is_keyword("else"):
            self._advance()
            else_body = self._parse_block()
        return If(cond=cond, then_body=then_body, else_body=else_body, line=token.line)

    def _parse_for(self) -> For:
        token = self._advance()  # 'for'
        self._expect_punct("(")
        init_assign = self._parse_assign()
        if not isinstance(init_assign.target, VarRef):
            raise ParseError("loop variable must be a scalar", token.line, token.column)
        self._expect_punct(";")
        cond = self._parse_expr()
        self._expect_punct(";")
        step = self._parse_assign()
        self._expect_punct(")")
        body = self._parse_block()
        return For(
            var=init_assign.target.name,
            init=init_assign.value,
            cond=cond,
            step=step,
            body=body,
            line=token.line,
        )

    def _parse_block(self) -> tuple[Stmt, ...]:
        if self._current.is_punct("{"):
            self._advance()
            statements: list[Stmt] = []
            while not self._current.is_punct("}"):
                if self._current.kind is TokenKind.EOF:
                    raise ParseError(
                        "unterminated block", self._current.line, self._current.column
                    )
                statements.extend(self._parse_statement())
            self._advance()
            return tuple(statements)
        return tuple(self._parse_statement())

    def _parse_assign(self) -> Assign:
        name_token = self._expect_ident()
        target: VarRef | ArrayRef = VarRef(name_token.text, line=name_token.line)
        if self._current.is_punct("["):
            self._advance()
            index = self._parse_expr()
            self._expect_punct("]")
            target = ArrayRef(name_token.text, index, line=name_token.line)
        op_token = self._current
        if op_token.is_op("++", "--"):
            self._advance()
            delta = "+=" if op_token.text == "++" else "-="
            return Assign(target=target, op=delta, value=NumberLit(1, op_token.line), line=op_token.line)
        if op_token.kind is not TokenKind.OP or op_token.text not in _ASSIGN_OPS:
            raise ParseError(
                f"expected assignment operator, found {op_token.text!r}",
                op_token.line,
                op_token.column,
            )
        self._advance()
        value = self._parse_expr()
        return Assign(target=target, op=op_token.text, value=value, line=op_token.line)

    # -- expressions ----------------------------------------------------------
    def _parse_expr(self) -> Expr:
        return self._parse_conditional()

    def _parse_conditional(self) -> Expr:
        cond = self._parse_binary(0)
        if self._current.is_op("?"):
            token = self._advance()
            if_true = self._parse_expr()
            self._expect_punct(":")
            if_false = self._parse_conditional()
            return Conditional(cond, if_true, if_false, line=token.line)
        return cond

    def _parse_binary(self, level: int) -> Expr:
        if level >= len(_BINARY_LEVELS):
            return self._parse_unary()
        left = self._parse_binary(level + 1)
        ops = _BINARY_LEVELS[level]
        while self._current.kind is TokenKind.OP and self._current.text in ops:
            op_token = self._advance()
            right = self._parse_binary(level + 1)
            left = BinaryOp(op_token.text, left, right, line=op_token.line)
        return left

    def _parse_unary(self) -> Expr:
        token = self._current
        if token.is_op("-", "~", "!", "+"):
            self._advance()
            operand = self._parse_unary()
            if token.text == "+":
                return operand
            return UnaryOp(token.text, operand, line=token.line)
        return self._parse_primary()

    def _parse_primary(self) -> Expr:
        token = self._current
        if token.kind is TokenKind.NUMBER:
            self._advance()
            return NumberLit(int(token.text, 0), line=token.line)
        if token.kind is TokenKind.IDENT:
            self._advance()
            if self._current.is_punct("["):
                self._advance()
                index = self._parse_expr()
                self._expect_punct("]")
                return ArrayRef(token.text, index, line=token.line)
            return VarRef(token.text, line=token.line)
        if token.is_punct("("):
            self._advance()
            inner = self._parse_expr()
            self._expect_punct(")")
            return inner
        raise ParseError(
            f"unexpected token {token.text!r} in expression", token.line, token.column
        )


def parse_source(source: str, name: str = "program") -> Program:
    """Parse mini-C text into a :class:`Program` AST."""
    return Parser(tokenize(source)).parse_program(name)
