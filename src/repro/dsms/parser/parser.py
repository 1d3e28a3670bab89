"""Recursive-descent parser for the GSQL subset.

Grammar (clauses in this order, bracketed ones optional)::

    query      := SELECT select_list FROM ident [WHERE expr]
                  [GROUP BY groupby_list] [SUPERGROUP [BY] ident_list]
                  [HAVING expr] [CLEANING WHEN expr] [CLEANING BY expr]
    select_list:= select_item (',' select_item)*
    select_item:= expr [AS ident]
    groupby_list := groupby_item (',' groupby_item)*
    groupby_item := expr [AS ident]

    expr       := or_expr
    or_expr    := and_expr (OR and_expr)*
    and_expr   := not_expr (AND not_expr)*
    not_expr   := NOT not_expr | comparison
    comparison := additive [cmp_op additive]
    additive   := multiplicative (('+'|'-') multiplicative)*
    multiplicative := unary (('*'|'/'|'%') unary)*
    unary      := '-' unary | primary
    primary    := NUMBER | STRING | TRUE | FALSE | '(' expr ')'
                | ident '(' [arglist] ')' | ident | '*'   (inside arglists)

An expression nests at most :data:`MAX_EXPRESSION_DEPTH` levels, or it is
a :class:`ParseError`: of parentheses, NOT, minus and call arguments on
the way down (this parser recurses per level) and of operators in the tree
it returns (the analyzer, the linter and the clause compiler recurse per node).
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.errors import ParseError
from repro.dsms.expr import (
    BinaryOp,
    ColumnRef,
    Expr,
    FunctionCall,
    Literal,
    Star,
    UnaryOp,
)
from repro.dsms.parser.ast import GroupByItem, QueryAst, SelectItem
from repro.dsms.parser.lexer import Token, TokenType, tokenize
from repro.dsms.span import Span

_COMPARISON_OPS = ("=", "<>", "!=", "<=", ">=", "<", ">")

#: Nine parser frames a level and a few per node downstream stay far inside the
#: recursion limit, a compiled clause inside the tokenizer's 100 indentation levels.
MAX_EXPRESSION_DEPTH = 64


class _Parser:
    def __init__(self, tokens: List[Token]) -> None:
        self._tokens = tokens
        self._pos = 0
        self._nesting = 0

    # -- token helpers -------------------------------------------------------

    @property
    def _current(self) -> Token:
        return self._tokens[self._pos]

    def _advance(self) -> Token:
        token = self._current
        if token.type is not TokenType.EOF:
            self._pos += 1
        return token

    def _error(self, message: str) -> ParseError:
        token = self._current
        return ParseError(
            f"{message}, found {token} (line {token.line})",
            line=token.line,
            col=token.col,
        )

    def _expect_keyword(self, word: str) -> Token:
        if not self._current.is_keyword(word):
            raise self._error(f"expected {word}")
        return self._advance()

    def _accept_keyword(self, word: str) -> bool:
        if self._current.is_keyword(word):
            self._advance()
            return True
        return False

    def _expect_op(self, op: str) -> Token:
        token = self._current
        if token.type is not TokenType.OP or token.value != op:
            raise self._error(f"expected {op!r}")
        return self._advance()

    def _accept_op(self, op: str) -> bool:
        token = self._current
        if token.type is TokenType.OP and token.value == op:
            self._advance()
            return True
        return False

    def _expect_ident(self, what: str) -> str:
        token = self._current
        if token.type is not TokenType.IDENT:
            raise self._error(f"expected {what}")
        self._advance()
        return token.value

    # -- query --------------------------------------------------------------

    def parse_query(self) -> QueryAst:
        clause_spans: Dict[str, Span] = {}
        clause_spans["SELECT"] = self._expect_keyword("SELECT").span
        select = self._parse_select_list()
        self._expect_keyword("FROM")
        from_token = self._current
        from_stream = self._expect_ident("stream name after FROM")
        # FROM diagnostics point at the stream name, not the keyword.
        clause_spans["FROM"] = from_token.span

        where: Optional[Expr] = None
        if self._current.is_keyword("WHERE"):
            clause_spans["WHERE"] = self._advance().span
            where = self.parse_expr()

        group_by: Tuple[GroupByItem, ...] = ()
        if self._current.is_keyword("GROUP"):
            clause_spans["GROUP BY"] = self._advance().span
            self._expect_keyword("BY")
            group_by = self._parse_groupby_list()

        supergroup: Tuple[str, ...] = ()
        if self._current.is_keyword("SUPERGROUP"):
            clause_spans["SUPERGROUP"] = self._advance().span
            self._accept_keyword("BY")  # the paper writes both forms
            names = [self._expect_ident("supergroup variable")]
            while self._accept_op(","):
                names.append(self._expect_ident("supergroup variable"))
            supergroup = tuple(names)

        having: Optional[Expr] = None
        if self._current.is_keyword("HAVING"):
            clause_spans["HAVING"] = self._advance().span
            having = self.parse_expr()

        cleaning_when: Optional[Expr] = None
        cleaning_by: Optional[Expr] = None
        while self._current.is_keyword("CLEANING"):
            cleaning_token = self._advance()
            if self._accept_keyword("WHEN"):
                if cleaning_when is not None:
                    raise self._error("duplicate CLEANING WHEN clause")
                clause_spans["CLEANING WHEN"] = cleaning_token.span
                cleaning_when = self.parse_expr()
            elif self._accept_keyword("BY"):
                if cleaning_by is not None:
                    raise self._error("duplicate CLEANING BY clause")
                clause_spans["CLEANING BY"] = cleaning_token.span
                cleaning_by = self.parse_expr()
            else:
                raise self._error("expected WHEN or BY after CLEANING")

        if self._current.type is not TokenType.EOF:
            raise self._error("unexpected trailing input")

        return QueryAst(
            select=select,
            from_stream=from_stream,
            where=where,
            group_by=group_by,
            supergroup=supergroup,
            having=having,
            cleaning_when=cleaning_when,
            cleaning_by=cleaning_by,
            clause_spans=clause_spans,
        )

    def _parse_select_list(self) -> Tuple[SelectItem, ...]:
        items = [self._parse_select_item()]
        while self._accept_op(","):
            items.append(self._parse_select_item())
        return tuple(items)

    def _parse_select_item(self) -> SelectItem:
        expr = self.parse_expr()
        alias = None
        if self._accept_keyword("AS"):
            alias = self._expect_ident("alias after AS")
        return SelectItem(expr, alias)

    def _parse_groupby_list(self) -> Tuple[GroupByItem, ...]:
        items = [self._parse_groupby_item()]
        while self._accept_op(","):
            items.append(self._parse_groupby_item())
        return tuple(items)

    def _parse_groupby_item(self) -> GroupByItem:
        expr = self.parse_expr()
        if self._accept_keyword("AS"):
            name = self._expect_ident("alias after AS")
        elif isinstance(expr, ColumnRef):
            name = expr.name
        else:
            raise self._error(
                "a non-column GROUP BY expression needs an alias (e.g. time/60 AS tb)"
            )
        return GroupByItem(expr, name)

    # -- expressions -----------------------------------------------------------

    def parse_expr(self) -> Expr:
        """One clause-level expression, its tree no deeper than the limit."""
        expr = self._parse_or()
        level = [expr]  # the nodes 0, 1, 2 ... operators below the root
        for _ in range(MAX_EXPRESSION_DEPTH + 1):
            level = [child for node in level for child in node.children()]
            if not level:
                return expr
        raise _too_deep(level[0].span)

    def _parse_nested(self, opening: Token, parse: Callable[[], Any]) -> Any:
        """``parse`` run one level below ``opening`` (a parenthesis, NOT, a minus sign)."""
        if self._nesting == MAX_EXPRESSION_DEPTH:
            raise _too_deep(opening.span)
        self._nesting += 1
        try:
            return parse()
        finally:
            self._nesting -= 1

    def _parse_or(self) -> Expr:
        left = self._parse_and()
        while self._current.is_keyword("OR"):
            op_token = self._advance()
            left = BinaryOp("OR", left, self._parse_and(), span=op_token.span)
        return left

    def _parse_and(self) -> Expr:
        left = self._parse_not()
        while self._current.is_keyword("AND"):
            op_token = self._advance()
            left = BinaryOp("AND", left, self._parse_not(), span=op_token.span)
        return left

    def _parse_not(self) -> Expr:
        if self._current.is_keyword("NOT"):
            op_token = self._advance()
            operand = self._parse_nested(op_token, self._parse_not)
            return UnaryOp("NOT", operand, span=op_token.span)
        return self._parse_comparison()

    def _parse_comparison(self) -> Expr:
        left = self._parse_additive()
        token = self._current
        if token.type is TokenType.OP and token.value in _COMPARISON_OPS:
            self._advance()
            right = self._parse_additive()
            return BinaryOp(token.value, left, right, span=token.span)
        return left

    def _parse_additive(self) -> Expr:
        left = self._parse_multiplicative()
        while True:
            token = self._current
            if token.type is TokenType.OP and token.value in ("+", "-"):
                self._advance()
                left = BinaryOp(
                    token.value, left, self._parse_multiplicative(), span=token.span
                )
            else:
                return left

    def _parse_multiplicative(self) -> Expr:
        left = self._parse_unary()
        while True:
            token = self._current
            if token.type is TokenType.OP and token.value in ("*", "/", "%"):
                self._advance()
                left = BinaryOp(
                    token.value, left, self._parse_unary(), span=token.span
                )
            else:
                return left

    def _parse_unary(self) -> Expr:
        token = self._current
        if self._accept_op("-"):
            operand = self._parse_nested(token, self._parse_unary)
            return UnaryOp("-", operand, span=token.span)
        return self._parse_primary()

    def _parse_primary(self) -> Expr:
        token = self._current
        if token.type is TokenType.NUMBER:
            self._advance()
            return Literal(token.value, span=token.span)
        if token.type is TokenType.STRING:
            self._advance()
            return Literal(token.value, span=token.span)
        if token.is_keyword("TRUE"):
            self._advance()
            return Literal(True, span=token.span)
        if token.is_keyword("FALSE"):
            self._advance()
            return Literal(False, span=token.span)
        if self._accept_op("("):
            inner = self._parse_nested(token, self._parse_or)
            self._expect_op(")")
            return inner
        if token.type is TokenType.IDENT:
            self._advance()
            if self._accept_op("("):
                args = self._parse_nested(token, self._parse_arglist)
                self._expect_op(")")
                return FunctionCall(token.value, tuple(args), span=token.span)
            if token.value.endswith("$"):
                raise self._error(
                    f"superaggregate {token.value} must be called with arguments"
                )
            return ColumnRef(token.value, span=token.span)
        raise self._error("expected an expression")

    def _parse_arglist(self) -> List[Expr]:
        # Empty argument list: ssthreshold()
        token = self._current
        if token.type is TokenType.OP and token.value == ")":
            return []
        args = [self._parse_arg()]
        while self._accept_op(","):
            args.append(self._parse_arg())
        return args

    def _parse_arg(self) -> Expr:
        # '*' is only legal as a bare argument: count(*), count_distinct$(*).
        token = self._current
        if token.type is TokenType.OP and token.value == "*":
            self._advance()
            return Star(span=token.span)
        return self._parse_or()


def _too_deep(span: Span) -> ParseError:
    message = f"expression nests deeper than {MAX_EXPRESSION_DEPTH} levels"
    return ParseError(f"{message} (line {span.line}, col {span.col})", span.line, span.col)


def parse_query(text: str) -> QueryAst:
    """Parse one query text into a :class:`QueryAst`."""
    return _Parser(tokenize(text)).parse_query()


def parse_expression(text: str) -> Expr:
    """Parse a standalone expression (used by tests and the REPL helper)."""
    parser = _Parser(tokenize(text))
    expr = parser.parse_expr()
    if parser._current.type is not TokenType.EOF:
        raise ParseError(f"unexpected trailing input after expression: {parser._current}")
    return expr
