"""Recursive-descent parser: SQL subset -> :class:`LogicalPlan`.

Grammar (conjunctive queries with aggregation):

    query      := SELECT items FROM tables [WHERE conjunction] [GROUP BY cols]
    items      := item (',' item)*
    item       := agg | colref
    agg        := (SUM|AVG) '(' colref ')' | COUNT '(' '*' ')'
    tables     := table (',' table)*
    table      := ident [AS ident | ident]
    conjunction:= condition (AND condition)*
    condition  := operand op operand | colref BETWEEN literal AND literal
    operand    := [number '*'] colref | literal
    op         := '=' | '<' | '<=' | '>' | '>=' | '<>' | '!='

Column-to-column conditions become join conditions (equi or theta, with
optional scale factors such as ``2 * R.B < S.C``); column-to-literal
conditions become selections pushed down to the referencing scan.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.core.expressions import Comparison, col, lit
from repro.core.logical import AggItem, LogicalPlan, ScanDef, resolve_column
from repro.core.predicates import EquiCondition, ThetaCondition
from repro.core.schema import Schema
from repro.sql.lexer import Token, tokenize


class SqlError(ValueError):
    """Syntax or resolution error in a SQL query."""


class _Parser:
    def __init__(self, tokens: List[Token], schemas_by_table: Dict[str, Schema]):
        self.tokens = tokens
        self.position = 0
        self.schemas_by_table = schemas_by_table
        self.scans: List[ScanDef] = []
        self.alias_schemas: Dict[str, Schema] = {}

    # -- token helpers ------------------------------------------------------

    def peek(self) -> Token:
        return self.tokens[self.position]

    def advance(self) -> Token:
        token = self.tokens[self.position]
        self.position += 1
        return token

    def expect_keyword(self, word: str) -> Token:
        token = self.advance()
        if not token.is_keyword(word):
            raise SqlError(f"expected {word}, got {token.value!r} at {token.position}")
        return token

    def expect_symbol(self, symbol: str) -> Token:
        token = self.advance()
        if not token.is_symbol(symbol):
            raise SqlError(f"expected {symbol!r}, got {token.value!r} at {token.position}")
        return token

    def expect_ident(self) -> Token:
        token = self.advance()
        if token.kind != "ident":
            raise SqlError(f"expected identifier, got {token.value!r} at {token.position}")
        return token

    # -- grammar --------------------------------------------------------------

    def parse(self) -> LogicalPlan:
        self.expect_keyword("SELECT")
        items = self.parse_select_items()
        self.expect_keyword("FROM")
        self.parse_tables()
        conditions = []
        filters: List[Tuple[str, Comparison, str]] = []
        if self.peek().is_keyword("WHERE"):
            self.advance()
            conditions, filters = self.parse_conjunction()
        group_by: List[str] = []
        if self.peek().is_keyword("GROUP"):
            self.advance()
            self.expect_keyword("BY")
            group_by = self.parse_column_list()
        token = self.peek()
        if token.kind != "end":
            raise SqlError(f"unexpected trailing input {token.value!r} at {token.position}")
        # attach filters to their scans
        for alias, predicate, cost_class in filters:
            scan = next(s for s in self.scans if s.alias == alias)
            scan.predicates.append(predicate)
            if cost_class == "date":
                scan.cost_class = "date"
        # an aggregate's column resolves as SELECT and GROUP BY columns do
        aggregates = [
            item if item.column is None
            else AggItem(item.kind, self.qualify(item.column))
            for item in items if isinstance(item, AggItem)]
        plain = [item for item in items if not isinstance(item, AggItem)]
        resolved_group = [self.qualify(name) for name in group_by]
        resolved_plain = [self.qualify(name) for name in plain]
        if aggregates and not resolved_group:
            resolved_group = resolved_plain
        elif resolved_plain and resolved_group:
            missing = [n for n in resolved_plain if n not in resolved_group]
            if missing:
                raise SqlError(
                    f"non-aggregated columns {missing} must appear in GROUP BY"
                )
        plan = LogicalPlan(
            scans=self.scans,
            conditions=conditions,
            group_by=resolved_group,
            aggregates=aggregates,
            select=[] if aggregates or resolved_group else resolved_plain,
        )
        return plan.validate(self.alias_schemas)

    def parse_select_items(self) -> List[object]:
        items = [self.parse_select_item()]
        while self.peek().is_symbol(","):
            self.advance()
            items.append(self.parse_select_item())
        return items

    def parse_select_item(self):
        token = self.peek()
        if token.is_keyword("COUNT"):
            self.advance()
            self.expect_symbol("(")
            self.expect_symbol("*")
            self.expect_symbol(")")
            return AggItem("count")
        if token.is_keyword("SUM") or token.is_keyword("AVG"):
            kind = token.value.lower()
            self.advance()
            self.expect_symbol("(")
            column = self.parse_colref()
            self.expect_symbol(")")
            return AggItem(kind, column)
        return self.parse_colref()

    def parse_colref(self) -> str:
        first = self.expect_ident().value
        if self.peek().is_symbol("."):
            self.advance()
            second = self.expect_ident().value
            return f"{first}.{second}"
        return first

    def parse_tables(self):
        self.parse_table()
        while self.peek().is_symbol(","):
            self.advance()
            self.parse_table()

    def parse_table(self):
        table = self.expect_ident().value
        alias = table
        if self.peek().is_keyword("AS"):
            self.advance()
            alias = self.expect_ident().value
        elif self.peek().kind == "ident":
            alias = self.advance().value
        if table not in self.schemas_by_table:
            raise SqlError(f"unknown table {table!r}")
        if alias in self.alias_schemas:
            raise SqlError(f"duplicate alias {alias!r}")
        self.scans.append(ScanDef(alias=alias, table=table))
        self.alias_schemas[alias] = self.schemas_by_table[table]

    def parse_conjunction(self):
        conditions = []
        filters = []
        self.parse_condition(conditions, filters)
        while self.peek().is_keyword("AND"):
            self.advance()
            self.parse_condition(conditions, filters)
        return conditions, filters

    def parse_operand(self):
        """Returns ('column', alias, attr, scale) or ('literal', value)."""
        token = self.peek()
        if token.kind == "number":
            self.advance()
            value = _number(token.value)
            if self.peek().is_symbol("*"):
                self.advance()
                name = self.parse_colref()
                alias, attr = resolve_column(name, self.alias_schemas)
                return ("column", alias, attr, float(value))
            return ("literal", value)
        if token.kind == "string":
            self.advance()
            return ("literal", token.value)
        name = self.parse_colref()
        alias, attr = resolve_column(name, self.alias_schemas)
        return ("column", alias, attr, 1.0)

    def parse_condition(self, conditions: list, filters: list):
        left = self.parse_operand()
        if self.peek().is_keyword("BETWEEN"):
            if left[0] != "column":
                raise SqlError("BETWEEN requires a column on the left")
            self.advance()
            low = self.parse_literal()
            self.expect_keyword("AND")
            high = self.parse_literal()
            _tag, alias, attr, _scale = left
            predicate = col(attr).ge(low) & col(attr).le(high)
            filters.append((alias, predicate, self._cost_class(alias, attr)))
            return
        op_token = self.advance()
        if not (op_token.kind == "symbol" and op_token.value in
                ("=", "<", "<=", ">", ">=", "<>", "!=")):
            raise SqlError(f"expected comparison operator at {op_token.position}")
        op = "!=" if op_token.value == "<>" else op_token.value
        right = self.parse_operand()
        if left[0] == "column" and right[0] == "column":
            _t, la, lattr, lscale = left
            _t, ra, rattr, rscale = right
            if la == ra:
                raise SqlError(
                    f"conditions within one relation ({la!r}) belong in a "
                    "selection; use a literal comparison or different aliases"
                )
            if op == "=":
                if lscale != 1.0 or rscale != 1.0:
                    raise SqlError("scaled equality conditions are not supported")
                conditions.append(EquiCondition((la, lattr), (ra, rattr)))
            else:
                conditions.append(
                    ThetaCondition((la, lattr), op, (ra, rattr),
                                   left_scale=lscale, right_scale=rscale)
                )
            return
        # column vs literal -> selection, pushed to the scan
        if left[0] == "column":
            _t, alias, attr, scale = left
            value = right[1]
            expr = col(attr) if scale == 1.0 else (lit(scale) * col(attr))
            predicate = Comparison(expr, op, lit(value))
        elif right[0] == "column":
            _t, alias, attr, scale = right
            value = left[1]
            flipped = {"<": ">", "<=": ">=", ">": "<", ">=": "<=", "=": "=", "!=": "!="}
            expr = col(attr) if scale == 1.0 else (lit(scale) * col(attr))
            predicate = Comparison(expr, flipped[op], lit(value))
        else:
            raise SqlError("conditions between two literals are not supported")
        filters.append((alias, predicate, self._cost_class(alias, attr)))

    def parse_literal(self):
        token = self.advance()
        if token.kind == "number":
            return _number(token.value)
        if token.kind == "string":
            return token.value
        raise SqlError(f"expected literal at {token.position}")

    def parse_column_list(self) -> List[str]:
        names = [self.parse_colref()]
        while self.peek().is_symbol(","):
            self.advance()
            names.append(self.parse_colref())
        return names

    def qualify(self, name: str) -> str:
        alias, attr = resolve_column(name, self.alias_schemas)
        return f"{alias}.{attr}"

    def _cost_class(self, alias: str, attr: str) -> str:
        schema = self.alias_schemas[alias]
        return "date" if schema.field(attr).type == "date" else "int"


def _number(text: str):
    return float(text) if "." in text else int(text)


def parse_query(sql: str, schemas_by_table: Dict[str, Schema]) -> LogicalPlan:
    """Parse a SQL string against the given table schemas."""
    return _Parser(tokenize(sql), schemas_by_table).parse()
