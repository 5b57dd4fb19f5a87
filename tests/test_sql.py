"""Tests for the SQL interface: lexer, parser, execution."""

from collections import Counter, defaultdict

import pytest

from repro.core.optimizer import OptimizerOptions
from repro.core.schema import Relation, Schema
from repro.datasets import TPCHGenerator
from repro.sql import SqlError, parse_query, tokenize
from repro.sql.catalog import SqlSession
from repro.sql.lexer import LexError


class TestLexer:
    def test_keywords_case_insensitive(self):
        tokens = tokenize("select FROM Where")
        assert [t.kind for t in tokens[:-1]] == ["keyword"] * 3
        assert tokens[0].value == "SELECT"

    def test_identifiers_preserve_case(self):
        tokens = tokenize("LineItem")
        assert tokens[0].kind == "ident"
        assert tokens[0].value == "LineItem"

    def test_numbers(self):
        tokens = tokenize("3 3.25")
        assert tokens[0].value == "3"
        assert tokens[1].value == "3.25"

    def test_strings(self):
        tokens = tokenize("'blogspot.com'")
        assert tokens[0].kind == "string"
        assert tokens[0].value == "blogspot.com"

    def test_unterminated_string(self):
        with pytest.raises(LexError):
            tokenize("'oops")

    def test_two_char_symbols(self):
        tokens = tokenize("<= >= <> !=")
        assert [t.value for t in tokens[:-1]] == ["<=", ">=", "<>", "!="]

    def test_unexpected_char(self):
        with pytest.raises(LexError):
            tokenize("a ; b")

    def test_end_token(self):
        assert tokenize("x")[-1].kind == "end"


SCHEMAS = {
    "R": Schema.of("a", "b"),
    "S": Schema.of("b", "c"),
    "W": Schema.of("FromUrl:str", "ToUrl:str"),
    "O": Schema.of("okey", "odate:date", "price:float"),
}


class TestParser:
    def test_simple_join(self):
        plan = parse_query("SELECT COUNT(*) FROM R, S WHERE R.b = S.b", SCHEMAS)
        assert [s.alias for s in plan.scans] == ["R", "S"]
        assert len(plan.conditions) == 1
        assert plan.conditions[0].is_equi

    def test_aliases_with_and_without_as(self):
        plan = parse_query(
            "SELECT COUNT(*) FROM W AS W1, W W2 WHERE W1.ToUrl = W2.FromUrl",
            SCHEMAS,
        )
        assert [s.alias for s in plan.scans] == ["W1", "W2"]

    def test_three_way_self_join_paper_query(self):
        """The 3-Reachability query from the paper's section 7.2."""
        plan = parse_query(
            """
            SELECT W1.FromUrl, COUNT(*)
            FROM W as W1, W as W2, W as W3
            WHERE W1.ToUrl = W2.FromUrl AND W2.ToUrl = W3.FromUrl
            GROUP BY W1.FromUrl
            """,
            SCHEMAS,
        )
        assert len(plan.scans) == 3
        assert len(plan.conditions) == 2
        assert plan.group_by == ["W1.FromUrl"]
        assert plan.aggregates[0].kind == "count"

    def test_literal_filter_pushed_to_scan(self):
        plan = parse_query(
            "SELECT COUNT(*) FROM R, S WHERE R.b = S.b AND R.a > 5", SCHEMAS
        )
        assert len(plan.scan_of("R").predicates) == 1
        assert len(plan.conditions) == 1

    def test_literal_on_left_side_flipped(self):
        plan = parse_query("SELECT COUNT(*) FROM R WHERE 5 < R.a", SCHEMAS)
        predicate = plan.scan_of("R").predicates[0]
        assert predicate.compile(SCHEMAS["R"])((6, 0))
        assert not predicate.compile(SCHEMAS["R"])((4, 0))

    def test_string_filter(self):
        plan = parse_query(
            "SELECT COUNT(*) FROM W WHERE W.ToUrl = 'blogspot.com'", SCHEMAS
        )
        predicate = plan.scan_of("W").predicates[0]
        assert predicate.compile(SCHEMAS["W"])(("a", "blogspot.com"))

    def test_scaled_theta_condition(self):
        plan = parse_query(
            "SELECT COUNT(*) FROM R, S WHERE 2 * R.a < S.c", SCHEMAS
        )
        cond = plan.conditions[0]
        assert cond.left_scale == 2.0
        assert cond.op == "<"

    def test_between_becomes_filter(self):
        plan = parse_query(
            "SELECT COUNT(*) FROM R WHERE R.a BETWEEN 3 AND 7", SCHEMAS
        )
        predicate = plan.scan_of("R").predicates[0]
        fn = predicate.compile(SCHEMAS["R"])
        assert fn((5, 0)) and not fn((8, 0))

    def test_date_filter_cost_class(self):
        plan = parse_query(
            "SELECT COUNT(*) FROM O WHERE O.odate < '1995-01-01'", SCHEMAS
        )
        assert plan.scan_of("O").cost_class == "date"

    def test_group_by_inferred_from_plain_columns(self):
        plan = parse_query(
            "SELECT R.a, COUNT(*) FROM R, S WHERE R.b = S.b", SCHEMAS
        )
        assert plan.group_by == ["R.a"]

    def test_ungrouped_plain_column_rejected(self):
        with pytest.raises(SqlError, match="GROUP BY"):
            parse_query(
                "SELECT R.a, COUNT(*) FROM R, S WHERE R.b = S.b GROUP BY R.b",
                SCHEMAS,
            )

    def test_avg_and_sum(self):
        plan = parse_query(
            "SELECT SUM(O.price), AVG(O.price) FROM O", SCHEMAS
        )
        assert [a.kind for a in plan.aggregates] == ["sum", "avg"]

    @pytest.mark.parametrize("kind", ["SUM", "AVG"])
    def test_unqualified_aggregate_column_resolved(self, kind):
        """An aggregate's column resolves by the rule of SELECT and GROUP
        BY columns: unqualified, it names the one relation that has it."""
        plan = parse_query(
            f"SELECT okey, {kind}(price) FROM O GROUP BY okey", SCHEMAS)
        assert [(a.kind, a.column) for a in plan.aggregates] == \
            [(kind.lower(), "O.price")]
        assert plan.group_by == ["O.okey"]
        plan = parse_query(f"SELECT {kind}(c) FROM R, S WHERE R.b = S.b",
                           SCHEMAS)
        assert plan.aggregates[0].column == "S.c"

    def test_ambiguous_aggregate_column_rejected(self):
        with pytest.raises(KeyError, match="column 'b' is ambiguous"):
            parse_query("SELECT SUM(b) FROM R, S WHERE R.b = S.b", SCHEMAS)

    def test_unqualified_unique_column_resolved(self):
        plan = parse_query("SELECT COUNT(*) FROM R, S WHERE a = c", SCHEMAS)
        assert plan.conditions[0].left == ("R", "a")
        assert plan.conditions[0].right == ("S", "c")

    def test_ambiguous_column_rejected(self):
        with pytest.raises(KeyError, match="ambiguous"):
            parse_query("SELECT COUNT(*) FROM R, S WHERE b > 1", SCHEMAS)

    def test_unknown_table(self):
        with pytest.raises(SqlError, match="unknown table"):
            parse_query("SELECT COUNT(*) FROM Nope", SCHEMAS)

    def test_duplicate_alias(self):
        with pytest.raises(SqlError, match="duplicate alias"):
            parse_query("SELECT COUNT(*) FROM R, R", SCHEMAS)

    def test_same_relation_condition_rejected(self):
        with pytest.raises(SqlError, match="one relation"):
            parse_query("SELECT COUNT(*) FROM R WHERE R.a = R.b", SCHEMAS)

    def test_trailing_garbage(self):
        with pytest.raises(SqlError, match="trailing"):
            parse_query("SELECT COUNT(*) FROM R LIMIT 5", SCHEMAS)


class TestExecution:
    @pytest.fixture(scope="class")
    def session(self):
        tables = TPCHGenerator(scale=0.3, seed=9).generate()
        session = SqlSession(options=OptimizerOptions(machines=4))
        for relation in tables.values():
            session.register(relation)
        self.tables = tables
        return session

    def test_two_way_join_aggregate(self, session):
        result = session.execute(
            """
            SELECT customer.mktsegment, COUNT(*)
            FROM customer, orders
            WHERE customer.custkey = orders.custkey
            GROUP BY customer.mktsegment
            """
        )
        customer = session.catalog.get("customer")
        orders = session.catalog.get("orders")
        by_key = {row[0]: row for row in customer.rows}
        expected = Counter(by_key[o[1]][3] for o in orders.rows)
        assert sorted(result.results) == sorted(expected.items())

    def test_tpch9_partial_shape(self, session):
        """Lineitem >< PartSupp >< Part on Partkey (TPCH9-Partial)."""
        result = session.execute(
            """
            SELECT part.brand, COUNT(*)
            FROM lineitem, partsupp, part
            WHERE lineitem.partkey = partsupp.partkey
              AND partsupp.partkey = part.partkey
            GROUP BY part.brand
            """
        )
        lineitem = session.catalog.get("lineitem")
        partsupp = session.catalog.get("partsupp")
        part = session.catalog.get("part")
        ps_per_key = Counter(row[0] for row in partsupp.rows)
        brand = {row[0]: row[2] for row in part.rows}
        expected = defaultdict(int)
        for li in lineitem.rows:
            expected[brand[li[1]]] += ps_per_key[li[1]]
        assert sorted(result.results) == sorted(expected.items())

    def test_filters_and_sum(self, session):
        result = session.execute(
            """
            SELECT SUM(orders.totalprice)
            FROM orders
            WHERE orders.totalprice > 200000
            """
        )
        orders = session.catalog.get("orders")
        expected = sum(o[3] for o in orders.rows if o[3] > 200000)
        assert result.results[0][0] == pytest.approx(expected)

    def test_explain_renders(self, session):
        text = session.explain(
            "SELECT COUNT(*) FROM customer, orders "
            "WHERE customer.custkey = orders.custkey"
        )
        assert "LogicalPlan" in text
        assert "scheme=" in text

    def test_unqualified_aggregate_column_runs(self):
        session = SqlSession(options=OptimizerOptions(machines=2))
        session.register(Relation("clicks", Schema.of("page:str", "ms"), [
            ("home", 10), ("cart", 5), ("home", 30), ("cart", 7)]))
        for text in ("SELECT page, SUM(ms) FROM clicks GROUP BY page",
                     "SELECT page, SUM(clicks.ms) FROM clicks GROUP BY page"):
            assert sorted(session.execute(text).results) == \
                [("cart", 12), ("home", 40)]
        result = session.execute(
            "SELECT page, AVG(ms) FROM clicks GROUP BY page")
        assert sorted(result.results) == [("cart", 6.0), ("home", 20.0)]


class TestSelectList:
    """A query without aggregation returns its SELECT list, in order."""

    @staticmethod
    def session(mode="multiway"):
        session = SqlSession(options=OptimizerOptions(machines=4, mode=mode))
        session.register(Relation("a", Schema.of("x", "k"),
                                  [(x, x % 3) for x in range(6)]))
        session.register(Relation("b", Schema.of("k", "y:str"),
                                  [(k, f"y{k}") for k in range(3)]))
        session.register(Relation("c", Schema.of("y:str", "z"),
                                  [(f"y{k}", 10 * k) for k in range(3)]))
        return session

    @pytest.mark.parametrize("mode", ["multiway", "pipeline"])
    def test_a_join_returns_its_select_list(self, mode):
        result = self.session(mode).execute(
            "SELECT b.y, a.x FROM a, b WHERE a.k = b.k")
        assert sorted(result.results) == sorted(
            (f"y{x % 3}", x) for x in range(6))

    @pytest.mark.parametrize("mode", ["multiway", "pipeline"])
    def test_a_three_way_join_returns_its_select_list(self, mode):
        result = self.session(mode).execute(
            "SELECT c.z, a.x, b.k FROM a, b, c "
            "WHERE a.k = b.k AND b.y = c.y")
        assert sorted(result.results) == sorted(
            (10 * (x % 3), x, x % 3) for x in range(6))

    def test_one_relation_returns_its_select_list(self):
        session = self.session()
        sql = "SELECT a.k, a.x FROM a WHERE a.x > 2"
        assert sorted(session.execute(sql).results) == [
            (0, 3), (1, 4), (2, 5)]
        assert session.stream(sql).run().snapshot() == [
            (0, 3), (1, 4), (2, 5)]

    def test_a_streamed_join_returns_its_select_list(self):
        query = self.session().stream(
            "SELECT b.y, a.x FROM a, b WHERE a.k = b.k").run()
        assert query.snapshot() == sorted(
            (f"y{x % 3}", x) for x in range(6))
