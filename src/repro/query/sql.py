"""A mini SQL dialect for M4 representation queries (Appendix A.1).

The paper expresses M4 as::

    SELECT FirstTime(T), FirstValue(T), LastTime(T), LastValue(T),
           BottomTime(T), BottomValue(T), TopTime(T), TopValue(T)
    FROM T
    GROUP BY floor(@w * (t - @tqs) / (@tqe - @tqs))

This module parses that form (plus a convenience ``M4(...)`` shorthand
and plain ``SELECT time, value`` scans) into a :class:`ParsedQuery`.
Grammar (case-insensitive keywords)::

    query      := select FROM series [where] [groupby] [using]
    select     := SELECT (M4(name) | m4agg ("," m4agg)* |
                  spanagg ("," spanagg)* | column ("," column)*)
    m4agg      := (First|Last|Bottom|Top)(Time|Value) "(" name ")"
    spanagg    := (COUNT|SUM|AVG|MIN_VALUE|MAX_VALUE|MIN_TIME|
                  MAX_TIME|FIRST_VALUE|LAST_VALUE) "(" name ")"
    where      := WHERE time ">=" int AND time "<" int
    groupby    := GROUP BY (SPANS "(" int ")" |
                  FLOOR "(" int "*" "(" "t" "-" int ")" "/"
                  "(" int "-" int ")" ")")
    using      := USING (M4LSM | M4UDF)
"""

from __future__ import annotations

import dataclasses
import re

from ..errors import SqlSyntaxError

_TOKEN_RE = re.compile(r"""
    (?P<number>-?\d+)
  | (?P<name>[A-Za-z_][\w.]*)
  | (?P<op><=|>=|<>|!=|[(),*\-+/<>=])
  | (?P<ws>\s+)
""", re.VERBOSE)

_AGGREGATES = {
    "firsttime": ("FP", "t"), "firstvalue": ("FP", "v"),
    "lasttime": ("LP", "t"), "lastvalue": ("LP", "v"),
    "bottomtime": ("BP", "t"), "bottomvalue": ("BP", "v"),
    "toptime": ("TP", "t"), "topvalue": ("TP", "v"),
}

#: Classic span aggregates served by repro.core.aggregation.
_SPAN_AGGREGATES = frozenset((
    "count", "sum", "avg", "min_value", "max_value",
    "min_time", "max_time", "first_value", "last_value",
))


@dataclasses.dataclass(frozen=True)
class ParsedQuery:
    """Structured form of a statement.

    ``kind`` is ``"m4"`` (M4 representation points), ``"agg"``
    (GROUP BY span aggregates such as ``COUNT``) or ``"raw"`` (plain
    scan).  ``columns`` lists output columns; for m4 queries each is an
    ``(function, field)`` pair in SELECT order, for agg queries a
    lower-case aggregate name.
    """

    kind: str
    series: str
    columns: tuple
    t_qs: int = None
    t_qe: int = None
    w: int = None
    operator: str = "m4lsm"


def tokenize(text):
    """Split a statement into tokens; raises on unknown characters."""
    tokens = []
    pos = 0
    while pos < len(text):
        match = _TOKEN_RE.match(text, pos)
        if match is None:
            raise SqlSyntaxError("unexpected character %r at offset %d"
                                 % (text[pos], pos))
        pos = match.end()
        if match.lastgroup != "ws":
            tokens.append(match.group())
    return tokens


class _Parser:
    def __init__(self, tokens):
        self._tokens = tokens
        self._pos = 0

    def peek(self):
        return self._tokens[self._pos] if self._pos < len(self._tokens) \
            else None

    def next(self):
        token = self.peek()
        if token is None:
            raise SqlSyntaxError("unexpected end of statement")
        self._pos += 1
        return token

    def expect(self, expected):
        token = self.next()
        if token.lower() != expected.lower():
            raise SqlSyntaxError("expected %r, got %r" % (expected, token))
        return token

    def expect_int(self):
        token = self.next()
        try:
            return int(token)
        except ValueError:
            raise SqlSyntaxError("expected an integer, got %r"
                                 % token) from None

    def at_keyword(self, keyword):
        token = self.peek()
        return token is not None and token.lower() == keyword.lower()

    def done(self):
        return self._pos >= len(self._tokens)


def parse(statement):
    """Parse one statement; returns a :class:`ParsedQuery`."""
    parser = _Parser(tokenize(statement))
    parser.expect("SELECT")
    columns, kind = _parse_select_list(parser)
    parser.expect("FROM")
    series = parser.next()

    t_qs = t_qe = w = None
    operator = "m4lsm"
    if parser.at_keyword("WHERE"):
        t_qs, t_qe = _parse_where(parser)
    if parser.at_keyword("GROUP") or parser.at_keyword("GROUPBY"):
        w, bounds = _parse_group_by(parser)
        if bounds is not None:
            group_qs, group_qe = bounds
            if t_qs is not None and (t_qs, t_qe) != (group_qs, group_qe):
                raise SqlSyntaxError(
                    "WHERE range and GROUP BY floor() range disagree")
            t_qs, t_qe = group_qs, group_qe
    if parser.at_keyword("USING"):
        parser.next()
        operator = parser.next().lower()
        if operator not in ("m4lsm", "m4udf"):
            raise SqlSyntaxError("USING expects M4LSM or M4UDF, got %r"
                                 % operator)
    if not parser.done():
        raise SqlSyntaxError("trailing tokens: %r" % parser.peek())

    if kind in ("m4", "agg") and w is None:
        raise SqlSyntaxError("an aggregating query needs GROUP BY "
                             "SPANS(w) or the floor() form")
    return ParsedQuery(kind=kind, series=series, columns=tuple(columns),
                       t_qs=t_qs, t_qe=t_qe, w=w, operator=operator)


def _parse_select_list(parser):
    first = parser.next()
    lowered = first.lower()
    if lowered == "m4":
        parser.expect("(")
        parser.next()  # the series alias inside M4(...), informational
        parser.expect(")")
        columns = [(function, field)
                   for function in ("FP", "LP", "BP", "TP")
                   for field in ("t", "v")]
        return columns, "m4"
    if lowered in _AGGREGATES:
        columns = [_parse_aggregate(parser, first)]
        while parser.at_keyword(","):
            parser.next()
            columns.append(_parse_aggregate(parser, parser.next()))
        return columns, "m4"
    if lowered in _SPAN_AGGREGATES:
        columns = [_parse_span_aggregate(parser, first)]
        while parser.at_keyword(","):
            parser.next()
            columns.append(_parse_span_aggregate(parser, parser.next()))
        return columns, "agg"
    # Raw scan: SELECT time, value (in any order / subset).
    columns = [_raw_column(first)]
    while parser.at_keyword(","):
        parser.next()
        columns.append(_raw_column(parser.next()))
    return columns, "raw"


def _parse_aggregate(parser, name):
    key = name.lower()
    if key not in _AGGREGATES:
        raise SqlSyntaxError("unknown aggregate %r" % name)
    parser.expect("(")
    parser.next()  # series alias, informational
    parser.expect(")")
    return _AGGREGATES[key]


def _parse_span_aggregate(parser, name):
    key = name.lower()
    if key not in _SPAN_AGGREGATES:
        raise SqlSyntaxError(
            "cannot mix M4 and span aggregates; unknown aggregate %r"
            % name)
    parser.expect("(")
    parser.next()  # series alias, informational
    parser.expect(")")
    return key


def _raw_column(name):
    key = name.lower()
    if key not in ("time", "value", "t", "v"):
        raise SqlSyntaxError("unknown column %r (use time/value)" % name)
    return "t" if key in ("time", "t") else "v"


def _parse_where(parser):
    parser.expect("WHERE")
    parser.expect("time")
    parser.expect(">=")
    t_qs = parser.expect_int()
    parser.expect("AND")
    parser.expect("time")
    parser.expect("<")
    t_qe = parser.expect_int()
    if t_qe <= t_qs:
        raise SqlSyntaxError("empty WHERE range [%d, %d)" % (t_qs, t_qe))
    return t_qs, t_qe


def _parse_group_by(parser):
    token = parser.next()  # GROUP or GROUPBY
    if token.lower() == "group":
        parser.expect("BY")
    keyword = parser.next().lower()
    if keyword == "spans":
        parser.expect("(")
        w = parser.expect_int()
        parser.expect(")")
        return w, None
    if keyword == "floor":
        # floor( w * ( t - tqs ) / ( tqe - tqs ) )
        parser.expect("(")
        w = parser.expect_int()
        parser.expect("*")
        parser.expect("(")
        parser.expect("t")
        parser.expect("-")
        t_qs = parser.expect_int()
        parser.expect(")")
        parser.expect("/")
        parser.expect("(")
        t_qe = parser.expect_int()
        parser.expect("-")
        again = parser.expect_int()
        parser.expect(")")
        parser.expect(")")
        if again != t_qs:
            raise SqlSyntaxError(
                "floor() denominator must reuse t_qs=%d, got %d"
                % (t_qs, again))
        return w, (t_qs, t_qe)
    raise SqlSyntaxError("GROUP BY expects SPANS(w) or floor(...), got %r"
                         % keyword)
