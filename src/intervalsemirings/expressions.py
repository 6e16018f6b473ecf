"""Expression grammar for interval, formal-sum, and matrix arithmetic.

Grammar (products are strictly binary; three or more factors need explicit
parentheses because formal-sum multiplication is generally nonassociative):

    expr    := term ('+' term)*
    term    := factor ('*' factor)?
    factor  := '(' expr ')' | INTERVAL | MATRIX | SYMBOL

INTERVAL is a literal like [0,7], [0,1/2], or [0,2+3I]; MATRIX is a bracket
list of entries ([ .. , .. ] for a row, [[..],[..]] for a square); SYMBOL is
a basis token (e, g5, 4b, x^2) or a lattice element name.  Parse errors carry
the offending position.  Evaluation loads ``formalsums`` or ``matrices`` only
for a handle of that kind, so a domain expression loads neither.
"""

import re

from .domains import (
    dom_add,
    dom_mul,
    domain_one,
    parse_element,
)
from .errors import DomainMismatchError, ParseError, SpecError
from .handle import SemiringHandle

_INTERVAL_AT = re.compile(r"\[\s*0\s*,\s*[^\][]*?\]")
_SYMBOL_AT = re.compile(r"[A-Za-z0-9_^]+")
_PUNCT = {"(": "lparen", ")": "rparen", "+": "plus", "*": "star",
          ",": "comma", "]": "rbracket"}


def tokenize(text):
    """Token stream [(kind, text, position)]; raises ParseError."""
    out = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch == "[":
            m = _INTERVAL_AT.match(text, i)
            if m:
                out.append(("interval", m.group(0), i))
                i = m.end()
                continue
            out.append(("lbracket", "[", i))
            i += 1
            continue
        if ch in _PUNCT:
            out.append((_PUNCT[ch], ch, i))
            i += 1
            continue
        m = _SYMBOL_AT.match(text, i)
        if m:
            out.append(("symbol", m.group(0), i))
            i = m.end()
            continue
        raise ParseError(f"unexpected character {ch!r}", i)
    out.append(("end", "", n))
    return out


class _Parser:
    def __init__(self, text):
        self.tokens = tokenize(text)
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def take(self, kind=None):
        tok = self.tokens[self.pos]
        if kind is not None and tok[0] != kind:
            raise ParseError(f"expected {kind}, found {tok[1] or 'end'!r}",
                             tok[2])
        self.pos += 1
        return tok

    def expression(self):
        terms = [self.term()]
        while self.peek()[0] == "plus":
            self.take()
            terms.append(self.term())
        if len(terms) == 1:
            return terms[0]
        return ("add", tuple(terms))

    def term(self):
        left = self.factor()
        if self.peek()[0] != "star":
            return left
        self.take()
        right = self.factor()
        nxt = self.peek()
        if nxt[0] == "star":
            raise ParseError(
                "products of three or more factors need explicit parentheses",
                nxt[2])
        return ("mul", left, right)

    def factor(self):
        kind, text, pos = self.peek()
        if kind == "lparen":
            self.take()
            inner = self.expression()
            self.take("rparen")
            return inner
        if kind == "interval":
            self.take()
            return ("interval", text)
        if kind == "symbol":
            self.take()
            return ("symbol", text)
        if kind == "lbracket":
            return self.matrix_literal()
        raise ParseError(f"expected a value, found {text or 'end'!r}", pos)

    def matrix_literal(self):
        self.take("lbracket")
        items = [self.matrix_item()]
        while self.peek()[0] == "comma":
            self.take()
            items.append(self.matrix_item())
        self.take("rbracket")
        flat = all(isinstance(it, str) for it in items)
        nested = all(isinstance(it, tuple) for it in items)
        if not flat and not nested:
            raise ParseError("matrix entries may not mix scalars and rows",
                             self.peek()[2])
        return ("matrix", tuple(items))

    def matrix_item(self):
        kind, text, pos = self.peek()
        if kind == "interval" or kind == "symbol":
            self.take()
            return text
        if kind == "lbracket":
            self.take()
            row = []
            while True:
                k2, t2, p2 = self.peek()
                if k2 not in ("interval", "symbol"):
                    raise ParseError("matrix rows hold scalar entries only",
                                     p2)
                self.take()
                row.append(t2)
                if self.peek()[0] == "comma":
                    self.take()
                    continue
                break
            self.take("rbracket")
            return tuple(row)
        raise ParseError("expected a matrix entry", pos)


def parse_expression(text):
    """Parse to an AST; unconsumed trailing input is an error."""
    p = _Parser(text)
    node = p.expression()
    kind, tok, pos = p.peek()
    if kind != "end":
        raise ParseError(f"unexpected trailing input {tok!r}", pos)
    return node


def ast_to_str(node):
    """Canonical printing; parse(ast_to_str(t)) == t."""
    kind = node[0]
    if kind in ("interval", "symbol"):
        return node[1]
    if kind == "matrix":
        items = node[1]
        if items and isinstance(items[0], tuple):
            rows = ("[" + ", ".join(r) + "]" for r in items)
            return "[" + ", ".join(rows) + "]"
        return "[" + ", ".join(items) + "]"
    if kind == "add":
        return " + ".join(_wrap(t, in_add=True) for t in node[1])
    if kind == "mul":
        return f"{_wrap(node[1])}*{_wrap(node[2])}"
    raise SpecError(f"unknown expression node {kind!r}")


def _wrap(node, in_add=False):
    s = ast_to_str(node)
    if node[0] == "add" or (node[0] == "mul" and not in_add):
        return f"({s})"
    return s


# ---------------------------------------------------------------------------
# evaluation against a handle
#
# Values carry a tag: ("coeff", element of h.domain), ("basis", key) or
# ("elem", element of the handle).  A coefficient scales what it multiplies
# (``_scale``), so coefficient*token products work in identity-less domains;
# ``_lift`` is the one place a value becomes an element: a token k is 1*k and
# a coefficient c alone is c times the identity token or matrix.  A domain
# handle only makes coefficients, a formal-sum handle never makes a matrix
# and a matrix handle never makes a token.


def _scale(h, c, v):
    """c times a basis token or an element of a formal-sum or matrix
    handle."""
    if h.kind == "formal-sum":
        from .formalsums import fs_scale, fs_term

        if v[0] == "basis":
            return fs_term(h.spec, v[1], c)
        return fs_scale(c, v[1])
    from .matrices import scale_matrix

    return scale_matrix(c, v[1])


def _lift(h, v):
    """The element of the handle that the value v stands for."""
    tag, payload = v
    if tag == "elem" or h.kind == "domain":
        return payload
    if tag == "basis":
        one = domain_one(h.domain)
        if one is None:
            raise DomainMismatchError(
                "bare basis token needs a coefficient identity")
        return _scale(h, one, v)
    if h.kind == "formal-sum":
        key = h.spec.basis.identity
        if key is None:
            raise DomainMismatchError(
                "bare coefficient needs an identity basis element")
        return _scale(h, payload, ("basis", key))
    if domain_one(h.domain) is None:
        raise DomainMismatchError(
            "bare coefficient needs a multiplicative identity to make "
            "a matrix")
    from .matrices import identity_matrix

    return _scale(h, payload, ("elem", identity_matrix(h.domain, h.shape)))


def _eval(h, node):
    kind = node[0]
    if kind == "interval":
        return ("coeff", parse_element(h.domain, node[1]))
    if kind == "symbol":
        return _eval_symbol(h, node[1])
    if kind == "matrix":
        return _eval_matrix(h, node)
    if kind == "add":
        vals = [_eval(h, t) for t in node[1]]
        acc = vals[0]
        for v in vals[1:]:
            acc = _combine_add(h, acc, v)
        return acc
    if kind == "mul":
        return _combine_mul(h, _eval(h, node[1]), _eval(h, node[2]))
    raise SpecError(f"unknown expression node {kind!r}")


def _eval_symbol(h, text):
    if h.kind == "formal-sum":
        from .formalsums import resolve_basis_token

        try:
            return ("basis", resolve_basis_token(h.spec, text))
        except SpecError:
            pass
    try:
        return ("coeff", parse_element(h.domain, text))
    except (SpecError, DomainMismatchError):
        raise DomainMismatchError(
            f"unknown symbol {text!r} for this structure") from None


def _eval_matrix(h, node):
    if h.kind != "matrix":
        raise DomainMismatchError("matrix literal outside a matrix structure")
    from .matrices import matrix_from_rows

    d = h.domain
    items = node[1]
    if items and isinstance(items[0], tuple):
        rows = [[parse_element(d, t) for t in r] for r in items]
    else:
        rows = [[parse_element(d, t) for t in items]]
    m = matrix_from_rows(d, rows)
    if m.shape != h.shape:
        mk, n = h.shape
        raise DomainMismatchError(
            f"expected a {mk} matrix with n={n}, got {m.shape[0]} n={m.n}")
    return ("elem", m)


def _combine_add(h, a, b):
    # a formal sum lifts coefficients as soon as it adds them; elsewhere a
    # sum of coefficients stays one
    if a[0] == b[0] == "coeff" and h.kind != "formal-sum":
        return ("coeff", dom_add(a[1], b[1]))
    return ("elem", h.add(_lift(h, a), _lift(h, b)))


def _combine_mul(h, a, b):
    if a[0] == b[0] == "coeff":
        return ("coeff", dom_mul(a[1], b[1]))
    if a[0] == "coeff":
        return ("elem", _scale(h, a[1], b))
    if b[0] == "coeff":
        return ("elem", _scale(h, b[1], a))
    return ("elem", h.mul(_lift(h, a), _lift(h, b)))


def eval_expression(h, text):
    """Parse and evaluate text to an element of the handle's semiring."""
    return _lift(h, _eval(h, parse_expression(text)))


def eval_pair(h, lhs, rhs, op):
    """Evaluate two expressions and combine them with add or mul."""
    va = _eval(h, parse_expression(lhs))
    vb = _eval(h, parse_expression(rhs))
    if op == "add":
        return _lift(h, _combine_add(h, va, vb))
    if op == "mul":
        return _lift(h, _combine_mul(h, va, vb))
    raise SpecError(f"unknown operation {op!r}")


def parse_formal_sum(spec, text):
    """Parse text as an element of the formal-sum semiring over spec."""
    return eval_expression(SemiringHandle.for_formal_sums(spec), text)
