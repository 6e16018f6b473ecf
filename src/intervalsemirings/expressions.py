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
# Values carry a tag: ("coeff", element), ("basis", key), ("sum", FormalSum),
# ("matrix", IntervalMatrix).  Tags exist so coefficient*token products work
# in identity-less domains and bare coefficients promote lazily.


def _identity_key(spec):
    from .formalsums import PolyBasis

    b = spec.basis
    if isinstance(b, PolyBasis):
        return 0
    return b.identity


def _to_sum(h, v):
    from .formalsums import fs_term

    spec = h.spec
    tag, payload = v
    if tag == "sum":
        return payload
    if tag == "coeff":
        key = _identity_key(spec)
        if key is None:
            raise DomainMismatchError(
                "bare coefficient needs an identity basis element")
        return fs_term(spec, key, payload)
    if tag == "basis":
        one = domain_one(h.domain)
        if one is None:
            raise DomainMismatchError(
                "bare basis token needs a coefficient identity")
        return fs_term(spec, payload, one)
    raise DomainMismatchError("matrix value in a formal-sum context")


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
    return ("matrix", m)


def _combine_add(h, a, b):
    if h.kind == "formal-sum":
        return ("sum", h.add(_to_sum(h, a), _to_sum(h, b)))
    if a[0] == "coeff" and b[0] == "coeff":
        return ("coeff", dom_add(a[1], b[1]))
    if h.kind == "matrix":
        return ("matrix", h.add(_to_matrix(h, a), _to_matrix(h, b)))
    raise DomainMismatchError("cannot add these values in this structure")


def _combine_mul(h, a, b):
    if h.kind == "formal-sum":
        from .formalsums import fs_scale, fs_term

        ta, tb = a[0], b[0]
        if ta == "coeff" and tb == "coeff":
            return ("coeff", dom_mul(a[1], b[1]))
        if ta == "coeff" and tb == "basis":
            return ("sum", fs_term(h.spec, b[1], a[1]))
        if ta == "basis" and tb == "coeff":
            return ("sum", fs_term(h.spec, a[1], b[1]))
        if ta == "coeff":
            return ("sum", fs_scale(a[1], _to_sum(h, b)))
        if tb == "coeff":
            return ("sum", fs_scale(b[1], _to_sum(h, a)))
        return ("sum", h.mul(_to_sum(h, a), _to_sum(h, b)))
    if a[0] == "coeff" and b[0] == "coeff":
        return ("coeff", dom_mul(a[1], b[1]))
    if h.kind == "matrix":
        from .matrices import scale_matrix

        if a[0] == "coeff":
            return ("matrix", scale_matrix(a[1], _to_matrix(h, b)))
        if b[0] == "coeff":
            return ("matrix", scale_matrix(b[1], _to_matrix(h, a)))
        return ("matrix", h.mul(_to_matrix(h, a), _to_matrix(h, b)))
    raise DomainMismatchError("cannot multiply these values in this structure")


def _to_matrix(h, v):
    if v[0] == "matrix":
        return v[1]
    if v[0] == "coeff":
        from .matrices import identity_matrix, scale_matrix

        if domain_one(h.domain) is None:
            raise DomainMismatchError(
                "bare coefficient needs a multiplicative identity to make "
                "a matrix")
        return scale_matrix(v[1], identity_matrix(h.domain, h.shape))
    raise DomainMismatchError("expected a matrix value")


def _finalize(h, v):
    if h.kind == "domain":
        if v[0] != "coeff":
            raise DomainMismatchError("expected a plain interval value")
        return v[1]
    if h.kind == "formal-sum":
        return _to_sum(h, v)
    return _to_matrix(h, v)


def eval_expression(h, text):
    """Parse and evaluate text to an element of the handle's semiring."""
    return _finalize(h, _eval(h, parse_expression(text)))


def eval_pair(h, lhs, rhs, op):
    """Evaluate two expressions and combine them with add or mul."""
    va = _eval(h, parse_expression(lhs))
    vb = _eval(h, parse_expression(rhs))
    if op == "add":
        return _finalize(h, _combine_add(h, va, vb))
    if op == "mul":
        return _finalize(h, _combine_mul(h, va, vb))
    raise SpecError(f"unknown operation {op!r}")


def parse_formal_sum(spec, text):
    """Parse text as an element of the formal-sum semiring over spec."""
    return eval_expression(SemiringHandle.for_formal_sums(spec), text)
