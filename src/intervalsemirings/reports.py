"""The value classes the analysis returns, and the helpers that build them.

A query answers with an :class:`AnalysisReport` of :class:`Finding` values,
a :class:`Classification` or a :class:`HomReport`.  This module holds them
without the query code and without numpy, so a theorem sweep (``sweeps``)
that runs no query builds its report without loading ``analysis``.
"""

import json

from .errors import Frozen


class Finding(Frozen):
    """One analysis result: a kind tag, rendered witness, raw payload."""

    __slots__ = _fields = ("kind", "witness", "elements")

    def __init__(self, kind: str, witness: tuple, elements: tuple = ()):
        self._fill(kind, witness, elements)

    def to_json(self):
        return {"kind": self.kind, "witness": list(self.witness)}


class AnalysisReport(Frozen):
    """The findings of one query, whether they are complete, and its cost."""

    __slots__ = _fields = ("query", "findings", "exhaustive", "budget_spent")

    def __init__(self, query: str, findings: tuple, exhaustive: bool,
                 budget_spent: dict):
        self._fill(query, findings, exhaustive, budget_spent)

    def to_json(self):
        return {
            "query": self.query,
            "exhaustive": self.exhaustive,
            "findings": [f.to_json() for f in self.findings],
            "budget": dict(self.budget_spent),
        }

    def to_json_str(self):
        return json.dumps(self.to_json())


def _report(query, findings, exhaustive, scanned):
    return AnalysisReport(query=query, findings=tuple(findings),
                          exhaustive=exhaustive,
                          budget_spent={"pairs_scanned": scanned})


def _wit(h, *items):
    return tuple(it if isinstance(it, str) else h.render(it) for it in items)


class Classification(Frozen):
    """Semifield flags, a witness per False flag, and exhaustiveness."""

    __slots__ = _fields = ("strict", "commutative", "has_one",
                           "zero_divisor_free", "semifield", "witnesses",
                           "exhaustive")

    def __init__(self, strict: bool, commutative: bool, has_one: bool,
                 zero_divisor_free: bool, semifield: bool, witnesses: dict,
                 exhaustive: bool):
        self._fill(strict, commutative, has_one, zero_divisor_free, semifield,
                   witnesses, exhaustive)

    def to_json(self):
        return {
            "strict": self.strict,
            "commutative": self.commutative,
            "has_one": self.has_one,
            "zero_divisor_free": self.zero_divisor_free,
            "semifield": self.semifield,
            "witnesses": {k: list(v) for k, v in self.witnesses.items()},
            "exhaustive": self.exhaustive,
        }


class HomReport(Frozen):
    """Verdict, first failing (op, x, y), kernel, and exhaustiveness."""

    __slots__ = _fields = ("ok", "witness", "kernel", "exhaustive")

    def __init__(self, ok: bool, witness: tuple, kernel: tuple,
                 exhaustive: bool):
        self._fill(ok, witness, kernel, exhaustive)
