"""The logical form: SPJG query blocks (§4.1) and the extended queries
built around them.

``blocks`` holds the bound form; ``decorrelate`` splits outer joins and
EXISTS / IN subqueries into keys and local filters and assembles an
extended query; ``simplify`` folds provably reducible outer joins back into
the core block through the same assembler.
"""

from .blocks import OutputColumn, QueryBlock, BoundQuery, BoundBatch

__all__ = [
    "OutputColumn",
    "QueryBlock",
    "BoundQuery",
    "BoundBatch",
]
