"""Keep python objects out of the executor for good.

STRING columns are ``int64`` codes into ``repro.types.string_pool`` from the
scan to the result (NULL = NaN in a float-widened column), so every array an
operator hands to the next is a numeric numpy array and no kernel runs the
interpreter once per row. Two guards: every operator output frame of
representative batches is checked at run time, and the executor / evaluator
sources may not mention object arrays at all.
"""

from __future__ import annotations

import re
from pathlib import Path

import pytest

import repro
from repro import OptimizerOptions, Session
from repro.executor import executor as executor_module
from repro.executor import iterators
from repro.workloads import adapted_batch, scaleup_batch

from .test_explain_golden import WIDENED_BATCH

#: a left outer join whose NULL-extended STRING column is output, filtered
#: on (IS-NULL-rejecting residual aside) and sorted by.
LEFT_OUTER_STRINGS = (
    "select n_name, c_mktsegment, c_name "
    "from nation left join customer on n_nationkey = c_nationkey "
    "and c_acctbal > 9000 and c_mktsegment >= 'BUILDING' "
    "order by c_mktsegment desc, n_name"
)

BATCHES = {
    "fig8": scaleup_batch(10),
    "tpch": adapted_batch(),
    "widened": WIDENED_BATCH,
    "left_outer_strings": LEFT_OUTER_STRINGS,
}


@pytest.mark.parametrize("name", sorted(BATCHES))
def test_every_operator_frame_is_numeric(name, small_db, monkeypatch):
    real = iterators.execute_node
    seen = []

    def checked(plan, ctx, charge_output=True):
        frame = real(plan, ctx, charge_output)
        seen.append(type(plan).__name__)
        for expr, column in frame.items():
            assert column.dtype.kind in "biuf", (
                f"{type(plan).__name__} produced {column.dtype} for {expr!r}"
            )
        return frame

    # Recursive calls resolve the module global; the runner holds its own.
    monkeypatch.setattr(iterators, "execute_node", checked)
    monkeypatch.setattr(executor_module, "execute_node", checked)
    outcome = Session(small_db, OptimizerOptions()).execute(BATCHES[name])
    assert all(result.rows for result in outcome.execution.results)
    assert seen, "the wrapper never ran"
    if name == "left_outer_strings":
        segments = [row[1] for row in outcome.execution.results[0].rows]
        assert None in segments and any(type(s) is str for s in segments)


def test_executor_and_evaluator_sources_name_no_object_arrays():
    root = Path(repro.__file__).parent
    banned = re.compile(r'np\.object_|dtype=object|kind == "O"')
    offenders = [
        f"{path.relative_to(root)}:{number}: {line.strip()}"
        for package in ("executor", "expr")
        for path in sorted((root / package).rglob("*.py"))
        for number, line in enumerate(path.read_text().splitlines(), 1)
        if banned.search(line)
    ]
    assert offenders == []
