"""The paper's concrete workloads.

* Example 1 (§1): a batch of three TPC-H summary queries (Q1-Q3) — the
  Table 1 / Figure 6 experiment.
* Q4 (§6.2): the fourth query joining ``part``, turning the optimal answer
  into stacked CSEs — the Table 2 experiment.
* The nested query of §6.3 (TPC-H Q11-like) — the Table 3 / Figure 7
  experiment.

The SQL matches the paper's text up to its obvious typos (the paper's
``n.regionkey``/``c_nationkey`` mix-ups in Example 1 are resolved the way
its own E5 rewrite resolves them: Q1/Q2 filter and group on
``c_nationkey``, Q3 joins ``nation`` and groups on ``n_regionkey``).
"""

from __future__ import annotations

from typing import List

from ..storage.database import Database
from ..views.materialized import ViewManager

Q1_SQL = """
select c_nationkey, c_mktsegment,
       sum(l_extendedprice) as le, sum(l_quantity) as lq
from customer, orders, lineitem
where c_custkey = o_custkey and o_orderkey = l_orderkey
  and o_orderdate < '1996-07-01'
  and c_nationkey > 0 and c_nationkey < 20
group by c_nationkey, c_mktsegment
"""

Q2_SQL = """
select c_nationkey,
       sum(l_extendedprice) as le, sum(l_quantity) as lq
from customer, orders, lineitem
where c_custkey = o_custkey and o_orderkey = l_orderkey
  and o_orderdate < '1996-07-01'
  and c_nationkey > 5 and c_nationkey < 25
group by c_nationkey
"""

Q3_SQL = """
select n_regionkey,
       sum(l_extendedprice) as le, sum(l_quantity) as lq
from customer, orders, lineitem, nation
where c_custkey = o_custkey and o_orderkey = l_orderkey
  and c_nationkey = n_nationkey
  and o_orderdate < '1996-07-01'
  and c_nationkey > 2 and c_nationkey < 24
group by n_regionkey
"""

#: §6.2's additional query. The paper selects ``p_availqty`` from ``part``;
#: our TPC-H generator includes that column (see repro.catalog.tpch).
Q4_SQL = """
select p_type, sum(p_availqty) as qty
from part, orders, lineitem
where p_partkey = l_partkey and o_orderkey = l_orderkey
  and o_orderdate < '1996-07-01'
group by p_type
"""

EXAMPLE1_QUERIES: List[str] = [Q1_SQL, Q2_SQL, Q3_SQL]

EXAMPLE1_BATCH_SQL = ";\n".join(q.strip() for q in EXAMPLE1_QUERIES)

#: §6.3's nested query (TPC-H Q11-like): the main block and the scalar
#: subquery both join customer ⋈ orders ⋈ lineitem.
NESTED_QUERY_SQL = """
select c_nationkey, n_name, sum(l_discount) as totaldisc
from customer, orders, lineitem, nation
where c_custkey = o_custkey and o_orderkey = l_orderkey
  and c_nationkey = n_nationkey
group by c_nationkey, n_name
having sum(l_discount) > (
    select sum(l_discount) / 25
    from customer, orders, lineitem
    where c_custkey = o_custkey and o_orderkey = l_orderkey
)
order by totaldisc desc
"""


def example1_batch() -> str:
    """The Table 1 batch (Q1, Q2, Q3)."""
    return EXAMPLE1_BATCH_SQL


def example1_with_q4() -> str:
    """The Table 2 batch (Q1, Q2, Q3, Q4)."""
    return ";\n".join(q.strip() for q in EXAMPLE1_QUERIES + [Q4_SQL])


def nested_query() -> str:
    """The Table 3 nested query."""
    return NESTED_QUERY_SQL.strip()


def example1_views(database: Database) -> ViewManager:
    """The §6.4 fixture: Q1-Q3 as materialized views ``mv1``-``mv3`` over
    ``database``, refreshed."""
    manager = ViewManager(database)
    for number, sql in enumerate(EXAMPLE1_QUERIES, 1):
        manager.create_view(f"mv{number}", sql)
    manager.refresh_all()
    return manager
