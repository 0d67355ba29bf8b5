"""Materialized view definitions and storage.

A materialized view is an SPJG query whose result is stored. The
:class:`ViewManager` keeps definitions, materializes their contents (through
an ordinary :class:`~repro.api.Session`) and exposes which views are affected
by an update to a base table.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from ..api import Session
from ..catalog.schema import ColumnSchema, TableSchema
from ..errors import CatalogError
from ..logical.blocks import BoundQuery
from ..sql.binder import Binder
from ..sql.parser import parse_batch
from ..storage.database import Database
from ..storage.table import Table


@dataclass
class MaterializedView:
    """A named, stored SPJG view."""

    name: str
    sql: str
    query: BoundQuery
    #: the stored contents' schema, named like the view (never in the catalog)
    schema: TableSchema
    #: stored rows: a table over ``schema`` (None until first refresh)
    contents: Optional[Table] = None

    @property
    def base_tables(self) -> List[str]:
        """Names of the base tables the view reads."""
        return sorted({t.table for t in self.query.block.tables})

    @property
    def column_names(self) -> List[str]:
        """Output column names, in order."""
        return self.schema.column_names

    def references(self, table_name: str) -> bool:
        """Whether the view reads ``table_name``."""
        return table_name.lower() in (t.lower() for t in self.base_tables)


class ViewManager:
    """Creates, refreshes, and enumerates materialized views."""

    def __init__(self, database: Database) -> None:
        self.database = database
        self._views: Dict[str, MaterializedView] = {}

    def create_view(self, name: str, sql: str) -> MaterializedView:
        """Define (but do not yet materialize) a view from SQL."""
        key = name.lower()
        if key in self._views:
            raise CatalogError(f"materialized view {name!r} already exists")
        statements = parse_batch(sql)
        if len(statements) != 1:
            raise CatalogError("a view is defined by exactly one statement")
        query = Binder(self.database.catalog).bind_statement(statements[0], name)
        schema = TableSchema(name, [
            ColumnSchema(o.name, o.expr.data_type) for o in query.block.output
        ])
        view = MaterializedView(name=name, sql=sql, query=query, schema=schema)
        self._views[key] = view
        return view

    def drop_view(self, name: str) -> None:
        """Remove a view definition and its contents."""
        key = name.lower()
        if key not in self._views:
            raise CatalogError(f"materialized view {name!r} does not exist")
        del self._views[key]

    def view(self, name: str) -> MaterializedView:
        """A view by name."""
        try:
            return self._views[name.lower()]
        except KeyError:
            raise CatalogError(
                f"materialized view {name!r} does not exist"
            ) from None

    def views(self) -> List[MaterializedView]:
        """All registered views."""
        return list(self._views.values())

    def affected_by(self, table_name: str) -> List[MaterializedView]:
        """Views whose definition references ``table_name``."""
        return [v for v in self._views.values() if v.references(table_name)]

    # ------------------------------------------------------------------

    def refresh(self, name: str) -> MaterializedView:
        """(Re)compute one view's contents from scratch."""
        view = self.view(name)
        # A throw-away session, so no plan cache (or its listener) to set up.
        outcome = Session(self.database, plan_cache_size=0).execute(view.query)
        rows = outcome.execution.query(view.name).rows
        contents = Table(view.schema)
        contents.load_rows(rows)
        view.contents = contents
        return view

    def refresh_all(self) -> None:
        """Recompute every view's contents."""
        for view in self._views.values():
            self.refresh(view.name)
