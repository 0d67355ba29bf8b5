"""In-memory column-oriented storage engine."""

from .table import Table
from .index import RangeIndex
from .database import Database

__all__ = ["Table", "RangeIndex", "Database"]
