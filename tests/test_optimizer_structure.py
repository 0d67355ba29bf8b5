"""The shape of ``repro.optimizer``: the Figure-1 driver (``engine.py``) over
three modules — search, Step-2 orchestration, root assembly — that share one
explicit run state; Step 3 is one full-set pass. AST and line-count checks,
so the split cannot quietly grow back together, nor a second Step-3
strategy back beside the pass; and the configuration surface — two
``OptimizerOptions`` fields, every ablation switch a module constant read
at call time."""

from __future__ import annotations

import ast
import inspect
import os
import subprocess
import sys
from dataclasses import FrozenInstanceError, fields
from pathlib import Path

import pytest

import repro.optimizer
from repro import OptimizerOptions, Session
from repro.cse import heuristics
from repro.optimizer import memo, search, step2
from repro.optimizer.engine import Optimizer
from repro.optimizer.memo import AggItem, Memo
from repro.workloads import example1_batch, example1_with_q4

PACKAGE = Path(repro.optimizer.__file__).parent
SRC = PACKAGE.parent.parent
MODULES = sorted(path.stem for path in PACKAGE.glob("*.py") if path.stem != "__init__")
SPLIT = ("engine", "search", "step2", "assembly", "state")


def _tree(module: str) -> ast.Module:
    return ast.parse((PACKAGE / f"{module}.py").read_text())


def _sibling_imports(module: str) -> set:
    """Names of ``repro.optimizer`` modules that ``module`` imports."""
    found = set()
    for node in ast.walk(_tree(module)):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module:
                found.add(node.module.split(".")[0])
            else:  # from . import step2
                found.update(alias.name for alias in node.names)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [node.module or ""] if isinstance(node, ast.ImportFrom) else [
                alias.name for alias in node.names
            ]
            for name in names:
                if name.startswith("repro.optimizer."):
                    found.add(name.split(".")[2])
    return found


def test_optimizer_assigns_attributes_only_in_init():
    """Per-run state lives in ``OptimizerRun``, not on the ``Optimizer``."""
    (optimizer,) = [
        node for node in _tree("engine").body
        if isinstance(node, ast.ClassDef) and node.name == "Optimizer"
    ]
    offenders = []
    for method in optimizer.body:
        if not isinstance(method, ast.FunctionDef) or method.name == "__init__":
            continue
        for node in ast.walk(method):
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                targets = [node.target]
            else:
                continue
            for target in targets:
                for leaf in ast.walk(target):
                    if (
                        isinstance(leaf, ast.Attribute)
                        and isinstance(leaf.value, ast.Name)
                        and leaf.value.id == "self"
                    ):
                        offenders.append(f"{method.name}: self.{leaf.attr}")
    assert offenders == []


def test_module_sizes():
    lines = {
        module: len((PACKAGE / f"{module}.py").read_text().splitlines())
        for module in MODULES
    }
    assert set(SPLIT) <= set(lines)
    assert lines["engine"] <= 600
    assert lines["memo"] <= 960
    oversized = {
        module: count for module, count in lines.items()
        if module != "memo" and count > 700
    }
    assert oversized == {}


def test_layering():
    """The search knows nothing of who drives it or what is assembled from
    it."""
    assert not _sibling_imports("search") & {"engine", "assembly", "step2"}
    assert not _sibling_imports("state") & set(SPLIT)
    assert "engine" not in _sibling_imports("step2") | _sibling_imports("assembly")


def test_explain_reads_recorded_costs():
    """EXPLAIN renders the ``est_cost`` the search recorded on each node; it
    has no cost model to re-derive a price with."""
    assert "cost" not in _sibling_imports("explain")
    assert len((PACKAGE / "explain.py").read_text().splitlines()) <= 230


def test_root_settles_by_the_lca_rule():
    """The batch root settles its candidates with §5.2's rule inside the
    fold, like every inner LCA; no second mechanism (an activation-subset
    search, a greedy fallback) grows back beside it."""
    assert len((PACKAGE / "assembly.py").read_text().splitlines()) <= 260
    defined = {
        node.name for node in ast.walk(_tree("assembly"))
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
    }
    assert not defined & {"_resolve_root_subset", "_resolve_root_greedy", "_settled"}


def test_key_facts_module():
    """Key facts are one small bitmask module: it reads expressions only, so
    the memo, the estimator's callers and §4.2 construction can share it
    without the executor."""
    assert len((PACKAGE / "keys.py").read_text().splitlines()) <= 170
    imported = set(_absolute_imports(PACKAGE / "keys.py", "repro.optimizer"))
    assert {name for name in imported if name.startswith("repro.")} == {
        "repro.expr.expressions"
    }
    assert "keys" in _sibling_imports("memo")


@pytest.mark.parametrize("module", MODULES)
def test_module_imports_in_a_fresh_interpreter(module):
    """Import order cannot hide a cycle from a fresh interpreter."""
    done = subprocess.run(
        [sys.executable, "-c", f"import repro.optimizer.{module}"],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr


@pytest.mark.parametrize("module", SPLIT + ("memo", "cardinality"))
def test_no_function_local_imports(module):
    local = [
        f"{function.name}:{node.lineno}"
        for function in ast.walk(_tree(module))
        if isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef))
        for node in ast.walk(function)
        if isinstance(node, (ast.Import, ast.ImportFrom))
    ]
    assert local == []
    if module == "search":
        assert "aggs" in _sibling_imports("search")


# -- the configuration surface ------------------------------------------------

#: ablation switches and paper constants: module constants in the one module
#: that decides with them, read at call time (never copied by import).
CONSTANTS = {
    "PREAGG": "optimizer/memo.py",
    "DYNAMIC_LCA": "optimizer/step2.py",
    "STACKED": "optimizer/step2.py",
    "NAIVE_COST_SPLIT": "optimizer/search.py",
    "ALPHA": "cse/heuristics.py",
    "BETA": "cse/heuristics.py",
}


def test_optimizer_options_fields():
    assert [f.name for f in fields(OptimizerOptions)] == [
        "enable_cse", "enable_heuristics",
    ]
    assert len(CONSTANTS) == 6


#: the Step-3 strategies, their knobs and the caches only a second pass
#: read; none may come back under ``src/``.
STEP3_REMOVED = (
    "SubsetEnumerator", "competing", "greedy_select", "select_strategy",
    "GREEDY_THRESHOLD", "cse_strategy", "max_cse_optimizations",
    "REUSE_HISTORY", "fold_cache", "finalize_cache", "settlements",
    "enabled_ids", "_cap_planset",
)


def test_one_step3_strategy():
    assert not (PACKAGE / "selection.py").exists()
    found = [
        f"{path.relative_to(SRC)}: {name}"
        for path in sorted((SRC / "repro").rglob("*.py"))
        for name in _identifiers(path) & set(STEP3_REMOVED)
    ]
    assert found == []


#: what the multi-pass §5.4 history, the memo's footprint cache and the
#: string-list prune record left behind.
HISTORY_REMOVED = (
    "History",
    "cache_pass",
    "pass_index",
    "begin_pass",
    "relevant_ids",
    "_footprint_cache",
    "PruneTrace",
)


def test_history_is_two_gid_tables():
    """§5.4 reuse is the run's two gid-keyed plan-set tables: no history
    object, per-pass bookkeeping, memo footprint cache, string-list prune
    record or per-pass histogram comes back."""
    sources = sorted((SRC / "repro").rglob("*.py"))
    found = [
        f"{path.relative_to(SRC)}: {name}"
        for path in sources
        for name in _identifiers(path) & set(HISTORY_REMOVED)
    ]
    found += [
        f"{path.relative_to(SRC)}: optimizer.history.pass_seconds"
        for path in sources
        if "optimizer.history.pass_seconds" in path.read_text()
    ]
    assert found == []


def _identifiers(path: Path) -> set:
    """Every name ``path`` defines, binds, reads or passes as a keyword."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.arg, ast.keyword)) and node.arg:
            names.add(node.arg)
        elif isinstance(node, ast.alias):
            names.add(node.asname or node.name)
    return names


def test_optimizer_options_frozen():
    with pytest.raises(FrozenInstanceError):
        OptimizerOptions().enable_cse = False


def test_memo_takes_no_options():
    assert list(inspect.signature(Memo.__init__).parameters) == ["self", "estimator"]


def test_constants_are_never_imported_by_name():
    """``from .memo import PREAGG`` would freeze a copy that a monkeypatch
    of the owning module cannot reach."""
    root = SRC / "repro"
    for name, owner in CONSTANTS.items():
        assert f"\n{name} = " in (root / owner).read_text()
    copies = [
        f"{path.relative_to(SRC)}:{node.lineno} {alias.name}"
        for path in sorted(root.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
        if alias.name in CONSTANTS
    ]
    assert copies == []


def _optimize(db, sql):
    return Optimizer(db).optimize_with_run(Session(db).bind(sql))


class TestConstantsReadAtCallTime:
    """Flipping each constant after import changes an observable result."""

    def test_preagg(self, small_db, monkeypatch):
        def preaggregated_items():
            _, run = _optimize(small_db, example1_batch())
            return [
                item for group in run.memo.groups for item in group.items
                if isinstance(item, AggItem)
            ]

        assert preaggregated_items()
        monkeypatch.setattr(memo, "PREAGG", False)
        assert preaggregated_items() == []

    def test_dynamic_lca(self, small_db, monkeypatch):
        # Refuse every match but a candidate's first: only then does the
        # matched consumer set differ from the constructed one.
        match = step2.match_constructed
        monkeypatch.setattr(
            step2, "match_constructed", lambda d: match(d)[:1]
        )

        def settles_at_root():
            result, run = _optimize(small_db, example1_batch())
            return {c.lca_gid == run.root.gid for c in result.candidates}

        assert settles_at_root() == {False}
        monkeypatch.setattr(step2, "DYNAMIC_LCA", False)
        assert settles_at_root() == {True}

    def test_stacked(self, small_db, monkeypatch):
        def body_consumers():
            _, run = _optimize(small_db, example1_with_q4())
            return sum(len(specs) for specs in run.body_specs.values())

        assert body_consumers() > 0
        monkeypatch.setattr(step2, "STACKED", False)
        assert body_consumers() == 0

    def test_naive_cost_split(self, small_db, monkeypatch):
        correct = _optimize(small_db, example1_with_q4())[0].est_cost
        monkeypatch.setattr(search, "NAIVE_COST_SPLIT", True)
        naive = _optimize(small_db, example1_with_q4())[0].est_cost
        # Splitting C_E + C_W over potential consumers under-prices sharing.
        assert naive < correct

    def test_alpha(self, small_db, monkeypatch):
        def before_pruning():
            result, _ = _optimize(small_db, example1_batch())
            return result.stats.candidates_before_pruning

        assert before_pruning() == 5
        monkeypatch.setattr(heuristics, "ALPHA", 1.0)
        assert before_pruning() == 1

    def test_beta(self, small_db, monkeypatch):
        def generated():
            result, _ = _optimize(small_db, example1_batch())
            return result.stats.candidates_generated

        assert generated() == 1
        monkeypatch.setattr(heuristics, "BETA", 1e12)
        assert generated() == 5


# -- the binder and the logical layer -----------------------------------------

REPRO = SRC / "repro"


def _absolute_imports(path: Path, package: str):
    """Every module ``path`` (inside ``package``) imports, as a dotted name."""
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            parts = package.split(".")
            base = ".".join(parts[: len(parts) - node.level + 1]) if node.level else ""
            module = ".".join(p for p in (base, node.module or "") if p)
            if node.module:
                yield module
            else:
                yield from (f"{module}.{alias.name}" for alias in node.names)


def test_binder_size():
    assert len((REPRO / "sql" / "binder.py").read_text().splitlines()) <= 900


def test_logical_does_not_import_sql():
    """Only bound expressions and table instances cross into ``logical/``."""
    offenders = [
        f"{path.name}: {name}"
        for path in sorted((REPRO / "logical").glob("*.py"))
        for name in _absolute_imports(path, "repro.logical")
        if name == "repro.sql" or name.startswith("repro.sql.")
    ]
    assert offenders == []


def test_extended_queries_are_assembled_only_in_logical():
    sites = []
    for path in sorted(REPRO.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            called = getattr(func, "id", None) or getattr(func, "attr", None)
            if called in ("JoinExtension", "QueryShape"):
                sites.append(f"{path.relative_to(REPRO).as_posix()}:{node.lineno}")
    assert sites
    assert [site for site in sites if not site.startswith("logical/")] == []


# -- one event stream ---------------------------------------------------------


def test_session_init_parameters():
    """``Session.__init__`` only shrinks (13 parameters before the decision
    journal became trace events, 12 before budgets became per call)."""
    parameters = list(inspect.signature(Session.__init__).parameters)
    assert parameters[0] == "self" and len(parameters) - 1 <= 11


def test_no_journal_parameter():
    """Optimizer decisions are trace events: no function takes a journal."""
    offenders = [
        f"{path.relative_to(REPRO).as_posix()}:{node.lineno} {node.name}"
        for path in sorted(REPRO.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and "journal" in {
            arg.arg
            for arg in node.args.posonlyargs + node.args.args + node.args.kwonlyargs
        }
    ]
    assert offenders == []


#: builtins that walk their argument.
_ITERATING = {
    "list", "tuple", "set", "sorted", "reversed", "sum", "any", "all",
    "enumerate", "filter", "map", "zip", "iter", "max", "min",
}


def _stream_reads(tree: ast.AST):
    """Line numbers where ``tree`` iterates or indexes ``….tracer.events``."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.For, ast.AsyncFor, ast.comprehension)):
            read = [node.iter]
        elif isinstance(node, ast.Call) and getattr(node.func, "id", None) in _ITERATING:
            read = node.args
        elif isinstance(node, ast.Subscript):
            read = [node.value]
        else:
            continue
        for value in read:
            if isinstance(value, ast.Attribute) and value.attr == "events":
                owner = value.value
                name = getattr(owner, "id", None) or getattr(owner, "attr", "")
                if name.endswith("tracer"):
                    yield getattr(node, "lineno", value.lineno)


def test_only_obs_reads_the_trace_stream():
    """Outside ``repro.obs`` the tracer's stream is only appended to and
    handed to the pure functions there (``render_why``), so the engine can
    never build a decision from its own telemetry."""
    sample = "for e in self.tracer.events: pass\nn = sum(1 for e in tracer.events)"
    assert list(_stream_reads(ast.parse(sample))) == [1, 2]
    offenders = [
        f"{path.relative_to(REPRO).as_posix()}:{line}"
        for path in sorted(REPRO.rglob("*.py"))
        if path.parent.name != "obs"
        for line in _stream_reads(ast.parse(path.read_text()))
    ]
    assert offenders == []


def test_ledger_is_one_record():
    """The sharing ledger is one plain record built by ``build_ledger``
    and read by every surface: no entry class or second builder comes
    back, and ``obs/ledger.py`` stays at most 300 lines."""
    import repro.obs

    source = (REPRO / "obs" / "ledger.py").read_text()
    classes = [
        node.name for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ClassDef)
    ]
    assert classes == []
    assert len(source.splitlines()) <= 300
    gone = {"SharingLedger", "SpoolLedgerEntry", "ScanLedgerEntry", "estimated_ledger"}
    assert gone.isdisjoint(set(repro.obs.__all__) | set(vars(repro.obs)))


# -- one table class ----------------------------------------------------------


def test_one_table_class():
    """Spool results and stored view contents are ``Table``s whose schema
    is never added to the catalog: no ``WorkTable`` comes back under
    ``src/``, and ``repro/storage/`` defines one table class — a class
    named like a table or holding columns behind ``stored_column``."""
    mentions = [
        f"{path.relative_to(SRC).as_posix()}"
        for path in sorted(REPRO.rglob("*.py"))
        if "WorkTable" in path.read_text()
    ]
    assert mentions == []
    tables = [
        f"{path.name}: {node.name}"
        for path in sorted((REPRO / "storage").glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.ClassDef)
        and (
            "Table" in node.name
            or any(
                isinstance(item, ast.FunctionDef) and item.name == "stored_column"
                for item in node.body
            )
        )
    ]
    assert tables == ["table.py: Table"]


def _methods_reached(cls: ast.ClassDef, name: str) -> dict:
    """``name`` and every ``self.<method>`` of ``cls`` it calls, transitively."""
    methods = {
        item.name: item for item in cls.body if isinstance(item, ast.FunctionDef)
    }
    reached, pending = {}, [name]
    while pending:
        method = methods[pending.pop()]
        reached[method.name] = method
        for node in ast.walk(method):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id == "self"
                and node.func.attr in methods
                and node.func.attr not in reached
            ):
                pending.append(node.func.attr)
    return reached


def test_insert_refreshes_statistics():
    """``Database.insert`` refreshes the written table's statistics rather
    than dropping them, and re-keys no plan: neither it nor a method it
    calls pops ``_stats`` or touches ``catalog.version``."""
    tree = ast.parse((REPRO / "storage" / "database.py").read_text())
    database = next(
        node for node in tree.body
        if isinstance(node, ast.ClassDef) and node.name == "Database"
    )
    reached = _methods_reached(database, "insert")
    assert "_refresh_statistics" in reached
    offences = []
    for name, method in reached.items():
        for node in ast.walk(method):
            if (
                isinstance(node, ast.Attribute)
                and node.attr == "version"
                and isinstance(node.value, ast.Attribute)
                and node.value.attr == "catalog"
            ):
                offences.append(f"{name}: catalog.version")
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in ("pop", "clear", "popitem")
                and isinstance(node.func.value, ast.Attribute)
                and node.func.value.attr == "_stats"
            ):
                offences.append(f"{name}: _stats.{node.func.attr}")
            if isinstance(node, ast.Delete) and "_stats" in ast.dump(node):
                offences.append(f"{name}: del _stats[...]")
    assert offences == []
