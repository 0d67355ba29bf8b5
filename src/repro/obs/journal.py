"""Optimizer decision journal: why each CSE candidate lived or died.

The paper's optimizer makes its interesting decisions in places EXPLAIN
never shows: signature buckets that fail Heuristic 1, consumers dropped
by Heuristic 2's upper-bound test, merges rejected because the benefit Δ
went negative (Heuristic 3), containment prunes (Heuristic 4), and
single-consumer plans discarded at their LCA (§5.1). A
:class:`DecisionJournal` records each of those events with the actual
numbers the decision used, keyed by candidate id where one exists, and
renders them as the ``repro explain --why`` report.

Events are plain dicts (``kind`` plus free-form fields) so the journal
stays dependency-free within ``repro`` — the optimizer layers emit, this
module stores and renders. Like the metrics registry, the journal is
reached ambiently (:func:`active_journal` / :func:`use_journal`) because
the emitting call sites are free functions deep in ``cse/``.

Event kinds emitted by the optimizer layers, in lifecycle order:

========================  ====================================================
kind                      meaning / key fields
========================  ====================================================
``bucket``                signature bucket examined: ``signature``, ``groups``,
                          ``sharable`` (≥2 groups with a disjoint pair)
``h1``                    Heuristic 1 test (per bucket, then per compatible
                          set): ``signature``, ``lower_bound_sum``,
                          ``threshold`` (=α·C_Q), ``alpha``, ``passed``
``h2``                    Heuristic 2 consumer test: ``consumer`` (gid label),
                          ``upper``, ``keep_cost`` (=C_R+(upper+C_W)/N),
                          ``dropped``
``h3``                    Heuristic 3 / Algorithm 1 merge step: ``members``
                          (consumer gid labels), ``delta`` (separate −
                          merged), ``merged``, ``probed`` (merges evaluated
                          to choose this step)
``candidate``             candidate generated: ``cse_id``, ``signature``,
                          ``consumers`` (gid labels), ``est_rows``
``generation``            Step-2 work done: ``consumer_profiles`` (consumers
                          put into slot space), ``constructions`` (candidates
                          materialised)
``h4``                    Heuristic 4 containment: ``inner``, ``outer``
                          (cse ids), ``inner_bytes``, ``outer_bytes``,
                          ``beta``, ``pruned``
``lca``                   costing + placement: ``cse_id``, ``body_cost``,
                          ``write_cost``, ``read_cost``, ``lca_gid``,
                          ``lifted_to_root``
``single_consumer``       §5.1 LCA discard tally: ``cse_id``, ``discards``
``equiv``                 bag-semantics equivalence checker verdict
                          (``repro.equiv``): ``outcome`` (``proved`` /
                          ``refuted`` / ``gave_up``), ``reason``, plus either
                          ``query``+``extension`` (outer-join reduction) or
                          ``cse_id``+``consumer`` (consumer-match gate)
``history``               §5.4 per-pass reuse accounting: ``pass_index``,
                          ``subset``, ``groups_reused``,
                          ``groups_recomputed``, ``planset_hits``,
                          ``tops_folded``, ``reuse`` (hit ratio),
                          ``seconds``
``strategy``              which Step-3 strategy ran and why: ``strategy``
                          (``paper`` / ``greedy``), ``reason``,
                          ``candidates``
``greedy_pick``           one greedy acceptance (cs/9910021): ``cse_id``,
                          ``benefit``, ``cost``, ``rank``, ``evaluations``
``verdict``               final outcome: ``cse_id``, ``kept``, ``reason``
========================  ====================================================
"""

from __future__ import annotations

import json
import threading
from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Optional


class DecisionJournal:
    """Thread-safe, append-only record of optimizer sharing decisions."""

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self._lock = threading.Lock()
        self._events: List[Dict[str, Any]] = []

    # -- write path --------------------------------------------------------

    def event(self, kind: str, **fields: Any) -> None:
        """Append one event (no-op when disabled)."""
        if not self.enabled:
            return
        entry: Dict[str, Any] = {"kind": kind}
        entry.update(fields)
        with self._lock:
            self._events.append(entry)

    def clear(self) -> None:
        """Drop all recorded events."""
        with self._lock:
            self._events.clear()

    # -- read path ---------------------------------------------------------

    def events(self, kind: Optional[str] = None) -> List[Dict[str, Any]]:
        """All events, or only those of one ``kind``, in emission order."""
        with self._lock:
            snapshot = list(self._events)
        if kind is None:
            return snapshot
        return [entry for entry in snapshot if entry["kind"] == kind]

    def for_candidate(self, cse_id: str) -> List[Dict[str, Any]]:
        """Every event mentioning candidate ``cse_id``."""
        return [
            entry
            for entry in self.events()
            if entry.get("cse_id") == cse_id
            or cse_id in (entry.get("inner"), entry.get("outer"))
        ]

    def verdicts(self) -> Dict[str, Dict[str, Any]]:
        """Final ``verdict`` event per candidate id."""
        return {
            entry["cse_id"]: entry for entry in self.events("verdict")
        }

    def to_jsonl(self) -> str:
        """All events as JSONL text."""
        return "".join(
            json.dumps(entry, sort_keys=True, default=str) + "\n"
            for entry in self.events()
        )

    def __len__(self) -> int:
        with self._lock:
            return len(self._events)

    # -- rendering (``repro explain --why``) -------------------------------

    def render_why(self) -> str:
        """The journal as a human-readable report.

        Layout: pre-candidate events first (signature buckets, H1 set
        tests, H2 consumer drops, Algorithm 1 merge steps — where
        expressions die before getting an id), then one block per
        generated candidate with its lifecycle and final verdict."""
        lines: List[str] = ["Optimizer decision journal"]

        stage_lines = []
        for entry in self.events("bucket"):
            status = "sharable" if entry.get("sharable") else "not sharable"
            stage_lines.append(
                f"  bucket {entry.get('signature')}: "
                f"{entry.get('groups')} group(s), {status}"
            )
        for entry in self.events("h1"):
            outcome = "passed" if entry.get("passed") else "FAILED"
            stage_lines.append(
                f"  H1 {entry.get('signature')}: "
                f"Σ lower bounds {entry.get('lower_bound_sum', 0.0):.1f} vs "
                f"α·C_Q {entry.get('threshold', 0.0):.1f} "
                f"(α={entry.get('alpha')}) → {outcome}"
            )
        for entry in self.events("h2"):
            action = "DROPPED" if entry.get("dropped") else "kept"
            stage_lines.append(
                f"  H2 consumer {entry.get('consumer')}: upper "
                f"{entry.get('upper', 0.0):.1f} vs keep-cost "
                f"{entry.get('keep_cost', 0.0):.1f} → {action}"
            )
        for entry in self.events("h3"):
            action = "merged" if entry.get("merged") else "no merge"
            members = ", ".join(entry.get("members") or ())
            stage_lines.append(
                f"  H3 merge [{members}]: Δ={entry.get('delta', 0.0):.1f} "
                f"→ {action}"
            )
        if stage_lines:
            generation = self.events("generation")
            lines.append(
                "candidate generation: "
                f"{sum(e.get('consumer_profiles', 0) for e in generation)} "
                "consumer profile(s), "
                f"{sum(e.get('probed', 0) for e in self.events('h3'))} "
                "merge probe(s), "
                f"{sum(e.get('constructions', 0) for e in generation)} "
                "construction(s)"
            )
            lines.extend(stage_lines)

        equiv_lines = []
        for entry in self.events("equiv"):
            if entry.get("cse_id") is not None:
                continue  # consumer-match checks render under their candidate
            equiv_lines.append(
                f"  {entry.get('query')}/{entry.get('extension')} "
                f"outer-join reduction: {entry.get('outcome')} — "
                f"{entry.get('reason')}"
            )
        if equiv_lines:
            lines.append("equivalence checker (outer-join simplification):")
            lines.extend(equiv_lines)

        for entry in self.events("strategy"):
            lines.append(
                f"step-3 strategy: {entry.get('strategy')} over "
                f"{entry.get('candidates')} candidate(s) — "
                f"{entry.get('reason')}"
            )
        picks = self.events("greedy_pick")
        if picks:
            lines.append("greedy selection (benefit-ordered, cs/9910021):")
            for entry in picks:
                lines.append(
                    f"  pick #{entry.get('rank')}: {entry.get('cse_id')} "
                    f"benefit {entry.get('benefit', 0.0):.1f} → plan cost "
                    f"{entry.get('cost', 0.0):.1f} "
                    f"({entry.get('evaluations')} pass(es) spent)"
                )

        history = self.events("history")
        if history:
            lines.append("optimization-history reuse (§5.4):")
            total_reused = total_recomputed = 0
            for entry in history:
                subset = ", ".join(entry.get("subset") or ())
                reused = entry.get("groups_reused", 0)
                recomputed = entry.get("groups_recomputed", 0)
                total_reused += reused
                total_recomputed += recomputed
                lines.append(
                    f"  pass {entry.get('pass_index')} [{subset}]: "
                    f"{reused} group(s) reused, {recomputed} recomputed, "
                    f"{entry.get('tops_folded', 0)} top(s) folded from "
                    f"history ({entry.get('seconds', 0.0):.4f}s)"
                )
            visits = total_reused + total_recomputed
            ratio = total_reused / visits if visits else 0.0
            lines.append(
                f"  reuse ratio: {total_reused}/{visits} group results "
                f"({ratio:.0%}) carried over from earlier passes"
            )

        verdicts = self.verdicts()
        candidate_ids = [
            entry["cse_id"] for entry in self.events("candidate")
        ]
        for cse_id in candidate_ids:
            verdict = verdicts.get(cse_id, {})
            kept = verdict.get("kept")
            headline = (
                "KEPT" if kept else f"REJECTED ({verdict.get('reason', '?')})"
            )
            if verdict.get("equiv"):
                headline += f" [equivalence checker: {verdict['equiv']}]"
            lines.append(f"candidate {cse_id}: {headline}")
            for entry in self.for_candidate(cse_id):
                rendered = self._render_event(cse_id, entry)
                if rendered:
                    lines.append(f"  {rendered}")
        if not candidate_ids:
            lines.append("no candidates were generated")
        return "\n".join(lines)

    def _render_event(
        self, cse_id: str, entry: Dict[str, Any]
    ) -> Optional[str]:
        kind = entry["kind"]
        if kind == "candidate":
            consumers = ", ".join(entry.get("consumers") or ())
            return (
                f"generated from {entry.get('signature')} for consumers "
                f"[{consumers}] (est {entry.get('est_rows', 0.0):.0f} rows)"
            )
        if kind == "lca":
            placement = (
                "the batch root"
                if entry.get("lifted_to_root")
                else f"LCA group g{entry.get('lca_gid')}"
            )
            return (
                f"costed: body {entry.get('body_cost', 0.0):.1f} + "
                f"write {entry.get('write_cost', 0.0):.1f} charged once at "
                f"{placement}; read {entry.get('read_cost', 0.0):.1f} "
                f"per consumer"
            )
        if kind == "h4":
            action = "pruned" if entry.get("pruned") else "kept"
            role = "inner" if entry.get("inner") == cse_id else "outer"
            return (
                f"H4 containment {entry.get('inner')} ⊆ "
                f"{entry.get('outer')}: bytes "
                f"{entry.get('inner_bytes', 0.0):.0f} vs β·"
                f"{entry.get('outer_bytes', 0.0):.0f} "
                f"(β={entry.get('beta')}) → {entry.get('inner')} {action} "
                f"[this candidate is the {role}]"
            )
        if kind == "single_consumer":
            return (
                f"§5.1 LCA rule: single-consumer plans discarded "
                f"{entry.get('discards')}× during enumeration"
            )
        if kind == "equiv":
            return (
                f"equivalence check for consumer {entry.get('consumer')}: "
                f"{entry.get('outcome')} — {entry.get('reason')}"
            )
        if kind == "verdict":
            return None  # already in the headline
        return None


#: Default, disabled journal: ``event`` is a cheap no-op.
NULL_JOURNAL = DecisionJournal(enabled=False)


# ---------------------------------------------------------------------------
# Ambient journal (mirrors metrics.active_registry for deep call sites)
# ---------------------------------------------------------------------------

_ambient = threading.local()


def active_journal() -> DecisionJournal:
    """The journal installed by the innermost :func:`use_journal`."""
    return getattr(_ambient, "journal", NULL_JOURNAL)


@contextmanager
def use_journal(journal: Optional[DecisionJournal]) -> Iterator[DecisionJournal]:
    """Install ``journal`` as the thread's ambient decision journal."""
    # `is not None`, not `or`: an empty journal is falsy (len() == 0).
    journal = journal if journal is not None else NULL_JOURNAL
    previous = getattr(_ambient, "journal", NULL_JOURNAL)
    _ambient.journal = journal
    try:
        yield journal
    finally:
        _ambient.journal = previous
