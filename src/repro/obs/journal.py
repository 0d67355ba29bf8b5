"""The decision journal: why each CSE candidate lived or died.

The paper's optimizer makes its interesting decisions in places EXPLAIN
never shows: signature buckets that fail Heuristic 1, consumers dropped
by Heuristic 2's upper-bound test, merges rejected because the benefit Δ
went negative (Heuristic 3), containment prunes (Heuristic 4), and
single-consumer plans discarded at their LCA (§5.1). Each of those
decisions is a point event on the optimizer's
:class:`~repro.obs.trace.Tracer`, named by its kind and carrying the
actual numbers the decision used (keyed by candidate id where one
exists); the free functions in ``cse/`` reach the tracer ambiently
(:func:`~repro.obs.trace.active_tracer`). :func:`render_why` is the
``repro explain --why`` report: a pure function over those events.

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
``equiv``                 a proof's verdict: ``outcome`` (``proved`` /
                          ``refuted`` / ``gave_up``), ``reason``, plus either
                          ``query``+``extension`` — one per outer-join
                          extension the simplifier tried to reduce
                          (``repro.equiv`` null rejection) — or
                          ``cse_id``+``consumer`` — one per §5.1 match of a
                          constructed consumer, refused or not, and one per
                          match a stacked probe (§5.5) found; Step 2 emits
                          them after the candidate bodies are optimized
``history``               §5.4 reuse in the Step-3 pass: ``pass_index``,
                          ``subset`` (the enabled candidates),
                          ``groups_reused`` (plan sets the base pass
                          computed), ``groups_recomputed``,
                          ``planset_hits``, ``reuse`` (hit ratio),
                          ``seconds``
``verdict``               final outcome: ``cse_id``, ``kept``, ``reason``,
                          ``equiv`` (the run's tally of this candidate's
                          §5.1 match verdicts, e.g. ``proved=2``)
========================  ====================================================
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional

from .trace import TraceEvent


def render_why(events: Iterable[TraceEvent]) -> str:
    """The decision events among ``events`` as a human-readable report.

    ``events`` is one optimization's trace; spans and events of other
    kinds are ignored. Layout: pre-candidate events first (signature
    buckets, H1 set tests, H2 consumer drops, Algorithm 1 merge steps —
    where expressions die before getting an id), then one block per
    generated candidate with its lifecycle and final verdict."""
    decisions = [(e.name, e.attrs) for e in events if e.duration is None]

    def of(kind: str) -> List[Dict[str, Any]]:
        return [attrs for name, attrs in decisions if name == kind]

    lines: List[str] = ["Optimizer decision journal"]

    stage_lines = []
    for entry in of("bucket"):
        status = "sharable" if entry.get("sharable") else "not sharable"
        stage_lines.append(
            f"  bucket {entry.get('signature')}: "
            f"{entry.get('groups')} group(s), {status}"
        )
    for entry in of("h1"):
        outcome = "passed" if entry.get("passed") else "FAILED"
        stage_lines.append(
            f"  H1 {entry.get('signature')}: "
            f"Σ lower bounds {entry.get('lower_bound_sum', 0.0):.1f} vs "
            f"α·C_Q {entry.get('threshold', 0.0):.1f} "
            f"(α={entry.get('alpha')}) → {outcome}"
        )
    for entry in of("h2"):
        action = "DROPPED" if entry.get("dropped") else "kept"
        stage_lines.append(
            f"  H2 consumer {entry.get('consumer')}: upper "
            f"{entry.get('upper', 0.0):.1f} vs keep-cost "
            f"{entry.get('keep_cost', 0.0):.1f} → {action}"
        )
    for entry in of("h3"):
        action = "merged" if entry.get("merged") else "no merge"
        members = ", ".join(entry.get("members") or ())
        stage_lines.append(
            f"  H3 merge [{members}]: Δ={entry.get('delta', 0.0):.1f} "
            f"→ {action}"
        )
    if stage_lines:
        generation = of("generation")
        lines.append(
            "candidate generation: "
            f"{sum(e.get('consumer_profiles', 0) for e in generation)} "
            "consumer profile(s), "
            f"{sum(e.get('probed', 0) for e in of('h3'))} "
            "merge probe(s), "
            f"{sum(e.get('constructions', 0) for e in generation)} "
            "construction(s)"
        )
        lines.extend(stage_lines)

    equiv_lines = []
    for entry in of("equiv"):
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

    history = of("history")
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
                f"{reused} group(s) reused, {recomputed} recomputed "
                f"({entry.get('seconds', 0.0):.4f}s)"
            )
        visits = total_reused + total_recomputed
        ratio = total_reused / visits if visits else 0.0
        lines.append(
            f"  reuse ratio: {total_reused}/{visits} group results "
            f"({ratio:.0%}) carried over from the base pass"
        )

    verdicts = {entry["cse_id"]: entry for entry in of("verdict")}
    candidate_ids = [entry["cse_id"] for entry in of("candidate")]
    for cse_id in candidate_ids:
        verdict = verdicts.get(cse_id, {})
        kept = verdict.get("kept")
        headline = (
            "KEPT" if kept else f"REJECTED ({verdict.get('reason', '?')})"
        )
        if verdict.get("equiv"):
            headline += f" [equivalence checker: {verdict['equiv']}]"
        lines.append(f"candidate {cse_id}: {headline}")
        for name, entry in decisions:
            if entry.get("cse_id") == cse_id or cse_id in (
                entry.get("inner"), entry.get("outer")
            ):
                rendered = _render_event(cse_id, name, entry)
                if rendered:
                    lines.append(f"  {rendered}")
    if not candidate_ids:
        lines.append("no candidates were generated")
    return "\n".join(lines)


def _render_event(
    cse_id: str, kind: str, entry: Dict[str, Any]
) -> Optional[str]:
    """One line of a candidate's block (None: not shown there)."""
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
    return None
