#!/usr/bin/env python3
"""Render and validate the state of a fleet directory (src/fleet/).

A fleet directory is the coordination bus for leased sweep workers:

    plan.json                           shared contract (commit marker)
    queue/batch-<id>.json               unclaimed tickets
    leases/batch-<id>.g<g>.<owner>.lease  claimed batches
    records/batch-<id>.g<g>.<owner>.jsonl replicate records, per lease
    done/batch-<id>.json                completion markers
    snaps/*.ggsnap                      parked mid-replicate snapshots
    hb/<owner>.jsonl                    worker heartbeats
    hb/<owner>.stats.json               worker exit stats

With no flags, prints a human summary: the plan, each batch's state
(queued / leased / done, with lease owner, generation and expiry
freshness) and each worker's latest heartbeat, with every lease it
holds.  Exit 0 unless the fleet directory is unreadable.

With --validate, checks machine-verifiable invariants and exits 1 on any
violation:
  - plan.json parses and carries this tool's SCHEMA_VERSION
  - every batch is reachable: it has a ticket, a lease, or a done marker
    (a batch with none is stranded — no worker will ever pick it up)
  - a COMPLETE fleet (done markers cover every batch) is clean: no queue
    tickets, no lease files, no parked *.ggsnap snapshots, no *.tmp
    debris anywhere
  - on a fleet still in flight, *.tmp files older than --stale-tmp-age
    seconds (default 300) are flagged (live writers rename within
    milliseconds; old temps are crash debris)

Self-test: `fleet_status.py --self-test` runs the built-in unit tests on
synthetic fleet directories (no arguments needed); ctest invokes it that
way as `fleet_status_selftest`.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
import tempfile
import time
from pathlib import Path

# Must match kSchemaVersion in src/exp/schema.hpp.
SCHEMA_VERSION = 2

LEASE_RE = re.compile(
    r"^batch-(\d+)\.g(\d+)\.([A-Za-z0-9_-]+)\.lease$")
TICKET_RE = re.compile(r"^batch-(\d+)\.json$")
DONE_RE = re.compile(r"^batch-(\d+)\.json$")


class FleetError(Exception):
    """The fleet directory cannot be read at all (exit 2)."""


def load_plan(fleet_dir):
    path = Path(fleet_dir) / "plan.json"
    if not path.is_file():
        raise FleetError(f"{path}: no plan.json — not a fleet directory "
                         "(or its planner has not committed yet)")
    try:
        plan = json.loads(path.read_text())
    except (OSError, ValueError) as err:
        raise FleetError(f"{path}: unparsable plan: {err}")
    if plan.get("record") != "fleet_plan":
        raise FleetError(f"{path}: not a fleet_plan record")
    return plan


def read_lease(path):
    """Lease content; unparsable/ticket content reads as never renewed."""
    try:
        content = json.loads(Path(path).read_text())
        if isinstance(content, dict):
            return content
    except (OSError, ValueError):
        pass
    return {"expires_unix_ms": 0}


def scan(fleet_dir):
    """One pass over the fleet directory into a plain state dict."""
    root = Path(fleet_dir)
    plan = load_plan(root)
    batches = int(plan.get("batches", 0))
    state = {
        "plan": plan,
        "batches": {
            b: {"ticket": False, "leases": [], "done": None, "records": 0}
            for b in range(batches)
        },
        "stray_tmp": [],
        "snapshots": [],
        "workers": {},
    }

    def batch_slot(b):
        # Tolerate ids outside the plan (hand-edited dirs) so the
        # validator can flag them instead of crashing on a KeyError.
        return state["batches"].setdefault(
            b, {"ticket": False, "leases": [], "done": None, "records": 0})

    for entry in sorted((root / "queue").glob("*.json")
                        if (root / "queue").is_dir() else []):
        match = TICKET_RE.match(entry.name)
        if match:
            batch_slot(int(match.group(1)))["ticket"] = True

    for entry in sorted((root / "leases").iterdir()
                        if (root / "leases").is_dir() else []):
        match = LEASE_RE.match(entry.name)
        if not match:
            continue
        content = read_lease(entry)
        batch_slot(int(match.group(1)))["leases"].append({
            "generation": int(match.group(2)),
            "owner": match.group(3),
            "expires_unix_ms": int(content.get("expires_unix_ms", 0) or 0),
        })

    for entry in sorted((root / "done").glob("*.json")
                        if (root / "done").is_dir() else []):
        match = DONE_RE.match(entry.name)
        if not match:
            continue
        try:
            marker = json.loads(entry.read_text())
        except (OSError, ValueError):
            marker = {}
        batch_slot(int(match.group(1)))["done"] = marker

    for entry in ((root / "records").glob("*.jsonl")
                  if (root / "records").is_dir() else []):
        match = re.match(r"^batch-(\d+)\.g\d+\.", entry.name)
        if match:
            batch_slot(int(match.group(1)))["records"] += 1

    if (root / "snaps").is_dir():
        state["snapshots"] = sorted(
            p.name for p in (root / "snaps").glob("*.ggsnap"))

    if (root / "hb").is_dir():
        for entry in sorted((root / "hb").glob("*.jsonl")):
            worker = entry.stem
            beat = {}
            try:
                lines = entry.read_text().splitlines()
                if lines:
                    beat = json.loads(lines[-1])
            except (OSError, ValueError):
                pass
            state["workers"][worker] = beat

    for path in root.rglob("*"):
        if ".tmp" in path.name and path.is_file():
            state["stray_tmp"].append({
                "path": str(path.relative_to(root)),
                "age_seconds": max(0.0, time.time() - path.stat().st_mtime),
            })
    state["stray_tmp"].sort(key=lambda t: t["path"])
    return state


def held_leases(beat):
    """Lease labels a heartbeat line reports, in claim order.  A worker
    overlaps batches, so it can hold several ("leases"); heartbeats of
    older workers carry a single "lease" string."""
    leases = beat.get("leases")
    if isinstance(leases, list):
        return [str(lease) for lease in leases]
    return [beat["lease"]] if beat.get("lease") else []


def is_complete(state):
    return all(slot["done"] is not None
               for slot in state["batches"].values()) and state["batches"]


def render(state, out=sys.stdout, now_unix_ms=None):
    now = int(time.time() * 1000) if now_unix_ms is None else now_unix_ms
    plan = state["plan"]
    print(f"fleet: scenario '{plan.get('scenario')}' "
          f"seed {plan.get('master_seed')} — "
          f"{plan.get('cells')} cell(s) x {plan.get('replicates')} "
          f"replicate(s) over {plan.get('batches')} batch(es)", file=out)

    done = sum(1 for s in state["batches"].values() if s["done"] is not None)
    print(f"progress: {done}/{len(state['batches'])} batch(es) done"
          + (" — COMPLETE" if is_complete(state) else ""), file=out)

    for b in sorted(state["batches"]):
        slot = state["batches"][b]
        if slot["done"] is not None:
            owner = slot["done"].get("owner", "?")
            line = f"done (by {owner})"
        elif slot["leases"]:
            parts = []
            for lease in slot["leases"]:
                left = (lease["expires_unix_ms"] - now) / 1000.0
                if lease["expires_unix_ms"] == 0:
                    fresh = "never renewed — reclaimable"
                elif left < 0:
                    fresh = f"EXPIRED {-left:.1f}s ago"
                else:
                    fresh = f"{left:.1f}s left"
                parts.append(f"g{lease['generation']} {lease['owner']} "
                             f"({fresh})")
            line = "leased: " + ", ".join(parts)
        elif slot["ticket"]:
            line = "queued"
        else:
            line = "STRANDED (no ticket, no lease, no done marker)"
        extra = f", {slot['records']} record file(s)" if slot["records"] else ""
        print(f"  batch {b}: {line}{extra}", file=out)

    for worker, beat in state["workers"].items():
        if not beat:
            print(f"worker {worker}: heartbeat unreadable", file=out)
            continue
        held = held_leases(beat)
        print(f"worker {worker}: {beat.get('completed', '?')}/"
              f"{beat.get('total', '?')} replicates, "
              + (f"leases {', '.join(held)}" if held else "no lease")
              + (" [stopped]" if beat.get("stopped") else ""), file=out)

    if state["snapshots"]:
        print(f"parked snapshots: {len(state['snapshots'])}", file=out)
    if state["stray_tmp"]:
        print(f"temp files in flight: {len(state['stray_tmp'])}", file=out)


def validate(state, stale_tmp_age=300.0):
    """Returns a list of human-readable invariant violations."""
    problems = []
    plan = state["plan"]
    if plan.get("schema") != SCHEMA_VERSION:
        problems.append(
            f"plan schema is {plan.get('schema')!r}, this tool speaks "
            f"{SCHEMA_VERSION}")
    planned = int(plan.get("batches", 0))
    if planned < 1:
        problems.append("plan declares no batches")

    for b in sorted(state["batches"]):
        slot = state["batches"][b]
        if b >= planned:
            problems.append(f"batch {b} is outside the plan's "
                            f"{planned} batch(es)")
        if (slot["done"] is None and not slot["ticket"]
                and not slot["leases"]):
            problems.append(
                f"batch {b} is stranded: no ticket, no lease, no done "
                "marker — no worker will ever pick it up")

    if is_complete(state):
        for b in sorted(state["batches"]):
            slot = state["batches"][b]
            if slot["ticket"]:
                problems.append(
                    f"complete fleet still has a queue ticket for batch {b}")
            for lease in slot["leases"]:
                problems.append(
                    f"complete fleet still has lease "
                    f"g{lease['generation']}.{lease['owner']} for batch {b}")
        for name in state["snapshots"]:
            problems.append(
                f"complete fleet still has parked snapshot snaps/{name}")
        for tmp in state["stray_tmp"]:
            problems.append(
                f"complete fleet still has temp debris {tmp['path']}")
    else:
        for tmp in state["stray_tmp"]:
            if tmp["age_seconds"] > stale_tmp_age:
                problems.append(
                    f"stale temp file {tmp['path']} "
                    f"({tmp['age_seconds']:.0f}s old — crash debris)")
    return problems


def build_parser():
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("fleet_dir", nargs="?",
                        help="fleet directory (--fleet-dir of the workers)")
    parser.add_argument("--validate", action="store_true",
                        help="check invariants; exit 1 on any violation")
    parser.add_argument("--stale-tmp-age", type=float, default=300.0,
                        help="age (s) past which an in-flight fleet's .tmp "
                             "files count as crash debris (default 300)")
    parser.add_argument("--quiet", action="store_true",
                        help="suppress the rendered summary")
    parser.add_argument("--self-test", action="store_true",
                        help="run built-in unit tests and exit")
    return parser


# --------------------------------------------------------------- self-test ---


def _write(root, rel, content=""):
    path = Path(root) / rel
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(content)


def _plan(batches=2, schema=SCHEMA_VERSION):
    return json.dumps({
        "record": "fleet_plan", "schema": schema, "scenario": "t",
        "master_seed": 1, "replicates": 2, "cells": 2, "batches": batches,
    })


def _lease(expires_unix_ms):
    return json.dumps({
        "record": "fleet_lease", "batch": 0, "generation": 0, "owner": "w",
        "ttl_seconds": 30, "acquired_unix_ms": 0,
        "expires_unix_ms": expires_unix_ms, "heartbeat": "hb/w.jsonl",
    })


def _fleet(tmp, name, files):
    root = Path(tmp) / name
    for rel, content in files.items():
        _write(root, rel, content)
    return str(root)


def self_test():
    import io

    failures = []

    def check(name, condition):
        if not condition:
            failures.append(name)
            print(f"FAIL {name}")
        else:
            print(f"ok   {name}")

    with tempfile.TemporaryDirectory() as tmp:
        far_future = int(time.time() * 1000) + 3_600_000

        # A healthy mid-flight fleet: batch 0 leased, batch 1 queued.
        live = _fleet(tmp, "live", {
            "plan.json": _plan(),
            "queue/batch-1.json": "{}",
            "leases/batch-0.g0.w.lease": _lease(far_future),
            "records/batch-0.g0.w.jsonl": "",
            "hb/w.jsonl": json.dumps({"completed": 1, "total": 2,
                                      "leases": ["batch-0.g0"], "seq": 3}),
        })
        state = scan(live)
        check("live_validates", validate(state) == [])
        out = io.StringIO()
        render(state, out)
        text = out.getvalue()
        check("live_renders",
              "batch 0: leased" in text and "batch 1: queued" in text
              and "worker w: 1/2" in text)

        # A worker overlapping two batches heartbeats both leases; the
        # board shows both, and the older single-lease key still reads.
        overlap = _fleet(tmp, "overlap", {
            "plan.json": _plan(),
            "leases/batch-0.g0.w.lease": _lease(far_future),
            "leases/batch-1.g0.w.lease": _lease(far_future),
            "hb/w.jsonl": json.dumps({"completed": 1, "total": 4,
                                      "leases": ["batch-0.g0", "batch-1.g0"],
                                      "seq": 5}),
            "hb/old.jsonl": json.dumps({"completed": 0, "total": 2,
                                        "lease": "batch-1.g0", "seq": 1}),
        })
        state = scan(overlap)
        check("two_leases_validate", validate(state) == [])
        out = io.StringIO()
        render(state, out)
        text = out.getvalue()
        check("two_leases_render",
              "batch 0: leased" in text and "batch 1: leased" in text
              and "worker w: 1/4 replicates, leases batch-0.g0, batch-1.g0"
              in text)
        check("single_lease_key_renders",
              "worker old: 0/2 replicates, leases batch-1.g0" in text)

        # An expired lease renders as such but is NOT a violation (it is
        # reclaimable, which is the protocol working).
        expired = _fleet(tmp, "expired", {
            "plan.json": _plan(),
            "queue/batch-1.json": "{}",
            "leases/batch-0.g0.w.lease": _lease(1),
        })
        state = scan(expired)
        out = io.StringIO()
        render(state, out, now_unix_ms=10_000)
        check("expired_renders", "EXPIRED" in out.getvalue())
        check("expired_not_a_violation", validate(state) == [])

        # Ticket content in a lease file (claimant died before its first
        # renewal) reads as never renewed.
        unrenewed = _fleet(tmp, "unrenewed", {
            "plan.json": _plan(batches=1),
            "leases/batch-0.g0.w.lease": "not json at all",
        })
        out = io.StringIO()
        render(scan(unrenewed), out)
        check("unrenewed_renders", "never renewed" in out.getvalue())

        # A complete, clean fleet passes.
        done = {
            "plan.json": _plan(),
            "done/batch-0.json": json.dumps({"owner": "w"}),
            "done/batch-1.json": json.dumps({"owner": "w"}),
            "records/batch-0.g0.w.jsonl": "",
            "records/batch-1.g0.w.jsonl": "",
        }
        clean = _fleet(tmp, "clean", dict(done))
        state = scan(clean)
        check("complete_clean_ok", validate(state) == [])
        out = io.StringIO()
        render(state, out)
        check("complete_renders", "COMPLETE" in out.getvalue())

        # Complete fleets with residue fail validation, one problem per
        # piece of residue.
        for name, extra, needle in [
            ("residue_lease", {"leases/batch-0.g1.w.lease": _lease(0)},
             "lease"),
            ("residue_ticket", {"queue/batch-0.json": "{}"}, "ticket"),
            ("residue_snap", {"snaps/snap-c0-r0.ggsnap": "x"}, "snapshot"),
            ("residue_tmp", {"records/batch-0.g0.w.jsonl.tmp.1": "x"},
             "temp debris"),
        ]:
            fleet = _fleet(tmp, name, {**done, **extra})
            problems = validate(scan(fleet))
            check(name, len(problems) == 1 and needle in problems[0])

        # A stranded batch (no ticket, lease or marker) is a violation.
        stranded = _fleet(tmp, "stranded", {
            "plan.json": _plan(),
            "queue/batch-1.json": "{}",
        })
        problems = validate(scan(stranded))
        check("stranded_batch",
              len(problems) == 1 and "stranded" in problems[0])

        # Schema drift is a violation; a missing plan is a hard error.
        drift = _fleet(tmp, "drift", {
            "plan.json": _plan(schema=SCHEMA_VERSION + 1),
            "queue/batch-0.json": "{}", "queue/batch-1.json": "{}",
        })
        problems = validate(scan(drift))
        check("schema_drift",
              len(problems) == 1 and "schema" in problems[0])
        try:
            scan(_fleet(tmp, "empty", {}))
            check("missing_plan_errors", False)
        except FleetError:
            check("missing_plan_errors", True)

        # Fresh .tmp files on a live fleet are fine; old ones are debris.
        in_flight = _fleet(tmp, "in_flight", {
            "plan.json": _plan(),
            "queue/batch-0.json": "{}", "queue/batch-1.json": "{}",
            "hb/w.jsonl.tmp": "half a heartbeat",
        })
        state = scan(in_flight)
        check("fresh_tmp_ok", validate(state, stale_tmp_age=300) == [])
        problems = validate(state, stale_tmp_age=0)
        check("stale_tmp_flagged",
              len(problems) == 1 and "stale temp" in problems[0])

    if failures:
        print(f"{len(failures)} self-test failure(s)", file=sys.stderr)
        return 1
    print("all self-tests passed")
    return 0


def main(argv=None):
    args = build_parser().parse_args(argv)
    if args.self_test:
        return self_test()
    if not args.fleet_dir:
        print("error: a fleet directory (or --self-test) is required",
              file=sys.stderr)
        return 2

    try:
        state = scan(args.fleet_dir)
    except FleetError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2

    if not args.quiet:
        render(state)
    if args.validate:
        problems = validate(state, stale_tmp_age=args.stale_tmp_age)
        for problem in problems:
            print(f"INVALID: {problem}", file=sys.stderr)
        if problems:
            return 1
        print("fleet invariants hold")
    return 0


if __name__ == "__main__":
    sys.exit(main())
