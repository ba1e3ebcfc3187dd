#!/usr/bin/env python3
"""Perf regression gate over a harness BENCH_* self-profile.

Reads the BENCH JSON emitted by `glocks-experiments ... --stats-json DIR`
and checks it against a committed baseline (results/perf_baseline.json).
Two independent gates, both of which must pass:

  * ratio gate (machine-independent): the idle-heavy phase must run at
    least `min_idle_over_busy` times faster than the saturated phase from
    the *same* run.  With the event-driven scheduler alive the measured
    ratio is ~36x; with idle-skip broken or disabled both phases tick
    every cycle and the ratio collapses to ~1x.  Comparing two phases of
    one run cancels out runner speed, so this gate cannot be fooled by a
    fast machine.
  * absolute floors: `total_cycles_per_sec` and each saturated phase's
    tile-cycles/s (cycles/s times the tiles of its `..._<N>t` label)
    must each clear a floor set far below any healthy run.  They guard
    against pathological slowdowns the ratio cannot see, e.g. a
    regression that slows *every* phase.  Tile-cycles/s is the busy
    path's cost unit: a saturated cycle's work grows with the number of
    tiles that have work, so it ports across phase sizes better than raw
    cycles/s.  Two saturated phases are gated: GLock (`busy_phase`, whose
    waiters spin on G-line registers) and MCS (`mcs_busy_phase`, whose
    waiters spin on L1 hits and hand off through coherence traffic).

Every phase's skip fraction (1 - dense_cycles / sim_cycles: the share of
its simulated cycles the event-driven loop fast-forwarded) is printed too,
so a log shows where the event horizon pays.  It is informational, not
gated.

With --append, the run's headline numbers are also appended as one JSON
line to a trajectory file (JSONL), which CI uploads as an artifact so the
fleet's perf history accumulates across runs.
"""

import argparse
import json
import re
import sys


def phase_tiles(label: str) -> int:
    """Tile count of a phase labelled `<bench>_<lock>_..._<N>t`."""
    m = re.search(r"_(\d+)t$", label)
    if not m:
        raise ValueError(f"phase label {label!r} does not end in _<tiles>t")
    return int(m.group(1))


def skip_frac(phase: dict):
    """Share of a phase's simulated cycles that were fast-forwarded, or
    None for a profile without `dense_cycles` or a phase that simulated
    nothing."""
    if "dense_cycles" not in phase or phase["sim_cycles"] == 0:
        return None
    # A run executes cycles 0..=sim_cycles, so a dense one is slightly
    # negative before the clamp.
    return max(0.0, 1.0 - phase["dense_cycles"] / phase["sim_cycles"])


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("bench", help="BENCH_*.json self-profile to check")
    ap.add_argument("baseline", help="committed baseline (perf_baseline.json)")
    ap.add_argument("--append", metavar="JSONL", help="trajectory file to append this run to")
    ap.add_argument("--label", default="local", help="label recorded in the trajectory entry")
    args = ap.parse_args()

    with open(args.bench) as f:
        bench = json.load(f)
    with open(args.baseline) as f:
        base = json.load(f)

    phases = {p["label"]: p["cycles_per_sec"] for p in bench["phases"]}
    skips = {p["label"]: skip_frac(p) for p in bench["phases"]}
    try:
        idle = phases[base["idle_phase"]]
        busy = phases[base["busy_phase"]]
        mcs_busy = phases[base["mcs_busy_phase"]]
    except KeyError as missing:
        print(f"perf gate: phase {missing} not in {args.bench}", file=sys.stderr)
        print(f"  phases present: {sorted(phases)}", file=sys.stderr)
        return 1

    ratio = idle / busy if busy > 0 else float("inf")
    busy_tiles = busy * phase_tiles(base["busy_phase"])
    mcs_busy_tiles = mcs_busy * phase_tiles(base["mcs_busy_phase"])
    saturated = [
        (base["busy_phase"], busy, busy_tiles, base["min_busy_tile_cycles_per_sec"]),
        (base["mcs_busy_phase"], mcs_busy, mcs_busy_tiles, base["min_mcs_busy_tile_cycles_per_sec"]),
    ]
    total = bench["total_cycles_per_sec"]
    for label, frac in skips.items():
        if frac is not None:
            print(f"skip fraction    {frac:>12.4f} ({label})")
    print(f"total            {total:>12.0f} cycles/s (floor {base['min_total_cycles_per_sec']})")
    print(f"idle-heavy phase {idle:>12.0f} cycles/s ({base['idle_phase']})")
    for label, rate, tiles, floor in saturated:
        print(f"saturated phase  {rate:>12.0f} cycles/s ({label})")
        print(f"saturated phase  {tiles:>12.0f} tile-cycles/s (floor {floor})")
    print(f"idle/busy ratio  {ratio:>12.2f} (floor {base['min_idle_over_busy']})")

    ok = True
    if ratio < base["min_idle_over_busy"]:
        print(
            f"FAIL: idle/busy ratio {ratio:.2f} below {base['min_idle_over_busy']} — "
            "idle-skip scheduling has regressed",
            file=sys.stderr,
        )
        ok = False
    if total < base["min_total_cycles_per_sec"]:
        print(
            f"FAIL: total {total:.0f} cycles/s below floor "
            f"{base['min_total_cycles_per_sec']}",
            file=sys.stderr,
        )
        ok = False
    for label, _, tiles, floor in saturated:
        if tiles < floor:
            print(
                f"FAIL: saturated phase {label} {tiles:.0f} tile-cycles/s below floor "
                f"{floor} — the busy path has regressed",
                file=sys.stderr,
            )
            ok = False

    if args.append:
        entry = {
            "label": args.label,
            "total_cycles_per_sec": round(total),
            "idle_cycles_per_sec": round(idle),
            "busy_cycles_per_sec": round(busy),
            "busy_tile_cycles_per_sec": round(busy_tiles),
            "mcs_busy_cycles_per_sec": round(mcs_busy),
            "mcs_busy_tile_cycles_per_sec": round(mcs_busy_tiles),
            "idle_over_busy": round(ratio, 2),
            "total_sim_cycles": bench["total_sim_cycles"],
            "total_wall_s": round(bench["total_wall_s"], 3),
            "gate": "pass" if ok else "fail",
        }
        for key, phase in [
            ("idle_skip_frac", base["idle_phase"]),
            ("busy_skip_frac", base["busy_phase"]),
            ("mcs_busy_skip_frac", base["mcs_busy_phase"]),
        ]:
            if skips[phase] is not None:
                entry[key] = round(skips[phase], 4)
        with open(args.append, "a") as f:
            f.write(json.dumps(entry, sort_keys=True) + "\n")
        print(f"appended trajectory entry to {args.append}")

    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
