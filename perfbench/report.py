"""Tables for --suite result files: run-to-run spread, and BASE against NEW."""

from __future__ import annotations

import statistics

#: Per-layer metrics that must repeat exactly between traced runs of one seed.
EXACT_COUNTS = ("optimizer.iterations", "optimizer.reboots", "cli.trace_write.bytes")


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(Q1, median, Q3) as statistics.quantiles(values, n=4) gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def _spread(q: tuple[float, float, float]) -> float:
    return (q[2] - q[0]) / q[1] if q[1] else 0.0


def count_metrics(values: dict) -> list[str]:
    return [k for k in values if k.endswith(".calls") or k in EXACT_COUNTS]


def summarize(data: dict, bench: dict) -> None:
    """Print each end-to-end metric's spread against its bound, then the traced runs."""
    for workload, runs in data["runs"].items():
        if not runs:
            continue
        failed = sum(r["failed"] for r in runs)
        attempted = sum(r["attempted"] for r in runs)
        print(f"\n{workload}: {len(runs)} runs, failed_frac {failed / attempted:.4g} "
              f"({failed} of {attempted} operations)")
        for m in bench["end_to_end"]:
            q = quartiles([r["values"][m["name"]] for r in runs])
            spread = _spread(q)
            status = ("steady" if spread < m["bound"] / 3
                      else "within bound" if spread <= m["bound"] else "TOO WIDE")
            if m["name"] == "setup_s":
                status += " (setup_s spread is not gated; its median is)"
            print(f"  {m['name']:<12} median {q[1]:>12.6g} {m['unit']:<6} "
                  f"[{q[0]:.6g}, {q[2]:.6g}]  spread {spread:.3f} / bound {m['bound']}  {status}")
        q = quartiles([r["host_probe_s"][0] for r in runs])
        print(f"  host probe   median {q[1]:>12.6g} s      [{q[0]:.6g}, {q[2]:.6g}]  "
              f"spread {_spread(q):.3f}  (diagnostic: host speed drift)")
    for workload, traced in data["traced"].items():
        if not traced:
            continue
        first = traced[0]["values"]
        print(f"\n{workload} traced ({len(traced)} runs, seed {traced[0]['seed']}):")
        for name, value in first.items():
            print(f"  {name:<48} {value:.6g}")
        evolve = first["fock.evolve.calls"]
        if evolve:
            print(f"  permanents per evolve: {first['fock.permanent.calls'] / evolve:.6g}")
        mismatched = [k for k in count_metrics(first)
                      if any(t["values"][k] != first[k] for t in traced[1:])]
        if len(traced) > 1:
            print(f"  exact-count self-check: {'PASS' if not mismatched else 'FAIL ' + ', '.join(mismatched)}")


def verdict(a: list[float], b: list[float], better: str, bound: float) -> tuple[str, float]:
    """Verdict for NEW values ``b`` against BASE values ``a``, paired by run index."""
    lower = better == "lower"
    qa, qb = quartiles(a), quartiles(b)
    pairs = list(zip(a, b))
    won = sum((y < x) if lower else (y > x) for x, y in pairs) / len(pairs)
    change = (qb[1] - qa[1]) / qa[1]
    worse = change > 0 if lower else change < 0
    all_better = max(b) < min(a) if lower else min(b) > max(a)
    if max(_spread(qa), _spread(qb)) > bound and not all_better:
        return "unresolved", won
    if won >= 0.9 and not worse and abs(qb[1] - qa[1]) > qa[2] - qa[0]:
        return "gain", won
    if worse and abs(change) > bound:
        return "regression", won
    return "no change", won


def compare(base: dict, new: dict, bench: dict) -> None:
    """Print every end-to-end metric x workload, then per-layer values side by side."""
    print(f"BASE commit {base['environment']['commit']}  NEW commit {new['environment']['commit']}")
    for workload, runs in base["runs"].items():
        other = new["runs"].get(workload)
        if not runs or not other:
            continue
        for m in bench["end_to_end"]:
            a = [r["values"][m["name"]] for r in runs]
            b = [r["values"][m["name"]] for r in other]
            qa, qb = quartiles(a), quartiles(b)
            label, won = verdict(a, b, m["better"], m["bound"])
            print(f"{workload:<9} {m['name']:<12} BASE {qa[1]:.6g} [{qa[0]:.6g}, {qa[2]:.6g}]  "
                  f"NEW {qb[1]:.6g} [{qb[0]:.6g}, {qb[2]:.6g}] {m['unit']}  "
                  f"NEW/BASE {qb[1] / qa[1]:.3f}  pairs won {won:.2f}  {label}")
    for workload, traced in base["traced"].items():
        other = new["traced"].get(workload)
        if not traced or not other:
            continue
        print(f"\n{workload} per layer (first traced run of each): BASE  NEW  NEW/BASE")
        for name, value in traced[0]["values"].items():
            new_value = other[0]["values"].get(name, float("nan"))
            ratio = f"{new_value / value:.3f}" if value else "-"
            print(f"  {name:<48} {value:>12.6g} {new_value:>12.6g}  {ratio}")
