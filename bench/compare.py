"""Compare two ledgers written by ``run.py --out``: for every workload
and end-to-end metric, the ratio with its base and a verdict by the
bounds BENCHMARK.json fixes."""

from __future__ import annotations

import json

#: Reported in every ledger but kept out of BENCHMARK.json, whose
#: metrics may never be 0: any failed request at all is a regression.
ABSOLUTE_BOUNDS = {"failed_req_share": ("lower", 0.0)}


def _spread(summary: dict) -> float:
    return (summary["q3"] - summary["q1"]) / summary["median"] if summary["median"] else 0.0


def verdict(base: dict, new: dict, better: str, bound: float, absolute: bool) -> tuple:
    """``(ratio, worse_by, verdict)`` for one metric on one workload."""
    a, b = base["value"], new["value"]
    worse_by = (b - a) if better == "lower" else (a - b)
    if absolute:
        return None, worse_by, "regression" if worse_by > bound else "pass"
    worse_by /= a
    if max(_spread(base), _spread(new)) > bound:
        # Run-to-run spread wider than the bound: neither unchanged
        # nor regressed can be claimed.
        return b / a, worse_by, "unresolved"
    return b / a, worse_by, "regression" if worse_by > bound else "pass"


def compare(base_path: str, new_path: str, benchmark: dict) -> int:
    with open(base_path) as fh:
        base = json.load(fh)
    with open(new_path) as fh:
        new = json.load(fh)
    bounds = {m["name"]: (m["better"], m["bound"], False) for m in benchmark["end_to_end"]}
    bounds.update({n: (better, bound, True) for n, (better, bound) in ABSOLUTE_BOUNDS.items()})
    counts = {"pass": 0, "regression": 0, "unresolved": 0}
    print(f"base {base_path} ({base['commit']}, {base['host']})")
    print(f"new  {new_path} ({new['commit']}, {new['host']})")
    print(f"{'workload':<18} {'metric':<26} {'base':>12} {'new':>12} {'new/base':>9} "
          f"{'worse by':>9} {'bound':>6}  verdict")
    for workload, a in base["entries"].items():
        b = new["entries"].get(workload)
        if b is None:
            continue
        same_inputs = (a["seed"], a["scale"]) == (b["seed"], b["scale"])
        print(f"{workload:<18} fingerprint "
              + ("differs: other inputs" if not same_inputs
                 else "identical" if a["fingerprint"] == b["fingerprint"]
                 else "DIFFERS on the same seed and scale"))
        for name, (better, bound, absolute) in bounds.items():
            if name not in a["end_to_end"] or name not in b["end_to_end"]:
                continue
            ratio, worse_by, result = verdict(
                a["end_to_end"][name], b["end_to_end"][name], better, bound, absolute
            )
            counts[result] += 1
            print(f"{workload:<18} {name:<26} {a['end_to_end'][name]['value']:>12.5g} "
                  f"{b['end_to_end'][name]['value']:>12.5g} "
                  + (f"{ratio:>9.4f} {worse_by:>+9.2%}" if ratio is not None
                     else f"{'':>9} {worse_by:>+9.4f}")
                  + f" {bound:>6.3g}  {result}")
    print(", ".join(f"{n} {k}" for k, n in counts.items()))
    return 1 if counts["regression"] else 0
