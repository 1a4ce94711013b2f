"""Sensitivity self-check: can the benchmark see a one-layer change?

For each case a busy-wait is put in front of one layer's entry points
(``child.py --inject``, never used by a measured run), sized to cost the
predicted phase half as much again as the metric's bound allows.  The
check passes when the end-to-end metric predicted to move does move by
more than its bound on the predicted workload, in at least nine tenths
of the pairs of cycles, the layer's ``self_share`` rises in the traced
run, and the run's deterministic fingerprint — every simulated-time
metric — stays bit-identical.
"""

from __future__ import annotations

import cycles

#: (layer slowed, workload, phase the layer's share is read from, metric)
CASES = (
    ("log", "restart_biglog", "recover", "recovery_wall_ms_per_krec"),
    ("sim", "fleet_open", "serve", "wall_req_per_s"),
)
#: How far past the metric's bound the injected delay aims.
OVERSHOOT = 1.5
#: Baseline and slowed cycles, alternating, so that each pair shares
#: whatever the host was doing at the time.
PAIRS = 10


def _check(benchmark: dict, seed: int, scale: float, layer, workload, phase, metric) -> bool:
    declared = next(m for m in benchmark["end_to_end"] if m["name"] == metric)
    share_name = f"{phase}.{layer}.self_share"

    # Size the delay from one traced cycle: the layer's share of the
    # phase, the phase's untraced wall time, and the calls to slow.
    traced = cycles.spawn_cycle(workload, seed, scale, True)
    untraced = cycles.spawn_cycle(workload, seed, scale, False)
    share = traced["per_layer"][share_name]["value"]
    calls = traced["entry_calls"][layer][phase]
    # A phase that takes 1 + x times as long makes a time worse by x
    # and a rate by x / (1 + x).
    bound = declared["bound"]
    longer = OVERSHOOT * (bound / (1 - bound) if declared["better"] == "higher" else bound)
    micros = longer * untraced[f"{phase}_wall_s"] / calls * 1e6
    inject = f"{layer}:{micros:.3f}"

    base, slow = [], []
    for _ in range(PAIRS):
        slow.append(cycles.spawn_cycle(workload, seed, scale, False, inject))
        base.append(cycles.spawn_cycle(workload, seed, scale, False))
    slow_traced = cycles.spawn_cycle(workload, seed, scale, True, inject)

    sign = -1.0 if declared["better"] == "higher" else 1.0
    value = cycles.WALL_CLOCK[metric]
    worse_by = sign * (value(slow) - value(base)) / value(base)
    pairs_worse = sum(
        sign * (y["end_to_end"][metric]["value"] - x["end_to_end"][metric]["value"]) > 0
        for x, y in zip(base, slow)
    )
    slow_share = slow_traced["per_layer"][share_name]["value"]
    fingerprints = {c["fingerprint"] for c in base + slow + [untraced]}
    passed = {
        f"{metric} worse by more than its bound": worse_by > declared["bound"],
        "worse in at least nine tenths of the pairs": pairs_worse >= 0.9 * PAIRS,
        f"{share_name} rose": slow_share > share,
        "fingerprint (all simulated-time metrics) unchanged": len(fingerprints) == 1,
    }
    print(f"\n== {layer} slowed on {workload}: {micros:.2f} us before each of {calls} calls, "
          f"{longer:+.0%} on the {phase} phase, {longer / share:+.0%} on the layer's "
          f"{share:.0%} of it")
    print(f"{metric} over {PAIRS} cycles each: {value(base):.6g} -> {value(slow):.6g}, "
          f"worse by {worse_by:+.2%} (bound {declared['bound']:.0%}); "
          f"worse in {pairs_worse} of {PAIRS} pairs")
    print(f"{share_name}: {share:.4f} -> {slow_share:.4f}")
    for claim, ok in passed.items():
        print(f"  [{'ok' if ok else 'FAILED'}] {claim}")
    return all(passed.values())


def selfcheck(benchmark: dict, seed: int, scale: float) -> int:
    results = [_check(benchmark, seed, scale, *case) for case in CASES]
    print("\nselfcheck " + ("passed" if all(results) else "FAILED"))
    return 0 if all(results) else 1
