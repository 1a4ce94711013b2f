"""The layer map, and cProfile self time bucketed by it.

One table decides which layer a source file belongs to.  Self time of
code that belongs to no layer of its own — C built-ins, the standard
library — is charged to the layer of whoever called it, so
``heapq.heappop`` lands in ``sim`` and ``struct.pack`` in ``log``.
"""

from __future__ import annotations

import os

LAYERS = ("sim", "net", "log", "core_request", "core_recovery", "fleet", "harness")

_CORE_LOG = ("log_manager", "records", "position_stream", "plsn")
_CORE_REQUEST = (
    "msp", "context", "session", "shared_variable", "flush", "dv",
    "client", "messages", "domain", "config", "standby",
)
_CORE_RECOVERY = ("crash_recovery", "replay", "checkpoint")

#: layer -> path prefixes below ``src/``.  The prefixes are disjoint;
#: every other file of ``src/repro`` and all of ``bench/`` is ``harness``.
LAYER_PATHS = {
    "sim": ("repro/sim/",),
    "net": ("repro/net/",),
    "log": ("repro/wire/", "repro/storage/")
    + tuple(f"repro/core/{m}.py" for m in _CORE_LOG),
    "core_request": tuple(f"repro/core/{m}.py" for m in _CORE_REQUEST),
    "core_recovery": tuple(f"repro/core/{m}.py" for m in _CORE_RECOVERY),
    "fleet": ("repro/fleet/", "repro/parallel/"),
}

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
REPO_DIR = os.path.dirname(BENCH_DIR)
SRC_DIR = os.path.join(REPO_DIR, "src")

#: File name the self-check gives its injected delay, so the delay's
#: self time counts for the layer it slows down (``<inject:log>``).
INJECT_PREFIX = "<inject:"


def layers_matching(relpath: str) -> list[str]:
    """Layers whose prefixes match ``relpath`` (relative to ``src/``)."""
    return [
        layer
        for layer, prefixes in LAYER_PATHS.items()
        if any(relpath.startswith(p) for p in prefixes)
    ]


def layer_of_file(filename: str) -> str | None:
    """The layer owning ``filename``; None for code outside the repo."""
    if filename.startswith(INJECT_PREFIX):
        return filename[len(INJECT_PREFIX):-1]
    if filename.startswith(SRC_DIR + os.sep):
        matches = layers_matching(os.path.relpath(filename, SRC_DIR).replace(os.sep, "/"))
        return matches[0] if matches else "harness"
    if filename.startswith(BENCH_DIR + os.sep):
        return "harness"
    return None


def _owners(func, stats, memo, stack) -> dict:
    """``{layer or None: share}`` of who pays for ``func``'s self time."""
    layer = layer_of_file(func[0])
    if layer is not None:
        return {layer: 1.0}
    if func in memo:
        return memo[func]
    if func in stack or func not in stats:
        return {None: 1.0}
    callers = stats[func][4]
    # Weight callers by the self time spent under each; by call count
    # when the function was too fast for the clock.
    weight_at = 2 if any(c[2] > 0 for c in callers.values()) else 1
    total = sum(c[weight_at] for c in callers.values())
    if not total:
        return {None: 1.0}
    split: dict = {}
    stack.add(func)
    for caller, counts in callers.items():
        share = counts[weight_at] / total
        for owner, part in _owners(caller, stats, memo, stack).items():
            split[owner] = split.get(owner, 0.0) + share * part
    stack.discard(func)
    memo[func] = split
    return split


def bucket(stats: dict) -> dict:
    """Bucket ``pstats.Stats(...).stats`` by layer.

    Returns ``{"self_s": {layer: s}, "calls": {layer: n}, "total_s": s,
    "unattributed_s": s}``; calls count the layer's own functions only.
    """
    self_s = dict.fromkeys(LAYERS, 0.0)
    calls = dict.fromkeys(LAYERS, 0)
    unattributed = 0.0
    memo: dict = {}
    for func, (_cc, ncalls, tottime, _ct, callers) in stats.items():
        layer = layer_of_file(func[0])
        if layer is not None:
            self_s[layer] += tottime
            calls[layer] += ncalls
            continue
        # Foreign code: split its self time per caller.
        if not callers:
            unattributed += tottime
            continue
        for caller, counts in callers.items():
            for owner, part in _owners(caller, stats, memo, set()).items():
                if owner is None:
                    unattributed += counts[2] * part
                else:
                    self_s[owner] += counts[2] * part
    total = sum(self_s.values()) + unattributed
    return {
        "self_s": self_s,
        "calls": calls,
        "total_s": total,
        "unattributed_s": unattributed,
    }


def function_totals(stats: dict, path_suffix: str, name: str) -> tuple[int, float]:
    """``(calls, cumulative seconds)`` summed over functions called
    ``name`` in files ending with ``path_suffix``."""
    calls, cum = 0, 0.0
    for (filename, _line, funcname), (_cc, ncalls, _tt, cumtime, _callers) in stats.items():
        if funcname == name and filename.replace(os.sep, "/").endswith(path_suffix):
            calls += ncalls
            cum += cumtime
    return calls, cum
