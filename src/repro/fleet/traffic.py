"""Open-loop traffic generation for fleet runs (DESIGN.md §17).

Arrivals are *open loop*: session start times come from a rate curve
(baseline rate with periodic bursts), independent of how fast the fleet
serves them — the paper's middleware is sized for admission-controlled
web traffic, and overload shows up as queueing, busy replies and resend
storms rather than as a politely throttled generator.

Determinism: every draw comes from one named RNG stream in one fixed
order (session index order).  Every shard generates the *full* fleet
plan identically and keeps only the sessions homed on its own MSPs, so
no cross-shard coordination is needed and the plan is byte-stable at
any shard/jobs combination.  Generation is O(sessions) with O(1) state,
so ~10^6 sessions are a few seconds of setup, not a memory problem.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate
from typing import Iterator

from repro.fleet.topology import FleetTopology

#: Resolution of the arrival-rate inverse CDF.
_RATE_BINS = 512
#: Zipf-ish skew of requests per session (higher alpha = flatter).
ZIPF_ALPHA = 1.3
#: Burst shape of the arrival-rate curve: every ``BURST_EVERY_MS`` the
#: rate multiplies by ``BURST_FACTOR`` for ``BURST_LENGTH_MS``.
BURST_FACTOR = 3.0
BURST_EVERY_MS = 4_000.0
BURST_LENGTH_MS = 500.0


@dataclass(frozen=True)
class SessionPlan:
    """One session's full deterministic script."""

    index: int
    session_id: str
    #: Home MSP (the one the client opens the session against).
    home: str
    arrival_ms: float
    #: Hop targets per call: ``calls[i]`` is the chain the i-th request
    #: walks after executing at the home MSP (may be empty).
    calls: tuple[tuple[str, ...], ...]


def _rate_cdf(duration_ms: float) -> list[float]:
    """Cumulative arrival mass per time bin over the arrival window."""
    weights = []
    for b in range(_RATE_BINS):
        t = (b + 0.5) * duration_ms / _RATE_BINS
        in_burst = (t % BURST_EVERY_MS) < BURST_LENGTH_MS
        weights.append(BURST_FACTOR if in_burst else 1.0)
    return list(accumulate(weights))


def _invert(cdf: list[float], u: float, duration_ms: float) -> float:
    """Map uniform ``u`` in [0,1) through the inverse rate CDF."""
    target = u * cdf[-1]
    b = bisect_right(cdf, target)
    lo = cdf[b - 1] if b > 0 else 0.0
    span = cdf[b] - lo if b < len(cdf) else 1.0
    frac = (target - lo) / span if span > 0 else 0.0
    return (b + frac) * duration_ms / _RATE_BINS


def generate_session_plans(topology: FleetTopology, rng) -> Iterator[SessionPlan]:
    """Yield every session's plan in index order (full fleet view).

    ``rng`` is the dedicated ``fleet.traffic`` stream; all draws happen
    here, in one fixed order, so the plan is a pure function of the
    spec's seed.
    """
    spec = topology.spec
    cdf = _rate_cdf(spec.duration_ms)
    # Hot/cold placement: inverse-CDF over the per-MSP arrival weights.
    placement_cdf = list(accumulate(topology.arrival_weights))
    placement_total = placement_cdf[-1]
    names = topology.msp_names
    width = len(str(max(spec.sessions - 1, 1)))

    for k in range(spec.sessions):
        arrival = _invert(cdf, rng.random(), spec.duration_ms)
        home = names[bisect_right(placement_cdf, rng.random() * placement_total)]
        # Zipf-ish request count: most sessions are one-shot, a hot tail
        # runs up to the cap.
        n_calls = min(
            spec.max_requests_per_session, max(1, int(rng.paretovariate(ZIPF_ALPHA)))
        )
        calls = []
        for _ in range(n_calls):
            hops: list[str] = []
            here = home
            for _ in range(spec.chain_depth):
                cross = rng.random() < spec.cross_domain_fraction
                if cross:
                    candidates = topology.peers_outside_domain(here)
                else:
                    candidates = topology.peers_inside_domain(here)
                if not candidates:
                    # Draw parity: consume the index draw even when the
                    # hop is impossible (single-domain or singleton
                    # domain), so plans stay stable across shapes.
                    rng.random()
                    continue
                here = candidates[int(rng.random() * len(candidates))]
                hops.append(here)
            calls.append(tuple(hops))
        yield SessionPlan(
            index=k,
            session_id=f"s{k:0{width}d}",
            home=home,
            arrival_ms=arrival,
            calls=tuple(calls),
        )


def encode_hops(hops: tuple[str, ...]) -> bytes:
    """Wire form of a chain suffix, carried in the request argument so
    logged-request replay re-walks the same chain."""
    return ("h=" + ",".join(hops)).encode()


def decode_hops(argument: bytes) -> tuple[str, ...]:
    text = bytes(argument).decode()
    if not text.startswith("h=") or len(text) == 2:
        return ()
    return tuple(text[2:].split(","))
