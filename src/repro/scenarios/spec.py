"""The scenario-matrix grammar: fault family × topology × seed.

A matrix is a small declarative document (YAML or a plain dict):

.. code-block:: yaml

    name: default
    base:              # FleetSpec overrides shared by every cell
      sessions: 40
      duration_ms: 3000.0
    seeds: [7, 8]      # every cell runs once per seed
    topologies:
      - {name: single, msps: 1, domains: 1, shards: 1, chain_depth: 0}
      - {name: fleet,  msps: 4, domains: 2, shards: 2, chain_depth: 1}
    faults:
      - {name: calm,       family: none}
      - {name: crash,      family: crash, at_ms: 1200.0, targets: [0]}
      - {name: rack-loss,  family: correlated, at_ms: 1200.0, targets: [0, 1]}
      - {name: net-split,  family: partition, start_ms: 900.0, end_ms: 1500.0}
      - {name: site-loss,  family: disaster, at_ms: 1100.0, domain: 0}

Expansion is a pure function: each (topology, fault, seed) triple
becomes one :class:`ScenarioCell` whose :class:`~repro.fleet.FleetSpec`
is the complete seed of that cell's simulation.  Fault parameters adapt
to the topology deterministically:

- ``crash`` / ``correlated`` targets are MSP *indices*, reduced modulo
  the topology's MSP count (duplicates collapse — a one-MSP topology
  turns a rack loss into a single crash).
- ``partition`` splits the fleet between even- and odd-indexed domains,
  each side taking its MSPs *and their client machines*; a one-domain
  topology degenerates to clients-vs-servers (the resend protocol's
  blackout case).
- ``disaster`` picks ``domain % domains``; a disaster plan gives every
  MSP a warm standby.  It also emits a paired *cold-baseline* cell —
  the same MSPs crashed at the same instant with no standby — so the
  report can show what the failover bought.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.fleet import FleetSpec, FleetTopology

FAMILIES = ("none", "crash", "correlated", "partition", "disaster")

#: Matrix-level keys that are not FleetSpec overrides.
_MATRIX_KEYS = {"name", "base", "seeds", "topologies", "faults"}

#: Topology keys consumed by the grammar itself (not FleetSpec fields).
_TOPOLOGY_ONLY = {"name"}

@dataclass(frozen=True)
class ScenarioCell:
    """One runnable cell of the expanded matrix."""

    cell_id: str
    family: str
    topology: str
    seed: int
    fleet: FleetSpec
    #: Cell id of the disaster cell this cold-restart baseline pairs
    #: with (None for ordinary cells).
    baseline_of: str | None = None


@dataclass(frozen=True)
class ScenarioSpec:
    """A validated scenario matrix, ready to expand."""

    name: str
    base: tuple = ()  # sorted ((key, value), ...) FleetSpec overrides
    seeds: tuple = (0,)
    topologies: tuple = ()
    faults: tuple = ()

    @classmethod
    def from_dict(cls, doc: dict) -> "ScenarioSpec":
        unknown = sorted(set(doc) - _MATRIX_KEYS)
        if unknown:
            raise ValueError(f"unknown matrix keys: {', '.join(unknown)}")
        name = doc.get("name", "matrix")
        base = doc.get("base", {}) or {}
        fleet_fields = set(FleetSpec.__dataclass_fields__)
        bad = sorted(set(base) - fleet_fields)
        if bad:
            raise ValueError(f"base overrides unknown FleetSpec fields: {bad}")
        topologies = tuple(
            tuple(sorted(t.items())) for t in doc.get("topologies", [])
        )
        if not topologies:
            raise ValueError("matrix needs at least one topology")
        for topo in topologies:
            keys = {k for k, _v in topo}
            if "name" not in keys:
                raise ValueError("every topology needs a name")
            bad = sorted(keys - _TOPOLOGY_ONLY - fleet_fields)
            if bad:
                raise ValueError(
                    f"topology sets unknown FleetSpec fields: {bad}"
                )
        faults = tuple(tuple(sorted(f.items())) for f in doc.get("faults", []))
        if not faults:
            raise ValueError("matrix needs at least one fault entry")
        for entry in faults:
            fdict = dict(entry)
            if fdict.get("family") not in FAMILIES:
                raise ValueError(
                    f"unknown fault family {fdict.get('family')!r} "
                    f"(have {', '.join(FAMILIES)})"
                )
            if "name" not in fdict:
                raise ValueError("every fault entry needs a name")
        seeds = tuple(doc.get("seeds", [0]))
        if not seeds:
            raise ValueError("seeds must be non-empty")
        return cls(
            name=name,
            base=tuple(sorted(base.items())),
            seeds=seeds,
            topologies=topologies,
            faults=faults,
        )

    @classmethod
    def load(cls, path: str) -> "ScenarioSpec":
        import yaml

        with open(path) as fh:
            doc = yaml.safe_load(fh)
        if not isinstance(doc, dict):
            raise ValueError(f"{path}: a scenario matrix must be a mapping")
        return cls.from_dict(doc)

    # -- expansion ---------------------------------------------------------

    def expand(self) -> list[ScenarioCell]:
        """The full cell list, in canonical (topology, fault, seed)
        order; disaster cells are followed by their cold baselines.

        Every cell's fleet is validated here (``FleetTopology``), so a
        bad cell fails before any shard starts, naming the cell."""
        cells: list[ScenarioCell] = []
        for topo_items in self.topologies:
            topo = dict(topo_items)
            for fault_items in self.faults:
                fault = dict(fault_items)
                for seed in self.seeds:
                    cells.extend(self._cells_for(topo, fault, seed))
        for cell in cells:
            try:
                FleetTopology(cell.fleet)
            except ValueError as error:
                raise ValueError(f"cell {cell.cell_id}: {error}") from None
        ids = [c.cell_id for c in cells]
        if len(ids) != len(set(ids)):
            dupes = sorted({i for i in ids if ids.count(i) > 1})
            raise ValueError(f"duplicate cell ids: {', '.join(dupes)}")
        return cells

    def _cells_for(self, topo: dict, fault: dict, seed: int):
        overrides = dict(self.base)
        overrides.update(
            {k: v for k, v in topo.items() if k not in _TOPOLOGY_ONLY}
        )
        overrides["seed"] = seed
        probe = FleetSpec(**overrides)  # shape before fault application
        cell_id = f"{topo['name']}/{fault['name']}/s{seed}"
        family = fault["family"]

        if family == "none":
            yield ScenarioCell(cell_id, family, topo["name"], seed,
                               FleetSpec(**overrides))
            return

        if family in ("crash", "correlated"):
            at = float(fault["at_ms"])
            victims = sorted(
                {f"m{int(i) % probe.msps:03d}" for i in fault["targets"]}
            )
            overrides["crash_plan"] = tuple((at, v) for v in victims)
            yield ScenarioCell(cell_id, family, topo["name"], seed,
                               FleetSpec(**overrides))
            return

        if family == "partition":
            side_a, side_b = _partition_sides(probe)
            overrides["partition_plan"] = (
                (float(fault["start_ms"]), float(fault["end_ms"]),
                 side_a, side_b),
            )
            yield ScenarioCell(cell_id, family, topo["name"], seed,
                               FleetSpec(**overrides))
            return

        # disaster: warm-standby failover plus a paired cold baseline.
        at = float(fault["at_ms"])
        domain = int(fault.get("domain", 0)) % probe.domains
        warm = dict(overrides)
        warm["disaster_plan"] = ((at, domain),)
        yield ScenarioCell(cell_id, family, topo["name"], seed,
                           FleetSpec(**warm))
        members = tuple(
            f"m{i:03d}" for i in range(probe.msps)
            if i % probe.domains == domain
        )
        cold = dict(overrides)
        cold["crash_plan"] = tuple((at, m) for m in members)
        yield ScenarioCell(f"{cell_id}-coldbase", "disaster-baseline",
                           topo["name"], seed, FleetSpec(**cold),
                           baseline_of=cell_id)


def _partition_sides(spec: FleetSpec) -> tuple[tuple, tuple]:
    """Deterministic side split for a topology.

    Multi-domain fleets split between even- and odd-indexed domains
    (round-robin placement: ``domain_of(m_i) = i % domains``); a
    one-domain world splits servers from their clients instead, which
    exercises the same blackout machinery through the resend protocol.
    """
    names = [f"m{i:03d}" for i in range(spec.msps)]
    if spec.domains >= 2:
        even = [m for i, m in enumerate(names) if (i % spec.domains) % 2 == 0]
        odd = [m for i, m in enumerate(names) if (i % spec.domains) % 2 == 1]
        side_a = tuple(even + [f"c.{m}" for m in even])
        side_b = tuple(odd + [f"c.{m}" for m in odd])
    else:
        side_a = tuple(names)
        side_b = tuple(f"c.{m}" for m in names)
    return side_a, side_b
