"""GAP instance model: parsing, generation, validation and serialization.

Instances are minimization problems: assign every job to exactly one
machine, paying ``cost[i, j]`` and consuming ``resource[i, j]`` units of
machine ``i``'s ``capacity[i]``. Matrices are immutable after
construction so instances can be shared freely across pricing workers.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

_INT64_MIN, _INT64_MAX = -2**63, 2**63 - 1  # the instance matrices are int64
_EXACT_SUM = 2**53  # below it, int64 sums and float64 LP costs are both exact


class ParseError(ValueError):
    """Malformed instance text; carries the offset of the offending token."""

    def __init__(self, message: str, token_offset: int):
        super().__init__(f"{message} (at token {token_offset})")
        self.token_offset = token_offset


class InfeasibleInstanceError(ValueError):
    """Instance cannot be solved (e.g. a job fits on no machine)."""


@dataclass(eq=False)
class GapInstance:
    num_machines: int
    num_jobs: int
    cost: np.ndarray      # (num_machines, num_jobs) int
    resource: np.ndarray  # (num_machines, num_jobs) int, nonnegative
    capacity: np.ndarray  # (num_machines,) int, nonnegative
    name: str = "unnamed"

    def __post_init__(self):
        self.cost = np.ascontiguousarray(self.cost, dtype=np.int64)
        self.resource = np.ascontiguousarray(self.resource, dtype=np.int64)
        self.capacity = np.ascontiguousarray(self.capacity, dtype=np.int64)
        for arr in (self.cost, self.resource, self.capacity):
            arr.flags.writeable = False

    @property
    def ratio(self) -> float:
        """Job-to-machine ratio, the degeneracy proxy used throughout."""
        return self.num_jobs / self.num_machines


@dataclass
class GeneratorSpec:
    num_machines: int
    num_jobs: int
    cost_range: tuple[int, int] = (10, 50)
    resource_range: tuple[int, int] = (5, 25)
    capacity_slack: float = 0.8
    seed: int = 0


@dataclass
class ValidationReport:
    errors: list[str] = field(default_factory=list)
    unassignable_jobs: list[int] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.errors and not self.unassignable_jobs


class _TokenStream:
    def __init__(self, text: str):
        self._tokens = text.split()
        self._pos = 0

    @property
    def pos(self) -> int:
        return self._pos

    def exhausted(self) -> bool:
        return self._pos >= len(self._tokens)

    def next_int(self, section: str) -> int:
        if self._pos >= len(self._tokens):
            raise ParseError(f"unexpected end of input while reading {section}", self._pos)
        tok = self._tokens[self._pos]
        try:
            value = int(tok)
        except ValueError:
            raise ParseError(f"non-integer token {tok!r} while reading {section}", self._pos) from None
        if not _INT64_MIN <= value <= _INT64_MAX:
            raise ParseError(f"integer {tok} outside int64 while reading {section}", self._pos)
        self._pos += 1
        return value


def _read_block(stream: _TokenStream, name: str) -> GapInstance:
    m = stream.next_int("header")
    n = stream.next_int("header")
    if m < 1 or n < 1:
        raise ParseError(f"invalid dimensions {m} x {n}", stream.pos)
    cost = np.array([[stream.next_int("costs") for _ in range(n)] for _ in range(m)])
    resource = np.empty((m, n), dtype=np.int64)
    for i in range(m):
        for j in range(n):
            offset = stream.pos
            value = stream.next_int("resources")
            if value < 0:
                raise ParseError(f"negative resource {value}", offset)
            resource[i, j] = value
    capacity = np.empty(m, dtype=np.int64)
    for i in range(m):
        offset = stream.pos
        value = stream.next_int("capacities")
        if value < 0:
            raise ParseError(f"negative capacity {value}", offset)
        capacity[i] = value
    return GapInstance(m, n, cost, resource, capacity, name=name)


def parse(text: str, format: str = "single") -> list[GapInstance]:
    """Parse instance text into one or more instances.

    ``format="single"`` reads exactly one block; ``format="orlib-multi"``
    reads a leading instance count followed by that many blocks. A block is
    ``m n``, then m*n costs row-major, m*n resources row-major, m capacities.
    """
    stream = _TokenStream(text)
    if format == "single":
        inst = _read_block(stream, "block-1")
        if not stream.exhausted():
            raise ParseError("trailing tokens after single block", stream.pos)
        return [inst]
    if format == "orlib-multi":
        count = stream.next_int("instance count")
        if count < 1:
            raise ParseError(f"invalid instance count {count}", stream.pos)
        out = [_read_block(stream, f"block-{k + 1}") for k in range(count)]
        if not stream.exhausted():
            raise ParseError("trailing tokens after final block", stream.pos)
        return out
    raise ValueError(f"unknown format {format!r}; expected 'single' or 'orlib-multi'")


def serialize(inst: GapInstance) -> str:
    """Emit the single-block text format, one matrix row per line."""
    lines = [f"{inst.num_machines} {inst.num_jobs}"]
    lines.extend(" ".join(str(v) for v in row) for row in inst.cost)
    lines.extend(" ".join(str(v) for v in row) for row in inst.resource)
    lines.append(" ".join(str(v) for v in inst.capacity))
    return "\n".join(lines) + "\n"


def generate(spec: GeneratorSpec) -> GapInstance:
    """Draw a random instance; identical spec gives a bit-identical instance.

    Costs and resources are uniform on the given closed ranges; capacities
    follow the classic proportional rule
    ``capacity_i = round(slack * sum_j resource_ij / num_machines)``.
    """
    if spec.num_machines < 1 or spec.num_jobs < 1:
        raise ValueError("num_machines and num_jobs must be positive")
    clo, chi = spec.cost_range
    rlo, rhi = spec.resource_range
    if clo > chi or rlo > rhi:
        raise ValueError("empty cost or resource range")
    if rlo < 1:
        raise ValueError("resource_range must be positive")
    if not 0.0 < spec.capacity_slack <= 1.0:
        raise ValueError("capacity_slack must lie in (0, 1]")
    rng = np.random.default_rng(spec.seed)
    cost = rng.integers(clo, chi + 1, size=(spec.num_machines, spec.num_jobs))
    resource = rng.integers(rlo, rhi + 1, size=(spec.num_machines, spec.num_jobs))
    capacity = np.rint(spec.capacity_slack * resource.sum(axis=1) / spec.num_machines).astype(np.int64)
    name = f"gen-m{spec.num_machines}-n{spec.num_jobs}-s{spec.seed}"
    return GapInstance(spec.num_machines, spec.num_jobs, cost, resource, capacity, name=name)


def validate(inst: GapInstance) -> ValidationReport:
    """Report structural violations, sums too large to stay exact (see
    ``_EXACT_SUM``) and jobs that fit on no machine."""
    report = ValidationReport()
    m, n = inst.num_machines, inst.num_jobs
    if inst.cost.shape != (m, n):
        report.errors.append(f"cost matrix shape {inst.cost.shape} != ({m}, {n})")
    if inst.resource.shape != (m, n):
        report.errors.append(f"resource matrix shape {inst.resource.shape} != ({m}, {n})")
    if inst.capacity.shape != (m,):
        report.errors.append(f"capacity length {inst.capacity.shape} != ({m},)")
    if report.errors:
        return report
    if (inst.resource < 0).any():
        report.errors.append("negative resource entry")
    if (inst.capacity < 0).any():
        report.errors.append("negative capacity entry")
    if report.errors:
        return report
    size = sum(max(0, hi) - min(0, lo)
               for hi, lo in zip(inst.cost.max(0).tolist(), inst.cost.min(0).tolist()))
    for what, total in (("cost size sum_j max_i |c_ij|", size),
                        ("largest machine resource sum", max(map(sum, inst.resource.tolist())))):
        if total > _EXACT_SUM:
            report.errors.append(f"{what} {total} exceeds 2^53")
    fits = inst.resource <= inst.capacity[:, None]
    for j in np.flatnonzero(~fits.any(axis=0)):
        report.unassignable_jobs.append(int(j))
    return report


def require_valid(inst: GapInstance):
    """Raise :class:`InfeasibleInstanceError` unless ``validate`` passes."""
    report = validate(inst)
    if report.unassignable_jobs:
        raise InfeasibleInstanceError(f"jobs {report.unassignable_jobs} fit on no machine")
    if report.errors:
        raise InfeasibleInstanceError("; ".join(report.errors))
