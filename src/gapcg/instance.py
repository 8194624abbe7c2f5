"""GAP instance model: parsing, generation, validation and serialization.

Instances are minimization problems: assign every job to exactly one
machine, paying ``cost[i, j]`` and consuming ``resource[i, j]`` units of
machine ``i``'s ``capacity[i]``. Matrices are immutable after
construction so instances can be shared freely across pricing workers.

``parse`` splits the text once and converts each section of a block in
one numpy call; a malformed file raises :class:`ParseError` at its first
bad token. ``validate`` raises :class:`InfeasibleInstanceError` for an
instance the solver cannot take. ``relabel`` renumbers the jobs and
machines of an instance by a seed.
"""

from __future__ import annotations

from dataclasses import dataclass

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


def _ints(tokens: list[str], start: int, count: int, section: str,
          nonnegative: str | None = None) -> np.ndarray:
    """The ``count`` int64 values from token ``start`` on, converted in one call.

    ``nonnegative`` names the entries that must not be negative. Only when
    the slice is bad does a scan find its first bad token, in file order.
    """
    chunk = tokens[start:start + count]
    try:
        values = np.array(chunk, dtype=np.int64)  # int() semantics, token by token
    except (ValueError, OverflowError):
        pass
    else:
        if len(chunk) == count and not (nonnegative and (values < 0).any()):
            return values
    for offset, tok in enumerate(chunk, start):
        try:
            value = int(tok)
        except ValueError:
            raise ParseError(f"non-integer token {tok!r} while reading {section}", offset) from None
        if not _INT64_MIN <= value <= _INT64_MAX:
            raise ParseError(f"integer {tok} outside int64 while reading {section}", offset)
        if nonnegative and value < 0:
            raise ParseError(f"negative {nonnegative} {value}", offset)
    raise ParseError(f"unexpected end of input while reading {section}", len(tokens))


def _read_block(tokens: list[str], pos: int, name: str) -> tuple[GapInstance, int]:
    """The block at token ``pos`` and the position after it."""
    m, n = _ints(tokens, pos, 2, "header").tolist()
    pos += 2
    if m < 1 or n < 1:
        raise ParseError(f"invalid dimensions {m} x {n}", pos)
    cost = _ints(tokens, pos, m * n, "costs").reshape(m, n)
    resource = _ints(tokens, pos + m * n, m * n, "resources", "resource").reshape(m, n)
    capacity = _ints(tokens, pos + 2 * m * n, m, "capacities", "capacity")
    return GapInstance(m, n, cost, resource, capacity, name=name), pos + 2 * m * n + m


def parse(text: str, format: str = "single") -> list[GapInstance]:
    """Parse instance text into one or more instances.

    ``format="single"`` reads exactly one block; ``format="orlib-multi"``
    reads a leading instance count followed by that many blocks. A block is
    ``m n``, then m*n costs row-major, m*n resources row-major, m capacities.
    """
    tokens = text.split()
    if format == "single":
        inst, pos = _read_block(tokens, 0, "block-1")
        if pos < len(tokens):
            raise ParseError("trailing tokens after single block", pos)
        return [inst]
    if format == "orlib-multi":
        count = int(_ints(tokens, 0, 1, "instance count")[0])
        if count < 1:
            raise ParseError(f"invalid instance count {count}", 1)
        out, pos = [], 1
        for k in range(count):
            inst, pos = _read_block(tokens, pos, f"block-{k + 1}")
            out.append(inst)
        if pos < len(tokens):
            raise ParseError("trailing tokens after final block", pos)
        return out
    raise ValueError(f"unknown format {format!r}; expected 'single' or 'orlib-multi'")


def serialize(inst: GapInstance) -> str:
    """Emit the single-block text format, one matrix row per line."""
    rows = [[inst.num_machines, inst.num_jobs], *inst.cost.tolist(), *inst.resource.tolist(),
            inst.capacity.tolist()]
    return "".join(" ".join(map(str, row)) + "\n" for row in rows)


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
    # the largest cost size and machine resource sum this spec can draw
    if max(max(chi, 0) - min(clo, 0), rhi) * spec.num_jobs > _EXACT_SUM:
        raise ValueError("cost or resource range times num_jobs exceeds 2^53")
    rng = np.random.default_rng(spec.seed)
    cost = rng.integers(clo, chi + 1, size=(spec.num_machines, spec.num_jobs))
    resource = rng.integers(rlo, rhi + 1, size=(spec.num_machines, spec.num_jobs))
    capacity = np.rint(spec.capacity_slack * resource.sum(axis=1) / spec.num_machines).astype(np.int64)
    name = f"gen-m{spec.num_machines}-n{spec.num_jobs}-s{spec.seed}"
    return GapInstance(spec.num_machines, spec.num_jobs, cost, resource, capacity, name=name)


def relabel(inst: GapInstance, seed: int) -> GapInstance:
    """``inst`` with its jobs and machines renumbered by ``seed``.

    Seed 0 returns ``inst`` itself. Any other seed draws a job and then a
    machine permutation from ``np.random.default_rng(seed)``; the copy keeps
    the name, so the same problem runs under another labeling.
    """
    if seed == 0:
        return inst
    rng = np.random.default_rng(seed)
    jobs = rng.permutation(inst.num_jobs)
    machines = rng.permutation(inst.num_machines)
    cells = np.ix_(machines, jobs)
    return GapInstance(inst.num_machines, inst.num_jobs, inst.cost[cells], inst.resource[cells],
                       inst.capacity[machines], name=inst.name)


def _fail_on(*checks: tuple[bool, str]):
    """Raise one error that names the problem of every failed check."""
    problems = [problem for failed, problem in checks if failed]
    if problems:
        raise InfeasibleInstanceError("; ".join(problems))


def validate(inst: GapInstance):
    """Raise :class:`InfeasibleInstanceError` unless ``inst`` can be solved.

    The checks run in four stages and the first stage that fails raises:
    the matrix shapes, negative entries, jobs that fit on no machine, and
    sums too large to stay exact (see ``_EXACT_SUM``).
    """
    m, n = inst.num_machines, inst.num_jobs
    _fail_on((inst.cost.shape != (m, n), f"cost matrix shape {inst.cost.shape} != ({m}, {n})"),
             (inst.resource.shape != (m, n),
              f"resource matrix shape {inst.resource.shape} != ({m}, {n})"),
             (inst.capacity.shape != (m,), f"capacity length {inst.capacity.shape} != ({m},)"))
    _fail_on(((inst.resource < 0).any(), "negative resource entry"),
             ((inst.capacity < 0).any(), "negative capacity entry"))
    unassignable = np.flatnonzero(~(inst.resource <= inst.capacity[:, None]).any(axis=0)).tolist()
    _fail_on((bool(unassignable), f"jobs {unassignable} fit on no machine"))
    size = sum(max(0, hi) - min(0, lo)
               for hi, lo in zip(inst.cost.max(0).tolist(), inst.cost.min(0).tolist()))
    largest = max(map(sum, inst.resource.tolist()))
    _fail_on((size > _EXACT_SUM, f"cost size sum_j max_i |c_ij| {size} exceeds 2^53"),
             (largest > _EXACT_SUM, f"largest machine resource sum {largest} exceeds 2^53"))
