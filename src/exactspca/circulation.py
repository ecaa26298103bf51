"""Max-profit integer circulations on the three-layer digraph D.

D has a hub vertex t, component vertices u_0..u_{d-1} and feature vertices
w_0..w_{n-1}.  Arcs run t -> u_i (capacity s, profit 0), u_i -> w_j
(capacity 1, profit p[i, j]) and w_j -> t (capacity 1, profit 0).  A
feasible integer circulation is thus an assignment: each feature goes to
one of the s slots of one component, or to none.  A circulation is optimal
exactly when its residual graph has no directed circuit of positive profit
(Klein 1967), which `is_optimal` checks with Bellman-Ford on negated
profits and, on failure, returns the circuit found.  `solve_max_profit`
cancels those circuits: from a greedy assignment it pushes one unit around
each circuit `is_optimal` returns until none is left, so its exit test is
the certificate itself and the module needs no `scipy`.
`optimal_at_profits` reads a flow's residual circuits off D's signed
circuit table, to mark every profit matrix where none of them gains.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import CertificateFailed, InfeasibleFlow, InvalidCircuit, InvalidParameters

MEAN_PROFIT_TOL = 1e-12
_COVER_ROWS = 512  # profit rows per block


@dataclass(frozen=True)
class CirculationInstance:
    """Problem data: dimensions, the per-component capacity s, arc profits."""

    d: int
    n: int
    s: int
    profits: np.ndarray  # (d, n); profits[i, j] on arc u_i -> w_j

    def __post_init__(self):
        if self.d < 1 or self.n < 1 or self.s < 1:
            raise InvalidParameters(
                f"need d, n, s >= 1, got ({self.d}, {self.n}, {self.s})"
            )
        profits = np.asarray(self.profits, dtype=float)
        if profits.shape != (self.d, self.n):
            raise InvalidParameters(
                f"profits shape {profits.shape} does not match ({self.d}, {self.n})"
            )
        if not np.all(np.isfinite(profits)):
            raise InvalidParameters("profits must be finite")
        object.__setattr__(self, "profits", profits)

    @property
    def num_vertices(self) -> int:
        return 1 + self.d + self.n  # t, then u's, then w's


@dataclass(frozen=True)
class Circulation:
    """Integer arc flows: a0 on u->w arcs, au on t->u arcs, aw on w->t arcs."""

    a0: np.ndarray  # (d, n)
    au: np.ndarray  # (d,)
    aw: np.ndarray  # (n,)

    def profit(self, instance: CirculationInstance) -> float:
        return float(np.sum(instance.profits * self.a0))


def check_circulation(instance: CirculationInstance, f: Circulation) -> None:
    """Raise `InfeasibleFlow` unless f is integer, within capacity, conserved.

    Each condition is one ndarray method call or two, not a numpy wrapper:
    the disjoint solver checks every flow it solves three times.
    """
    a0 = np.asarray(f.a0)
    au = np.asarray(f.au)
    aw = np.asarray(f.aw)
    if a0.shape != (instance.d, instance.n) or au.shape != (instance.d,) or aw.shape != (instance.n,):
        raise InfeasibleFlow("flow arrays have wrong shapes")
    if not {a0.dtype.kind, au.dtype.kind, aw.dtype.kind} <= {"i", "u"}:
        raise InfeasibleFlow("flows must be integer arrays")
    if a0.min() < 0 or a0.max() > 1:
        raise InfeasibleFlow("u->w flow outside [0, 1]")
    if au.min() < 0 or au.max() > instance.s:
        raise InfeasibleFlow(f"t->u flow outside [0, {instance.s}]")
    if aw.min() < 0 or aw.max() > 1:
        raise InfeasibleFlow("w->t flow outside [0, 1]")
    if (a0.sum(axis=1) != au).any():
        raise InfeasibleFlow("conservation violated at a component vertex")
    if (a0.sum(axis=0) != aw).any():
        raise InfeasibleFlow("conservation violated at a feature vertex")
    if au.sum() != aw.sum():
        raise InfeasibleFlow("conservation violated at the hub vertex")


# Residual arcs are tuples (tail, head, cost, capacity, key) with
# cost = -profit and key = ("a0"|"au"|"aw", indices..., direction).
def _residual_arcs(instance: CirculationInstance, f: Circulation):
    d, n, s = instance.d, instance.n, instance.s
    profits = instance.profits
    arcs = []
    for i in range(d):
        if f.au[i] < s:
            arcs.append((0, 1 + i, 0.0, s - int(f.au[i]), ("au", i, 1)))
        if f.au[i] > 0:
            arcs.append((1 + i, 0, 0.0, int(f.au[i]), ("au", i, -1)))
    for i in range(d):
        for j in range(n):
            p = float(profits[i, j])
            if f.a0[i, j] < 1:
                arcs.append((1 + i, 1 + d + j, -p, 1, ("a0", i, j, 1)))
            else:
                arcs.append((1 + d + j, 1 + i, p, 1, ("a0", i, j, -1)))
    for j in range(n):
        if f.aw[j] < 1:
            arcs.append((1 + d + j, 0, 0.0, 1, ("aw", j, 1)))
        else:
            arcs.append((0, 1 + d + j, 0.0, 1, ("aw", j, -1)))
    return arcs


def _cycle_profit(arcs, cycle):
    return -sum(arcs[ai][2] for ai in cycle)


def _positive_cycle_bellman_ford(num_v, arcs, tol, slack):
    dist = [0.0] * num_v
    pred = [-1] * num_v
    marked = -1
    for _ in range(num_v):
        marked = -1
        for ai, (tail, head, cost, _cap, _key) in enumerate(arcs):
            if dist[tail] + cost < dist[head] - slack:
                dist[head] = dist[tail] + cost
                pred[head] = ai
                marked = head
        if marked < 0:
            return None
    # Walk predecessors until the path closes on itself.
    vtx = marked
    for _ in range(num_v):
        if pred[vtx] < 0:
            return None
        vtx = arcs[pred[vtx]][0]
    arc_indices = []
    cur = vtx
    for _ in range(num_v + 1):
        ai = pred[cur]
        if ai < 0:
            return None
        arc_indices.append(ai)
        cur = arcs[ai][0]
        if cur == vtx:
            break
    else:
        return None
    arc_indices.reverse()
    prof = _cycle_profit(arcs, arc_indices)
    if prof > tol:
        return arc_indices
    return None


@dataclass(frozen=True)
class ResidualCircuit:
    """A directed circuit of a residual graph, kept as arc keys plus profit."""

    vertices: tuple[int, ...]  # 0 is t, 1..d are u's, d+1..d+n are w's
    arc_keys: tuple[tuple, ...]
    profit: float


def _certificate_from_cycle(arcs, cycle) -> ResidualCircuit:
    vertices = [arcs[ai][0] for ai in cycle]
    rotate = vertices.index(min(vertices))
    cycle = cycle[rotate:] + cycle[:rotate]
    vertices = vertices[rotate:] + vertices[:rotate]
    return ResidualCircuit(
        vertices=tuple(vertices),
        arc_keys=tuple(arcs[ai][4] for ai in cycle),
        profit=_cycle_profit(arcs, cycle),
    )


def is_optimal(instance: CirculationInstance,
               f: Circulation) -> tuple[bool, ResidualCircuit | None]:
    """Certify optimality: no residual directed circuit has positive profit.

    Returns (True, None) for an optimal circulation, otherwise (False,
    certificate) where the certificate is a positive-profit residual circuit.
    Both the circuit profit tolerance `MEAN_PROFIT_TOL` and the 1e-15
    relaxation slack of Bellman-Ford scale with the largest |profit| when it
    is below one, as scaling keeps optimality (Klein 1967): at 1e-16 scale
    an absolute tolerance would certify any flow.
    """
    check_circulation(instance, f)
    arcs = _residual_arcs(instance, f)
    scale = min(1.0, float(np.abs(instance.profits).max()))
    cycle = _positive_cycle_bellman_ford(instance.num_vertices, arcs,
                                         MEAN_PROFIT_TOL * scale, 1e-15 * scale)
    if cycle is None:
        return True, None
    return False, _certificate_from_cycle(arcs, cycle)


def optimal_at_profits(
    instance: CirculationInstance, f: Circulation, profit_rows, table
) -> np.ndarray:
    """Mask of the profit rows (m, d, n) at which f is optimal: no residual
    circuit of f in ``table`` gains more than the 1e-15 slack of
    `is_optimal`, scaled as there by the row's largest |profit| if below
    one.  ``table`` may omit circuits of zero profit and, for a maximum
    flow f at positive profits, circuits through one t -> u arc and one
    w -> t arc: those change the flow's value and cannot gain there."""
    check_circulation(instance, f)
    profits = np.asarray(profit_rows, dtype=float).reshape(-1, instance.d * instance.n)
    slack = 1e-15 * np.minimum(1.0, np.abs(profits).max(axis=1, initial=0.0))
    residual = residual_circuits(instance, f, table).T
    optimal = np.empty(profits.shape[0], dtype=bool)
    for start in range(0, profits.shape[0], _COVER_ROWS):
        block = slice(start, start + _COVER_ROWS)
        optimal[block] = np.all(profits[block] @ residual <= slack[block, None], axis=1)
    return optimal


def _greedy_start(instance: CirculationInstance) -> Circulation:
    """Features in descending order of their best profit (stable), each to
    its most profitable component with a free slot, when that profit is
    positive.  Optimal when every component has the same profit row."""
    s = instance.s
    rows = instance.profits.tolist()
    a0 = np.zeros((instance.d, instance.n), dtype=int)
    au = [0] * instance.d
    for j in np.argsort(-instance.profits.max(axis=0), kind="stable").tolist():
        free = [i for i in range(instance.d) if au[i] < s]
        if not free:
            break
        i = max(free, key=lambda k: rows[k][j])
        if rows[i][j] > 0.0:
            a0[i, j] = 1
            au[i] += 1
    return Circulation(a0=a0, au=a0.sum(axis=1), aw=a0.sum(axis=0))


def _push(f: Circulation, certificate: ResidualCircuit) -> Circulation:
    """f with one more unit around the residual circuit: a forward key
    raises its arc's flow by one, a backward key lowers it."""
    flows = {"a0": f.a0.copy(), "au": f.au.copy(), "aw": f.aw.copy()}
    for kind, *index, direction in certificate.arc_keys:
        flows[kind][tuple(index)] += direction
    return Circulation(**flows)


def solve_max_profit(instance: CirculationInstance) -> Circulation:
    """Maximum-profit integer circulation by cycle canceling (Klein 1967).

    Starts from `_greedy_start`, optimal as it stands at rank <= 1, and
    pushes one unit around each positive residual circuit `is_optimal`
    returns until it certifies the flow.  Raises `CertificateFailed` when
    `is_optimal` rejects a flow without a circuit, or after d * n pushes.
    """
    cap = instance.d * instance.n
    f = _greedy_start(instance)
    for pushes in range(cap + 1):
        optimal, certificate = is_optimal(instance, f)
        if optimal:
            return f
        if certificate is None or pushes == cap:
            raise CertificateFailed(
                f"flow not certified after {pushes} pushes: {certificate}"
            )
        f = _push(f, certificate)


def supports_from_circulation(
    instance: CirculationInstance, f: Circulation
) -> tuple[tuple[int, ...], ...]:
    """Per-component feature sets {j : flow on u_i -> w_j is 1}."""
    check_circulation(instance, f)
    return tuple(
        tuple(int(j) for j in np.nonzero(f.a0[i])[0]) for i in range(instance.d)
    )


@dataclass(frozen=True)
class UndirectedCircuit:
    """An undirected circuit of D with its signed incidence over u->w arcs.

    ``u_sequence`` and ``w_sequence`` list the vertices in traversal order.
    Circuits through the hub are traversed starting and ending at t; the
    alternating kind cycles through u's and w's only.  ``chi_items`` maps
    each traversed u->w arc to +1 (forward) or -1 (backward).
    """

    u_sequence: tuple[int, ...]
    w_sequence: tuple[int, ...]
    through_t: bool
    chi_items: tuple[tuple[tuple[int, int], int], ...]

    @property
    def chi(self) -> dict[tuple[int, int], int]:
        return dict(self.chi_items)

    @property
    def kind(self) -> str:
        return "through_t" if self.through_t else "alternating"

    def canonical_key(self):
        flipped = tuple((arc, -sign) for arc, sign in self.chi_items)
        return min(self.chi_items, flipped)


def _interleaved_tokens(u_seq, w_seq, through_t):
    ku, kw = len(u_seq), len(w_seq)
    tokens = []
    if through_t and kw == ku + 1:
        for m in range(ku):
            tokens.append(("w", w_seq[m]))
            tokens.append(("u", u_seq[m]))
        tokens.append(("w", w_seq[ku]))
    elif ku == kw or (through_t and ku == kw + 1):
        for m in range(kw):
            tokens.append(("u", u_seq[m]))
            tokens.append(("w", w_seq[m]))
        if ku == kw + 1:
            tokens.append(("u", u_seq[ku - 1]))
    else:
        raise InvalidCircuit(
            f"sequence lengths ({ku}, {kw}) do not form a circuit"
        )
    if through_t:
        tokens = [("t", -1)] + tokens
    return tokens


def _make_circuit(u_seq, w_seq, through_t) -> UndirectedCircuit:
    u_seq = tuple(u_seq)
    w_seq = tuple(w_seq)
    if len(set(u_seq)) != len(u_seq) or len(set(w_seq)) != len(w_seq):
        raise InvalidCircuit("vertex sequences must be distinct")
    if not through_t and (len(u_seq) != len(w_seq) or len(u_seq) < 2):
        raise InvalidCircuit("alternating circuits need k >= 2 of each kind")
    if through_t and abs(len(u_seq) - len(w_seq)) > 1:
        raise InvalidCircuit("through-t circuits need |#u - #w| <= 1")
    if not u_seq or not w_seq:
        raise InvalidCircuit("a circuit visits at least one u and one w")
    tokens = _interleaved_tokens(u_seq, w_seq, through_t)
    chi: dict[tuple[int, int], int] = {}
    size = len(tokens)
    for a in range(size):
        x = tokens[a]
        y = tokens[(a + 1) % size]
        if x[0] == "u" and y[0] == "w":
            arc = (x[1], y[1])
            sign = 1
        elif x[0] == "w" and y[0] == "u":
            arc = (y[1], x[1])
            sign = -1
        else:
            continue  # edges at t carry no profit
        if arc in chi:
            raise InvalidCircuit(f"arc {arc} traversed twice")
        chi[arc] = sign
    return UndirectedCircuit(
        u_sequence=u_seq,
        w_sequence=w_seq,
        through_t=through_t,
        chi_items=tuple(sorted(chi.items())),
    )


def enumerate_undirected_circuits(d: int, n: int) -> list[UndirectedCircuit]:
    """All undirected circuits of D, one representative per traversal reversal.

    Four families exhaust the circuits of the three-layer graph: circuits
    through t with equally many u's and w's, circuits through t entering and
    leaving via u's (one extra u), circuits through t entering and leaving
    via w's (one extra w), and alternating u-w circuits avoiding t.
    """
    if d < 1 or n < 1:
        raise InvalidParameters(f"need d, n >= 1, got ({d}, {n})")
    circuits: list[UndirectedCircuit] = []
    seen = set()

    def add(u_seq, w_seq, through_t):
        circuit = _make_circuit(u_seq, w_seq, through_t)
        key = circuit.canonical_key()
        if key in seen:
            return
        seen.add(key)
        circuits.append(circuit)

    # Through t, balanced: t-u-w-...-u-w-t.  One u-first traversal each.
    for k in range(1, min(d, n) + 1):
        for u_seq in itertools.permutations(range(d), k):
            for w_seq in itertools.permutations(range(n), k):
                add(u_seq, w_seq, True)
    # Through t via two t-u edges: t-u-w-...-w-u-t; reversal stays u-first.
    for k in range(2, d + 1):
        if k - 1 > n:
            break
        for u_seq in itertools.permutations(range(d), k):
            for w_seq in itertools.permutations(range(n), k - 1):
                if (u_seq, w_seq) > (u_seq[::-1], w_seq[::-1]):
                    continue
                add(u_seq, w_seq, True)
    # Through t via two w-t edges: t-w-u-...-u-w-t.
    for k in range(1, d + 1):
        if k + 1 > n:
            break
        for u_seq in itertools.permutations(range(d), k):
            for w_seq in itertools.permutations(range(n), k + 1):
                if (w_seq, u_seq) > (w_seq[::-1], u_seq[::-1]):
                    continue
                add(u_seq, w_seq, True)
    # Alternating u-w cycles: rotation fixed by starting at the smallest u,
    # reflection resolved lexicographically.
    for k in range(2, min(d, n) + 1):
        for u_set in itertools.combinations(range(d), k):
            u0 = u_set[0]
            for u_rest in itertools.permutations(u_set[1:]):
                u_seq = (u0,) + u_rest
                for w_seq in itertools.permutations(range(n), k):
                    u_ref = (u0,) + tuple(reversed(u_rest))
                    w_ref = tuple(reversed(w_seq))
                    if (u_seq, w_seq) > (u_ref, w_ref):
                        continue
                    add(u_seq, w_seq, False)
    return circuits


def circuit_table(circuits, d: int, n: int) -> np.ndarray:
    """Signed arc incidence of ``circuits``: +1 where a traversal follows an
    arc, -1 against it.  Columns: u_i -> w_j at i*n + j (``chi``), t -> u_i
    at d*n + i, w_j -> t at d*n + d + j; flow is conserved, so the hub
    columns sum the ``chi`` entries."""
    chi = np.zeros((len(circuits), d * n))
    for row, circuit in enumerate(circuits):
        for (i, j), sign in circuit.chi_items:
            chi[row, i * n + j] = sign
    block = chi.reshape(-1, d, n)
    return np.hstack([chi, block.sum(axis=2), block.sum(axis=1)])


def residual_circuits(instance: CirculationInstance, f: Circulation, table) -> np.ndarray:
    """The u->w columns of f's residual circuits in ``table``: a row as is
    where flow can rise on every arc it follows and fall on every arc it
    runs against, negated where the reverse holds."""
    dn = instance.d * instance.n
    flow = np.concatenate([np.ravel(f.a0), f.au, f.aw])
    caps = np.ones_like(flow)
    caps[dn : dn + instance.d] = instance.s
    full, empty = flow >= caps, flow <= 0
    follows, against = table > 0, table < 0
    forward = ~np.any(follows & full | against & empty, axis=1)
    backward = ~np.any(follows & empty | against & full, axis=1)
    return np.vstack([table[forward, :dn], -table[backward, :dn]])

