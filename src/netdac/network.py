"""Communication graphs, Metropolis consensus weights, and link failures.

Agents share critic parameters by repeated local averaging: each step every
agent replaces its vector with a convex combination of its neighbors' vectors
using a weight matrix C sampled for that step (for the (N, d) array of the
agents' vectors, one round is ``C @ params``).  Metropolis weights

    c_ij = 1 / (1 + max(deg(i), deg(j)))        for edges {i, j},
    c_ii = 1 - sum_{j in N(i)} c_ij,

are symmetric and doubly stochastic for any undirected graph.  A
:class:`GraphProcess` makes the matrix random by deleting each edge
independently each step (link failures); the deleted edge's weight is folded
back into the two endpoint diagonals, which preserves symmetry and double
stochasticity, so the averaging assumptions hold per sample.
"""

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "CommGraph",
    "path_graph",
    "ring_graph",
    "star_graph",
    "complete_graph",
    "edgeless_graph",
    "load_edge_list",
    "metropolis_weights",
    "GraphProcess",
    "check_failure_prob",
    "expected_mixing",
    "ConsensusReport",
    "check_assumption_random_matrices",
]

#: Smallest weight a surviving link is allowed to carry.
MIN_POSITIVE_WEIGHT = 1e-3


@dataclass(frozen=True)
class CommGraph:
    """Undirected simple graph on nodes 0..n-1 with a sorted edge tuple."""

    n: int
    edges: tuple

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("graph needs at least one node")
        seen = set()
        for e in self.edges:
            if len(e) != 2:
                raise ValueError(f"edge {e!r} is not a pair")
            i, j = e
            if not (0 <= i < self.n and 0 <= j < self.n) or i == j:
                raise ValueError(f"edge {e!r} out of range or a self-loop")
            if (i, j) in seen or (j, i) in seen:
                raise ValueError(f"duplicate edge {e!r}")
            if i > j:
                raise ValueError(f"edge {e!r} must be ordered (i < j)")
            seen.add((i, j))
        object.__setattr__(self, "edges", tuple(sorted(self.edges)))

    def degrees(self) -> np.ndarray:
        d = np.zeros(self.n, dtype=int)
        for i, j in self.edges:
            d[i] += 1
            d[j] += 1
        return d


def path_graph(n: int) -> CommGraph:
    return CommGraph(n, tuple((i, i + 1) for i in range(n - 1)))


def ring_graph(n: int) -> CommGraph:
    if n < 3:
        return path_graph(n)
    return CommGraph(n, tuple((i, i + 1) for i in range(n - 1)) + ((0, n - 1),))


def star_graph(n: int) -> CommGraph:
    return CommGraph(n, tuple((0, i) for i in range(1, n)))


def complete_graph(n: int) -> CommGraph:
    return CommGraph(n, tuple((i, j) for i in range(n) for j in range(i + 1, n)))


def edgeless_graph(n: int) -> CommGraph:
    return CommGraph(n, ())


def load_edge_list(text: str, n: int = None) -> CommGraph:
    """Parse an edge-list description: one ``i j`` pair per line.

    Blank lines and ``#`` comments are ignored.  Node count defaults to
    1 + the largest index mentioned; pass ``n`` to include isolated nodes
    (every index must then be below ``n``).  Malformed lines raise
    ``ValueError`` naming the line.
    """
    edges = []
    top = -1
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ValueError(f"edge list line {ln}: expected two node indices, got {raw!r}")
        try:
            i, j = int(parts[0]), int(parts[1])
        except ValueError as exc:
            raise ValueError(f"edge list line {ln}: non-integer node index in {raw!r}") from exc
        if i == j:
            raise ValueError(f"edge list line {ln}: self-loop {i}")
        if i < 0 or j < 0:
            raise ValueError(f"edge list line {ln}: negative node index")
        if n is not None and max(i, j) >= n:
            raise ValueError(f"edge list line {ln}: node {max(i, j)} out of range for {n} nodes")
        edges.append((min(i, j), max(i, j)))
        top = max(top, i, j)
    count = (top + 1) if n is None else int(n)
    if count < 1:
        raise ValueError("graph needs at least one node")
    return CommGraph(count, tuple(sorted(set(edges))))


def metropolis_weights(graph: CommGraph) -> np.ndarray:
    """Symmetric doubly-stochastic weight matrix from node degrees."""
    deg = graph.degrees()
    c = np.zeros((graph.n, graph.n))
    for i, j in graph.edges:
        w = 1.0 / (1.0 + max(deg[i], deg[j]))
        c[i, j] = c[j, i] = w
    np.fill_diagonal(c, 1.0 - c.sum(axis=1))
    return c


def check_failure_prob(p: float) -> None:
    """Raise ValueError unless ``p`` is a valid link-failure probability, in [0, 1)."""
    if not 0.0 <= p < 1.0:
        raise ValueError("failure_prob must lie in [0, 1)")


@dataclass
class GraphProcess:
    """Random weight-matrix sequence over a fixed base graph.

    Each call to :meth:`sample_weights` deletes every base edge independently
    with probability ``failure_prob`` and returns the base Metropolis matrix
    with each deleted edge's weight moved onto the two endpoint diagonals.
    ``failure_prob = 0`` gives the constant base matrix (and consumes no
    random numbers).
    """

    base: CommGraph
    failure_prob: float = 0.0
    rng: np.random.Generator = None

    base_weights: np.ndarray = field(init=False)

    def __post_init__(self):
        check_failure_prob(self.failure_prob)
        if self.rng is None:
            self.rng = np.random.default_rng(0)
        self.base_weights = metropolis_weights(self.base)
        self.base_weights.flags.writeable = False  # shared by the p=0 fast path
        self._edges = tuple(self.base.edges)  # already sorted
        self._base_directed = 2 * len(self._edges)

    def sample_weights(self) -> np.ndarray:
        """One step's consensus matrix C_t (symmetric, doubly stochastic).

        With ``failure_prob = 0`` the (read-only) base matrix itself is
        returned; otherwise a fresh matrix is built for the sampled edge set.
        """
        if self.failure_prob == 0.0:
            return self.base_weights
        c = self.base_weights.copy()
        # Python floats: a numpy scalar per edge, or np.flatnonzero, costs more.
        for (i, j), u in zip(self._edges, self.rng.random(len(self._edges)).tolist()):
            if u < self.failure_prob:  # the edge fails
                c[i, i] += c[i, j]
                c[j, j] += c[j, i]
                c[i, j] = c[j, i] = 0.0
        return c

    def directed_edge_count(self, c: np.ndarray) -> int:
        """Number of directed messages one averaging round over ``c`` sends."""
        if c is self.base_weights:
            return self._base_directed
        # Each diagonal entry is >= 1 / (1 + degree) > 0, and a failed edge only grows it.
        return int(np.count_nonzero(c)) - len(c)


def expected_mixing(process: GraphProcess) -> tuple:
    """(E[C], E[C^T J C]) of one step's matrix in closed form, J = I - 11^T/N.

    A failed edge e = (i, j) adds w_e L_e to W, L_e = (e_i - e_j)(e_i - e_j)^T,
    and sum_e w_e L_e = I - W.  So E[C] = (1 - p) W + p I, and E[C^T J C] =
    E[C]^T J E[C] + p(1 - p) sum_e w_e^2 L_e J L_e with L_e J L_e = 2 L_e
    (Boyd, Ghosh, Prabhakar & Shah 2006, "Randomized gossip algorithms").
    """
    n, p, w = process.base.n, process.failure_prob, process.base_weights
    sq = w * w
    np.fill_diagonal(sq, 0.0)  # w_e^2 at each edge's two entries
    mean_c = (1.0 - p) * w + p * np.eye(n)
    j_perp = np.eye(n) - np.ones((n, n)) / n
    spread = np.diag(sq.sum(axis=1)) - sq  # sum_e w_e^2 L_e
    return mean_c, mean_c.T @ j_perp @ mean_c + (2.0 * p * (1.0 - p)) * spread


@dataclass(frozen=True)
class ConsensusReport:
    """Exact check of the averaging-matrix assumptions, from :func:`expected_mixing`.

    ``mixing_norm`` is the spectral norm of E[C^T (I - 11^T/N) C]; values
    below 1 mean disagreement contracts in expectation.
    """

    row_residual: float
    mean_col_residual: float
    min_positive_entry: float
    mixing_norm: float
    ok: bool


def check_assumption_random_matrices(process: GraphProcess) -> ConsensusReport:
    """Test exactly, drawing nothing: rows stochastic per draw, mean column-stochastic,
    positive entries bounded away from zero, and mean mixing matrix contractive.

    Each draw is W plus zero-row-sum terms, so it has the row sums of E[C].  A
    failure only zeroes off-diagonal entries and grows diagonal ones, so no draw
    has a positive entry below W's smallest.
    """
    mean_c, mixing = expected_mixing(process)
    w = process.base_weights
    row_res = float(np.max(np.abs(mean_c.sum(axis=1) - 1.0)))
    col_res = float(np.max(np.abs(mean_c.sum(axis=0) - 1.0)))
    min_pos = float(w[w > 0].min())
    mix = float(np.linalg.norm(mixing, 2))
    ok = (
        row_res <= 1e-12
        and col_res <= 1e-3
        and mix < 1.0 - 1e-6
        and min_pos >= MIN_POSITIVE_WEIGHT
    )
    return ConsensusReport(
        row_residual=row_res,
        mean_col_residual=col_res,
        min_positive_entry=min_pos,
        mixing_norm=mix,
        ok=bool(ok),
    )
