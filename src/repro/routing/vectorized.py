"""Array-native batch kernels for large-instance routing.

The pure-Python kernels of :mod:`repro.routing.fastpath` iterate nodes
and arcs one at a time — unbeatable at backbone scale, quadratically
painful on Rocketfuel-class topologies (hundreds of nodes, thousands of
arcs).  The kernels here process a whole destination *batch* as 2D
arrays: one stable argsort of the ``(N, D)`` distance columns fixes the
propagation order of every destination at once, a *schedule* groups the
(node, destination) cells by distance level, and each level is handled
with masked gathers and scatter-adds along arcs.  Two nodes at the same
distance towards the same destination can never feed each other (a DAG
arc strictly decreases the distance, weights being >= 1), so a whole
level is safe to process in one vectorized step and Python-level work
drops from ``O(N * D)`` iterations to one step per distinct distance
value — typically a few dozen regardless of instance size.

Bit-identity with the python kernels (and therefore with the reference
implementations in :mod:`repro.routing.loader`) is engineered, not
hoped for:

* the stable argsort orders ties by node id — exactly the order the
  python kernels visit them — and level grouping preserves it, so every
  accumulation sequence matches;
* every ECMP share is the same ``volume / live_count`` division, and
  each ``(destination, arc)`` pair receives exactly one contribution, so
  contribution writes are plain assignments with no accumulation-order
  freedom;
* per-slot *flow* accumulations use ``np.add.at``/``np.bincount``,
  which accumulate sequentially in flat input order — the python
  kernels' node-then-arc order (idle cells add ``+0.0``, which is
  bit-preserving for the non-negative values involved);
* undeliverable volume folds unreachable demand in ascending node order
  first (a scalar loop over the rare entries), then dead-end volumes in
  level order, exactly as ``fast_propagate_loads`` does.

``tests/routing/test_vectorized.py`` pins all of it property-style.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass

import numpy as np

from repro.routing.network import Network


@dataclass(frozen=True)
class BatchPlan:
    """Flat per-network arc arrays reused by every batch kernel.

    Attributes:
        num_nodes: node count.
        num_arcs: arc count.
        arc_src: per-arc source node.
        arc_dst: per-arc destination node.
    """

    num_nodes: int
    num_arcs: int
    arc_src: np.ndarray
    arc_dst: np.ndarray

    @classmethod
    def for_network(cls, network: Network) -> "BatchPlan":
        """The cached plan for ``network`` (built once per topology)."""
        cached = _BATCH_PLANS.get(network)
        if cached is None:
            cached = cls(
                num_nodes=network.num_nodes,
                num_arcs=network.num_arcs,
                arc_src=network.arc_src.astype(np.intp, copy=False),
                arc_dst=network.arc_dst.astype(np.intp, copy=False),
            )
            _BATCH_PLANS[network] = cached
        return cached


#: Weak keys: plans die with their network; identity-keying is safe
#: because networks are immutable.
_BATCH_PLANS: "weakref.WeakKeyDictionary[Network, BatchPlan]" = (
    weakref.WeakKeyDictionary()
)


@dataclass(frozen=True)
class BatchSchedule:
    """The level-grouped processing order of one (masks, dist) batch.

    Every finite (node, destination-column) cell appears exactly once,
    grouped by its *distance level* (cells of equal distance within one
    column); within a level, cells follow column-major order with
    ascending node ids inside a column — the python kernels' stable tie
    order.  The live-arc expansion of every cell is precomputed (from
    the mask matrix directly, whose within-row arc order is the
    adjacency order the python kernels iterate), so a kernel's per-level
    work is pure slicing.  A schedule depends only on ``(masks,
    dist_cols)``, so one routing's schedule is shared between its load
    propagation and its path-delay DPs.

    Attributes:
        nodes: node id per scheduled cell.
        cols: destination-column index per scheduled cell.
        level_ptr: cell-slice boundaries per level (len ``levels + 1``).
        live_counts: live out-arcs (float) per cell.
        seg: owning cell index per expanded live arc.
        arcs: arc id per expanded live arc.
        arc_cols: destination-column index per expanded live arc.
        arc_ptr: arc-slice boundaries per level (len ``levels + 1``).
        cell_ptr: arc-slice start per cell (len ``cells + 1``) — the
            ``reduceat`` boundaries of per-cell arc segments.
    """

    nodes: np.ndarray
    cols: np.ndarray
    level_ptr: np.ndarray
    live_counts: np.ndarray
    seg: np.ndarray
    arcs: np.ndarray
    arc_cols: np.ndarray
    arc_ptr: np.ndarray
    cell_ptr: np.ndarray

    @property
    def num_levels(self) -> int:
        return len(self.level_ptr) - 1


def _scheduled_cells(
    dist_cols: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Finite cells ordered by (level, column, node id).

    Returns ``(nodes, cols, level_ptr)``.  Distances are integer-valued
    in every optimizer path (weights are OSPF-style integers), which
    admits a composite *unique* integer sort key ``(dist, col, node)`` —
    one unstable argsort of unique keys is a deterministic total order,
    so it replays the python kernels' stable tie order without paying
    for a stable sort.  Non-integral distances fall back to a dense
    per-column ranking.
    """
    n, d = dist_cols.shape
    dist_t = dist_cols.T  # (D, N): row-major scan = column-major cells
    finite_t = np.isfinite(dist_t)
    if finite_t.all():
        # The overwhelmingly common case (connected instance): every
        # cell is scheduled, so the index arrays are pure patterns.
        vals = dist_t.ravel()
        cols_f = np.repeat(np.arange(d, dtype=np.intp), n)
        nodes_f = np.tile(np.arange(n, dtype=np.intp), d)
    else:
        vals = dist_t[finite_t]
        cols_f, nodes_f = np.nonzero(finite_t)
    lev = vals.astype(np.int64)
    if lev.size and not np.array_equal(lev, vals):
        # Non-integral distances: dense per-column rank via stable sort.
        order = np.argsort(dist_cols, axis=0, kind="stable")
        sorted_vals = np.take_along_axis(dist_cols, order, axis=0)
        is_new = np.ones((n, d), dtype=bool)
        is_new[1:] = sorted_vals[1:] != sorted_vals[:-1]
        ranks = np.cumsum(is_new, axis=0) - 1
        keep = np.isfinite(sorted_vals).T.ravel()
        nodes_f = order.T.ravel()[keep]
        cols_f = np.repeat(np.arange(d, dtype=np.intp), n)[keep]
        lev = ranks.T.ravel()[keep]
        by_level = np.argsort(lev, kind="stable")
    elif lev.size and int(lev.max()) < 2**15:
        # numpy's stable sort on <= 16-bit ints is an O(n) radix sort,
        # and stability preserves the column-major node-ascending
        # enumeration inside each level — the python tie order.
        by_level = np.argsort(lev.astype(np.int16), kind="stable")
    else:
        by_level = np.argsort((lev * d + cols_f) * n + nodes_f)
    nodes = nodes_f[by_level]
    cols = cols_f[by_level]
    lev = lev[by_level]
    if lev.size == 0:
        return nodes, cols, np.zeros(1, dtype=np.intp)
    change = np.flatnonzero(lev[1:] != lev[:-1]) + 1
    level_ptr = np.concatenate(([0], change, [lev.size]))
    return nodes, cols, level_ptr


def build_schedule(
    plan: BatchPlan, masks: np.ndarray, dist_cols: np.ndarray
) -> BatchSchedule:
    """Build the batch schedule for ``(masks, dist_cols)``."""
    n = plan.num_nodes
    d = masks.shape[0]
    nodes, cols, level_ptr = _scheduled_cells(dist_cols)

    # Live-arc expansion straight from the mask matrix: nonzero yields,
    # per column, ascending arc ids — the adjacency order of each cell.
    # Every mask arc has finite endpoints, so its source is a scheduled
    # cell.  The composite key is unique, so an unstable argsort yields
    # cell-grouped arcs in ascending arc order.
    cell_of = np.empty((d, n), dtype=np.intp)
    cell_of[cols, nodes] = np.arange(nodes.size)
    nz_cols, nz_arcs = np.nonzero(masks)
    owner = cell_of[nz_cols, plan.arc_src[nz_arcs]]
    cell_key = owner * plan.num_arcs + nz_arcs
    if cell_key.size and nodes.size * plan.num_arcs < 2**31:
        cell_key = cell_key.astype(np.int32)
    by_cell = np.argsort(cell_key)
    seg = owner[by_cell]
    arcs = nz_arcs[by_cell]
    counts = np.bincount(seg, minlength=nodes.size)
    live_counts = counts.astype(np.float64)
    arc_ptr = np.searchsorted(seg, level_ptr)
    cell_ptr = np.zeros(nodes.size + 1, dtype=np.intp)
    np.cumsum(counts, out=cell_ptr[1:])
    return BatchSchedule(
        nodes=nodes,
        cols=cols,
        level_ptr=level_ptr,
        live_counts=live_counts,
        seg=seg,
        arcs=arcs,
        arc_cols=cols[seg],
        arc_ptr=arc_ptr,
        cell_ptr=cell_ptr,
    )


def _propagate_shares(
    plan: BatchPlan,
    masks: np.ndarray,
    dist_cols: np.ndarray,
    demand_cols: np.ndarray,
    dests: np.ndarray,
    schedule: BatchSchedule | None,
) -> tuple[BatchSchedule, np.ndarray, np.ndarray]:
    """Shared level sweep: per-arc ECMP shares plus undeliverable volume.

    Returns ``(schedule, shares, undelivered)`` where ``shares`` aligns
    with ``schedule.arcs`` (zero for idle cells) and ``undelivered`` is
    per destination.
    """
    n, d = dist_cols.shape
    cols = np.arange(d)
    dests = np.asarray(dests, dtype=np.intp)
    finite = np.isfinite(dist_cols)
    flow = np.where(finite & (demand_cols > 0.0), demand_cols, 0.0)
    flow[dests, cols] = 0.0

    undelivered = np.zeros(d)
    unreachable = ~finite & (demand_cols > 0.0)
    if unreachable.any():
        # Exact ascending-node fold, matching the python kernel's scan.
        for col in np.flatnonzero(unreachable.any(axis=0)):
            total = 0.0
            for v in np.flatnonzero(unreachable[:, col]):
                total += float(demand_cols[v, col])
            undelivered[col] = total

    sched = (
        schedule
        if schedule is not None
        else build_schedule(plan, masks, dist_cols)
    )
    shares = np.zeros(len(sched.arcs))
    arc_dst = plan.arc_dst
    # Farthest level first: every cell's inflow is settled before its
    # level runs (a DAG arc strictly decreases distance, so it crosses
    # levels downward).
    for lv in range(sched.num_levels - 1, -1, -1):
        p0, p1 = sched.level_ptr[lv], sched.level_ptr[lv + 1]
        l_nodes = sched.nodes[p0:p1]
        l_cols = sched.cols[p0:p1]
        vol = flow[l_nodes, l_cols]
        active = (vol > 0.0) & (l_nodes != dests[l_cols])
        if not active.any():
            continue
        counts = sched.live_counts[p0:p1]
        has = counts > 0.0
        share = np.zeros(p1 - p0)
        np.divide(vol, counts, out=share, where=has)
        share[~active] = 0.0
        dead = active & ~has
        if dead.any():
            np.add.at(undelivered, l_cols[dead], vol[dead])
        a0, a1 = sched.arc_ptr[lv], sched.arc_ptr[lv + 1]
        seg_local = sched.seg[a0:a1] - p0
        arc_share = share[seg_local]
        shares[a0:a1] = arc_share
        np.add.at(
            flow,
            (arc_dst[sched.arcs[a0:a1]], sched.arc_cols[a0:a1]),
            arc_share,
        )
    return sched, shares, undelivered


def batch_propagate_loads(
    plan: BatchPlan,
    masks: np.ndarray,
    dist_cols: np.ndarray,
    demand_cols: np.ndarray,
    dests: np.ndarray,
    schedule: BatchSchedule | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """ECMP load propagation for a whole destination batch.

    Args:
        plan: the network's batch plan.
        masks: ``(D, num_arcs)`` DAG-membership rows.
        dist_cols: ``(N, D)`` distances towards each destination.
        demand_cols: ``(N, D)`` demand towards each destination.
        dests: the ``D`` destination node ids.
        schedule: optional prebuilt schedule of ``(masks, dist_cols)``.

    Returns:
        ``(contribs, undelivered)``: the ``(D, num_arcs)`` per-destination
        load contributions and the ``(D,)`` undeliverable volumes — each
        row/entry bit-identical to one
        :func:`repro.routing.fastpath.fast_propagate_loads` call.
    """
    sched, shares, undelivered = _propagate_shares(
        plan, masks, dist_cols, demand_cols, dests, schedule
    )
    contribs = np.zeros((masks.shape[0], plan.num_arcs))
    # Each (destination, arc) pair is written exactly once: plain
    # assignment, no accumulation order to worry about (idle cells
    # write the 0.0 the array already holds).
    contribs[sched.arc_cols, sched.arcs] = shares
    return contribs, undelivered


def batch_total_loads(
    plan: BatchPlan,
    masks: np.ndarray,
    dist_cols: np.ndarray,
    demand_cols: np.ndarray,
    dests: np.ndarray,
    schedule: BatchSchedule | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Like :func:`batch_propagate_loads` but folding the total directly.

    Returns ``(loads, undelivered)`` with ``loads`` the per-arc total
    over the batch, bit-identical to folding the contribution rows in
    ascending destination order (the python engine's loop order): the
    scatter-add applies each arc's contributions in ascending column
    order — idle-cell zeros add ``+0.0``, which is bit-preserving —
    without materializing the ``(D, num_arcs)`` matrix.
    """
    sched, shares, undelivered = _propagate_shares(
        plan, masks, dist_cols, demand_cols, dests, schedule
    )
    # Unique composite key: unstable argsort gives (column, arc) order.
    fold_key = sched.arc_cols * plan.num_arcs + sched.arcs
    if fold_key.size and masks.shape[0] * plan.num_arcs < 2**31:
        fold_key = fold_key.astype(np.int32)
    fold = np.argsort(fold_key)
    loads = np.zeros(plan.num_arcs)
    np.add.at(loads, sched.arcs[fold], shares[fold])
    return loads, undelivered


def _batch_propagate_delay(
    plan: BatchPlan,
    masks: np.ndarray | None,
    dist_cols: np.ndarray | None,
    arc_delays: np.ndarray,
    dests: np.ndarray,
    mean: bool,
    schedule: BatchSchedule | None = None,
    delay_rows: np.ndarray | None = None,
) -> np.ndarray:
    """Shared driver of the worst/mean path-delay DPs (ascending levels).

    ``masks`` and ``dist_cols`` may be None when ``schedule`` is
    supplied — the DP itself only consumes the schedule.

    With ``delay_rows``, ``arc_delays`` is a 2-D ``(S, num_arcs)`` stack
    and column ``i`` reads row ``delay_rows[i]`` — the scenario-axis
    batching hook: columns belonging to different failure scenarios (and
    therefore different arc-delay vectors) share one schedule and one
    level sweep.  Per column the arithmetic is unchanged — the same
    ``arc_delay + downstream`` additions, the same per-cell
    bincount/reduceat folds — so each column stays bit-identical to a
    single-scenario call.
    """
    dests = np.asarray(dests, dtype=np.intp)
    n = plan.num_nodes
    d = masks.shape[0] if masks is not None else len(dests)
    cols = np.arange(d)
    delay = np.full((n, d), np.inf)
    delay[dests, cols] = 0.0
    if schedule is not None:
        sched = schedule
    else:
        assert masks is not None and dist_cols is not None, (
            "need masks and dist_cols without a schedule"
        )
        sched = build_schedule(plan, masks, dist_cols)
    arc_dst = plan.arc_dst
    for lv in range(sched.num_levels):
        p0, p1 = sched.level_ptr[lv], sched.level_ptr[lv + 1]
        a0, a1 = sched.arc_ptr[lv], sched.arc_ptr[lv + 1]
        if a0 == a1:
            continue
        l_nodes = sched.nodes[p0:p1]
        l_cols = sched.cols[p0:p1]
        l_arcs = sched.arcs[a0:a1]
        if delay_rows is None:
            arc_base = arc_delays[l_arcs]
        else:
            arc_base = arc_delays[
                delay_rows[sched.arc_cols[a0:a1]], l_arcs
            ]
        candidates = (
            arc_base
            + delay[arc_dst[l_arcs], sched.arc_cols[a0:a1]]
        )
        has = (sched.live_counts[p0:p1] > 0.0) & (l_nodes != dests[l_cols])
        if not has.any():
            continue
        if mean:
            # bincount accumulates strictly sequentially in flat input
            # order — the python kernel's arc order.  (reduceat would
            # sum pairwise on high-degree cells and drift by ulps.)
            seg_local = sched.seg[a0:a1] - p0
            totals = np.bincount(
                seg_local, weights=candidates, minlength=p1 - p0
            )
            values = totals[has] / sched.live_counts[p0:p1][has]
        else:
            # Per-cell arc runs are contiguous (arcless cells have zero
            # width), so reduceat over the has-cells' starts takes each
            # cell's max — order-free, no rounding involved.
            starts = sched.cell_ptr[p0:p1][has] - a0
            values = np.maximum.reduceat(candidates, starts)
        delay[l_nodes[has], l_cols[has]] = values
    return delay


def batch_propagate_worst_delay(
    plan: BatchPlan,
    masks: np.ndarray | None,
    dist_cols: np.ndarray | None,
    arc_delays: np.ndarray,
    dests: np.ndarray,
    schedule: BatchSchedule | None = None,
    delay_rows: np.ndarray | None = None,
) -> np.ndarray:
    """Worst used-path delay columns for a destination batch.

    Returns an ``(N, D)`` array whose column ``i`` is bit-identical to
    ``fast_propagate_worst_delay`` towards ``dests[i]`` (``max`` picks
    one of its inputs, so segment maxima involve no rounding freedom).
    ``delay_rows`` selects a per-column row of a 2-D ``arc_delays``
    stack (scenario-axis batching).
    """
    return _batch_propagate_delay(
        plan, masks, dist_cols, arc_delays, dests, mean=False,
        schedule=schedule, delay_rows=delay_rows,
    )


def batch_propagate_mean_delay(
    plan: BatchPlan,
    masks: np.ndarray | None,
    dist_cols: np.ndarray | None,
    arc_delays: np.ndarray,
    dests: np.ndarray,
    schedule: BatchSchedule | None = None,
    delay_rows: np.ndarray | None = None,
) -> np.ndarray:
    """Flow-weighted mean path-delay columns for a destination batch.

    ``np.bincount`` accumulates sequentially in flat input order — the
    python kernel's arc order — so each column is bit-identical to
    ``fast_propagate_mean_delay``.  ``delay_rows`` selects a per-column
    row of a 2-D ``arc_delays`` stack (scenario-axis batching).
    """
    return _batch_propagate_delay(
        plan, masks, dist_cols, arc_delays, dests, mean=True,
        schedule=schedule, delay_rows=delay_rows,
    )


def replay_delay_columns(
    plan: BatchPlan,
    schedule: BatchSchedule,
    arc_delays: np.ndarray,
    dests: np.ndarray,
    mean: bool = False,
) -> np.ndarray:
    """One schedule's path-delay DP under many arc-delay vectors at once.

    The scenario-axis replay of one routing's schedule: scenarios that
    keep a destination's mask row and distance column share that
    column's cells, levels and live-arc expansion, and differ only in
    the arc delays the DP reads.  Here the scenarios form the inner,
    contiguous axis of the DP state, so each level step moves whole
    rows of ``S`` floats and no per-scenario schedule is built.

    Args:
        plan: the network's batch plan.
        schedule: the schedule of the ``D`` columns (destinations
            ``dests``).
        arc_delays: ``(S, num_arcs)`` arc-delay vectors.
        dests: the ``D`` destination node ids.
        mean: flow-weighted mean instead of worst used-path delay.

    Returns:
        ``(N, D, S)`` delays; ``[:, j, s]`` is bit-identical to column
        ``j`` of :func:`batch_propagate_worst_delay` (or ``_mean_``) run
        on ``schedule`` with ``arc_delays[s]``.  Per element the
        arithmetic is that kernel's: the same ``arc_delay +
        downstream`` sums, maxima over the same segments, and mean
        totals accumulated sequentially in arc order (``np.add.at``
        applies index rows in order, as ``np.bincount`` does) before
        the same division.
    """
    dests = np.asarray(dests, dtype=np.intp)
    d = dests.size
    num_rows = arc_delays.shape[0]
    # Row ``node * d + col`` holds the cell's delays across scenarios.
    delay = np.full((plan.num_nodes * d, num_rows), np.inf)
    delay[dests * d + np.arange(d)] = 0.0
    delays_t = np.ascontiguousarray(arc_delays.T)
    arc_dst = plan.arc_dst
    sched = schedule
    for lv in range(sched.num_levels):
        p0, p1 = sched.level_ptr[lv], sched.level_ptr[lv + 1]
        a0, a1 = sched.arc_ptr[lv], sched.arc_ptr[lv + 1]
        if a0 == a1:
            continue
        l_nodes = sched.nodes[p0:p1]
        l_cols = sched.cols[p0:p1]
        has = (sched.live_counts[p0:p1] > 0.0) & (l_nodes != dests[l_cols])
        if not has.any():
            continue
        l_arcs = sched.arcs[a0:a1]
        candidates = (
            delays_t[l_arcs]
            + delay[arc_dst[l_arcs] * d + sched.arc_cols[a0:a1]]
        )
        if mean:
            totals = np.zeros((p1 - p0, num_rows))
            np.add.at(totals, sched.seg[a0:a1] - p0, candidates)
            values = totals[has] / sched.live_counts[p0:p1][has][:, None]
        else:
            starts = sched.cell_ptr[p0:p1][has] - a0
            values = np.maximum.reduceat(candidates, starts, axis=0)
        delay[l_nodes[has] * d + l_cols[has]] = values
    return delay.reshape(plan.num_nodes, d, num_rows)
