"""Per-evaluator cost model: Eq. 1 delays, Eq. 2 SLA and the Fortz cost.

The free functions :func:`~repro.core.delay.arc_delays`,
:func:`~repro.core.fortz.fortz_cost` and :func:`~repro.core.sla.sla_outcome`
take everything as arguments and re-derive the same per-instance
constants on every call.  :class:`CostModel` binds them once per
evaluator — the ``packet_size / capacity`` factors, the SLA penalties
and the flat indices of the delay-demand pairs — and takes the
utilization as an input, so one division serves the arc delays, the
Fortz cost and ``ScenarioEvaluation.utilization``.

The per-arc cost curves are the free functions' own
(:func:`~repro.core.delay.mm1_term`,
:func:`~repro.core.fortz.fortz_link_cost`), and the rest goes through
the same float operations in the same order, so the results are
bit-identical to them; ``tests/core/test_cost_model.py`` pins that.
"""

from __future__ import annotations

import numpy as np

from repro.config import DelayModelParams, SlaParams
from repro.core.delay import mm1_term
from repro.core.fortz import fortz_link_cost
from repro.core.sla import MS_PER_S, SlaOutcome
from repro.routing.network import Network


class CostModel:
    """The cost functions of one (network, delay demand, parameters).

    Args:
        network: the topology (capacities and propagation delays).
        delay_demands: the base ``(N, N)`` delay-class demand; routings
            under node removals carry their own, which :meth:`sla`
            accepts too.
        delay: Eq. 1 constants.
        sla: Eq. 2 constants.
    """

    def __init__(
        self,
        network: Network,
        delay_demands: np.ndarray,
        delay: DelayModelParams,
        sla: SlaParams,
    ) -> None:
        self._capacity = np.asarray(network.capacity, dtype=np.float64)
        self._prop = np.asarray(network.prop_delay, dtype=np.float64)
        self._queue_scale = delay.packet_size_bits / self._capacity
        self._low_load = delay.low_load_threshold
        self._lin = delay.linearization_utilization
        self._demands = delay_demands
        self._pairs = np.flatnonzero(delay_demands > 0.0)
        self._theta = sla.theta
        self._b1 = sla.b1
        self._b2 = sla.b2
        self._disconnect_penalty = sla.b1 + sla.b2 * (
            sla.disconnect_excess_factor * sla.theta * MS_PER_S
        )

    def utilization(self, total_loads: np.ndarray) -> np.ndarray:
        """Per-arc utilization ``x_l / C_l``."""
        return total_loads / self._capacity

    def arc_delays(self, utilization: np.ndarray) -> np.ndarray:
        """Per-arc delay ``D_l`` (Eq. 1), as
        :func:`~repro.core.delay.arc_delays`."""
        return np.where(
            utilization <= self._low_load,
            self._prop,
            self._prop
            + self._queue_scale * (mm1_term(utilization, self._lin) + 1.0),
        )

    def fortz(self, utilization: np.ndarray, include: np.ndarray) -> float:
        """Fortz–Thorup ``Phi`` over the ``include`` arcs, as
        :func:`~repro.core.fortz.fortz_cost`."""
        return float(fortz_link_cost(utilization[include]).sum())

    def sla(self, pair_delays: np.ndarray, demands: np.ndarray) -> SlaOutcome:
        """SLA accounting (Eq. 2), as :func:`~repro.core.sla.sla_outcome`.

        ``demands`` is the routed delay-class demand: the base matrix
        uses the pair indices computed once, any other (a node-removal
        scenario's) has its own derived here.
        """
        pairs = (
            self._pairs
            if demands is self._demands
            else np.flatnonzero(demands > 0.0)
        )
        delays = pair_delays.take(pairs)
        connected = np.isfinite(delays)
        if connected.all():
            finite = delays
        else:
            if np.isnan(delays).any():
                raise ValueError("demand-carrying pair has no routed delay")
            finite = delays[connected]
        num_disconnected = delays.size - finite.size
        over = finite > self._theta
        excess_ms = (finite[over] - self._theta) * MS_PER_S
        cost = float((self._b1 + self._b2 * excess_ms).sum())
        cost += float(num_disconnected) * self._disconnect_penalty
        return SlaOutcome(
            cost=cost,
            violations=int(np.count_nonzero(over)) + num_disconnected,
            disconnected=num_disconnected,
            pairs=int(pairs.size),
        )
