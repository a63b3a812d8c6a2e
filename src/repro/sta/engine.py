"""Forward/backward timing propagation.

Worst-case single-value STA: per net one arrival and one slew, each the
maximum over rise/fall and over incoming arcs.  The characterization
surrogate keeps rise and fall close, so the merged analysis loses
little accuracy while halving the state.

The engine evaluates whole arc groups (same LUTs, same logic level)
with one vectorized bilinear interpolation; a full pass over the
~18k-gate microcontroller takes tens of milliseconds, which is what
makes the synthesis sizing loop and the paper's 80-run evaluation sweep
tractable in pure Python.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import groupby
from typing import Dict, List, Tuple

import numpy as np

from repro.errors import TimingError
from repro.kernels.sta import evaluate_table_groups
from repro.liberty.model import TimingArc
from repro.observe import get_tracer
from repro.observe.catalog import STA_WORK
from repro.sta.graph import Endpoint, TimingGraph
from repro.units import GUARD_BAND_NS

_NEG_INF = -1e30
_POS_INF = 1e30


def _arc_delay_transition(
    arc: TimingArc,
    slews: np.ndarray,
    loads: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """Worst (rise/fall-merged) delay and output transition of an arc."""
    delay_tables = arc.delay_tables()
    transition_tables = arc.transition_tables()
    if not delay_tables or not transition_tables:
        raise TimingError("timing arc lacks delay or transition tables")
    delay, transition = evaluate_table_groups(
        [delay_tables, transition_tables], [slews, slews], [loads, loads]
    )
    return delay, transition


@dataclass
class LaunchInfo:
    """Clock->Q launch of one sequential instance."""

    instance: str
    cell_name: str
    out_pin: str
    delay: float
    q_net: int


@dataclass
class TimingResult:
    """Outcome of one STA pass."""

    graph: TimingGraph
    clock_period: float
    guard_band: float
    arrival: np.ndarray
    slew: np.ndarray
    required: np.ndarray
    arc_delay: np.ndarray
    arc_transition: np.ndarray
    launches: Dict[int, LaunchInfo]
    endpoint_slacks: np.ndarray

    @property
    def effective_period(self) -> float:
        """Clock period minus the guard band (paper Sec. VII)."""
        return self.clock_period - self.guard_band

    @property
    def wns(self) -> float:
        """Worst negative slack (worst endpoint slack, really)."""
        return float(self.endpoint_slacks.min())

    @property
    def tns(self) -> float:
        """Total negative slack."""
        return float(np.minimum(self.endpoint_slacks, 0.0).sum())

    @property
    def met(self) -> bool:
        """True when every endpoint has non-negative slack."""
        return self.wns >= -1e-12

    def net_slack(self, net_id: int) -> float:
        """Slack of a net (required - arrival)."""
        return float(self.required[net_id] - self.arrival[net_id])

    def endpoint_required(self, endpoint: Endpoint) -> float:
        """Required arrival time at an endpoint."""
        return self.effective_period - endpoint.setup

    def worst_endpoint(self) -> Endpoint:
        """The endpoint with the smallest slack."""
        index = int(np.argmin(self.endpoint_slacks))
        return self.graph.endpoints[index]


def analyze(
    graph: TimingGraph,
    clock_period: float,
    guard_band: float = GUARD_BAND_NS,
) -> TimingResult:
    """Run one full forward + backward STA pass."""
    if clock_period <= guard_band:
        raise TimingError(
            f"clock period {clock_period} ns must exceed the guard band "
            f"{guard_band} ns"
        )
    STA_WORK.labels("analyze_calls").inc()
    STA_WORK.labels("node_visits").inc(len(graph.net_names))
    STA_WORK.labels("arc_evaluations").inc(graph.n_arcs)
    with get_tracer().span(
        "sta.analyze", nets=len(graph.net_names), arcs=graph.n_arcs
    ):
        return _analyze(graph, clock_period, guard_band)


def _analyze(
    graph: TimingGraph,
    clock_period: float,
    guard_band: float,
) -> TimingResult:
    config = graph.config
    n_nets = len(graph.net_names)
    arrival = np.full(n_nets, _NEG_INF)
    slew = np.full(n_nets, config.default_slew)

    # sources: primary inputs
    for net_id in graph.primary_input_ids:
        arrival[net_id] = 0.0
        slew[net_id] = config.input_slew

    # sources: sequential launches (group by cell for vectorization)
    launches: Dict[int, LaunchInfo] = {}
    by_cell: Dict[str, List] = {}
    for instance in graph.launch_instances:
        by_cell.setdefault(instance.cell, []).append(instance)
    for cell_name, instances in by_cell.items():
        cell = graph.library.cell(cell_name)
        out_pin = instances[0].function.output_pins[0]
        clock_pin = instances[0].function.clock_pin
        arc = cell.pin(out_pin).arc_from(clock_pin)
        q_ids = np.array(
            [graph.net_ids[i.net_of(out_pin)] for i in instances], dtype=np.int64
        )
        clock_slews = np.full(q_ids.size, config.clock_slew)
        delays, transitions = _arc_delay_transition(
            arc, clock_slews, graph.loads[q_ids]
        )
        arrival[q_ids] = delays
        slew[q_ids] = transitions
        for instance, q_id, delay in zip(instances, q_ids, delays):
            launches[int(q_id)] = LaunchInfo(
                instance=instance.name,
                cell_name=cell_name,
                out_pin=out_pin,
                delay=float(delay),
                q_net=int(q_id),
            )

    # forward propagation, level by level — all arc groups of a level
    # interpolate in one batched kernel call (arcs within a level never
    # feed each other, so their input slews are final before the level
    # evaluates; the per-group scatter below runs in the same order as
    # the former per-group loop, and max-merges are exact anyway)
    arc_delay = np.zeros(graph.n_arcs)
    arc_transition = np.zeros(graph.n_arcs)
    slew_written = np.zeros(n_nets, dtype=bool)
    for _level, members in groupby(graph.level_groups, key=lambda pair: pair[0]):
        groups = [group for _, group in members]
        indices_list = [np.asarray(g.indices, dtype=np.int64) for g in groups]
        src_list = [graph.arc_src[indices] for indices in indices_list]
        dst_list = [graph.arc_dst[indices] for indices in indices_list]
        delay_groups = [g.arc.delay_tables() for g in groups]
        transition_groups = [g.arc.transition_tables() for g in groups]
        if any(not d or not t for d, t in zip(delay_groups, transition_groups)):
            raise TimingError("timing arc lacks delay or transition tables")
        slews_list = [slew[src] for src in src_list]
        loads_list = [graph.loads[dst] for dst in dst_list]
        delays_list = evaluate_table_groups(
            delay_groups, slews_list, loads_list
        )
        transitions_list = evaluate_table_groups(
            transition_groups, slews_list, loads_list
        )
        for indices, src, dst, delays, transitions in zip(
            indices_list, src_list, dst_list, delays_list, transitions_list
        ):
            arc_delay[indices] = delays
            arc_transition[indices] = transitions
            np.maximum.at(arrival, dst, arrival[src] + delays)
            # the first writer replaces the default slew; later writers
            # of the same net (other input arcs of its driver) max-merge
            fresh = dst[~slew_written[dst]]
            slew[fresh] = _NEG_INF
            slew_written[dst] = True
            np.maximum.at(slew, dst, transitions)

    if np.any(arrival[graph.arc_dst] <= _NEG_INF / 2):
        bad = graph.arc_dst[arrival[graph.arc_dst] <= _NEG_INF / 2][:3]
        names = [graph.net_names[int(b)] for b in bad]
        raise TimingError(f"unreached nets during propagation: {names}")

    # endpoint slacks
    effective = clock_period - guard_band
    endpoint_slacks = np.array(
        [
            (effective - endpoint.setup) - arrival[endpoint.net_id]
            for endpoint in graph.endpoints
        ]
    )

    # backward required times (levels descending)
    required = np.full(n_nets, _POS_INF)
    for endpoint in graph.endpoints:
        required[endpoint.net_id] = min(
            required[endpoint.net_id], effective - endpoint.setup
        )
    for _level, group in reversed(graph.level_groups):
        indices = np.asarray(group.indices, dtype=np.int64)
        src = graph.arc_src[indices]
        dst = graph.arc_dst[indices]
        np.minimum.at(required, src, required[dst] - arc_delay[indices])

    return TimingResult(
        graph=graph,
        clock_period=clock_period,
        guard_band=guard_band,
        arrival=arrival,
        slew=slew,
        required=required,
        arc_delay=arc_delay,
        arc_transition=arc_transition,
        launches=launches,
        endpoint_slacks=endpoint_slacks,
    )
