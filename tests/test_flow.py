from fractions import Fraction

import pytest

from ceei._flow import max_flow

S, A, B, C, D, T = range(6)
# the first augmenting path, s-a-b-t, blocks both others; the second, s-c-b-a-d-t,
# runs back along a-b and cancels its flow
ARCS = ((S, A), (A, B), (A, D), (B, T), (S, C), (C, B), (D, T))


@pytest.mark.parametrize("unit", [1, Fraction(2, 3)])
def test_flow_cancelled_along_a_reverse_residual(unit):
    total, flow = max_flow(6, {arc: unit for arc in ARCS}, S, T)
    assert total == 2 * unit
    assert list(flow) == list(ARCS)
    expected = {(A, B): 0}
    assert flow == {arc: expected.get(arc, unit) for arc in ARCS}
    assert all(type(value) is type(unit) for value in flow.values())


def test_flow_respects_capacities_and_conservation():
    edges = {(0, 1): 3, (0, 2): 2, (1, 2): 5, (1, 3): 2, (2, 3): 4}
    total, flow = max_flow(4, edges, 0, 3)
    assert total == 5
    assert all(0 <= flow[arc] <= cap for arc, cap in edges.items())
    for node in (1, 2):
        inflow = sum(f for (u, v), f in flow.items() if v == node)
        outflow = sum(f for (u, v), f in flow.items() if u == node)
        assert inflow == outflow


def test_unreachable_sink_carries_nothing():
    assert max_flow(3, {(0, 1): 4}, 0, 2) == (0, {(0, 1): 0})
