"""Exact max-flow on tiny graphs (Edmonds-Karp), for int or Fraction capacities."""

from collections import deque


def max_flow(num_nodes, edges, source, sink):
    """Return (flow value, flow dict) for the given capacitated digraph.

    `edges` maps (u, v) pairs to capacities.  Capacities may be ints or
    Fractions; arithmetic stays exact either way.  The one caller, the
    equilibrium certifier, passes ints: every capacity times the prices'
    common denominator.  The BFS augmenting order is deterministic given the
    edge insertion order.
    """
    capacity = [dict() for _ in range(num_nodes)]
    for (u, v), cap in edges.items():
        capacity[u][v] = capacity[u].get(v, 0) + cap
        capacity[v].setdefault(u, 0)

    flow = {pair: 0 for pair in edges}
    total = 0
    while True:
        parent = [None] * num_nodes
        parent[source] = source
        queue = deque([source])
        while queue and parent[sink] is None:
            u = queue.popleft()
            for v, cap in capacity[u].items():
                if cap > 0 and parent[v] is None:
                    parent[v] = u
                    queue.append(v)
        if parent[sink] is None:
            break
        # bottleneck along the augmenting path
        bottleneck = None
        v = sink
        while v != source:
            u = parent[v]
            cap = capacity[u][v]
            if bottleneck is None or cap < bottleneck:
                bottleneck = cap
            v = u
        v = sink
        while v != source:
            u = parent[v]
            capacity[u][v] -= bottleneck
            capacity[v][u] += bottleneck
            if (u, v) in flow:
                flow[(u, v)] += bottleneck
            else:
                flow[(v, u)] -= bottleneck
            v = u
        total += bottleneck
    return total, flow
