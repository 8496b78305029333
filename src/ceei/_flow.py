"""Exact max-flow on tiny graphs (Edmonds-Karp), for int or Fraction capacities."""

from collections import deque


def max_flow(num_nodes, edges, source, sink):
    """Return (flow value, flow dict) for the given capacitated digraph.

    `edges` maps (u, v) pairs to int or Fraction capacities, and arithmetic
    stays exact either way.  No edge's reverse may also be an edge: each
    edge's flow is read off its residual, as its capacity minus what is left.
    The one caller, the equilibrium certifier, passes int capacities on edges
    source -> agent -> object -> sink.  The BFS augmenting order is
    deterministic given the edge insertion order.
    """
    capacity = [dict() for _ in range(num_nodes)]
    for (u, v), cap in edges.items():
        capacity[u][v] = cap
        capacity[v][u] = 0

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
        path = []
        v = sink
        while v != source:
            path.append((parent[v], v))
            v = parent[v]
        bottleneck = min(capacity[u][v] for u, v in path)
        for u, v in path:
            capacity[u][v] -= bottleneck
            capacity[v][u] += bottleneck
        total += bottleneck
    return total, {(u, v): cap - capacity[u][v] for (u, v), cap in edges.items()}
