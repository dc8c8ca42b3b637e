"""Clustering phase: group primitive operations into one-ALU clusters.

The Montium compiler's clustering phase partitions the DFG into clusters
each executable by one ALU in one cycle (paper §1).  We implement the safe
identity clustering (every op is its own cluster) plus the classic
profitable case: a multiplication whose *only* consumer is an addition fuses
into a multiply-accumulate cluster (color ``m``), which Montium ALUs
support.  The pass is deliberately conservative — fusion never increases
the cluster's operand count beyond the ALU's four register ports.

The produced graph records ``meta['clusters']``: new node → tuple of
original nodes, so results can be traced back.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.dfg.graph import DFG
from repro.exceptions import GraphError

if TYPE_CHECKING:  # pragma: no cover
    pass

__all__ = ["cluster_dfg"]

#: Color given to fused multiply-accumulate clusters.
MAC_COLOR = "m"


def cluster_dfg(dfg: "DFG", *, fuse_mac: bool = False) -> DFG:
    """Cluster ``dfg`` for one-ALU execution.

    Parameters
    ----------
    dfg:
        The primitive-operation graph.
    fuse_mac:
        Fuse ``mul → add`` pairs (mul's single consumer, at most 3 external
        operands total) into ``m``-colored MAC clusters.

    Returns
    -------
    DFG
        A new graph; node insertion follows the original topological order
        so downstream scheduling stays deterministic.
    """
    dfg.check_acyclic()
    if not fuse_mac:
        out = dfg.copy()
        out.meta["clusters"] = {n: (n,) for n in dfg.nodes}
        return out

    # Decide fusions on the original graph.
    fused_into: dict[str, str] = {}  # mul node -> add node absorbing it
    absorbed: set[str] = set()
    for n in dfg.nodes:
        if dfg.color(n) != "c":
            continue
        succs = dfg.successors(n)
        if len(succs) != 1:
            continue
        add = succs[0]
        if dfg.color(add) != "a" or add in absorbed:
            continue
        # The fused cluster reads the mul's operands plus the add's other
        # operands; stay within 4 ALU register ports.
        mul_ins = dfg.in_degree(n)
        add_other_ins = dfg.in_degree(add) - 1
        if mul_ins + add_other_ins > 4:
            continue
        if any(m in fused_into for m in dfg.predecessors(add)):
            continue  # the add already absorbs another mul
        fused_into[n] = add
        absorbed.add(add)

    out = DFG(name=f"{dfg.name}-clustered")
    out.meta = dict(dfg.meta)
    clusters: dict[str, tuple[str, ...]] = {}
    new_name: dict[str, str] = {}
    mac_count = 0

    for n in dfg.topological_order():
        if n in fused_into:
            continue  # emitted together with its absorbing add
        if n in absorbed:
            mul = next(m for m, a in fused_into.items() if a == n)
            mac_count += 1
            name = f"{MAC_COLOR}{mac_count}"
            out.add_node(name, MAC_COLOR, op="mac", members=(mul, n))
            clusters[name] = (mul, n)
            new_name[mul] = name
            new_name[n] = name
        else:
            out.add_node(n, dfg.color(n), **dfg.node(n).attrs)
            clusters[n] = (n,)
            new_name[n] = n

    seen_edges: set[tuple[str, str]] = set()
    for u, v in dfg.edges():
        if fused_into.get(u) == v:
            continue  # internal edge of a MAC cluster
        nu, nv = new_name[u], new_name[v]
        if nu == nv:
            raise GraphError(
                f"clustering created a self-loop from edge {u!r}->{v!r}"
            )
        if (nu, nv) not in seen_edges:
            seen_edges.add((nu, nv))
            out.add_edge(nu, nv)

    out.meta["clusters"] = clusters
    out.check_acyclic()
    return out
