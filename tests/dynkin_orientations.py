"""Every orientation of the Dynkin diagrams of rank <= 5, and of E6, E7
and E8.

A diagram is a chain 1 - 2 - ... - m, plus for D_n and E_n one branch
vertex n joined to the chain: to n - 2 for D_n and to 3 for E_n.  Each
orientation gets the arrows ``a1, a2, ...`` in edge order, so its quiver
text is reproducible.
"""

from itertools import product

from silt.quivers import parse_quiver


def diagram_edges(kind, n):
    if kind == "A":
        return [(i, i + 1) for i in range(1, n)]
    if kind == "D":
        return [(i, i + 1) for i in range(1, n - 1)] + [(n - 2, n)]
    if kind == "E" and n in (6, 7, 8):
        return [(i, i + 1) for i in range(1, n - 1)] + [(3, n)]
    raise ValueError(f"no diagram {kind}{n}")


def orientations(kind, n):
    """(quiver text, quiver) for each of the 2^(n-1) orientations."""
    edges = diagram_edges(kind, n)
    out = []
    for flips in product((False, True), repeat=len(edges)):
        lines = ["vertices " + " ".join(map(str, range(1, n + 1)))]
        for k, ((s, t), flip) in enumerate(zip(edges, flips), start=1):
            s, t = (t, s) if flip else (s, t)
            lines.append(f"arrow a{k}:{s}->{t}")
        text = "\n".join(lines) + "\n"
        out.append((text, parse_quiver(text)))
    return out


TYPES_UP_TO_D5 = [("A", n) for n in range(1, 6)] + [("D", 4), ("D", 5)]
TYPES_WITH_E6 = TYPES_UP_TO_D5 + [("E", 6)]

# E6 with its branch at vertex 3, the orientation the tests share
E6 = parse_quiver(
    "vertices 1 2 3 4 5 6\narrows a:1->2 b:2->3 c:3->4 d:4->5 e:6->3\n"
)
