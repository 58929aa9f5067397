"""Each block of an algebra rebuilt as a standalone bound quiver algebra:
the full sub-quiver on the block's vertices, its relations, basis paths
and restricted projectives.  It is the reference that classify's
one-pass block verdicts are tested against.
"""

from typing import Tuple

from silt.modules import BoundQuiverAlgebra, make_rep
from silt.quivers import _components, full_subquiver


def block_algebras(b: BoundQuiverAlgebra) -> Tuple[BoundQuiverAlgebra, ...]:
    """Connected components of the Gabriel quiver, as standalone algebras."""
    comps = _components(b.gabriel)
    out = []
    for comp in comps:
        keep = set(comp)
        sub = full_subquiver(b.gabriel, tuple(v for v in b.gabriel.vertices if v in keep))
        rels = tuple(
            r for r in b.relations if r.source in keep and r.target in keep
        )
        basis = tuple(
            x for x in b.basis_paths if x[0] in keep and x[1] in keep
        )
        projectives = tuple(
            make_rep(
                sub,
                [p.dim_at(u) for u in sub.vertices],
                {a.id: p.mat(a.id) for a in sub.arrows},
            )
            for v, p in zip(b.gabriel.vertices, b.projectives)
            if v in keep
        )
        out.append(
            BoundQuiverAlgebra(
                gabriel=sub,
                relations=rels,
                dimension=len(basis),
                basis_paths=basis,
                projectives=projectives,
            )
        )
    return tuple(out)
