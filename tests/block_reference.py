"""Each block of an algebra rebuilt as a standalone bound quiver algebra:
the full sub-quiver on the block's vertices, its relations and its
Cartan rows restricted to those vertices.  It is the reference that
classify's one-pass block verdicts are tested against.
"""

from typing import Tuple

from silt.modules import BoundQuiverAlgebra
from silt.quivers import _components
from silting_reference import full_subquiver


def block_algebras(b: BoundQuiverAlgebra) -> Tuple[BoundQuiverAlgebra, ...]:
    """Connected components of the Gabriel quiver, as standalone algebras."""
    comps = _components(b.gabriel)
    out = []
    ix = {v: i for i, v in enumerate(b.gabriel.vertices)}
    for comp in comps:
        keep = set(comp)
        verts = tuple(v for v in b.gabriel.vertices if v in keep)
        sub = full_subquiver(b.gabriel, verts)
        rels = tuple(
            r for r in b.relations if r.source in keep and r.target in keep
        )
        cartan = tuple(
            tuple(b.cartan[ix[v]][ix[u]] for u in verts) for v in verts
        )
        out.append(BoundQuiverAlgebra(gabriel=sub, relations=rels, cartan=cartan))
    return tuple(out)
