"""The natural-map search that scans a whole sort for every choice and
compares sorts as objects: an independent oracle.

`natural_maps` tries every cell of the chosen cell's sort, in the target's
cell order, and `propagate` compares the sorts of each pair with `==` on
the sorts themselves.  It reads only the presheaves' plain attributes
`cells`, `sort`, `gens` and `face`, no face index and no sort ids.  The
tests compare `kernel.natural_maps` and `kernel.propagate` against these:
the same maps in the same order, and the same first disagreeing pair.
"""

from __future__ import annotations


def propagate(pairs, comp: dict, trail: list, src, dst):
    """Extend the partial map comp by the (cell, value) pairs and by every
    pair their faces force, last in first out, appending each newly
    assigned cell to trail.  Returns None when all agree, otherwise the
    first pair whose sorts or earlier value disagree."""
    stack = list(pairs)
    while stack:
        x, y = stack.pop()
        sort = src.sort[x]
        if sort != dst.sort[y]:
            return x, y
        if x in comp:
            if comp[x] != y:
                return x, y
            continue
        comp[x] = y
        trail.append(x)
        for g in src.gens[sort]:
            stack.append((src.face[x, g], dst.face[y, g]))
    return None


def natural_maps(order: list, src, dst, injective: bool = False):
    """Yield every map from src to dst that commutes with faces.  The
    cells of order are chosen in turn, each value tried in dst's cell
    order and followed by propagate; cells already forced are skipped.
    With injective set, distinct cells get distinct values: used holds
    the values taken, and each choice tests only the values it adds."""
    comp: dict = {}
    used: set = set()

    def extend(i: int):
        while i < len(order) and order[i] in comp:
            i += 1
        if i == len(order):
            yield dict(comp)
            return
        x = order[i]
        for y in dst.cells.get(src.sort[x], ()):
            trail: list = []
            if propagate([(x, y)], comp, trail, src, dst) is None:
                if not injective:
                    yield from extend(i + 1)
                else:
                    fresh = {comp[z] for z in trail}
                    if len(fresh) == len(trail) and used.isdisjoint(fresh):
                        used.update(fresh)
                        yield from extend(i + 1)
                        used.difference_update(fresh)
            for z in trail:
                del comp[z]

    yield from extend(0)
