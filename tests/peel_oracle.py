"""Target and readdressing by peeling childless nodes: an independent oracle.

Peel one childless non-root node (the largest or the smallest in address
order), compute the target of the rest, and substitute the peeled
decoration into it at the node its address is readdressed to.  This
recomputes the whole smaller tree at every step, so it is about cubic in
the node count and recurses once per node; the tests run it on small
shapes only, against the one-pass `opetope._target_readdress`.
"""

from __future__ import annotations

from opetopes.opetope import (
    ARROW,
    STAR,
    Addr,
    Degenerate,
    Opetope,
    Tree,
    corolla,
    epsilon,
    leaf_addrs,
    node_addrs,
    tree,
)


def _childless(omega: Tree) -> list[Addr]:
    return [
        a
        for a, dec in omega.nodes
        if not any(omega.has_node(a.extend(q)) for q in node_addrs(dec))
    ]


def _substitute_reloc(
    t: Opetope, p: Addr, u: Opetope, peel_smallest: bool
) -> tuple[Opetope, dict[Addr, Addr]]:
    """Replace the node of t at p by u, relocating every other node."""
    if t == ARROW:
        assert p == STAR and u == ARROW
        return ARROW, {}
    assert isinstance(t, Tree)
    t_u, p_u = peel_target_readdress(u, peel_smallest)
    assert t_u == t.decoration(p)
    p_u_inv = {q: l for l, q in p_u.items()}
    reloc: dict[Addr, Addr] = {}
    out: dict[Addr, Opetope] = {}
    k = len(p)
    for a, d in t.nodes:
        if a == p:
            continue
        if p.prefix_of(a):
            e = a.entries[k]
            new = Addr(a.depth, p.entries + p_u_inv[e].entries + a.entries[k + 1 :])
        else:
            new = a
        reloc[a] = new
        out[new] = d
    if isinstance(u, Tree):
        for a, d in u.nodes:
            out[p + a] = d
    if not out:
        assert isinstance(u, Degenerate)
        return u, reloc
    return tree(out), reloc


def peel_target_readdress(
    omega: Opetope, peel_smallest: bool = False
) -> tuple[Opetope, dict[Addr, Addr]]:
    """Target shape and leaf-to-node readdressing of a shape of dimension >= 2."""
    if isinstance(omega, Degenerate):
        return corolla(omega.shell), {epsilon(omega.dim - 1): epsilon(omega.dim - 2)}
    assert isinstance(omega, Tree)
    if len(omega.nodes) == 1:
        psi = omega.nodes[0][1]
        return psi, {epsilon(omega.dim - 1).extend(q): q for q in node_addrs(psi)}
    choices = [a for a in _childless(omega) if len(a) > 0]
    pick = min if peel_smallest else max
    m = pick(choices, key=lambda a: a.key)
    psi = omega.decoration(m)
    nu = tree({a: dec for a, dec in omega.nodes if a != m})
    t_nu, p_nu = peel_target_readdress(nu, peel_smallest)
    slot = p_nu[m]
    t_omega, reloc = _substitute_reloc(t_nu, slot, psi, peel_smallest)
    p_omega: dict[Addr, Addr] = {}
    for j in leaf_addrs(nu):
        if j != m:
            p_omega[j] = reloc[p_nu[j]]
    for q in node_addrs(psi):
        p_omega[m.extend(q)] = slot + q
    return t_omega, p_omega
