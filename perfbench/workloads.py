"""The three workloads: seeded job lists with known answers.

`build(name, seed)` returns the input files (relative path -> text) and
the job list.  A job is a dict with an `id`, the `argv` handed to
`opetopes.cli.main`, its known answer `expect` (exit code plus a check
from `answers`), and `robust`, set for the inputs whose known answer is
a clean exit-2 error.  The CLI's own --seed flag is never passed; the
benchmark seed only drives generation.
"""

from __future__ import annotations

import random
import re
from collections import Counter

import shapes as sh
from answers import canon

WORKLOADS = ("shapes", "checks", "theory")
# the modules each workload is built to stress: they should have the
# largest self time in a traced run
DESIGN = {"shapes": ("opetope",), "checks": ("opset", "oalg"), "theory": ("theory",)}


class Jobs:
    def __init__(self, workload: str):
        self.workload = workload
        self.files: dict[str, str] = {}
        self.jobs: list[dict] = []

    def add(self, tag: str, argv: list[str], code: int, check: str, robust: bool = False, **facts):
        jid = f"{self.workload}-{len(self.jobs):03d}-{tag}"
        self.jobs.append(
            {"id": jid, "argv": argv, "expect": {"code": code, "check": check, **facts}, "robust": robust}
        )

    def file(self, name: str, text: str) -> str:
        self.files[name] = text
        return name


# --------------------------------------------------------------------------
# shapes: target, readdressing, parse, render and face structures

# dim-3 node counts: a fixed schedule so every seed does the same amount
# of work; the seed picks the arities and where each node goes
DIM3_NODES = (20, 23, 26, 29, 32, 36)
# one long branch of unary nodes: deep addresses and the worst case of
# target; their jobs make up the tail of the job times on every seed
DIM3_CHAINS = (30, 50, 70, 90, 130)
DIM4_NODES = (6, 7, 8, 9, 10, 11)
ENUMERATIONS = ((3, 8), (3, 9), (4, 7), (4, 8))
NESTED = "{{" * 1500 + "point" + "}}" * 1500


def _shape_jobs(J: Jobs, t: dict, dim3: bool) -> None:
    f = sh.facts(t)
    expr = sh.render3(t) if dim3 else sh.render4(t)
    form = canon(t)
    one = ["--expr", expr]
    if dim3:
        J.add("target", ["opetope", "target", *one], 0, "exact", out=f"I{f['leaves']}\n")
    else:
        colours = Counter(sh.leaf_colours4(t))
        J.add(
            "target", ["opetope", "target", *one], 0, "target4",
            nodes=f["leaves"], leaves=sh.leaves3(t["[]"]), colours=dict(colours),
        )
    J.add("validate", ["opetope", "validate", *one], 0, "validate", dim=f["dim"], size=f["size"], shape=form)
    J.add("source", ["opetope", "source", *one], 0, "source", shape=form)
    J.add("faces", ["opetope", "faces", *one], 0, "faces", cells=f["cells"], shape=form)
    J.add("identities", ["opetope", "identities", *one], 0, "identities", cells=f["cells"], squares=f["squares"])
    J.add("hom", ["opetope", "hom", *one, *one], 0, "exact", out="maps: 1\nid\n")
    window = f"window 0 {f['dim']}"
    J.add("spine", ["opset", "spine", *one], 0, "dump", window=window, cells=f["spine_cells"], faces=f["spine_faces"])
    J.add(
        "boundary", ["opset", "boundary", *one], 0, "dump",
        window=window, cells=f["boundary_cells"], faces=f["boundary_faces"],
    )


def build_shapes(seed: int) -> Jobs:
    rng = random.Random(f"shapes:{seed}")
    J = Jobs("shapes")
    trees: list[tuple[dict, bool]] = []
    for n in DIM3_NODES:
        trees.append((sh.tree3(rng, sh.random_arities(rng, n, 3)), True))
    for c, n in enumerate(DIM3_CHAINS, start=1):
        # a root of arity c tells the chains apart: peeling one chain never
        # yields another, so no chain's target is in the cache ahead of it
        trees.append((sh.tree3(rng, [c] + [1] * (n - 1), chain=True), True))
    for n in DIM4_NODES:
        trees.append((sh.tree4(rng, n, 6, 4), False))
    rng.shuffle(trees)
    for t, dim3 in trees:
        _shape_jobs(J, t, dim3)
    for dim, m in ENUMERATIONS:
        J.add(
            "enumerate", ["opetope", "enumerate", "--dim", str(dim), "--max-nodes", str(m)],
            0, "enumerate", count=sh.count_shapes(dim, m),
        )
    # robustness: deep nesting and a shape with no target
    J.add("deep-validate", ["opetope", "validate", "--expr", NESTED], 2, "error", robust=True)
    J.add("deep-target", ["opetope", "target", "--expr", NESTED], 2, "error", robust=True)
    J.add("point-target", ["opetope", "target", "--expr", "point"], 2, "error", robust=True)
    return J


# --------------------------------------------------------------------------
# finite categories as plain tables


class Cat:
    """Objects, morphisms name -> (src, tgt), identities, and g.f -> h."""

    def __init__(self, objects, morphisms, identities, comp):
        self.objects = objects
        self.morphisms = morphisms
        self.identities = identities
        self.comp = comp

    def text(self) -> str:
        lines = ["obj " + " ".join(self.objects)]
        lines += [f"mor {m}: {a} -> {b}" for m, (a, b) in self.morphisms.items()]
        lines += [f"id {a} = {i}" for a, i in self.identities.items()]
        lines += [f"comp {g}.{f} = {h}" for (g, f), h in self.comp.items()]
        return "\n".join(lines) + "\n"

    def paths(self, length: int) -> list[tuple[str, tuple[str, ...]]]:
        out = [(a, ()) for a in self.objects]
        for _ in range(length):
            out = [
                (start, ms + (m,))
                for start, ms in out
                for m, (a, _) in self.morphisms.items()
                if a == (self.morphisms[ms[-1]][1] if ms else start)
            ]
        return out

    def composite(self, start: str, ms: tuple[str, ...]) -> str:
        if not ms:
            return self.identities[start]
        h = ms[0]
        for m in ms[1:]:
            h = self.compose(m, h)
        return h

    def compose(self, g: str, f: str) -> str:
        """g after f; composites with an identity may be left implicit."""
        if (g, f) in self.comp:
            return self.comp[(g, f)]
        return g if f in self.identities.values() else f


def poset(n: int, less: set[tuple[int, int]], copies: int = 1) -> Cat:
    """The poset on 0..n-1 generated by `less`, times the group Z/copies:
    copies parallel arrows i -> j for i <= j, composing by adding labels."""
    le = {(i, i) for i in range(n)} | set(less)
    changed = True
    while changed:
        extra = {(i, k) for i, j in le for j2, k in le if j == j2} - le
        changed = bool(extra)
        le |= extra
    objects = [f"o{i}" for i in range(n)]

    def name(i, j, c):
        return f"m{i}_{j}" + (f"_{c}" if copies > 1 else "")

    morphisms = {name(i, j, c): (f"o{i}", f"o{j}") for i, j in sorted(le) for c in range(copies)}
    identities = {f"o{i}": name(i, i, 0) for i in range(n)}
    comp = {}
    for i, j in sorted(le):
        for j2, k in sorted(le):
            if j2 != j:
                continue
            for c in range(copies):
                for d in range(copies):
                    if copies == 1 and (i == j or j == k):
                        continue  # identity composites may stay implicit
                    comp[(name(j, k, d), name(i, j, c))] = name(i, k, (c + d) % copies)
    return Cat(objects, morphisms, identities, comp)


def random_less(rng: random.Random, n: int, p: float) -> set[tuple[int, int]]:
    """Random relations i < j, always with 0 < 1 so the poset is not discrete."""
    return {(0, 1)} | {(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p}


def monoid(kind: str, size: int) -> Cat:
    """One object; `cyclic` is Z/size, `leftzero` is 1 plus size-1 left zeros."""
    elems = [f"e{i}" for i in range(size)]
    if kind == "cyclic":
        def mul(g, f):
            return (g + f) % size
    else:
        def mul(g, f):
            return f if g == 0 else g
    morphisms = {e: ("o", "o") for e in elems}
    comp = {(elems[g], elems[f]): elems[mul(g, f)] for g in range(1, size) for f in range(1, size)}
    return Cat(["o"], morphisms, {"o": "e0"}, comp)


def nerve2(C: Cat, m: int) -> str:
    """The nerve of C cut to the window [0, 2] with chains of length <= m,
    in the opetopic-set text form: objects, arrows, one I_k cell per
    composable chain of length k, its sources the chain, its target the
    composite."""
    lines = ["window 0 2", "shape point cells " + " ".join(f"o.{a}" for a in C.objects)]
    lines.append("shape arrow cells " + " ".join(f"a.{f}" for f in sorted(C.morphisms)))
    faces = []
    for f, (a, b) in C.morphisms.items():
        faces += [f"face a.{f} s* -> o.{a}", f"face a.{f} t -> o.{b}"]
    for k in range(m + 1):
        ids = []
        for start, ms in C.paths(k):
            cid = "c." + ".".join((start,) + ms)
            ids.append(cid)
            for i in range(k):
                faces.append(f"face {cid} s[{'*' * i}] -> a.{ms[k - 1 - i]}")
            faces.append(f"face {cid} t -> a.{C.composite(start, ms)}")
        lines.append(f"shape I{k} cells " + " ".join(ids))
    return "\n".join(lines + faces) + "\n"


def terminal2(m: int) -> str:
    """The terminal opetopic set on the window [0, 2] with shapes up to I_m."""
    lines = ["window 0 2", "shape point cells p", "shape arrow cells a"]
    lines += [f"shape I{k} cells i{k}" for k in range(m + 1)]
    lines += ["face a s* -> p", "face a t -> p"]
    for k in range(m + 1):
        lines += [f"face i{k} s[{'*' * i}] -> a" for i in range(k)] + [f"face i{k} t -> a"]
    return "\n".join(lines) + "\n"


def _hlift_text(spines_low, boundaries_mid, boundaries_high, failures) -> str:
    flags = [("spines_low", spines_low), ("boundaries_mid", boundaries_mid),
             ("boundaries_high", boundaries_high), ("spines_high", True)]
    out = [f"{k}: {v}" for k, v in flags] + [f"failure: {f}" for f in failures]
    return "\n".join(out + ["failed" if failures else "ok"]) + "\n"


# --------------------------------------------------------------------------
# checks: map search, orthogonality and the monad multiplication

NERVE_M = 3  # chain length of the nerve files, and the hlift bound on them
ORTHO_BOTH = "spine: orthogonal\nboundary: orthogonal\n"
ORTHO_SPINE = "spine: orthogonal\nboundary: not orthogonal (a map extends 0 times)\n"
NERVE_OK = "segal2: yes\nsegal3: yes\nboundary3: yes\nok\n"


def _category_jobs(J: Jobs, tag: str, C: Cat, is_poset: bool, laws_nodes: int) -> None:
    cat = J.file(f"{tag}.cat", C.text())
    nerve = J.file(f"{tag}.opset", nerve2(C, NERVE_M))
    J.add("nerve-check", ["oalg", "nerve-check", "--file", cat, "--max-nodes", "3"], 0, "exact", out=NERVE_OK)
    J.add("laws", ["oalg", "laws", "--file", cat, "--max-nodes", str(laws_nodes)], 0, "laws")
    k = 3
    rows = [
        f"I{len(ms)} | " + " ".join([f"o.{start}"] + [f"a.{m}" for m in ms])
        for n in range(k + 1) for start, ms in C.paths(n)
    ]
    J.add("free", ["oalg", "free", "--file", cat, "--max-nodes", str(k)], 0, "free", rows=rows)
    if is_poset:
        J.add("orthogonal", ["opset", "orthogonal", "--expr", "I2", "--file", nerve], 0, "exact", out=ORTHO_BOTH)
        # a non-discrete poset: spines of the arrow and boundaries of the
        # arrow fail, every 2-dimensional boundary and spine lifts uniquely
        fails = ["spine of arrow not orthogonal", "boundary of arrow not orthogonal"]
        out = _hlift_text(False, False, True, fails)
    else:
        J.add("orthogonal", ["opset", "orthogonal", "--expr", "I2", "--file", nerve], 1, "exact", out=ORTHO_SPINE)
        # a monoid with a non-identity element: no boundary lifts uniquely
        fails = ["spine of arrow not orthogonal", "boundary of arrow not orthogonal"]
        fails += [f"boundary of I{j} not orthogonal" for j in range(NERVE_M + 1)]
        out = _hlift_text(False, False, False, fails)
    J.add("hlift", ["opset", "hlift", "--file", nerve, "--n", "0", "--max-nodes", str(NERVE_M)], 1, "exact", out=out)


# (objects, laws --max-nodes); the laws cost grows fast with both, so
# the schedule is fixed and the seed picks names, relations and order
# chains and monoids carry the costliest laws jobs and the random posets
# stay small, so the tail of the job costs (job_p90_ref) does not hang on
# the random part of the workload
CHAINS = ((3, 9), (4, 7), (5, 7), (6, 7))
# (objects, morphisms, laws --max-nodes) of the random posets; with
# 101 jobs, job_p90_ref is the 11th costliest, the hlift or nerve-check
# job on the 6-object chain, well apart from the laws jobs above them
# and from the random part below
POSETS = ((3, 5, 7), (3, 5, 7), (3, 5, 7), (4, 6, 7), (4, 6, 7), (4, 6, 7))
MONOIDS = (
    ("cyclic", 2, 9), ("cyclic", 3, 7), ("leftzero", 2, 9), ("leftzero", 3, 7),
    ("cyclic", 2, 8), ("leftzero", 2, 8),
)
TERMINALS = (2, 3, 4, 5, 6, 7)  # shapes up to I_m in the terminal sets


def random_poset(rng: random.Random, n: int, morphisms: int) -> Cat:
    """A random non-discrete poset on n objects with exactly that many
    morphisms (identities included), by rejection."""
    while True:
        C = poset(n, random_less(rng, n, 0.3))
        if len(C.morphisms) == morphisms:
            return C


def build_checks(seed: int) -> Jobs:
    rng = random.Random(f"checks:{seed}")
    J = Jobs("checks")
    cats: list[tuple[str, Cat, bool, int]] = []
    for i, (n, m) in enumerate(CHAINS):
        cats.append((f"chain{i}", poset(n, {(j, j + 1) for j in range(n - 1)}), True, m))
    for i, (n, k, m) in enumerate(POSETS):
        cats.append((f"poset{i}", random_poset(rng, n, k), True, m))
    for i, (kind, size, m) in enumerate(MONOIDS):
        cats.append((f"monoid{i}", monoid(kind, size), False, m))
    rng.shuffle(cats)
    for tag, C, is_poset, m in cats:
        _category_jobs(J, tag, C, is_poset, m)
    ok = _hlift_text(True, True, True, [])
    for m in TERMINALS:
        term = J.file(f"terminal{m}.opset", terminal2(m))
        J.add("hlift", ["opset", "hlift", "--file", term, "--n", "0", "--max-nodes", str(m)], 0, "exact", out=ok)
        for k in (m - 1, m):
            J.add("orthogonal", ["opset", "orthogonal", "--expr", f"I{k}", "--file", term], 0, "exact", out=ORTHO_BOTH)
    # robustness: broken opetopic sets and a table that is not associative
    good = nerve2(poset(3, {(0, 1), (1, 2)}), 2)
    lines = good.splitlines()
    cut = next(i for i, l in enumerate(lines) if l.startswith("face "))
    short = "\n".join(lines[:cut] + [" ".join(lines[cut].split()[:3])] + lines[cut + 1:]) + "\n"
    f1 = J.file("short-face.opset", short)
    J.add("short-face", ["opset", "orthogonal", "--expr", "I2", "--file", f1], 2, "error", robust=True)
    f2 = J.file("arrow-target.opset", terminal2(2).replace("face a t -> p", "face a t -> a"))
    J.add("arrow-target", ["opset", "orthogonal", "--expr", "I2", "--file", f2], 2, "error", robust=True)
    bad = monoid("cyclic", 3)
    bad.comp[("e1", "e1")] = "e1"
    f3 = J.file("nonassoc.cat", bad.text())
    J.add("nonassoc", ["oalg", "nerve-check", "--file", f3], 2, "error", robust=True)
    return J


# --------------------------------------------------------------------------
# theory: parsing, signatures and model checking

TCAT = """|- V type
x y : V |- E(x, y) type
x : V |- i(x) : E(x, x)
x y z : V, f : E(x, y), g : E(y, z) |- c(g, f) : E(x, z)
x y : V, f : E(x, y) |- c(i(y), f) = f : E(x, y)
x y : V, f : E(x, y) |- c(f, i(x)) = f : E(x, y)
x y z w : V, f : E(x, y), g : E(y, z), h : E(z, w) |- c(h, c(g, f)) = c(c(h, g), f) : E(x, w)
"""
UNIT_L = "  c(i(y), f) = f: holds ({} environments)"
UNIT_R = "  c(f, i(x)) = f: holds ({} environments)"
ASSOC = "  c(h, c(g, f)) = c(c(h, g), f): "
# chains of these lengths times Z/2, so that every hom-set has a
# parallel twin to swap a composite for; their check-model jobs are the
# costliest, enough of them that the tail of the job costs (job_p90_ref)
# never reaches the random signature jobs
MODEL_OBJECTS = (6, 7, 8, 9, 10, 11, 12, 13, 14)
TYPE_NAMES = ("V", "E", "F", "G", "H", "K", "A", "B", "C", "D", "P", "Q", "R", "S")
VAR_NAMES = ("x", "y", "z", "u", "v", "w", "a", "b", "p", "q", "r", "s")


def model_text(C: Cat) -> str:
    lines = ["sort V = {" + ", ".join(C.objects) + "}"]
    hom: dict[tuple[str, str], list[str]] = {}
    for m, ab in C.morphisms.items():
        hom.setdefault(ab, []).append(m)
    lines += [f"sort E({a}, {b}) = {{{', '.join(ms)}}}" for (a, b), ms in hom.items()]
    lines.append("op i table:")
    lines += [f"i({a}) = {i}" for a, i in C.identities.items()]
    lines.append("op c table:")
    for g, (b, _) in C.morphisms.items():
        for f, (a, b2) in C.morphisms.items():
            if b2 == b:
                lines.append(f"c({g}, {f}) = {C.compose(g, f)}")
    return "\n".join(lines) + "\n"


def _triples(C: Cat) -> int:
    return len(C.paths(3))


def globular(rng: random.Random, d: int) -> tuple[str, list[tuple[str, int, int]]]:
    """A globular signature of dimension d: each type has two variables of
    the type below in its context.  Returns the text and, per type, its
    name, grade and context length."""
    names = rng.sample(TYPE_NAMES, d + 1)
    lines, info, ctx, args = [], [], "", []
    for g, name in enumerate(names):
        head = f"{name}({', '.join(args)})" if args else name
        lines.append(f"{ctx}|- {head} type")
        info.append((name, g, len(args)))
        v1, v2 = f"{VAR_NAMES[g % len(VAR_NAMES)]}{g}", f"{VAR_NAMES[(g + 1) % len(VAR_NAMES)]}{g}"
        binding = f"{v1} {v2} : {head}"
        ctx = f"{ctx[:-1]}, {binding} " if ctx else f"{binding} "
        args = args + [v1, v2]
    return "\n".join(lines) + "\n", info


def bipartite(rng: random.Random, bases: int, edges: int) -> tuple[str, list[tuple[str, int, int]]]:
    """Base types with no context and edge types between random pairs."""
    names = rng.sample(TYPE_NAMES, bases + edges)
    lines = [f"|- {b} type" for b in names[:bases]]
    info = [(b, 0, 0) for b in names[:bases]]
    for e in names[bases:]:
        s, t = rng.choice(names[:bases]), rng.choice(names[:bases])
        lines.append(f"x : {s}, y : {t} |- {e}(x, y) type")
        info.append((e, 1, 2))
    return "\n".join(lines) + "\n", info


def build_theory(seed: int) -> Jobs:
    rng = random.Random(f"theory:{seed}")
    J = Jobs("theory")
    th = J.file("tcat.th", TCAT)
    jobs = []
    for i, n in enumerate(MODEL_OBJECTS):
        C = poset(n, {(j, j + 1) for j in range(n - 1)}, copies=2)
        good = model_text(C)
        M, T = len(C.morphisms), _triples(C)
        # swap one composite g.f, f: o0 -> o1 and g: o1 -> o2, for its
        # parallel twin; always the first such pair, as where the failure
        # comes in the environment order, and so the job's cost, depends
        # on the pair
        g, f = next(
            (g, f) for (g, f) in C.comp
            if C.morphisms[f] == ("o0", "o1") and C.morphisms[g] == ("o1", "o2")
        )
        h = C.comp[(g, f)]
        twin = h[:-1] + ("1" if h.endswith("0") else "0")
        bad = good.replace(f"c({g}, {f}) = {h}\n", f"c({g}, {f}) = {twin}\n")
        head = [UNIT_L.format(M), UNIT_R.format(M)]
        mg = J.file(f"cat{i}.mod", good)
        mb = J.file(f"cat{i}-swap.mod", bad)
        jobs.append(("check-model", ["theory", "check-model", "--theory", th, "--model", mg], 0, "model",
                     {"head": head + [ASSOC + f"holds ({T} environments)"], "last": "PASS"}))
        jobs.append(("check-model-swap", ["theory", "check-model", "--theory", th, "--model", mb], 1, "model",
                     {"head": head, "fails": ASSOC + "fails at ", "last": "FAIL"}))
    # 21 signatures make 106 jobs, so that job_p90_ref is the 11th
    # costliest, a check-model job whose cost the seed does not change
    for i in range(21):
        # sizes on a fixed schedule, so the median job is the same kind
        # of job on every seed; the seed picks names and edges
        k = i // 2
        if i % 2:
            text, info = globular(rng, 1 + k % 4)
        else:
            text, info = bipartite(rng, 1 + k % 3, 1 + k % 5)
        fn = J.file(f"sig{i}.th", text)
        types = [[n, g] for n, g, _ in info]
        morphisms = len(info) + sum(c for _, _, c in info)
        jobs.append(("parse", ["theory", "parse", "--file", fn], 0, "theory_parse",
                     {"types": types, "ops": 0, "equations": 0}))
        jobs.append(("lfd", ["theory", "lfd", "--file", fn], 0, "lfd",
                     {"types": types, "morphisms": morphisms}))
        jobs.append(("roundtrip", ["theory", "roundtrip", "--file", fn], 0, "exact", {"out": "PASS\n"}))
        expr, sorts = _context(text)
        jobs.append(("context", ["theory", "context", "--file", fn, "--expr", expr], 0, "context",
                     {"sorts": sorts}))
    jobs.append(("parse", ["theory", "parse", "--file", th], 0, "theory_parse",
                 {"types": [["V", 0], ["E", 1]], "ops": 2, "equations": 3}))
    rng.shuffle(jobs)
    for tag, argv, code, check, facts in jobs:
        J.add(tag, argv, code, check, **facts)
    # robustness: malformed models
    good = model_text(poset(3, {(0, 1), (1, 2)}))
    for tag, text in (
        ("model-unclosed", good.replace("sort V = {o0, o1, o2}", "sort V = {o0, o1, o2")),
        ("model-orphan-row", good.replace("op i table:\n", "")),
        ("model-no-value", good.replace("i(o0) = m0_0", "i(o0) =")),
    ):
        fn = J.file(f"{tag}.mod", text)
        J.add(tag, ["theory", "check-model", "--theory", th, "--model", fn], 2, "error", robust=True)
    return J


def _context(text: str) -> tuple[str, list[str]]:
    """The context of the last declared type plus one variable of it, and
    the sort of every variable in it."""
    ctx, head = (p.strip() for p in text.splitlines()[-1].split("|-"))
    head = head[: -len(" type")]
    expr = f"{ctx}, t : {head}" if ctx else f"t : {head}"
    sorts = []
    for names, sort in re.findall(r"([\w ]+?) : (\w+)", expr):
        sorts += [sort] * len(names.split())
    return expr, sorts


BUILDERS = {"shapes": build_shapes, "checks": build_checks, "theory": build_theory}


def build(name: str, seed: int) -> Jobs:
    if name not in BUILDERS:
        raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
    return BUILDERS[name](seed)
