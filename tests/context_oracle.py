"""Context validation that rebuilds every earlier stage: an independent
oracle.

For each step it realizes the presheaf of all the steps before it and
checks the step's name, object, attachment set, attached cells and
naturality against that stage.  Rebuilding makes it quadratic, and on
some malformed contexts it raises instead of reporting: a repeated step
name fails while a later stage is realized, and an attachment to a
missing cell fails where its faces are looked up.  It walks the
attaching morphisms as a set, so the order of its naturality problems
depends on the hash seed.  The tests compare `theory.validate_context`
against this as multisets of problems.
"""

from __future__ import annotations

from opetopes.theory import Context


def oracle_validate_context(ctx: Context) -> list[str]:
    problems: list[str] = []
    for i, step in enumerate(ctx.steps):
        if step.name != f"x{i}":
            problems.append(f"step {i} is named {step.name}, expected x{i}")
        if step.obj not in ctx.cat.objects:
            problems.append(f"step {i} attaches at unknown object {step.obj}")
            continue
        prev = Context(ctx.cat, ctx.steps[:i]).realization()
        attach = dict(step.attach)
        want = set(ctx.cat.into(step.obj))
        if set(attach) != want:
            problems.append(f"step {i} must attach along exactly {sorted(want)}")
            continue
        for m, y in attach.items():
            if y not in prev.of_obj(ctx.cat.src(m)):
                problems.append(f"step {i} sends {m} to a missing cell {y}")
        for m in want:
            for e in ctx.cat.into(ctx.cat.src(m)):
                if attach.get(ctx.cat.compose(m, e)) != prev.restrict(attach[m], e):
                    problems.append(f"step {i} attaching map is not natural at {m}.{e}")
    return problems
