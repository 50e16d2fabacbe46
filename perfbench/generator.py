"""The corrupting generator: a seeded, deterministic stand-in for the live
model, used as the ``live`` backend of ``RecordingBackend`` during set-up.

It answers a generation prompt with a task's first planned candidate, a
critique prompt with a canned critique that names the task and the step
it critiques, and a regeneration prompt with the candidate after that
step (or with the planned unparseable answer). It is stateless: the task
is found from the prompt itself, so recording order does not matter.
"""

from __future__ import annotations

import re

from corpus import TaskPlan, rows_text

_MARK_RE = re.compile(r"\[plan (\S+) step (\d+)\]")


class PromptSlots:
    """Splits a rendered prompt back into its slot values, using the
    template's literal text between ``{{...}}`` placeholders."""

    def __init__(self, template: str):
        parts = re.split(r"\{\{([^{}]+)\}\}", template)
        self.literals = parts[0::2]
        self.names = parts[1::2]

    def match(self, prompt: str) -> dict[str, str] | None:
        if not prompt.startswith(self.literals[0]) or not prompt.endswith(self.literals[-1]):
            return None
        pos = len(self.literals[0])
        end = len(prompt) - len(self.literals[-1])
        slots = {}
        for name, literal in zip(self.names, self.literals[1:-1]):
            nxt = prompt.find(literal, pos)
            if nxt < 0:
                return None
            slots[name] = prompt[pos:nxt]
            pos = nxt + len(literal)
        slots[self.names[-1]] = prompt[pos:end]
        return slots


class CorruptingGenerator:
    backend_id = "corrupting-generator"

    def __init__(self, plans: list[TaskPlan], gateway):
        self.plans = {plan.id: plan for plan in plans}
        kinds = gateway.PromptKind
        self.by_prompt = {
            gateway.render_prompt(kinds.STRUCTURAL_DECOMPOSITION, {"Input Text": plan.source}): plan
            for plan in plans
        }
        if len(self.by_prompt) != len(plans):
            raise ValueError("two tasks share a source text")
        self.by_rows: dict[str, tuple[TaskPlan, int]] = {}
        for plan in plans:
            for step, candidate in enumerate(plan.candidates, start=1):
                key = rows_text(candidate)
                if self.by_rows.setdefault(key, (plan, step))[0] is not plan:
                    raise ValueError(f"tasks {plan.id} and {self.by_rows[key][0].id} share a candidate")
        self.critique = PromptSlots(gateway.template_text(kinds.CRITIQUE))
        self.regeneration = PromptSlots(gateway.template_text(kinds.REGENERATION))

    def complete(self, prompt: str) -> str:
        plan = self.by_prompt.get(prompt)
        if plan is not None:
            return plan.responses[0]
        slots = self.critique.match(prompt)
        if slots is not None:
            plan, step = self.by_rows[slots["Table Rows"]]
            return (
                "The table drops source rows and shifts values across columns. "
                "Restore every row, split merged values, rejoin split numbers, "
                f"remove the blank row and close the bracket. [plan {plan.id} step {step}]"
            )
        slots = self.regeneration.match(prompt)
        if slots is not None:
            mark = _MARK_RE.search(slots["Critique"])
            plan, step = self.plans[mark.group(1)], int(mark.group(2))
            if plan.broken_regeneration is not None:
                return plan.broken_regeneration
            return plan.responses[min(step, len(plan.responses) - 1)]
        raise ValueError("prompt matches no planned task")
