"""Seeded benchmark corpora and the per-task plans that predict outcomes.

A task is a source text, a gold table and a plan: the ordered candidate
tables the corrupting generator answers with (``candidates[0]`` for the
generation prompt, ``candidates[i]`` for the i-th regeneration prompt),
plus the outcome the loop must reach on them. Grids are lists of rows of
cell strings, header rows first. Only the seed picks cell values, fault
positions and response wrappers; table sizes and the mix of plan shapes
are fixed per workload, so every seed does the same amount of work.

Whether a candidate converges is predicted without the program's checker:
every non-final candidate loses at least 15% of the source's alphanumeric
characters (coverage < 0.85 against the 0.90 threshold, by the documented
coverage formula re-implemented in ``coverage``), and final candidates are
built clean by construction. The fixture tables carry frozen verdicts in
``fixtures/verdicts.json`` instead.
"""

from __future__ import annotations

import html
import json
import math
import random
import re
from dataclasses import dataclass, field
from pathlib import Path

FIXTURES = Path(__file__).resolve().parent / "fixtures"
MAX_ITERATIONS = 5  # PipelineConfig's default; the benchmark passes no config
NOT_CONVERGED_COVERAGE = 0.85
CONVERGED_COVERAGE = 0.92

WORDS = (
    "alpha beta gamma delta omega north south east west total gross net "
    "amber cobalt maple cedar harbor meadow summit valley river canyon "
    "falcon heron otter badger walrus marten lynx raven quartz basalt "
    "granite copper silver nickel zinc argon helium neon radon krypton"
).split()
EDIT_WORDS = ("zephyr", "quokka", "xylem", "jubilee", "vortex", "yonder")
HEX = "0123456789abcdef"


def _number(rng: random.Random) -> str:
    return f"{rng.randint(1, 99999):,}.{rng.randint(0, 99):02d}"


def _date(rng: random.Random) -> str:
    return f"{rng.randint(2000, 2024)}-{rng.randint(1, 12):02d}-{rng.randint(1, 28):02d}"


def _percent(rng: random.Random) -> str:
    return f"{rng.randint(0, 99)}.{rng.randint(0, 9)}%"


def _time(rng: random.Random) -> str:
    return f"{rng.randint(0, 23):02d}:{rng.randint(0, 59):02d}"


def _email(rng: random.Random) -> str:
    return f"{rng.choice(WORDS)}{rng.randint(1, 99)}@{rng.choice(WORDS)}.com"


def _code(rng: random.Random) -> str:
    return f"{rng.choice(WORDS)[:2]}-{rng.randint(10, 999)}"


def _word(rng: random.Random) -> str:
    return rng.choice(WORDS)


def _url(rng: random.Random) -> str:
    # the long-token column: any index whose cost grows with token length shows here
    token = "".join(rng.choice(HEX) for _ in range(rng.randint(48, 96)))
    return f"https://data.example.org/records/{token}"


# Every value is one whitespace-free token that fully matches exactly one
# entity pattern (or, for "code", shares one signature), never a bare digit
# run and never ends in a separator, so a gold table trips no rule family.
COLUMN_TYPES = {
    "word": ("Name", _word),
    "number": ("Amount", _number),
    "date": ("Date", _date),
    "percent": ("Share", _percent),
    "time": ("Time", _time),
    "email": ("Contact", _email),
    "code": ("Code", _code),
    "url": ("Link", _url),
}
SMALL_TYPES = ("word", "number", "date", "percent", "time", "email", "code")
LARGE_TYPES = ("word", "number", "number", "date", "number", "word", "percent", "number", "date")


@dataclass
class Expect:
    final: list[list[str]] | None
    em: int | None
    iterations: int
    converged: bool
    error: str | None = None  # expected error class name
    ted_range: tuple[float, float] = (0.0, 1.0)  # normalized TED when em is 0: (low, high]


@dataclass
class TaskPlan:
    id: str
    source: str
    gold: list[list[str]]
    n_header: int
    gold_html: str
    candidates: list[list[list[str]]] = field(default_factory=list)
    responses: list[str] = field(default_factory=list)
    broken_regeneration: str | None = None
    expect: Expect | None = None


# ---------------------------------------------------------------------------
# Grid helpers (independent of the program under test)
# ---------------------------------------------------------------------------


def pad(grid: list[list[str]]) -> list[list[str]]:
    width = max((len(row) for row in grid), default=0)
    return [list(row) + [""] * (width - len(row)) for row in grid]


def norm_grid(grid: list[list[str]]) -> list[list[str]]:
    return [[" ".join(text.split()) for text in row] for row in pad(grid)]


def rows_text(grid: list[list[str]]) -> str:
    """The pipe rendering the critique and regeneration prompts show."""
    return "\n".join(" | ".join(row) for row in pad(grid))


def flatten_ocr(grid: list[list[str]]) -> str:
    return "\r\n".join(" ".join(text for text in row if text != "") for row in grid)


def node_count(grid: list[list[str]]) -> int:
    grid = pad(grid)
    return 1 + len(grid) + sum(len(row) for row in grid)


def _alnum(text: str) -> int:
    return sum(1 for ch in text if ch.isalnum())


def coverage(source: str, grid: list[list[str]]) -> float:
    """Share of the source's alphanumeric characters whose token the table
    still holds (token multisets, weighted by alphanumeric length)."""
    total = _alnum(source)
    if total == 0:
        return 1.0
    have: dict[str, int] = {}
    for row in grid:
        for text in row:
            for tok in text.split():
                have[tok] = have.get(tok, 0) + 1
    need: dict[str, int] = {}
    for tok in source.split():
        need[tok] = need.get(tok, 0) + 1
    missing = sum(max(0, n - have.get(tok, 0)) * _alnum(tok) for tok, n in need.items())
    return 1.0 - missing / total


def to_html(grid: list[list[str]], n_header: int) -> str:
    def row(cells: list[str], tag: str) -> str:
        return "<tr>" + "".join(f"<{tag}>{html.escape(c)}</{tag}>" for c in cells) + "</tr>"

    head = "".join(row(r, "th") for r in grid[:n_header])
    body = "".join(row(r, "td") for r in grid[n_header:])
    return f"<table><thead>{head}</thead><tbody>{body}</tbody></table>"


_ROW_RE = re.compile(r"<tr>(.*?)</tr>", re.S)
_CELL_RE = re.compile(r"<t[hd]>(.*?)</t[hd]>", re.S)


def simple_html_grid(markup: str) -> tuple[list[list[str]], int]:
    """Rows and header-row count of a span-free table with attribute-less
    tags (the fixtures)."""
    rows = [[html.unescape(c) for c in _CELL_RE.findall(r)] for r in _ROW_RE.findall(markup)]
    n_header = markup.split("</thead>")[0].count("<tr>") if "</thead>" in markup else 0
    return rows, n_header


def envelope(html_text: str, rng: random.Random) -> str:
    """Wrap a table in the extraction JSON, as plain JSON, in a code fence
    or inside prose, with either key spelling."""
    if rng.random() < 0.5:
        entry = {"$starting_token$": None, "$html_output$": html_text}
        payload = {"tables": [entry], "$row_delimiter$": "\r\n"}
    else:
        payload = {"tables": [{"html_output": html_text}]}
    text = json.dumps(payload, indent=2)
    style = rng.random()
    if style < 0.15:
        return f"```json\n{text}\n```"
    if style < 0.25:
        return f"Here is the reconstructed table.\n\n{text}\n\nEach row follows the source order."
    return text


# ---------------------------------------------------------------------------
# Planted faults
# ---------------------------------------------------------------------------


def _split_at_separator(text: str) -> tuple[str, str]:
    for sep in (",", ".", "-", ":", "@", "/"):
        pos = text.find(sep)
        if 0 < pos < len(text) - 1:
            return text[: pos + 1], text[pos + 1 :]
    mid = max(1, len(text) // 2)
    return text[:mid], text[mid:]


def plant_faults(
    grid: list[list[str]], n_header: int, rng: random.Random, drop_tail: int
) -> list[list[str]]:
    """Gold minus its last ``drop_tail`` body rows, plus one fault per rule
    family: a merged pair, a split number, a blank row, an unbalanced
    bracket and a dropped cell."""
    kept = _truncate(grid, n_header, drop_tail)
    header, body = kept[:n_header], kept[n_header:]
    width = len(grid[0])
    if width >= 2:
        row = rng.choice(body)
        if len(row) >= 2:
            j = rng.randrange(len(row) - 1)
            row[j : j + 2] = [f"{row[j]} {row[j + 1]}"]
        row = rng.choice(body)
        numeric = [j for j, text in enumerate(row) if any(ch.isdigit() for ch in text)]
        j = rng.choice(numeric) if numeric else rng.randrange(len(row))
        left, right = _split_at_separator(row[j])
        row[j : j + 1] = [left, right]
    row = rng.choice(body)
    j = rng.randrange(len(row))
    row[j] = "(" + row[j]
    row = rng.choice(body)
    if len(row) >= 2:
        del row[rng.randrange(len(row))]
    body.insert(rng.randrange(len(body) + 1), [""] * width)
    return header + body


def _truncate(grid: list[list[str]], n_header: int, drop_tail: int) -> list[list[str]]:
    body = grid[n_header:]
    return [list(r) for r in grid[:n_header] + body[: max(1, len(body) - drop_tail)]]


def _until_unconverged(source: str, build, start: int, body_rows: int) -> list[list[str]]:
    """Grow the dropped tail from ``start`` until coverage is clearly below
    the convergence threshold."""
    for drop in range(start, body_rows + 1):
        grid = build(drop)
        if coverage(source, grid) < NOT_CONVERGED_COVERAGE:
            return grid
    raise RuntimeError("cannot build a non-converging candidate")


# ---------------------------------------------------------------------------
# Task builders
# ---------------------------------------------------------------------------


def random_gold(rng: random.Random, rows: int, types: tuple[str, ...]) -> list[list[str]]:
    header = [f"{COLUMN_TYPES[t][0]}{i}" for i, t in enumerate(types)]
    body = [[COLUMN_TYPES[t][1](rng) for t in types] for _ in range(rows)]
    return [header] + body


def _finish(plan: TaskPlan, rng: random.Random) -> TaskPlan:
    plan.responses = [envelope(to_html(c, plan.n_header), rng) for c in plan.candidates]
    return plan


def synthetic_task(
    task_id: str, rng: random.Random, rows: int, types: tuple[str, ...], shape: str
) -> TaskPlan:
    """``shape``: ``clean`` (gold at once), ``repair1`` (faulty, then gold),
    ``repair2`` (faulty, truncated, gold), ``ted`` (faulty, then gold minus a
    row with one edited cell), ``broken_regen`` (faulty, then an
    unparseable regeneration) or ``never`` (no parseable answer at all)."""
    gold = random_gold(rng, rows, types)
    source = flatten_ocr(gold)
    plan = TaskPlan(task_id, source, gold, 1, to_html(gold, 1))
    drop = max(1, math.ceil(0.2 * rows))
    if shape == "never":
        plan.responses = ["I could not find a table in this text; please send the document again."]
        plan.expect = Expect(None, None, 0, False, error="NoCandidateProduced")
        return plan
    if shape == "clean":
        plan.candidates = [gold]
    else:
        faulty = _until_unconverged(source, lambda d: plant_faults(gold, 1, rng, d), drop, rows)
        plan.candidates = [faulty]
        if shape == "repair2":
            plan.candidates.append(_until_unconverged(source, lambda d: _truncate(gold, 1, d), drop, rows))
        if shape in ("repair1", "repair2"):
            plan.candidates.append(gold)
        elif shape == "ted":
            plan.candidates.append(_ted_final(gold, source, rng))
    _finish(plan, rng)
    final = plan.candidates[-1]
    em = int(norm_grid(final) == norm_grid(gold))
    if shape == "broken_regen":
        # a truncated JSON object: every retry and iteration gets it again
        markup = to_html(gold, 1)
        plan.broken_regeneration = 'Fixed table below.\n{"tables": [{"html_output": "' + markup[: len(markup) // 2]
        plan.expect = Expect(pad(final), em, MAX_ITERATIONS, False)
    else:
        plan.expect = Expect(pad(final), em, len(plan.candidates), True)
    if shape == "ted":
        # the node counts differ by one row and its cells; deleting those and
        # relabelling the edited cell is one edit script
        width, nodes = len(gold[0]), max(node_count(final), node_count(gold))
        plan.expect.ted_range = (width / nodes, (width + 2) / nodes)
    return plan


def _ted_final(gold: list[list[str]], source: str, rng: random.Random) -> list[list[str]]:
    """Gold with one body row dropped and one word cell edited to a word the
    source does not contain: it passes the checker but is not exact."""
    grid = [list(r) for r in gold]
    del grid[1 + rng.randrange(len(grid) - 1)]
    word_cols = [j for j, text in enumerate(grid[1]) if text.isalpha()]
    r = 1 + rng.randrange(len(grid) - 1)
    j = rng.choice(word_cols)
    grid[r][j] = next(w for w in rng.sample(EDIT_WORDS, len(EDIT_WORDS)) if w not in source)
    if coverage(source, grid) < CONVERGED_COVERAGE:
        raise RuntimeError("ted candidate loses too much coverage")
    return grid


def fixture_tasks(rng: random.Random) -> list[TaskPlan]:
    """The 30-table corrupted corpus, the balance sheet and the GO listing,
    each answered with its gold table at once. Whether the gold converges
    is the frozen verdict; non-converging ones run all iterations."""
    verdicts = json.loads((FIXTURES / "verdicts.json").read_text(encoding="utf-8"))["converges"]
    plans = []
    corpus = json.loads((FIXTURES / "corrupted_corpus.json").read_text(encoding="utf-8"))["fixtures"]
    for fx in corpus:
        grid = pad([list(r) for r in fx["header"]] + [list(r) for r in fx["rows"]])
        n_header = len(fx["header"])
        plan = TaskPlan(f"fx_{fx['name']}", flatten_ocr(grid), grid, n_header, to_html(grid, n_header))
        plan.candidates = [grid]
        plans.append(_finish(plan, rng))

    gold_html = (FIXTURES / "balance_sheet_gold.html").read_text(encoding="utf-8")
    rows, n_header = simple_html_grid(gold_html)
    grid = pad(rows)
    source = (FIXTURES / "balance_sheet_input.txt").read_bytes().decode("utf-8")
    plan = TaskPlan("fx_balance_sheet", source, grid, n_header, gold_html)
    plan.candidates = [grid]
    plans.append(_finish(plan, rng))

    listing = (FIXTURES / "listing3.json").read_text(encoding="utf-8")
    parts = json.loads(listing)["tables"]
    # the first part keeps its header; later parts add their starting token
    # as a one-cell row, then their body rows
    grid, n_header = simple_html_grid(parts[0]["html_output"])
    for part in parts[1:]:
        rows, part_header = simple_html_grid(part["html_output"])
        grid.append([part["starting_token"]])
        grid.extend(rows[part_header:])
    grid = pad(grid)
    source = (FIXTURES / "go_input.txt").read_text(encoding="utf-8")
    plan = TaskPlan("fx_go_listing3", source, grid, n_header, to_html(grid, n_header))
    plan.candidates = [grid]
    plan.responses = [listing]
    plans.append(plan)

    clean = {f"fx_{fx['name']}" for fx in corpus if not fx["planted"]}
    for plan in plans:
        converges = verdicts[plan.id]
        if plan.id in clean and not converges:
            raise ValueError(f"verdicts.json: clean fixture {plan.id} marked as not converging")
        iterations = 1 if converges else MAX_ITERATIONS
        plan.expect = Expect(pad(plan.gold), 1, iterations, converges)
    return plans


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

LARGE_SHAPES = ((1000, 10), (1200, 8))
TED_ROWS = (20, 23, 26, 29, 32, 35, 38, 41, 44, 47)
TED_TYPES = ("word", "number", "date", "word", "percent")


def small_replay(seed: int) -> list[TaskPlan]:
    rng = random.Random(seed)
    plans = fixture_tasks(rng)
    shapes = ["clean"] * 10 + ["repair1"] * 48 + ["repair2"] * 36
    rng.shuffle(shapes)
    shapes += ["broken_regen", "never"]
    for i, shape in enumerate(shapes):
        rows = 2 + i % 14
        ncols = 3 + i % 4
        types = tuple(rng.sample(SMALL_TYPES, ncols))
        plans.append(synthetic_task(f"s{i:03d}", rng, rows, types, shape))
    return plans


def large_check(seed: int) -> list[TaskPlan]:
    rng = random.Random(seed)
    plans = []
    for i, (rows, ncols) in enumerate(LARGE_SHAPES):
        types = ("url",) + LARGE_TYPES[: ncols - 1]
        plans.append(synthetic_task(f"l{i}", rng, rows, types, "repair1"))
    return plans


def ted_eval(seed: int) -> list[TaskPlan]:
    rng = random.Random(seed)
    return [synthetic_task(f"t{i:02d}", rng, rows, TED_TYPES, "ted") for i, rows in enumerate(TED_ROWS)]


WORKLOADS = {"small-replay": small_replay, "large-check": large_check, "ted-eval": ted_eval}


def sweep_table(rows: int, seed: int = 0) -> list[list[str]]:
    """The 10-column number/date/word table of the layer sweep."""
    types = ("word", "number", "date", "number", "word", "number", "date", "number", "percent", "number")
    return random_gold(random.Random(seed * 100003 + rows), rows, types)


def write_corpus(plans: list[TaskPlan], directory: Path) -> None:
    """Paired-text dataset: ``<id>.txt`` source and ``<id>.html`` gold."""
    directory.mkdir(parents=True, exist_ok=True)
    for plan in plans:
        (directory / f"{plan.id}.txt").write_bytes(plan.source.encode("utf-8"))
        (directory / f"{plan.id}.html").write_bytes(plan.gold_html.encode("utf-8"))
