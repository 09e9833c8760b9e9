"""Contingency-table data model: multi-way tables, optional stratification,
lexicographic cell ordering (last variable fastest), CSV/JSON ingestion and
the bundled case-study fixtures.
"""
from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path

import numpy as np

LOGIT_TYPES = ("local", "global", "continuation", "reverse_continuation")


class TableError(ValueError):
    """Raised for malformed tables or table files."""


def lex_index(multi_index, dims) -> int:
    """Flat 0-based cell position of 1-based category indices.

    The last variable varies fastest, matching the ordering of the joint
    probability vector.
    """
    if len(multi_index) != len(dims):
        raise TableError(f"index {multi_index} has wrong length for dims {tuple(dims)}")
    flat = 0
    for a, m in zip(multi_index, dims):
        if not 1 <= a <= m:
            raise TableError(f"category index {a} out of range 1..{m}")
        flat = flat * m + (a - 1)
    return flat


def unrank(flat: int, dims) -> tuple:
    """Inverse of :func:`lex_index`."""
    out = []
    for m in reversed(dims):
        out.append(flat % m + 1)
        flat //= m
    if flat:
        raise TableError("flat index out of range")
    return tuple(reversed(out))


@dataclass(frozen=True)
class ContingencyTable:
    """Observed counts for one stratum, cells in lexicographic order."""

    dims: tuple
    counts: np.ndarray

    def __post_init__(self):
        dims = tuple(int(m) for m in self.dims)
        counts = np.asarray(self.counts, dtype=float)
        r = int(np.prod(dims))
        if counts.shape != (r,):
            raise TableError(f"counts length {counts.shape} != prod(dims) = {r}")
        if np.any(counts < 0):
            bad = np.nonzero(counts < 0)[0]
            raise TableError(f"negative counts at cells {bad.tolist()}")
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "counts", counts)

    @property
    def r(self) -> int:
        return int(np.prod(self.dims))

    @property
    def q(self) -> int:
        return len(self.dims)

    @property
    def n(self) -> float:
        return float(self.counts.sum())


@dataclass(frozen=True)
class StratifiedTable:
    """One ContingencyTable per explanatory-variable configuration.

    A plain (unstratified) table is the s = 1 case.
    """

    strata: tuple
    tables: tuple

    def __post_init__(self):
        strata = tuple(str(b) for b in self.strata)
        tables = tuple(self.tables)
        if len(strata) != len(tables) or not tables:
            raise TableError("strata labels and tables must pair up, s >= 1")
        dims = tables[0].dims
        for lab, tab in zip(strata, tables):
            if tab.dims != dims:
                raise TableError(f"stratum {lab!r} has dims {tab.dims}, expected {dims}")
        object.__setattr__(self, "strata", strata)
        object.__setattr__(self, "tables", tables)

    @property
    def s(self) -> int:
        return len(self.tables)

    @property
    def dims(self) -> tuple:
        return self.tables[0].dims

    @property
    def r(self) -> int:
        return self.tables[0].r

    @property
    def q(self) -> int:
        return self.tables[0].q

    @property
    def n(self) -> float:
        return float(sum(t.n for t in self.tables))

    def counts_matrix(self) -> np.ndarray:
        """Counts as an (s, r) array."""
        return np.stack([t.counts for t in self.tables])


@dataclass
class TableDiagnostics:
    per_stratum_totals: list
    n: float
    zero_cells: int
    total_cells: int
    sparsity: float
    empty: bool
    messages: list = field(default_factory=list)


def validate(table: StratifiedTable) -> TableDiagnostics:
    """Report-only diagnostics: zero cells, sparsity, per-stratum totals."""
    counts = table.counts_matrix()
    zero = int((counts == 0).sum())
    total = counts.size
    diag = TableDiagnostics(
        per_stratum_totals=[float(t.n) for t in table.tables],
        n=table.n,
        zero_cells=zero,
        total_cells=total,
        sparsity=zero / total,
        empty=table.n == 0,
    )
    if diag.empty:
        diag.messages.append("table has n = 0; downstream fitters will reject it")
    for lab, tab in zip(table.strata, table.tables):
        if tab.n == 0:
            diag.messages.append(f"stratum {lab!r} has zero total count")
    return diag


# ---------------------------------------------------------------------------
# CSV / JSON formats
#
# CSV: header "stratum,a1,...,aq,count", one row per non-zero cell, missing
# cells are zero; dims are inferred from the largest category index seen.
# JSON: explicit dims/strata and dense per-stratum counts arrays.
# ---------------------------------------------------------------------------

def _table_from_cells(rows, dims, strata_order):
    r = int(np.prod(dims))
    per = {b: np.zeros(r) for b in strata_order}
    seen = set()
    for lineno, stratum, idx, count in rows:
        flat = lex_index(idx, dims)
        key = (stratum, flat)
        if key in seen:
            raise TableError(f"row {lineno}: duplicate cell {idx} in stratum {stratum!r}")
        seen.add(key)
        per[stratum][flat] = count
    tables = tuple(ContingencyTable(dims, per[b]) for b in strata_order)
    return StratifiedTable(strata_order, tables)


def loads_csv(text: str) -> StratifiedTable:
    reader = csv.reader(io.StringIO(text))
    header = next(reader, None)
    if not header or header[0] != "stratum" or header[-1] != "count":
        raise TableError("CSV header must be stratum,a1,...,aq,count")
    q = len(header) - 2
    if q < 1 or any(header[i + 1] != f"a{i + 1}" for i in range(q)):
        raise TableError("CSV header must be stratum,a1,...,aq,count")
    rows, errors = [], []
    strata_order = []
    maxcat = [0] * q
    for lineno, row in enumerate(reader, start=2):
        if not row:
            continue
        if len(row) != q + 2:
            errors.append(f"row {lineno}: expected {q + 2} fields, got {len(row)}")
            continue
        stratum = row[0]
        try:
            idx = tuple(int(v) for v in row[1:-1])
            count = float(row[-1])
        except ValueError:
            errors.append(f"row {lineno}: non-numeric index or count: {row}")
            continue
        if count < 0:
            errors.append(f"row {lineno}: negative count {count}")
            continue
        if any(a < 1 for a in idx):
            errors.append(f"row {lineno}: category indices must be >= 1: {idx}")
            continue
        if stratum not in strata_order:
            strata_order.append(stratum)
        maxcat = [max(m, a) for m, a in zip(maxcat, idx)]
        rows.append((lineno, stratum, idx, count))
    if errors:
        raise TableError("invalid CSV table:\n  " + "\n  ".join(errors))
    if not rows:
        raise TableError("CSV table has no data rows")
    return _table_from_cells(rows, tuple(maxcat), tuple(strata_order))


def dumps_csv(table: StratifiedTable) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["stratum"] + [f"a{i + 1}" for i in range(table.q)] + ["count"])
    for lab, tab in zip(table.strata, table.tables):
        for flat in np.nonzero(tab.counts)[0]:
            idx = unrank(int(flat), table.dims)
            c = tab.counts[flat]
            writer.writerow([lab, *idx, int(c) if c == int(c) else c])
    return out.getvalue()


def loads_json(text: str) -> StratifiedTable:
    obj = json.loads(text)
    try:
        dims = tuple(int(m) for m in obj["dims"])
        strata = tuple(obj["strata"])
        counts = obj["counts"]
    except (KeyError, TypeError) as exc:
        raise TableError(f"JSON table missing field: {exc}") from exc
    if len(counts) != len(strata):
        raise TableError(f"{len(strata)} strata but {len(counts)} counts arrays")
    tables = tuple(ContingencyTable(dims, np.asarray(c, dtype=float)) for c in counts)
    return StratifiedTable(strata, tables)


def dumps_json(table: StratifiedTable) -> str:
    def as_num(v):
        return int(v) if v == int(v) else float(v)

    obj = {
        "dims": list(table.dims),
        "strata": list(table.strata),
        "counts": [[as_num(v) for v in t.counts] for t in table.tables],
    }
    return json.dumps(obj, indent=1)


def load_table(source) -> StratifiedTable:
    """Load a StratifiedTable from a CSV or JSON file path."""
    path = Path(source)
    text = path.read_text()
    if path.suffix.lower() == ".json":
        return loads_json(text)
    return loads_csv(text)


# ---------------------------------------------------------------------------
# Bundled fixtures (case-study tables, embedded verbatim)
# ---------------------------------------------------------------------------

FIXTURES = {
    "father_son": "father_son.csv",
    "alzheimer": "alzheimer.csv",
    "skin_trial": "skin_trial.csv",
}

FIXTURE_SHAPES = {
    "father_son": ((6, 6), 1),
    "alzheimer": ((5, 4), 2),
    "skin_trial": ((3, 3, 3, 3), 2),
}


def fixture_path(name: str) -> Path:
    if name not in FIXTURES:
        raise TableError(f"unknown fixture {name!r}; have {sorted(FIXTURES)}")
    return Path(str(resources.files("margbayes.fixtures") / FIXTURES[name]))


def load_fixture(name: str) -> StratifiedTable:
    return load_table(fixture_path(name))


def list_fixtures():
    out = []
    for name in FIXTURES:
        dims, s = FIXTURE_SHAPES[name]
        out.append({"name": name, "dims": list(dims), "strata": s})
    return out
