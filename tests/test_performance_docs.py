"""PERFORMANCE.md must document 100% of the public kernel entry points.

Same doc-coverage pattern as ``test_observability_docs.py``: the doc's
kernel reference tables are diffed against the canonical entry-point list
(``repro.ml.kernels.KERNEL_ENTRY_POINTS``).  A kernel added to the code
without a doc row fails, as does a doc row for a dotted name that no
longer resolves to a real attribute — the reference cannot silently rot
in either direction.
"""

import importlib
import re
from pathlib import Path

import pytest

from repro.ml.kernels import KERNEL_ENTRY_POINTS
from repro.sim.memspec import TOPOLOGY_PRESETS

DOC = Path(__file__).resolve().parent.parent / "PERFORMANCE.md"

#: a kernel reference row: | `repro.x.y` | ... |
ROW = re.compile(r"^\|\s*`(repro\.[A-Za-z0-9_.]+)`\s*\|")

#: a topology-preset row: | `name` | ... -> ... | n | (no dots, so the
#: kernel rows above can never match it and vice versa)
PRESET_ROW = re.compile(r"^\|\s*`([a-z][a-z0-9_]*)`\s*\|[^|]*(?:→|->)")


def _doc_rows() -> set[str]:
    rows: set[str] = set()
    for line in DOC.read_text().splitlines():
        m = ROW.match(line)
        if m:
            rows.add(m.group(1))
    return rows


def _resolve(dotted: str):
    """Import the longest importable module prefix, then getattr the rest."""
    parts = dotted.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for attr in parts[cut:]:
            obj = getattr(obj, attr)
        return obj
    raise ImportError(f"no importable prefix in {dotted!r}")


def test_doc_exists():
    assert DOC.exists(), "PERFORMANCE.md is missing"


@pytest.mark.parametrize("dotted", KERNEL_ENTRY_POINTS)
def test_every_entry_point_resolves(dotted):
    """The canonical list itself may not rot: every name must exist."""
    assert _resolve(dotted) is not None


def test_every_entry_point_is_documented():
    missing = set(KERNEL_ENTRY_POINTS) - _doc_rows()
    assert not missing, f"kernels missing from PERFORMANCE.md: {sorted(missing)}"


def test_every_documented_kernel_is_registered():
    stale = _doc_rows() - set(KERNEL_ENTRY_POINTS)
    assert not stale, f"PERFORMANCE.md documents unknown kernels: {sorted(stale)}"


def test_reference_covers_exactly_the_entry_points():
    assert _doc_rows() == set(KERNEL_ENTRY_POINTS)


def test_reference_implementations_are_documented():
    """The doc must point at the scalar, tree and page-table references,
    name every one of them, and state the bit-identity guarantee the tests
    enforce."""
    from tests.oracles import pages, scalar, tree

    text = DOC.read_text()
    assert "tests/oracles/" in text
    assert "bit-identical" in text or "bit identical" in text
    names = [*scalar.__all__, *tree.__all__, *pages.__all__]
    missing = [name for name in names if not re.search(rf"[`.]{name}\b", text)]
    assert not missing, f"references missing from PERFORMANCE.md: {missing}"


def _preset_rows() -> set[str]:
    rows: set[str] = set()
    for line in DOC.read_text().splitlines():
        m = PRESET_ROW.match(line)
        if m:
            rows.add(m.group(1))
    return rows


def test_every_topology_preset_is_documented():
    missing = set(TOPOLOGY_PRESETS) - _preset_rows()
    assert not missing, f"presets missing from PERFORMANCE.md: {sorted(missing)}"


def test_every_documented_preset_is_registered():
    stale = _preset_rows() - set(TOPOLOGY_PRESETS)
    assert not stale, f"PERFORMANCE.md documents unknown presets: {sorted(stale)}"


def test_preset_rows_state_the_right_tier_stack():
    """The documented stack must match the preset's actual tier order."""
    text = DOC.read_text()
    for name, tier_names in TOPOLOGY_PRESETS.items():
        stack = " → ".join(tier_names)
        row = next(
            line
            for line in text.splitlines()
            if PRESET_ROW.match(line) and PRESET_ROW.match(line).group(1) == name
        )
        assert stack in row, f"{name}: doc row does not show {stack!r}"
        assert f"| {len(tier_names)} |" in row


#: a measured-speedup row: | `name` | shape | scalar | kernel | speedup | floor |
SPEEDUP_ROW = re.compile(
    r"^\|\s*`([a-z_]+)`\s*\|[^|]*\|\s*([^|]*?)\s*\|\s*([^|]*?)\s*\|"
    r"\s*([^|]*?)\s*\|\s*([^|]*?)\s*\|$"
)


def _ms(value: float) -> str:
    """The table's rounding: one decimal from 10 ms up, two below."""
    return f"{value:.1f} ms" if value >= 10 else f"{value:.2f} ms"


def _spread(entry: dict, side: str) -> str:
    """A side's cell: the median, then the min and max of its rounds."""
    lo, hi = (_ms(entry[f"{side}_{end}_ms"])[:-3] for end in ("min", "max"))
    return f"{_ms(entry[f'{side}_ms'])} [{lo}–{hi}]"


def test_speedup_table_matches_committed_results():
    """Every cell of the measured-speedup table equals the committed JSON
    at the table's rounding, and every benchmark has exactly one row."""
    import json

    results = Path(__file__).resolve().parent.parent / "results" / "kernel_speedups.json"
    assert results.exists(), "results/kernel_speedups.json is missing"
    entries = json.loads(results.read_text())
    rows: dict[str, tuple[str, ...]] = {}
    for line in DOC.read_text().splitlines():
        m = SPEEDUP_ROW.match(line)
        if m and m.group(1) in entries:
            assert m.group(1) not in rows, f"duplicate row for {m.group(1)!r}"
            rows[m.group(1)] = m.groups()[1:]
    assert set(rows) == set(entries), f"rows {sorted(rows)} != {sorted(entries)}"
    for name, entry in entries.items():
        expected = (
            _spread(entry, "scalar"),
            _spread(entry, "kernel"),
            f"**{entry['speedup_x']:.1f}×**",
            f"{entry['accept_floor_x']:g}×",
        )
        assert rows[name] == expected, (name, rows[name], expected)
