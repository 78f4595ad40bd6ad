"""The paper's headline values that the workloads reproduce.

Every value comes from the source paper (Bostanci et al., "Understanding
and Mitigating Covert Channel and Side Channel Vulnerabilities
Introduced by RowHammer Defenses", MICRO 2025, arXiv:2503.17891) as
recorded in the experiment drivers' ``paper: ...`` notes.  The model is
validated only against these published numbers: there is no hardware
reference, so ``paper_dev_pct`` measures agreement with the paper, not
with real DRAM.
"""

from __future__ import annotations

#: key -> (paper value, unit, source)
PAPER = {
    "fig3.raw_kbps": (
        39.0, "Kbps",
        "Fig. 3 / Sec. 6.3 PRAC channel raw bit rate "
        "(exp/drivers/prac.py fig3 note 'paper: 39.0')"),
    "fig6.raw_kbps": (
        48.7, "Kbps",
        "Fig. 6 / Sec. 7.3 RFM channel raw bit rate "
        "(exp/drivers/rfm.py fig6 note 'paper: 48.7')"),
    "fig4.capacity_kbps_at_1pct": (
        28.8, "Kbps",
        "Fig. 4 PRAC channel capacity at 1% noise "
        "(exp/drivers/prac.py fig4 note 'paper: 28.8 Kbps at 1% noise')"),
    "fig7.capacity_kbps_at_1pct": (
        46.3, "Kbps",
        "Fig. 7 RFM channel capacity at 1% noise "
        "(exp/drivers/rfm.py fig7 note 'paper: 46.3 Kbps at 1% noise')"),
    "table2.f1_pct": (
        71.8, "%",
        "Table 2 decision-tree cross-validated F1 "
        "(exp/drivers/fingerprint.py fig10 note 'paper: F1 71.8 (4.2)')"),
    "fig13.frrfm_ws_at_1024": (
        0.93, "normalized WS",
        "Fig. 13 FR-RFM normalized weighted speedup at N_RH=1024, i.e. "
        "'~7% overhead' (exp/drivers/perf.py fig13 note)"),
}


def table_value(table, key_column: str, key, value_column: str) -> float:
    """One cell of a FigureTable (or its canonical dict form)."""
    if isinstance(table, dict):
        columns, rows = table["columns"], table["rows"]
    else:
        columns, rows = table.columns, table.rows
    k, v = columns.index(key_column), columns.index(value_column)
    for row in rows:
        if row[k] == key:
            return float(row[v])
    raise KeyError(f"no row with {key_column} = {key!r}")


def deviation_pct(reproduced: dict[str, float]) -> float:
    """Mean |reproduced - paper| / paper over the given keys, in %."""
    if not reproduced:
        raise ValueError("no paper values reproduced")
    devs = [abs(value - PAPER[key][0]) / PAPER[key][0]
            for key, value in reproduced.items()]
    return 100.0 * sum(devs) / len(devs)
