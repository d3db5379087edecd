"""Correctness gate for one measured ``teammine all``.

A command passes when it exited 0, ``teammine verify`` against the
generator's ground truth reports every rate at exactly 1.0, and the digest of
its result artifacts equals that of every other repetition with the same
seed and configuration.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

FIGURE_STEMS = ("fig1a", "fig1b", "fig2a", "fig2a_top10", "fig2b", "fig2b_top10",
                "fig3", "fig3_top10", "fig5a", "fig5a_top10", "fig5b", "fig5b_top10",
                "fig5c", "fig5c_top10", "fig5d", "fig5d_top10", "figs2add")
RESULT_FILES = (("teams.csv", "team_pubs.csv", "overlaps.csv", "impulses.csv")
                + tuple(f"{stem}.csv" for stem in FIGURE_STEMS) + ("table_s1.csv",))
RATES = ("team_recall", "team_precision", "overlap_match_rate", "tag_match_rate")


def result_digest(out_dir: Path) -> str:
    """SHA-256 over the name and bytes of every result artifact, in a fixed order.

    Raises FileNotFoundError when an artifact is missing.
    """
    digest = hashlib.sha256()
    for name in RESULT_FILES:
        data = (out_dir / name).read_bytes()
        digest.update(f"{name}\0{len(data)}\0".encode())
        digest.update(data)
    return digest.hexdigest()


def rate_failures(verify_stdout: str) -> list[str]:
    """Rates in a ``teammine verify`` report that are not exactly 1.0."""
    report = json.loads(verify_stdout)
    return [f"{rate}={report.get(rate)}" for rate in RATES if report.get(rate) != 1.0]

