"""Every artefact's ``--quick`` text is pinned, byte for byte.

The sha256s of the table and figures were recorded on the commit
*before* the experiments moved onto the ``Experiment`` table (PR 16),
from three runs each at ``--jobs 1``, ``2`` and ``4`` that agreed on
everything but one column: fig17a's ``ns/lookup`` is wall time, so it is
masked before hashing.  ``ablation`` and ``sensitivity`` were recorded
when they joined the table (PR 24).
A refactor of the harness, the shared scenario content or a renderer
that changes a single character of any table fails here by name.

The runs come from the session-scoped ``quick_runs`` cache, so no
experiment runs twice in one test session.
"""

import hashlib

import pytest

from repro.experiments.registry import EXPERIMENTS
from repro.experiments.report import join_sections

GOLDEN = {
    "table1": "1c992cea28b8e2b77de6c591d0f9892608b8582529d973ea19a9b0b2b6e1f946",
    "fig10": "71ce535d34fdb75845914296c11553b29e11ae57054ddedcc9f9d9752d2411ba",
    "fig11": "68d4eb72a5aa1f759ea38ccc529d715015376fbe2ca0b3cb22b32f9390871848",
    "fig12": "4fe6cbed8be1a96ae26653947c3d6dd61ed44a30bcaf4ad3fcd959f68cf9842a",
    "fig13": "e67a83163603b6c6e3833e5ff2d33a930f2360688a2b803663ec8faf4e60d77a",
    "fig14": "80b9ca0403f049f75805f7d69d8e31b83a03830ae2015f9a0c4bc07859cd9fa9",
    "fig15": "3858e5ad1727a93fc124b7eae1dd4460f3964e43360fd5066035d7c20b52e51a",
    "fig16": "e6ce5e9312bddb8a2f2f61f511455f4d437afffb0e000a654ffe47b38c9ea3f9",
    "fig17": "8c5fdf9c439d44e4291681ecc5bb4ae7ed888b7c2e458958bbbabfe4865fb7c3",
    "fig18": "36a9a34f2a0de33ade2747575f7060f31319565fc68ad0a9910fa6ba18b8addb",
    "fig19": "a108b16809c3f3c2238c670826cb3dd15f98ff3e64bcc2bf45e6b2c8e42ef7b8",
    "ablation": "914d1937e4ea4f3ff2c3ace1fecc71575ae7a712b6d208400f86a4aec6fa0584",
    "sensitivity": "3194a8503a50c019049c7050fb538951d6782c7644b30baaabf850c4642f3448",
}

#: ``repro report experiments --quick``: every section under its banner
GOLDEN_REPORT = "d484fcf3504e84dc3ce9e35ba12387bfb58ccfef789add676dc5c889e567e0a8"
#: the same document before ``ablation`` and ``sensitivity`` joined it
GOLDEN_REPORT_THROUGH_FIG19 = (
    "adf721b4f3148c47df5499814bc9a5b8d69fc3ab27e9b475f75e63c1db1ee1d7")


def mask_wall_time(text: str) -> str:
    """Blank the one wall-clock column: fig17a's ``ns/lookup`` cells."""
    out, in_table = [], False
    for line in text.split("\n"):
        if line.startswith("Fig. 17a"):
            in_table = True
        elif in_table and not line.strip():
            in_table = False
        elif in_table and " | " in line and not line.startswith("types"):
            cells = line.split(" | ")
            cells[2] = "#" * len(cells[2])
            line = " | ".join(cells)
        out.append(line)
    return "\n".join(out)


def digest(text: str) -> str:
    return hashlib.sha256(mask_wall_time(text).encode()).hexdigest()


def test_every_experiment_is_pinned():
    assert set(GOLDEN) == set(EXPERIMENTS)


@pytest.mark.slow
@pytest.mark.parametrize("name", list(GOLDEN))
def test_quick_text_is_byte_identical(name, quick_runs):
    assert digest(quick_runs[name].text) == GOLDEN[name]


@pytest.mark.slow
def test_aggregate_report_is_byte_identical(quick_runs):
    sections = {name: quick_runs[name].text for name in EXPERIMENTS}
    assert digest(join_sections(sections)) == GOLDEN_REPORT
    for name in ("ablation", "sensitivity"):
        del sections[name]
    assert digest(join_sections(sections)) == GOLDEN_REPORT_THROUGH_FIG19


def test_mask_touches_only_the_timing_column():
    table = ("Fig. 17a — title\n"
             "types | backend | ns/lookup | max shard\n"
             "------+---------+-----------+----------\n"
             "1,000 |    dict |        56 |          \n"
             "\n"
             "Fig. 17b — title\n"
             "    4 | 1,000 | routed |  72\n")
    masked = mask_wall_time(table)
    assert "1,000 |    dict | ######### |          " in masked
    assert masked.count("#") == 9
    assert masked.endswith("    4 | 1,000 | routed |  72\n")
