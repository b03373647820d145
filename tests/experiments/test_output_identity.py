"""Every artefact's ``--quick`` text and merged digest are pinned.

The sha256s of the table and figures were recorded on the commit
*before* the experiments moved onto the ``Experiment`` table (PR 16),
from three runs each at ``--jobs 1``, ``2`` and ``4`` that agreed on
everything but one column: fig17a's ``ns/lookup`` is wall time, so it is
masked before hashing.  ``ablation`` and ``sensitivity`` were recorded
when they joined the table (PR 24).
``fig16`` was re-recorded when its quick churn pair became the full-size
one, and its merged digest again when its SLO pair's rendered report
became the run report (crash detection added; every other field equal)
and when that report's health section became a fold over the journal's
crashes and restarts (every other field equal).
A refactor of the harness, the shared scenario content or a renderer
that changes a single character of any table fails here by name.

The text shows only what is rendered; the merged digest folds the whole
``repr`` of every unit's result, so it pins each simulated figure —
message counts, byte counts, recovery traces — whether or not a table
prints it.  They were recorded from serial runs under two hash seeds.

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
    "fig16": "cf71a8d42652f72705ebc8995ff40c165968712ce60d76cf4bcddaf3aefe3313",
    "fig17": "8c5fdf9c439d44e4291681ecc5bb4ae7ed888b7c2e458958bbbabfe4865fb7c3",
    "fig18": "36a9a34f2a0de33ade2747575f7060f31319565fc68ad0a9910fa6ba18b8addb",
    "fig19": "a108b16809c3f3c2238c670826cb3dd15f98ff3e64bcc2bf45e6b2c8e42ef7b8",
    "ablation": "914d1937e4ea4f3ff2c3ace1fecc71575ae7a712b6d208400f86a4aec6fa0584",
    "sensitivity": "3194a8503a50c019049c7050fb538951d6782c7644b30baaabf850c4642f3448",
}

#: ``run_experiment(name, quick=True).merged_digest``
GOLDEN_DIGEST = {
    "table1": "2bd0223f0e28d05de788e8e3f75c1d974b6a51d70ad14568b82fface9e6e70f6",
    "fig10": "58b5588b8ff20f51048cd66be7837d18daa18a5c2669726a684e4616ecf163f5",
    "fig11": "c62588f0e1c9ee7c66fe75db5767de8530ccd5d81436c1b3f7a36c084bfcfa89",
    "fig12": "60778911700b46a5c023fba2baf485dd3d36a9f3114edb5e8fecd9d3c9bb2a7b",
    "fig13": "e4bed8c1c8b198382db15e2e91fbd9233e8cac2b8ad34dba657d6db01535ad44",
    "fig14": "782a2eae21fa6dfbc216d8a2419aa0dd3b7e301c3811042cea27bd7d2debe1cd",
    "fig15": "09cf58776878407fa2afecccc15a463d627d7186d3942829c15012cd0bf40fc5",
    "fig16": "447badd71538c4ea7adbdcf85db7fed36807d7c18dd4835e9bed57a6a272d5c0",
    "fig17": "3658c274ca968bbe45c91b46153aa129ff19ca25b5bd3c14700db2ff7af55bb8",
    "fig18": "6b72fae56d4b5dffbe6b20949453d0b08f465a4772801b99af7a919faed0e57a",
    "fig19": "eef7ac2b8a46285b9bd9262fbe9970038dcd0c85766a803ce393c459d1289fa4",
    "ablation": "83eb07faa8eb359a6474d7054605a4dc1b009980c7f2558aacb7cc785b22e1ec",
    "sensitivity": "5489b3e8013271f15f274ead368d1e94278eec848713a899d58a361165e50c9b",
}

#: ``repro report experiments --quick``: every section under its banner
GOLDEN_REPORT = "113a6e649e5f837070c88a7957ac08e28aa2a5e0be87476fbaf951af8cef9702"
#: the same document before ``ablation`` and ``sensitivity`` joined it
GOLDEN_REPORT_THROUGH_FIG19 = (
    "4756119a311a33f2c20fca72f412b23c0dd7aca8d655e0fa763ce44c1981ff75")


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
    assert set(GOLDEN) == set(GOLDEN_DIGEST) == set(EXPERIMENTS)


@pytest.mark.slow
@pytest.mark.parametrize("name", list(GOLDEN))
def test_quick_text_is_byte_identical(name, quick_runs):
    assert digest(quick_runs[name].text) == GOLDEN[name]


@pytest.mark.slow
@pytest.mark.parametrize("name", list(GOLDEN_DIGEST))
def test_merged_digest_is_pinned(name, quick_runs):
    assert quick_runs[name].merged_digest == GOLDEN_DIGEST[name]


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
