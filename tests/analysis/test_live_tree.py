"""The committed source tree is fidelint-clean modulo the committed
baseline — the same invariant CI enforces with ``--strict``.

If this test fails you either introduced a real violation (fix it or
add a justified inline suppression) or fixed a baselined one (delete
the stale entry from ``fidelint.baseline.json``).
"""

import os

import pytest

from repro.analysis import analyze

REPO_ROOT = os.path.dirname(os.path.dirname(
    os.path.dirname(os.path.abspath(__file__))))
SRC_ROOT = os.path.join(REPO_ROOT, "src")
BASELINE = os.path.join(REPO_ROOT, "fidelint.baseline.json")


@pytest.fixture(scope="module")
def result():
    """One full live-tree run shared by every test here; the tests only
    read it."""
    return analyze(SRC_ROOT, baseline_path=BASELINE)


def test_live_tree_is_clean_modulo_baseline(result):
    assert not result.findings, "\n".join(
        f.render() for f in result.findings)
    assert not result.stale_baseline, (
        "stale baseline entries: %r" % result.stale_baseline)
    assert result.exit_code(strict=True) == 0


def test_live_tree_scans_the_whole_package(result):
    assert result.rules_run == 16
    assert result.modules_scanned >= 85


def test_baseline_entries_all_match(result):
    # Every baseline entry corresponds to a real current finding: the
    # grandfathered set can only shrink, never silently grow stale.
    assert len(result.baselined) >= 1
    for finding in result.baselined:
        assert finding.rule_id == "FID001"
        assert finding.module == "repro.xen.hypervisor"
