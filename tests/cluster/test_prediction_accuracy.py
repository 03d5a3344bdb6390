"""Prediction-accuracy harness: the calibrated model vs the measured archives.

Every committed baseline scenario's predicted wall must land within its
suite's relative-error threshold.  Known offenders can be exempted via
``benchmarks/prediction_warnlist.json``, but the warn-list is itself under
test: an exemption whose scenario now passes its suite gate is *stale* and
fails the suite — exemptions cannot silently outlive the problem they
documented.
"""

from __future__ import annotations

import json
import os

import pytest

from repro.bench import discover_archives, load_report
from repro.cluster import fitting

REPO_ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), "..", ".."))
BASELINE_DIR = os.path.join(REPO_ROOT, "benchmarks", "baselines")
CALIBRATION_PATH = os.path.join(REPO_ROOT, "benchmarks", "calibration.json")
WARNLIST_PATH = os.path.join(REPO_ROOT, "benchmarks", "prediction_warnlist.json")

#: Per-suite relative-error gates.  Short-wall suites (faults, dynamic) get
#: looser gates: their scenarios sit in the tens of milliseconds where pool
#: warmup and scheduler jitter are a visible fraction of the measurement.
SUITE_THRESHOLDS = {
    "algebras": 0.30,
    "directed": 0.30,
    "dynamic": 0.35,
    "faults": 0.30,
    "reachability": 0.20,
    "serve": 0.15,
    "smoke": 0.30,
}
DEFAULT_THRESHOLD = 0.35

#: The acceptance-level gate across every baseline scenario.
MEDIAN_GATE = 0.35


def _suite_threshold(suite: str) -> float:
    return SUITE_THRESHOLDS.get(suite, DEFAULT_THRESHOLD)


@pytest.fixture(scope="module")
def archives():
    """``(archive file name, observations)`` for every committed baseline."""
    return [(os.path.basename(path),
             fitting.extract_observations([load_report(path)]))
            for path in discover_archives([BASELINE_DIR])]


@pytest.fixture(scope="module")
def constants():
    return fitting.load_calibration(CALIBRATION_PATH)["constants"]


@pytest.fixture(scope="module")
def accuracy(archives, constants):
    observations = [obs for _, batch in archives for obs in batch]
    return fitting.accuracy_report(observations, constants)


@pytest.fixture(scope="module")
def per_scenario(archives, constants):
    """Rows keyed by ``(archive, suite, id)``.

    The n1024 archives reuse the CI-scale suite and scenario names, so the
    archive is part of the key: without it their rows would overwrite each
    other and one of each pair would never be gated.
    """
    rows = {}
    for archive, observations in archives:
        report = fitting.accuracy_report(observations, constants)
        for row in report["per_scenario"]:
            key = (archive, row["suite"], row["id"])
            assert key not in rows, f"duplicate scenario {key}"
            rows[key] = row
    return rows


@pytest.fixture(scope="module")
def warnlist():
    with open(WARNLIST_PATH, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    assert doc.get("schema_version") == 1
    return {(entry["archive"], entry["suite"], entry["id"]): entry
            for entry in doc.get("exemptions", [])}


def _name(key: tuple) -> str:
    return "{}:{}/{}".format(*key)


class TestPredictionAccuracy:
    def test_global_median_under_acceptance_gate(self, accuracy):
        assert accuracy["median_rel_error"] <= MEDIAN_GATE, (
            f"median relative prediction error "
            f"{accuracy['median_rel_error']:.1%} exceeds the "
            f"{MEDIAN_GATE:.0%} acceptance gate")

    def test_every_suite_is_covered(self, accuracy):
        assert set(accuracy["per_suite"]) == set(SUITE_THRESHOLDS)

    def test_every_observation_is_gated(self, accuracy, per_scenario):
        assert len(per_scenario) == accuracy["scenarios"]

    def test_per_scenario_error_under_suite_threshold(self, per_scenario,
                                                      warnlist):
        failures = []
        for key, row in per_scenario.items():
            gate = _suite_threshold(row["suite"])
            exemption = warnlist.get(key)
            if exemption is not None:
                gate = float(exemption["max_rel_error"])
            if row["rel_error"] > gate:
                failures.append(
                    f"{_name(key)}: rel error "
                    f"{row['rel_error']:.1%} > {gate:.0%}"
                    f"{' (exempt ceiling)' if exemption else ''}")
        assert not failures, "\n".join(failures)


class TestWarnlistHygiene:
    def test_exemptions_refer_to_real_scenarios(self, per_scenario, warnlist):
        unknown = [key for key in warnlist if key not in per_scenario]
        assert not unknown, (
            f"warn-list exempts scenarios absent from the baselines: "
            f"{unknown}")

    def test_no_stale_exemptions(self, per_scenario, warnlist):
        """An exemption whose scenario now passes its suite gate must go."""
        stale = []
        for key, entry in warnlist.items():
            row = per_scenario[key]
            if row["rel_error"] <= _suite_threshold(row["suite"]):
                stale.append(
                    f"{_name(key)}: rel error {row['rel_error']:.1%} "
                    f"is within the {_suite_threshold(row['suite']):.0%} "
                    f"suite gate — remove the exemption")
        assert not stale, "\n".join(stale)

    def test_exemptions_document_themselves(self, warnlist):
        for key, entry in warnlist.items():
            assert entry.get("reason"), f"{_name(key)}: exemption needs a reason"
            ceiling = float(entry["max_rel_error"])
            assert ceiling > _suite_threshold(entry["suite"]), (
                f"{_name(key)}: exemption ceiling {ceiling} must exceed the suite "
                f"gate it overrides")
            assert ceiling < 1.0, (
                f"{_name(key)}: an error ceiling of {ceiling:.0%} exempts the "
                f"scenario from prediction entirely — fix the model instead")
