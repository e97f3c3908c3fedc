"""A fixed corpus of suite and immersion runs keeps its verdicts.

Each run goes through ``cli.main`` as the command line would.  What is
pinned per run is its exit status, the verdict of each report, the suite's
summary verdicts and, for a run that stops with an error, its message.
Residual values are left out: they may move at round-off on another numpy
or BLAS, and a change that moves them on purpose should not have to touch
this file.  The expectations live in ``verdicts.json`` beside this module;
``python tests/test_verdicts.py`` rewrites that file from the current
program and prints the runs whose entry changed.
"""

import contextlib
import io
import json
import re
from pathlib import Path

import pytest

from conftest import FLAT_PULLBACK_SPEC
from kahlercheck import cli

EXPECTED = Path(__file__).resolve().parent / "verdicts.json"

CHARTS = [
    "builtin:flat:3",
    "builtin:fs:3",
    "builtin:chyp:3",
    "builtin:product:fs:1:fs:2",
    "flat-pullback",
    "builtin:fs:2",
    "builtin:fs:1",
]
FIXTURES = [
    "linear-flat3",
    "sphere-flat2-r1",
    "ellipsoid-flat2",
    "cylinder-flat2",
    "cp1-in-cp2",
    "real-slice-flat2",
]


def _runs() -> dict[str, list[str]]:
    """The argv of each run of the corpus, under a stable key."""
    runs = {}
    for chart in CHARTS:
        for seed in (3, 7, 42):
            runs[f"suite {chart} seed {seed}"] = [
                "suite", "--manifold", chart, "--seed", str(seed), "--points", "3", "--samples", "40",
            ]
    for fixture in FIXTURES:
        for check in cli.IMMERSION_CHECKS:
            for seed in (3, 7):
                runs[f"{check} {fixture} seed {seed}"] = [
                    "check", check, "--immersion", f"builtin:{fixture}", "--seed", str(seed), "--points", "8",
                ]
    return runs


def _outcome(argv: list[str], spec_dir: Path) -> dict:
    """Exit status and verdicts of one run; numbers are dropped from the
    summary lines, and the error text is kept for a run that exits 2."""
    argv = [str(spec_dir / "flat-pullback.manifold") if a == "flat-pullback" else a for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        status = cli.main(argv)
    lines = []
    for line in out.getvalue().splitlines():
        if line.startswith("["):
            lines.append(line.split(" on ")[0])
        elif not line.startswith("  worst residual"):
            lines.append(re.sub(r" \(c = [^)]*\)", "", line))
    outcome = {"status": status, "lines": lines}
    if status == 2:
        outcome["error"] = err.getvalue().strip()
    return outcome


def _write_spec(spec_dir: Path) -> None:
    (spec_dir / "flat-pullback.manifold").write_text(FLAT_PULLBACK_SPEC)


RUNS = _runs()


@pytest.fixture(scope="module")
def spec_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("corpus")
    _write_spec(path)
    return path


@pytest.fixture(scope="module")
def expected():
    return json.loads(EXPECTED.read_text())


def test_corpus_covers_the_same_runs(expected):
    assert len(RUNS) == 21 + 48
    assert sorted(expected) == sorted(RUNS)


@pytest.mark.parametrize("key", list(RUNS))
def test_run_keeps_its_verdicts(key, expected, spec_dir):
    assert _outcome(RUNS[key], spec_dir) == expected[key]


def test_no_suite_of_the_corpus_breaks_a_rule(expected):
    assert not [key for key, outcome in expected.items() if any("rule broken" in line for line in outcome["lines"])]


def _reports(argv: list[str], path: Path) -> tuple[list[str], list[str]]:
    """The report lines a run prints and its JSON reports, timestamp aside."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        cli.main([*argv, "--json", str(path)])
    payload = json.loads(path.read_text())
    reports = payload if isinstance(payload, list) else [payload]
    texts = [json.dumps({k: v for k, v in r.items() if k != "timestamp"}, sort_keys=True) for r in reports]
    return [line for line in out.getvalue().splitlines() if line.startswith("[")], texts


@pytest.mark.parametrize("fixture", FIXTURES)
@pytest.mark.parametrize("seed", ["3", "7"])
def test_an_immersion_suite_gives_the_reports_of_its_checks(fixture, seed, tmp_path):
    # The 48 immersion runs of the corpus, 4 to a suite of one build and one points stage.
    argv = ["--immersion", f"builtin:{fixture}", "--seed", seed, "--points", "8"]
    lines, texts = _reports(["suite", *argv], tmp_path / "suite.json")
    alone = [_reports(["check", check, *argv], tmp_path / f"{check}.json") for check in cli.IMMERSION_CHECKS]
    assert lines == [line for check_lines, _ in alone for line in check_lines]
    assert texts == [text for _, check_texts in alone for text in check_texts]


if __name__ == "__main__":
    import tempfile

    old = json.loads(EXPECTED.read_text()) if EXPECTED.exists() else {}
    with tempfile.TemporaryDirectory() as tmp:
        _write_spec(Path(tmp))
        new = {key: _outcome(argv, Path(tmp)) for key, argv in RUNS.items()}
    for key in sorted(set(old) | set(new)):
        if old.get(key) != new.get(key):
            print(f"{key}:\n  was {old.get(key)}\n  now {new.get(key)}")
    EXPECTED.write_text(json.dumps(new, indent=1, sort_keys=True) + "\n")
