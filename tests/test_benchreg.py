"""Tests for the benchmark-regression harness and its CLI.

Covers the workload matrix snapshot (schema, per-cell ledger counts,
conformance verdicts, topology totals, the optimizer block and its kernel
check, the serving suite), persistence and baseline discovery, the
zero-tolerance comparison — every recorded value is gated, every hard error
fires — the ``repro bench`` CLI surface, and the committed
``BENCH_seed.json`` baseline staying reproducible.
"""

from __future__ import annotations

import copy
import json
import os

import pytest

from repro.cli import main
from repro.observability import benchreg
from repro.observability.benchreg import (
    DEFAULT_MATRIX,
    KERNEL_CHECK_BATCH,
    SCHEMA_VERSION,
    SERVING_STRUCTURAL_COUNTS,
    STRUCTURAL_METRICS,
    TOPOLOGY_TOTALS,
    MetricDelta,
    WorkloadCell,
    bench_path,
    candidate_errors,
    compare_documents,
    find_baseline,
    load_document,
    run_cell,
    run_matrix,
    scenario_record,
    write_document,
)
from repro.serve import default_scenarios

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: the document header: identifies a run, never compared
HEADER = ("schema_version", "label", "created", "seed")


@pytest.fixture(scope="module")
def matrix_doc():
    """One full run of the canonical matrix, shared across this module."""
    return run_matrix(DEFAULT_MATRIX, seed=0, label="test")


def _leaves(node, path=()):
    """Every (path, scalar) pair of a JSON document."""
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _leaves(value, path + (key,))
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from _leaves(value, path + (i,))
    else:
        yield path, node


def _set(doc, path, value):
    for step in path[:-1]:
        doc = doc[step]
    doc[path[-1]] = value


def _cells(doc, backend):
    return [c for c in doc["cells"] if c["cell"].endswith(f"-{backend}")]


class TestWorkloadMatrix:
    def test_default_matrix_is_wide_enough(self):
        # acceptance: at least 6 cells, both backends, r covering 2..4
        assert len(DEFAULT_MATRIX) >= 6
        assert {c.backend for c in DEFAULT_MATRIX} == {"lattice", "machine"}
        assert {c.r for c in DEFAULT_MATRIX} >= {2, 3, 4}
        keys = [c.key for c in DEFAULT_MATRIX]
        assert len(keys) == len(set(keys))

    def test_cell_key_is_stable(self):
        assert WorkloadCell("path", 3, 2, "lattice").key == "path-n3-r2-lattice"

    def test_unknown_family_rejected(self):
        with pytest.raises(ValueError, match="unknown factor family"):
            WorkloadCell("moebius", 3, 2, "lattice").build_factor()

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="unknown backend"):
            run_cell(WorkloadCell("path", 3, 2, "quantum"))

    def test_schema_version_pinned(self):
        # v8: structural only — no wall-clock field, every value gated, the
        # kernel check and the serving suite always run.
        # Bump this pin deliberately alongside BENCH_seed.json regeneration.
        assert SCHEMA_VERSION == 8

    def test_document_schema(self, matrix_doc):
        assert set(matrix_doc) == {*HEADER, "cells", "serving"}
        assert matrix_doc["schema_version"] == SCHEMA_VERSION
        assert matrix_doc["label"] == "test"
        assert matrix_doc["seed"] == 0
        assert [c["cell"] for c in matrix_doc["cells"]] == [c.key for c in DEFAULT_MATRIX]
        for cell in matrix_doc["cells"]:
            blocks = {"cell", "sorted_ok", "schedule_hash", "metrics", "conformance", "optimize"}
            if cell["cell"].endswith("-machine"):
                blocks.add("topology")
            assert set(cell) == blocks, cell["cell"]
        json.dumps(matrix_doc)  # JSON-safe as-is

    def test_every_cell_sorted_and_conformant(self, matrix_doc):
        for cell in matrix_doc["cells"]:
            assert cell["sorted_ok"], cell["cell"]
            conf = cell["conformance"]
            assert conf["ok"], (cell["cell"], conf["deviations"])
            assert conf["theorem1_calls_ok"] and conf["theorem1_rounds_ok"]
            # closed form at measured units always equals the measurement
            assert conf["predicted_total_rounds"] == cell["metrics"]["total_rounds"]
        assert candidate_errors(matrix_doc) == []

    def test_lattice_cells_match_the_analytic_model(self, matrix_doc):
        lattice = _cells(matrix_doc, "lattice")
        assert lattice
        for cell in lattice:
            assert cell["conformance"]["matches_model"] is True
            assert cell["conformance"]["model_total_rounds"] == cell["metrics"]["total_rounds"]

    def test_per_cell_metrics_and_phase_breakdown(self, matrix_doc):
        """Theorem 1's call counts, and total rounds split exactly into the
        S₂ phases and the routing phases."""
        for spec, cell in zip(DEFAULT_MATRIX, matrix_doc["cells"]):
            m, r = cell["metrics"], spec.r
            assert m["s2_calls"] == (r - 1) ** 2
            assert m["routing_calls"] == (r - 1) * (r - 2)
            assert m["total_rounds"] == m["s2_rounds"] + m["routing_rounds"]
            assert m["span_count"] > 0

    def test_machine_cells_carry_traffic_and_comparisons(self, matrix_doc):
        machine = _cells(matrix_doc, "machine")
        assert machine
        for cell in machine:
            assert cell["metrics"]["comparisons"] > 0
            assert cell["topology"]["steps"] > 0
            assert cell["topology"]["total_traversals"] > 0
        assert all("topology" not in c for c in _cells(matrix_doc, "lattice"))

    def test_machine_cells_carry_topology(self, matrix_doc):
        for cell in _cells(matrix_doc, "machine"):
            topo = cell["topology"]
            assert tuple(topo) == TOPOLOGY_TOTALS
            assert topo["directed_edges"] >= topo["used_edges"] > 0
            assert topo["max_load"] > 0

    def test_structural_metrics_are_deterministic(self):
        a = run_cell(WorkloadCell("path", 3, 2, "lattice"), seed=0)
        b = run_cell(WorkloadCell("path", 3, 2, "lattice"), seed=1)
        assert a["metrics"] == b["metrics"]
        # the schedule hash is a pure function of the geometry, never the keys
        assert a["schedule_hash"] == b["schedule_hash"]

    def test_every_cell_pins_its_schedule_hash(self, matrix_doc):
        for cell in matrix_doc["cells"]:
            assert len(cell["schedule_hash"]) == 64, cell["cell"]
            assert len(cell["optimize"]["optimized_schedule_hash"]) == 64, cell["cell"]

    def test_optimize_block_checks_both_kernels(self, matrix_doc, monkeypatch):
        """Every cell, lattice and machine, certifies, validates, and sorts a
        batch through both compiled kernels; a kernel that returns its input
        unsorted turns ``matches`` false."""
        for cell in matrix_doc["cells"]:
            opt = cell["optimize"]
            assert opt["matches"] is True and opt["validated"] is True
            assert not opt["fell_back"] and all(opt["certificates"].values())
            assert 0 < opt["layers"] <= opt["baseline_layers"]
        assert KERNEL_CHECK_BATCH == 256

        from repro.schedule.compiled import CompiledSchedule

        monkeypatch.setattr(CompiledSchedule, "run", lambda self, keys: keys.copy())
        record = run_cell(WorkloadCell("path", 3, 2, "lattice"), seed=0)
        assert record["optimize"]["matches"] is False


class TestPersistence:
    def test_write_load_round_trip(self, matrix_doc, tmp_path):
        path = write_document(matrix_doc, str(tmp_path / "BENCH_x.json"))
        assert load_document(path) == json.loads(json.dumps(matrix_doc))

    def test_bench_path_sanitises_label(self, tmp_path):
        assert bench_path("pr 7/fix", str(tmp_path)) == str(tmp_path / "BENCH_pr-7-fix.json")

    def test_load_rejects_foreign_json(self, tmp_path):
        path = tmp_path / "BENCH_bogus.json"
        path.write_text('{"hello": 1}')
        with pytest.raises(ValueError, match="schema_version"):
            load_document(str(path))

    def test_find_baseline_latest_by_created(self, matrix_doc, tmp_path):
        old = dict(matrix_doc, created=100.0, label="old")
        new = dict(matrix_doc, created=200.0, label="new")
        write_document(old, str(tmp_path / "BENCH_old.json"))
        newest = write_document(new, str(tmp_path / "BENCH_new.json"))
        (tmp_path / "BENCH_junk.json").write_text("not json")
        assert find_baseline(str(tmp_path)) == newest
        assert find_baseline(str(tmp_path), exclude=newest) == str(tmp_path / "BENCH_old.json")
        assert find_baseline(str(tmp_path / "empty")) is None


class TestComparison:
    def test_identical_documents_are_ok(self, matrix_doc):
        result = compare_documents(matrix_doc, copy.deepcopy(matrix_doc))
        assert result.ok and not result.regressions and not result.errors
        assert "all compared metrics unchanged" in result.render()

    def test_every_field_is_gated(self, matrix_doc):
        """Change one recorded value at a time — every count, every bool,
        every hash, the SLO severity — and the comparison must fail.  Only
        the header and the cell/scenario keys are exempt; ``None`` (a machine
        cell has no analytic model) is no value."""
        checked = 0
        for path, value in _leaves(matrix_doc):
            if path[0] in HEADER or path[-1] in ("cell", "key") or value is None:
                continue
            if isinstance(value, bool):
                changed = not value
            elif isinstance(value, int):
                changed = value + 1
            elif path[-1] == "max_severity_seen":
                changed = "page"
            elif isinstance(value, str) and len(value) == 64:
                changed = "0" * 64
            else:
                pytest.fail(f"ungated field {path} = {value!r}")
            broken = copy.deepcopy(matrix_doc)
            _set(broken, path, changed)
            result = compare_documents(matrix_doc, broken)
            assert result.errors or result.regressions, path
            checked += 1
        assert checked > 200

    def test_structural_regression_detected(self, matrix_doc):
        worse = copy.deepcopy(matrix_doc)
        worse["cells"][0]["metrics"]["total_rounds"] += 1
        result = compare_documents(matrix_doc, worse)
        assert not result.ok
        assert [d.metric for d in result.regressions] == ["total_rounds"]
        assert "REGRESSED" in result.render()

    def test_improvement_is_not_a_regression(self, matrix_doc):
        better = copy.deepcopy(matrix_doc)
        better["cells"][0]["metrics"]["total_rounds"] -= 1
        result = compare_documents(matrix_doc, better)
        assert result.ok
        assert "improved" in result.render()

    def test_missing_cell_is_an_error(self, matrix_doc):
        partial = copy.deepcopy(matrix_doc)
        dropped = partial["cells"].pop()
        result = compare_documents(matrix_doc, partial)
        assert not result.ok
        assert any(dropped["cell"] in e and "missing" in e for e in result.errors)

    def test_missing_metric_is_an_error(self, matrix_doc):
        partial = copy.deepcopy(matrix_doc)
        del partial["cells"][0]["optimize"]["layers"]
        result = compare_documents(matrix_doc, partial)
        assert any("'optimize.layers'" in e for e in result.errors)

    def test_new_cell_is_informational(self, matrix_doc):
        grown = copy.deepcopy(matrix_doc)
        extra = copy.deepcopy(grown["cells"][0])
        extra["cell"] = "newfam-n9-r2-lattice"
        grown["cells"].append(extra)
        result = compare_documents(matrix_doc, grown)
        assert result.ok and result.new_cells == ["newfam-n9-r2-lattice"]

    def test_unsorted_candidate_is_an_error(self, matrix_doc):
        broken = copy.deepcopy(matrix_doc)
        broken["cells"][0]["sorted_ok"] = False
        result = compare_documents(matrix_doc, broken)
        assert any("UNSORTED" in e for e in result.errors)

    def test_nonconformant_candidate_is_an_error(self, matrix_doc):
        broken = copy.deepcopy(matrix_doc)
        broken["cells"][0]["conformance"]["ok"] = False
        broken["cells"][0]["conformance"]["deviations"] = ["Theorem 1 violated: test"]
        result = compare_documents(matrix_doc, broken)
        assert any("Theorem 1 violated" in e for e in result.errors)

    def test_schema_mismatch_is_an_error(self, matrix_doc):
        future = dict(copy.deepcopy(matrix_doc), schema_version=SCHEMA_VERSION + 1)
        result = compare_documents(matrix_doc, future)
        assert not result.ok
        assert any("schema mismatch" in e for e in result.errors)
        assert not result.deltas  # no point diffing incomparable layouts

    def test_zero_baseline_regresses_on_any_growth(self):
        assert MetricDelta("c", "m", baseline=0, candidate=1).regressed
        assert not MetricDelta("c", "m", 0, 0).regressed

    def test_default_thresholds_gate_structure_not_wall_time(self, matrix_doc):
        """Every gated metric is a count; the document holds no timing."""
        assert "total_rounds" in STRUCTURAL_METRICS
        assert len(set(STRUCTURAL_METRICS)) == len(STRUCTURAL_METRICS)
        assert not [
            path
            for path, value in _leaves(matrix_doc)
            if isinstance(value, float) and path != ("created",)
        ]

    def test_schedule_hash_drift_is_an_error(self, matrix_doc):
        drifted = copy.deepcopy(matrix_doc)
        drifted["cells"][0]["schedule_hash"] = "f" * 64
        result = compare_documents(matrix_doc, drifted)
        assert not result.ok
        assert any("schedule hash drift" in e for e in result.errors)

    def test_optimized_schedule_hash_drift_is_an_error(self, matrix_doc):
        drifted = copy.deepcopy(matrix_doc)
        drifted["cells"][-1]["optimize"]["optimized_schedule_hash"] = "f" * 64
        result = compare_documents(matrix_doc, drifted)
        assert any("optimized schedule hash drift" in e for e in result.errors)

    def test_compiled_mismatch_is_an_error(self, matrix_doc):
        broken = copy.deepcopy(matrix_doc)
        broken["cells"][0]["optimize"]["matches"] = False
        result = compare_documents(matrix_doc, broken)
        assert not result.ok
        assert any("compiled kernel" in e for e in result.errors)

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("fell_back", True, "fell back"),
            ("validated", False, "translation validation failed"),
        ],
    )
    def test_optimizer_failures_are_errors(self, matrix_doc, field, value, message):
        broken = copy.deepcopy(matrix_doc)
        broken["cells"][0]["optimize"][field] = value
        assert any(message in e for e in compare_documents(matrix_doc, broken).errors)
        broken = copy.deepcopy(matrix_doc)
        broken["cells"][0]["optimize"]["certificates"]["dead-op-elimination"] = False
        errors = compare_documents(matrix_doc, broken).errors
        assert any("dead-op-elimination" in e for e in errors)

    def test_topology_totals_are_zero_tolerance(self, matrix_doc):
        assert {f"topology.{name}" for name in TOPOLOGY_TOTALS} <= set(STRUCTURAL_METRICS)
        inflated = copy.deepcopy(matrix_doc)
        victim = _cells(inflated, "machine")[0]
        victim["topology"]["total_traversals"] += 1
        result = compare_documents(matrix_doc, inflated)
        assert not result.ok
        assert [d.metric for d in result.regressions] == ["topology.total_traversals"]


#: one broken invariant per case: (path into the document, bad value)
BROKEN_INVARIANTS = [
    (("cells", 0, "sorted_ok"), False),
    (("cells", 0, "conformance", "ok"), False),
    (("cells", 0, "conformance", "theorem1_rounds_ok"), False),
    (("cells", 0, "conformance", "matches_model"), False),
    (("cells", 0, "optimize", "fell_back"), True),
    (("cells", 0, "optimize", "validated"), False),
    (("cells", 0, "optimize", "certificates", "agglomeration"), False),
    (("cells", -1, "optimize", "matches"), False),
    (("serving", 0, "counts", "mismatches"), 1),
    (("serving", 0, "counts", "errors"), 1),
    (("serving", 0, "counts", "rejected"), 1),
    (("serving", 0, "page_alerts"), 1),
]


class TestBenchCli:
    def test_bench_run_writes_snapshot(self, tmp_path, capsys):
        out = tmp_path / "BENCH_t.json"
        assert main(["bench", "run", "--label", "t", "--out", str(out)]) == 0
        doc = load_document(str(out))
        assert doc["label"] == "t" and len(doc["cells"]) == len(DEFAULT_MATRIX)
        stdout = capsys.readouterr().out
        assert "schema v8" in stdout and "conformance=ok" in stdout
        assert "kernels=ok" in stdout and "slo=ok(0 pages)" in stdout

    @pytest.mark.parametrize(
        "path, value", BROKEN_INVARIANTS, ids=[".".join(map(str, p)) for p, _ in BROKEN_INVARIANTS]
    )
    def test_bench_run_exits_1_on_a_broken_invariant(
        self, path, value, matrix_doc, tmp_path, capsys, monkeypatch
    ):
        broken = copy.deepcopy(matrix_doc)
        _set(broken, path, value)
        monkeypatch.setattr(benchreg, "run_matrix", lambda *a, **kw: broken)
        out = str(tmp_path / "BENCH_t.json")
        assert main(["bench", "run", "--label", "t", "--out", out]) == 1
        assert "ERROR:" in capsys.readouterr().err

    def test_bench_compare_same_file_ok(self, tmp_path, capsys, matrix_doc):
        path = write_document(matrix_doc, str(tmp_path / "BENCH_t.json"))
        assert main(["bench", "compare", "--baseline", path, "--candidate", path]) == 0
        assert "verdict: OK" in capsys.readouterr().out

    def test_bench_compare_exits_nonzero_on_regression(self, tmp_path, capsys, matrix_doc):
        base = write_document(matrix_doc, str(tmp_path / "BENCH_base.json"))
        worse = copy.deepcopy(matrix_doc)
        worse["cells"][0]["metrics"]["comparisons"] += 10
        cand = write_document(worse, str(tmp_path / "BENCH_cand.json"))
        assert main(["bench", "compare", "--baseline", base, "--candidate", cand]) == 1
        assert "verdict: REGRESSION" in capsys.readouterr().out

    def test_bench_compare_json_output(self, tmp_path, capsys, matrix_doc):
        path = write_document(matrix_doc, str(tmp_path / "BENCH_t.json"))
        assert main(
            ["bench", "compare", "--baseline", path, "--candidate", path, "--json"]
        ) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["ok"] is True and doc["regressions"] == []
        assert {d["metric"] for d in doc["deltas"]} >= {"total_rounds", "comparisons"}

    def test_bench_compare_without_baseline_exits_2(self, tmp_path, capsys, matrix_doc, monkeypatch):
        monkeypatch.chdir(tmp_path)
        cand = write_document(matrix_doc, str(tmp_path / "BENCH_only.json"))
        assert main(["bench", "compare", "--candidate", cand]) == 2
        assert "no baseline" in capsys.readouterr().err

    def test_bench_metrics_prometheus(self, capsys):
        assert main(["bench", "metrics", "--factor", "k2", "--r", "3"]) == 0
        out = capsys.readouterr().out
        assert "# TYPE repro_spans_total counter" in out
        assert "repro_machine_steps_total" in out

    def test_bench_metrics_json(self, capsys):
        assert main(["bench", "metrics", "--factor", "path", "--n", "3", "--r", "2",
                     "--format", "json"]) == 0
        snap = json.loads(capsys.readouterr().out)
        assert snap["repro_spans_total"]["type"] == "counter"


class TestCommittedBaseline:
    """The blessed BENCH_seed.json must stay loadable and reproducible."""

    def test_seed_baseline_is_valid(self):
        path = os.path.join(REPO_ROOT, "BENCH_seed.json")
        doc = load_document(path)
        assert doc["schema_version"] == SCHEMA_VERSION
        assert doc["label"] == "seed"
        assert len(doc["cells"]) >= 6

    def test_fresh_run_does_not_regress_the_seed(self, matrix_doc):
        """Not merely no regression: a fresh run reproduces every value."""
        baseline = load_document(os.path.join(REPO_ROOT, "BENCH_seed.json"))
        result = compare_documents(baseline, matrix_doc)
        assert result.ok, result.render()
        assert not result.new_cells
        assert [d.describe() for d in result.deltas if d.candidate != d.baseline] == []
        assert "all compared metrics unchanged" in result.render()

    def test_seed_pins_schedule_hashes(self, matrix_doc):
        """Fresh emissions reproduce every pinned emitted and optimized
        schedule hash byte for byte."""
        doc = load_document(os.path.join(REPO_ROOT, "BENCH_seed.json"))
        fresh = {c["cell"]: c for c in matrix_doc["cells"]}
        for cell in doc["cells"]:
            assert cell["schedule_hash"] == fresh[cell["cell"]]["schedule_hash"]
            assert (
                cell["optimize"]["optimized_schedule_hash"]
                == fresh[cell["cell"]]["optimize"]["optimized_schedule_hash"]
            )


# ----------------------------------------------------------------------
# the serving section
# ----------------------------------------------------------------------

def _serving_scenario(key="path-n3-r3/uniform/poisson", page_alerts=0, **counts_override):
    """A fabricated scenario record with healthy defaults."""
    counts = {"offered": 10, "completed": 10, "rejected": 0, "mismatches": 0, "errors": 0}
    counts.update(counts_override)
    return {
        "key": key,
        "counts": counts,
        "max_severity_seen": "page" if page_alerts else "ok",
        "page_alerts": page_alerts,
    }


def _doc_with_serving(scenarios, label="serving-test"):
    """A minimal comparable document carrying only a serving section."""
    return {
        "schema_version": SCHEMA_VERSION,
        "label": label,
        "created": 0.0,
        "seed": 0,
        "cells": [],
        "serving": scenarios,
    }


class TestServingComparison:
    def test_structural_counts_are_exported(self):
        assert SERVING_STRUCTURAL_COUNTS == (
            "offered", "completed", "rejected", "mismatches", "errors"
        )

    def test_identical_serving_sections_compare_ok(self):
        doc = _doc_with_serving([_serving_scenario()])
        result = compare_documents(doc, copy.deepcopy(doc))
        assert result.ok, result.render()

    def test_candidate_without_serving_is_an_error(self):
        baseline = _doc_with_serving([_serving_scenario()])
        candidate = _doc_with_serving([])
        result = compare_documents(baseline, candidate)
        assert not result.ok
        assert any("missing from candidate" in err for err in result.errors)

    def test_structural_count_drift_is_an_error(self):
        baseline = _doc_with_serving([_serving_scenario()])
        candidate = _doc_with_serving([_serving_scenario(completed=9, offered=9)])
        result = compare_documents(baseline, candidate)
        assert not result.ok
        assert any("zero tolerance" in err for err in result.errors)

    def test_candidate_invariants_hold_without_any_baseline_serving(self):
        """Mismatches / errors / shed requests fail even on a fresh baseline."""
        baseline = _doc_with_serving([])
        for counts, message in (
            ({"mismatches": 2}, "ground truth"),
            ({"rejected": 3}, "shed"),
            ({"errors": 1}, "errored"),
        ):
            candidate = _doc_with_serving([_serving_scenario(**counts)])
            result = compare_documents(baseline, candidate)
            assert not result.ok
            assert any(message in err for err in result.errors), message

    def test_page_severity_slo_alert_fails_the_candidate(self):
        """The SLO evaluator's verdict is a candidate invariant — pages
        during the clean suite fail even without a baseline."""
        baseline = _doc_with_serving([])
        candidate = _doc_with_serving([_serving_scenario(page_alerts=2)])
        result = compare_documents(baseline, candidate)
        assert not result.ok
        assert any("page-severity" in err for err in result.errors)
        # warning-only burn is no error
        scenario = dict(_serving_scenario(), max_severity_seen="warning")
        assert compare_documents(baseline, _doc_with_serving([scenario])).ok

    def test_missing_and_new_scenarios(self):
        s1 = _serving_scenario()
        s2 = _serving_scenario(key="k2-n2-r4/duplicates/poisson")
        result = compare_documents(
            _doc_with_serving([s1, s2]), _doc_with_serving([s1])
        )
        assert not result.ok
        assert any("missing from candidate" in err for err in result.errors)
        result = compare_documents(
            _doc_with_serving([s1]), _doc_with_serving([s1, s2])
        )
        assert result.ok
        assert "serving:k2-n2-r4/duplicates/poisson" in result.new_cells

    def test_run_matrix_runs_the_serving_suite(self, matrix_doc):
        serving = matrix_doc["serving"]
        assert [s["key"] for s in serving] == [s.key for s in default_scenarios(0)]
        for scenario in serving:
            assert set(scenario) == {"key", "counts", "max_severity_seen", "page_alerts"}
            counts = scenario["counts"]
            assert counts["completed"] == counts["offered"] > 0
            assert counts["rejected"] == counts["mismatches"] == counts["errors"] == 0
            assert scenario["page_alerts"] == 0

    def test_scenario_record_projects_a_loadgen_run(self):
        run = {
            "scenario": {"key": "k", "rate": 100.0},
            "counts": {name: 1 for name in SERVING_STRUCTURAL_COUNTS},
            "latency_ms": {"p50": 1.0},
            "slo": {"max_severity_seen": "warning", "page_alerts": 0, "alerts": []},
        }
        assert scenario_record(run) == {
            "key": "k",
            "counts": {name: 1 for name in SERVING_STRUCTURAL_COUNTS},
            "max_severity_seen": "warning",
            "page_alerts": 0,
        }
