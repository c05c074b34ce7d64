"""The report dict built field by field, kept as the oracle for
CoverageReport.to_json_text().

This is to_json_dict() as it was before it read the template's text back:
every key named once next to the field it holds.  The `--json` writer's
template must give exactly json.dumps(report_dict(report), indent=2,
sort_keys=True), NaN and infinities included.
"""
from __future__ import annotations

from qcover.coverage import CoverageReport


def report_dict(report: CoverageReport) -> dict:
    return {
        "schema_version": 1,
        "circuit": report.circuit,
        "num_qubits": report.num_qubits,
        "controlled_gates": report.controlled_gates,
        "cx_conditions": report.cx_conditions,
        "control_qubits": report.control_qubits,
        "coverage": {"condition": report.condition, "decision": report.decision,
                     "path": report.path},
        "jain": {"condition": report.jain_condition, "decision": report.jain_decision,
                 "path": report.jain_path},
        "probabilistic": {"condition": report.prob_condition,
                          "decision": report.prob_decision,
                          "path": report.prob_path},
        "per_gate": [
            {"origin": g.origin_gate_id, "true": g.true_hit, "false": g.false_hit,
             "ptrue": g.ptrue, "pfalse": g.pfalse,
             "controls": list(g.controls)}
            for g in report.per_gate
        ],
        "per_cx": [
            {"origin": c.origin_gate_id, "cx_index": c.cx_index,
             "true": c.true_hit, "false": c.false_hit,
             "ptrue": c.ptrue, "pfalse": c.pfalse}
            for c in report.per_cx
        ],
    }
