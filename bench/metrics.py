"""Metric names, units and the end-to-end metric each layer metric should move.

``BENCHMARK.json`` lists the same names; ``selftest.py`` checks that the
two agree. A layer metric reads ``<layer>.<function>.<field>``: ``calls``
is a count, ``self_s`` the summed time outside traced callees, ``total_s``
the summed wall time, and ``results``/``rejected``/``cases`` counts taken
from return values or exceptions.
"""

from inputs import CLI_KINDS

SUITES = ("selfdual", "axioms", "lemma", "claim1", "claim2", "claim3", "claim4")

# name, unit, better
END_TO_END = [
    ("setup_s", "s", "lower"),
    ("op_p50_s", "s", "lower"),
    ("op_p90_s", "s", "lower"),
    ("ops_per_s", "1/s", "higher"),
    ("peak_rss_mb", "MB", "lower"),
]

_VA, _DF, _CC = "verify_all", "dense_frames", "cli_cold"

# name, unit, better, [(end-to-end metric, workload) it should move]
LAYER_METRICS = [
    ("forms.sort_with_sign.calls", "count", "lower", [("ops_per_s", _DF), ("op_p50_s", _VA)]),
    ("forms.AltForm.coefficient_signed.calls", "count", "lower", [("ops_per_s", _DF), ("op_p50_s", _VA)]),
    ("forms.AltForm.evaluate.calls", "count", "lower", [("op_p90_s", _DF)]),
    ("forms.AltForm.evaluate.self_s", "s", "lower", [("op_p90_s", _DF)]),
    ("forms.pullback.calls", "count", "lower", [("op_p90_s", _DF)]),
    ("forms.pullback.self_s", "s", "lower", [("op_p90_s", _DF)]),
    ("forms.parse_form.self_s", "s", "lower", [("op_p50_s", _CC)]),
    ("linalg.Vector.init.calls", "count", "lower", [("op_p50_s", _VA)]),
    ("linalg.Matrix.init.calls", "count", "lower", [("op_p50_s", _VA)]),
    ("linalg.Matrix.matmul.calls", "count", "lower", [("ops_per_s", _DF)]),
    ("linalg.Matrix.matmul.self_s", "s", "lower", [("ops_per_s", _DF)]),
    ("linalg.det.calls", "count", "lower", [("ops_per_s", _DF)]),
    ("linalg.det.self_s", "s", "lower", [("ops_per_s", _DF)]),
    ("linalg.Matrix.inverse.calls", "count", "lower", [("ops_per_s", _DF)]),
    ("linalg.rref.calls", "count", "lower", [("setup_s", "all"), ("op_p50_s", _CC)]),
    ("linalg.rref.self_s", "s", "lower", [("setup_s", "all"), ("op_p50_s", _CC)]),
    ("linalg.kernel_basis.self_s", "s", "lower", [("setup_s", "all"), ("op_p50_s", _CC)]),
    ("linalg.RowSpan.add.calls", "count", "lower", [("op_p50_s", _VA), ("op_p50_s", _CC)]),
    ("linalg.RowSpan.add.self_s", "s", "lower", [("op_p50_s", _VA), ("op_p50_s", _CC)]),
    ("linalg.rank.calls", "count", "lower", [("op_p50_s", _VA), ("op_p50_s", _CC)]),
    ("cross.cross3.unit.calls", "count", "lower", [("op_p50_s", _VA)]),
    ("cross.cross3.unit.self_s", "s", "lower", [("op_p50_s", _VA)]),
    ("cross.cross3.unit.distinct", "count", "lower", [("op_p50_s", _VA)]),
    ("cross.cross3.unit.repeat_ratio", "ratio", "higher", [("op_p50_s", _VA)]),
    ("cross.cross3.dense.calls", "count", "lower", [("ops_per_s", _DF), ("op_p50_s", _DF)]),
    ("cross.cross3.dense.self_s", "s", "lower", [("ops_per_s", _DF), ("op_p50_s", _DF)]),
    ("cross.composition_sides.calls", "count", "lower", [("ops_per_s", _DF), ("op_p50_s", _DF)]),
    ("cross.composition_sides.self_s", "s", "lower", [("ops_per_s", _DF), ("op_p50_s", _DF)]),
    ("cross.verify_composition_lemma.total_s", "s", "lower", [("op_p50_s", _VA), ("op_p90_s", _CC)]),
    ("cross.verify_compatibility.total_s", "s", "lower", [("op_p50_s", _VA), ("op_p90_s", _CC)]),
    ("octonion.oct_mul.calls", "count", "lower", [("ops_per_s", _DF)]),
    ("octonion.oct_mul.self_s", "s", "lower", [("ops_per_s", _DF)]),
    ("octonion.UnitTable.from_form.total_s", "s", "lower", [("setup_s", "all")]),
    ("acs.span_stability.calls", "count", "lower", [("op_p50_s", _VA)]),
    ("acs.span_stability.self_s", "s", "lower", [("op_p50_s", _VA)]),
    ("acs.rotated_acs_family.calls", "count", "lower", [("op_p50_s", _VA)]),
    ("acs.rotated_acs_family.self_s", "s", "lower", [("op_p50_s", _VA)]),
    ("acs.span_contains_matrix.calls", "count", "lower", [("op_p50_s", _VA)]),
    ("acs.span_contains_matrix.self_s", "s", "lower", [("op_p50_s", _VA)]),
    ("acs.check_frame.calls", "count", "lower", [("op_p50_s", _VA), ("op_p90_s", _DF)]),
    ("acs.check_frame.self_s", "s", "lower", [("op_p50_s", _VA), ("op_p90_s", _DF)]),
    ("acs.check_frame.rejected", "count", "higher", [("op_p90_s", _DF)]),
    ("acs.acs_basis.total_s", "s", "lower", [("setup_s", "all")]),
    ("stabilizers.spin7.total_s", "s", "lower", [("setup_s", "all"), ("op_p50_s", _CC)]),
    ("stabilizers.g2_stabilizer.total_s", "s", "lower", [("setup_s", "all"), ("op_p50_s", _CC)]),
    ("stabilizers.form_action.calls", "count", "lower", [("setup_s", "all"), ("op_p50_s", _CC)]),
    ("stabilizers.form_action.self_s", "s", "lower", [("setup_s", "all"), ("op_p50_s", _CC)]),
    ("stabilizers.signed_perm_symmetries.calls", "count", "lower", [("op_p50_s", _VA), ("op_p50_s", _CC)]),
    ("stabilizers.signed_perm_symmetries.self_s", "s", "lower", [("op_p50_s", _VA), ("op_p50_s", _CC)]),
    ("stabilizers.signed_perm_symmetries.results", "count", "higher", [("op_p50_s", _VA)]),
    ("stabilizers.extract_omega.calls", "count", "lower", [("ops_per_s", _DF), ("op_p50_s", _CC)]),
    ("stabilizers.extract_omega.self_s", "s", "lower", [("ops_per_s", _DF), ("op_p50_s", _CC)]),
    ("stabilizers.decompose_so8.total_s", "s", "lower", [("op_p90_s", _CC)]),
    ("stabilizers.constraint_system_g2.total_s", "s", "lower", [("op_p90_s", _CC)]),
] + [
    (f"verify.suite.{s}.{field}", unit, better, [("op_p50_s", _VA)])
    for s in SUITES
    for field, unit, better in (("total_s", "s", "lower"), ("cases", "count", "higher"))
] + [
    ("verify.reports_to_json.self_s", "s", "lower", [("op_p50_s", _VA)]),
    ("cli.interp_s", "s", "lower", [("setup_s", "all"), ("op_p50_s", _CC)]),
    ("cli.import_s", "s", "lower", [("setup_s", "all"), ("op_p50_s", _CC)]),
] + [
    (f"cli.cmd.{kind}.p50_s", "s", "lower", [("op_p50_s", _CC), ("op_p90_s", _CC)])
    for kind in CLI_KINDS
] + [
    ("trace.overhead_frac", "ratio", "lower", []),
]

# Counts that must hold per verify_all op on the baseline commit. A
# wrapper that missed a binding would report 0 here instead.
PINNED_VERIFY_ALL = {
    "acs.span_stability.calls": 21504,
    "stabilizers.signed_perm_symmetries.results": 21504,
    "verify.suite.lemma.cases": 32768,
}


def layer_values(agg: dict) -> dict[str, float]:
    """Every layer metric this trace aggregate defines (``cli.*`` and
    ``trace.*`` are filled in by the workload)."""
    stats, values = agg["stats"], agg["values"]
    out = {}
    for name, _, _, _ in LAYER_METRICS:
        prefix, _, field = name.rpartition(".")
        if name.startswith(("cli.", "trace.")):
            continue
        if field in ("calls", "self_s", "total_s"):
            out[name] = stats.get(prefix, {}).get(field, 0)
        elif field in ("distinct", "repeat_ratio"):
            calls = stats.get("cross.cross3.unit", {}).get("calls", 0)
            distinct = len(agg["unit_triples"])
            out[name] = distinct if field == "distinct" else (1 - distinct / calls if calls else 0.0)
        else:
            out[name] = values.get(name, 0)
    return out


def merge(aggs: list[dict]) -> dict:
    """Sum trace aggregates from several processes."""
    stats: dict = {}
    values: dict = {}
    triples: set = set()
    for agg in aggs:
        for name, s in agg["stats"].items():
            acc = stats.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            for k in acc:
                acc[k] += s[k]
        for name, v in agg["values"].items():
            values[name] = values.get(name, 0) + v
        triples.update(map(tuple, agg["unit_triples"]))
    return {"stats": stats, "values": values, "unit_triples": sorted(triples)}
