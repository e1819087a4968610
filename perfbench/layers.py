"""vamkit's layers as seen by the tracer, and the per-layer metrics.

The layers are the package's modules. ``categories`` and ``errors`` are
helpers the layers call (``parse_category`` runs once per cell) and are not
wrapped.
"""

from __future__ import annotations

from pathlib import Path

from checks import CODES
from tracing import Span, self_times

PACKAGE = "vamkit"
LAYERS = ("cli", "cohort", "design", "ols", "measures", "analysis", "synthgen")


def describe_hooks(vamkit_design) -> dict:
    """Span ``info`` hooks; built before the tracer wraps anything."""
    code_of = {
        vamkit_design.design_labels(kind.model_spec): kind.code for kind in vamkit_design.MeasureKind
    }

    def cli_run(args, kwargs, rc):
        argv = list(args[0])
        out = Path(argv[argv.index("--out") + 1]) if "--out" in argv else None
        written = sum(p.stat().st_size for p in out.iterdir() if p.is_file()) if out else 0
        return {"command": argv[0], "rc": rc, "output_bytes": written}

    def parse(args, kwargs, result):
        records, issues = result
        return {"rows": len(records) + len(issues), "skipped": len(issues)}

    def build(args, kwargs, design):
        return {"code": code_of.get(design.column_labels, "other"), "n": design.n, "k": design.k}

    def fit(args, kwargs, result):
        return {
            "code": code_of.get(result.design_labels, "other"),
            "n": result.n,
            "k": len(result.design_labels),
            "k_effective": result.k_effective,
        }

    def generate(args, kwargs, synthetic):
        return {"pupils": synthetic.cohort.n_pupils, "n_clipped": synthetic.n_clipped}

    return {
        "cli.run": cli_run,
        "cohort.parse_pupils": parse,
        "cohort.parse_schools": parse,
        "design.build_design_matrix": build,
        "ols.fit_ols": fit,
        "synthgen.generate_population": generate,
    }


def metric_names() -> list[str]:
    """Every per-layer metric, in the order BENCHMARK.json lists them."""
    return list(layer_metrics([], import_s=1.0, overhead_share=0.0))


def unit_of(name: str) -> str:
    base, _, last = name.rpartition(".")
    if last not in CODES:
        base = name
    if base.endswith("_per_s"):
        return "1/s"
    if base.endswith("_s"):
        return "s"
    if base.endswith("_mb") or base.endswith("mb_computed"):
        return "MB"
    if base.endswith("_share"):
        return "ratio"
    return "count"


def layer_metrics(spans: list[Span], *, import_s: float, overhead_share: float) -> dict[str, float]:
    """Per-layer metrics of one traced run; 0 where a layer did no work."""
    selfs = self_times(spans)

    def named(*names):
        return [s for s in spans if s.name in names]

    def total(*names):
        return sum(s.duration for s in named(*names))

    def layer_self(layer):
        return sum(t for s, t in zip(spans, selfs) if s.layer == layer)

    def ratio(a, b):
        return a / b if b else 0.0

    m: dict[str, float] = {}
    m["cli.import_s"] = import_s
    m["cli.self_s"] = layer_self("cli")
    m["cli.output_mb"] = sum(
        s.info.get("output_bytes", 0) for s in named("cli.run") if s.info.get("command") != "simulate"
    ) / 1e6

    parses = named("cohort.parse_pupils", "cohort.parse_schools")
    rows = sum(s.info.get("rows", 0) for s in parses)
    m["cohort.parse_s"] = total("cohort.parse_pupils", "cohort.parse_schools")
    m["cohort.parse_rows_per_s"] = ratio(rows, m["cohort.parse_s"])
    m["cohort.rows"] = rows
    m["cohort.rows_skipped"] = sum(s.info.get("skipped", 0) for s in parses)
    m["cohort.validate_s"] = total("cohort.validate_cohort")
    m["cohort.serialize_s"] = total("cohort.serialize_pupils", "cohort.serialize_schools")

    gens = named("synthgen.generate_population")
    m["synthgen.generate_self_s"] = sum(t for s, t in zip(spans, selfs) if s.name == "synthgen.generate_population")
    m["synthgen.pupils_per_s"] = ratio(sum(s.info.get("pupils", 0) for s in gens), total("synthgen.generate_population"))
    m["synthgen.n_clipped"] = sum(s.info.get("n_clipped", 0) for s in gens)

    builds = named("design.build_design_matrix")
    m["design.build_s"] = total("design.build_design_matrix")
    for code in CODES:
        m[f"design.build_s.{code}"] = sum(s.duration for s in builds if s.info.get("code") == code)
    m["design.mb_computed"] = sum(s.info.get("n", 0) * s.info.get("k", 0) * 8 for s in builds) / 1e6

    fits = named("ols.fit_ols")
    m["design.columns_kept_share"] = ratio(
        sum(s.info.get("k_effective", 0) for s in fits), sum(s.info.get("k", 0) for s in fits)
    )
    m["ols.fit_s"] = total("ols.fit_ols")
    for code in CODES:
        m[f"ols.fit_s.{code}"] = sum(s.duration for s in fits if s.info.get("code") == code)
    m["ols.ops_computed"] = sum(s.info.get("n", 0) * s.info.get("k", 0) ** 2 for s in fits)
    for code in CODES:
        first = next((s for s in fits if s.info.get("code") == code), None)
        m[f"ols.k_effective.{code}"] = first.info.get("k_effective", 0) if first else 0
    m["ols.cov_s"] = total("ols.cluster_robust_cov")
    m["ols.table_s"] = total("ols.coefficient_table")

    m["measures.self_s"] = layer_self("measures")
    m["measures.school_scores_s"] = total("measures.school_scores")
    m["analysis.breakdown_s"] = total("analysis.pupil_breakdown", "analysis.school_breakdown")
    m["analysis.compare_s"] = total("analysis.compare_measures")

    for layer in LAYERS:
        m[f"{layer}.rss_hwm_mb"] = max(
            (s.info["rss_mb"] for s in spans if s.layer == layer and "rss_mb" in s.info), default=0.0
        )
    m["trace.spans"] = len(spans)
    m["trace.overhead_share"] = overhead_share
    return m
