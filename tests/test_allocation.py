"""Peak allocations of the fitting path and the generator stay far below one N x k design,
and a CSV parse stays within a few times the file's size.

A categorical design is fitted from its code columns, so neither fitting
a measure with its clustered covariance nor generating a cohort's outcome
should allocate an N x k float64 array (about 28 MB on the default
cohort). A parse encodes a block of rows at a time, so it never holds a
Python str per cell of the file. tracemalloc sees numpy's array buffers.
"""

import tracemalloc
import warnings

from vamkit.categories import MeasureKind
from vamkit.cohort import parse_pupils, serialize_pupils
from vamkit.design import design_labels
from vamkit.measures import compute_measure
from vamkit.ols import cluster_robust_cov
from vamkit.synthgen import GeneratorConfig, generate_population

AP8 = MeasureKind.ADJUSTED_PROGRESS8


def traced_peak(call):
    """call()'s result and the peak bytes traced while it ran."""
    tracemalloc.start()
    try:
        result = call()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak


def fit_ap8(cohort):
    result = compute_measure(cohort, AP8)
    return cluster_robust_cov(result.fit, result.design, cohort.school_index)


def test_fit_and_generator_allocate_no_design_matrix():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        # a warm-up call keeps one-time costs out of the traced peak
        generate_population(GeneratorConfig(n_schools=2, seed=1))
        pop, gen_peak = traced_peak(lambda: generate_population(GeneratorConfig(seed=612)))
        _, fit_peak = traced_peak(lambda: fit_ap8(pop.cohort))

    design_mb = pop.cohort.n_pupils * len(design_labels(AP8.model_spec)) * 8 / 1e6
    # The fit holds a few length-N vectors (outcome, residuals, scores, bin
    # keys): a quarter of the design is ample. The generator also holds the
    # cohort's own columns, about twenty length-N arrays: half the design.
    assert fit_peak / 1e6 < design_mb / 4, f"fit peak {fit_peak / 1e6:.1f} MB, design {design_mb:.1f} MB"
    assert gen_peak / 1e6 < design_mb / 2, f"generator peak {gen_peak / 1e6:.1f} MB, design {design_mb:.1f} MB"


def test_parse_allocates_a_few_times_the_file():
    pop = generate_population(GeneratorConfig(seed=612))
    data = serialize_pupils(pop.cohort.pupil_table)
    parse_pupils(data[: data.index(b"\n", 1000) + 1])  # warm-up
    (table, issues), peak = traced_peak(lambda: parse_pupils(data))
    assert len(table) == pop.cohort.n_pupils and issues == []
    # the columns, one block of rows and the UTF-8 check's decoded copy of
    # the file; holding a str per cell of the file took eleven times its size
    assert peak < 5 * len(data), f"parse peak {peak / 1e6:.1f} MB, file {len(data) / 1e6:.2f} MB"
