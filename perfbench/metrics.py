"""Names and units of every metric the benchmark reports.

End-to-end metrics come from untraced cold passes; per-layer metrics come
from traced passes only.  A per-layer name reads `<module>.<function>.<stat>`,
where stat is `s` (busy seconds inside the call), `self_s` (busy seconds
minus nested spans), `calls`, a count, or `peak_mb` (tracemalloc peak
inside the call).  A suffix `.n<k>` restricts the metric to degree k.
"""

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "op_p50_ms": "ms",
    "op_p95_ms": "ms",
}

# The nine lru_cached functions, read through cache_info() after a pass.
CACHED = (
    ("elements", "conjugacy_classes"),
    ("elements", "class_representative_map"),
    ("characters", "irreps"),
    ("characters", "irrep_character"),
    ("characters", "character_table"),
    ("gelfand", "gelfand_check_characters"),
    ("matrix_models", "build_matrix_rep"),
    ("orbits", "_xi_bit_table"),
    ("orbits", "_parity_table"),
)

CLASS_DEGREES = (5, 6, 7)
SCAN_DEGREES = (5, 6, 7)
PAIR_ORBIT_DEGREES = (4, 5)
GRID_DEGREES = (4,)

PER_LAYER = {
    # intertwiner: the exact intertwiner solve
    "matrix_models.frobenius_context.s": "s",
    "matrix_models.hom_triple_eta.s": "s",
    "matrix_models.hom_triple_eta.self_s": "s",
    "matrix_models.hom_res_theta_prime.s": "s",
    "matrix_models.invariant_tensors.s": "s",
    "matrix_models.coordinate_maps.s": "s",
    "matrix_models.constraint_rows": "count",
    "linalg.sparse_nullspace.s": "s",
    "linalg.sparse_nullspace.calls": "count",
    "linalg.sparse_nullspace.rows": "count",
    "linalg.sparse_nullspace.cols": "count",
    "linalg.sparse_nullspace.nullity": "count",
    "linalg.hs_inner.s": "s",
    "gelfand.diagonal_invariant_dim.s": "s",
    # exhaustive: classes, decompositions, the Gelfand scan, grids
    "elements.conjugacy_classes.s": "s",
    **{
        f"elements.conjugacy_classes.{stat}.n{n}": unit
        for n in CLASS_DEGREES
        for stat, unit in (("s", "s"), ("calls", "count"))
    },
    "characters.tensor_character.s": "s",
    "characters.decompose.s": "s",
    "characters.decompose.calls": "count",
    "characters.restrict_character.s": "s",
    "characters.restrict_character.calls": "count",
    "characters.restricted_kronecker.s": "s",
    "characters.irrep_character.s": "s",
    "gelfand.gelfand_check_characters.s": "s",
    **{f"gelfand.gelfand_check_characters.s.n{n}": "s" for n in SCAN_DEGREES},
    "gelfand.gelfand_check_characters.peak_mb": "MB",
    "gelfand.gelfand_check_biinvariant.s": "s",
    "orbits.enumerate_pair_orbits.s": "s",
    **{f"orbits.enumerate_pair_orbits.s.n{n}": "s" for n in PAIR_ORBIT_DEGREES},
    "orbits.closed_vs_direct_grids.s": "s",
    **{f"orbits.closed_vs_direct_grids.s.n{n}": "s" for n in GRID_DEGREES},
    "orbits.closed_vs_direct_grids.peak_mb": "MB",
    "orbits.subset_sum_lemma.s": "s",
    **{
        f"cache.{fn}.{stat}": "count"
        for _, fn in CACHED
        for stat in ("hits", "misses", "currsize")
    },
    # sampled-queries: per-element closed forms against brute force
    "orbits.orbit_of.s": "s",
    "orbits.predicted_orbit.s": "s",
    "orbits.spherical_value.s": "s",
    "orbits.spherical_closed_form.s": "s",
    "elements.point_ops.s": "s",
    "characters.character_value.s": "s",
    # the tracing itself
    "trace.overhead_s": "s",
    "trace.span_coverage": "ratio",
}
