"""Hierarchical clustering objectives, tree builders, and ground-truth machinery.

The package splits into six modules:

* metricspace -- point sets, distance matrices, k-means cost primitives
* hiertree   -- binary dendrograms, splits, LCA queries, enumeration, text format
* objectives -- revenue / ckmm / dasgupta evaluation, decompositions, brute force
* algorithms -- bisecting 2-means, average / single linkage, random splitting
* ultrametric -- ground-truth instances, Euclidean embedding, generating trees
* harness    -- CSV ingestion, synthetic data, experiments, and the CLI
"""

from .algorithms import (
    RngStream,
    TwoMeansSolverConfig,
    average_linkage,
    bisecting_kmeans,
    random_tree,
    single_linkage,
    two_means,
)
from .harness import (
    ALGORITHMS,
    DataError,
    ExperimentConfig,
    GaussianMixtureSpec,
    IngestOptions,
    IngestResult,
    RandomBadInstanceSpec,
    RandomBadRow,
    StatsRow,
    build_random_bad_instance,
    clean_reference_tree,
    cli_main,
    ingest_csv,
    ingest_csv_report,
    random_bad_report_csv,
    run_random_bad,
    run_table1,
    synth_gaussian_mixture,
)
from .hiertree import (
    HierTree,
    Split,
    TreeParseError,
    enumerate_trees,
    parse,
)
from .metricspace import (
    ABS_TOL,
    REL_TOL,
    DistanceMatrix,
    PointSet,
    centroid,
    check_metric,
    close,
    distance,
    kmeans_cost,
    pairwise_distances,
)
from .objectives import (
    HIGH_REVENUE_MIN,
    OBJECTIVE_KINDS,
    OPT_MAX_N,
    HighRevenueStats,
    ObjectiveReport,
    TriangleDecomposition,
    brute_force_opt,
    ckmm_value,
    dasgupta_cost,
    high_revenue_stats,
    pair_revenue,
    revenue_upper_bound,
    tree_revenue,
    triangle_decompose,
)
from .ultrametric import (
    UltrametricSpec,
    build_generating_tree,
    check_ultrametric,
    embed_euclidean,
    generate_random,
    verify_generating_tree,
)

__version__ = "0.1.0"
