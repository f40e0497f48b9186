"""Workload names and sizes, shared by the worker side and the checking side.

"full" is the size the benchmark measures; "tiny" is the size the
self-test runs.
"""

WORKLOADS = ("table1", "divisive", "ultrametric", "claims")

SIZES = {
    "full": {
        "table1": {"n": 2000, "k": 8, "dim": 8, "subsample": 1000, "runs": 1},
        "divisive": {"n": 2000, "k": 16, "dim": 32},
        "ultrametric": {"n": 512},
        "claims": {
            "bf_n": 7,
            "bkm_instances": 60,
            "bkm_n": (8, 16),
            "tri_instances": 12,
            "tri_n": 40,
            "bad_sizes": (4, 8, 12),
            "bad_trials": 200,
        },
    },
    "tiny": {
        "table1": {"n": 200, "k": 8, "dim": 8, "subsample": 100, "runs": 2},
        "divisive": {"n": 200, "k": 16, "dim": 32},
        "ultrametric": {"n": 24},
        "claims": {
            "bf_n": 5,
            "bkm_instances": 6,
            "bkm_n": (4, 9),
            "tri_instances": 3,
            "tri_n": 12,
            "bad_sizes": (4, 8, 12),
            "bad_trials": 60,
        },
    },
}

SEPARATION = 20.0
ULTRAMETRIC_MODES = ("strict", "with_ties")
OBJECTIVES = ("revenue", "ckmm", "dasgupta")
DIVISIVE_TREES = ("bkm", "random")
