"""The benchmark's workloads: one grid shape each, plus the fixed sizes of
every operation run on it.  Stdlib only, so the lean driver can import it."""

KSTEP_K = 30  # steps for `gbdp kstep` and the tour's k_step
SIM_K = 5  # steps per simulated trajectory
SINK_KEEP = 0.9  # the simulated model keeps this share of mass per step
# A run draws this many input sets from its seed and cycles through them,
# so that costs that depend on the random input average out within a run.
INPUT_SETS = 4

WORKLOADS = {
    # the paper's reference grid: start-up and per-trajectory cost dominate
    "ref": {"dims": [2, 2], "l": 2, "rank_dims": [2, 2], "rank_l": 2,
            "start": [1, 1], "trials": 100000},
    # 1,000 states, three direction pairs: the dense commutator dominates
    "cube": {"dims": [9, 9, 9], "l": 2, "rank_dims": [4, 4, 4], "rank_l": 2,
             "start": [4, 4, 4], "trials": 20000},
    # 1,024 states, one pair, jumps up to 4: constraint count dominates
    "band": {"dims": [31, 31], "l": 4, "rank_dims": [8, 8], "rank_l": 4,
             "start": [15, 15], "trials": 20000},
}
