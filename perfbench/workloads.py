"""The benchmark's workloads: which pipeline stage each drives, at what size.

Each workload runs one `experiments.run` configuration over a prefix of
trial indices (a "window").  The window of the three per-trial stages is
sized from the run length, so that one pass over it takes about the run
length at the baseline rate; the local and construct stages have a fixed
window (the local stage refuses fewer than 100 trials, and construct-6 is
every rooted tree with at most 6 nodes).  construct-6 makes two passes, so
that its tail percentile rests on 72 samples rather than falling on the
gap between its many fast forms and its few slow ones.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    experiment: str
    n: int
    default_seed: int  # the seed of the committed results/ run
    rate: float = 0.0  # nominal trials per second; sizes the window
    fixed_window: int = 0
    passes: int = 1  # untraced passes over the window per run
    # the call that opens one unit of work, and its caller (None: any)
    unit_span: str = "experiments.run_trial"
    unit_parent: str | None = None
    # the call whose return closes the last unit
    close_span: str = "experiments.run_trial"

    def window(self, seconds: float) -> int:
        if self.fixed_window:
            return self.fixed_window
        return max(2, round(seconds * self.rate))

    @property
    def committed_csv(self) -> str:
        return "results/%s_n%d_trials.csv" % (self.experiment, self.n)


LOCAL_RHO = 3.0
LOCAL_TARGET = "(())"
# local-n100 at its default seed: summary of the first 100 trials
LOCAL_EXPECTED = {"hits": 24, "trials_used": 100, "rejected": 0}
CONSTRUCT_FORMS = 36  # rooted trees with 2..6 nodes

WORKLOADS = {
    w.name: w
    for w in (
        Workload("pair-n200", "tangents", 200, 202, rate=3.0),
        Workload("length-n25", "length", 25, 101, rate=22.0),
        Workload("real-n50", "kostlan-compare", 50, 404, rate=0.55),
        Workload(
            "local-n100", "local-arrangement", 100, 505, fixed_window=100,
            unit_span="ensemble.sample",
            unit_parent="topology.local_arrangement_probability",
            close_span="topology.local_arrangement_probability",
        ),
        Workload(
            "construct-6", "construct", 6, 0, fixed_window=CONSTRUCT_FORMS, passes=2,
            unit_span="constructor.realize",
            close_span="constructor.certify_nondegenerate",
        ),
    )
}


def pipeline_seed(w: Workload, seed: int) -> int:
    """--seed 0 selects the workload's committed seed; any other value is
    used as the pipeline seed itself.  construct-6 has no random input."""
    return w.default_seed if seed == 0 else seed
