"""Programmatic reproduction of the paper's tables and figures.

Usage::

    from repro.experiments import list_experiments, run_experiment

    print(list_experiments())         # {'fig07': 'GQR vs GHR/HR, ITQ', ...}
    print(run_experiment("fig07"))    # the figure's reports as text

or from the shell: ``python -m repro reproduce --experiment fig07``.
Each registered exhibit's ``compute``/``render`` pair is the only code
that computes it: the benchmark suite (`benchmarks/`) runs the same
pair, saves the rendered reports and asserts the paper's claims on the
computed series.
"""

from repro.experiments.context import ExperimentContext, budget_sweep
from repro.experiments.figures import EXPERIMENTS, prober_curves

__all__ = [
    "EXPERIMENTS",
    "ExperimentContext",
    "budget_sweep",
    "list_experiments",
    "prober_curves",
    "run_experiment",
]


def list_experiments() -> dict[str, str]:
    """Experiment ids mapped to one-line descriptions."""
    return {name: exhibit.description for name, exhibit in EXPERIMENTS.items()}


def run_experiment(
    name: str,
    scale: float = 1.0,
    k: int = 20,
    context: ExperimentContext | None = None,
) -> str:
    """Run one registered experiment and return its report text.

    Multi-report exhibits (Figures 7, 13 and 15 carry a time-at-recall
    table) return their reports joined by a blank line.
    """
    if name not in EXPERIMENTS:
        raise KeyError(
            f"unknown experiment {name!r}; known: {sorted(EXPERIMENTS)}"
        )
    if context is None:
        context = ExperimentContext(scale=scale, k=k)
    exhibit = EXPERIMENTS[name]
    return "\n\n".join(exhibit.render(exhibit.compute(context)).values())
