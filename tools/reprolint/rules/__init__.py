"""Built-in rule catalogue.

Importing this package registers every rule with the core registry.
Rules are grouped by the contract they protect:

* :mod:`reprolint.rules.architecture` — RL001 engine bypass, RL003
  bucket encapsulation (the PR-1 engine refactor), RL011 stage-pipeline
  encapsulation (the PR-6 staged execution refactor).
* :mod:`reprolint.rules.numerics` — RL002 implicit dtype, RL004
  wall-clock timing (the paper's numeric/measurement contracts).
* :mod:`reprolint.rules.hygiene` — RL005 broad except, RL007 mutable
  default arguments.
* :mod:`reprolint.rules.api` — RL006 public-API annotations, RL008
  ``__all__`` consistency.
* :mod:`reprolint.rules.observability` — RL009 span timing (the PR-3
  telemetry subsystem).
* :mod:`reprolint.rules.concurrency` — RL012 concurrency discipline
  (whole-program: the PR-5 per-child-lock contract on thread-reachable
  paths, plus lock-misuse patterns).
* :mod:`reprolint.rules.determinism` — RL013 determinism (unseeded
  RNG, set-ordered iteration, accumulation-order hazards where
  bit-identity is contractual).
* :mod:`reprolint.rules.wholeprogram` — RL014 cross-module engine
  integrity (call-graph reach into engine/stage internals that
  per-file RL001/RL011 cannot see).
* :mod:`reprolint.rules.serving` — RL015 async-blocking discipline
  (the PR-8 serving front door: no blocking sleeps or direct engine
  execution inside coroutine bodies).
"""

from __future__ import annotations

from reprolint.rules import (
    api,
    architecture,
    concurrency,
    determinism,
    hygiene,
    numerics,
    observability,
    serving,
    wholeprogram,
)

__all__ = [
    "api",
    "architecture",
    "concurrency",
    "determinism",
    "hygiene",
    "numerics",
    "observability",
    "serving",
    "wholeprogram",
]
