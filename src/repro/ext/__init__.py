"""Extensions beyond the paper's core system.

- :mod:`repro.ext.slack` — a Pegasus/TimeTrader-style latency-slack
  controller (the paper's Section 7 pointer to [12, 34]);
- :mod:`repro.ext.adrenaline` — an Adrenaline-style baseline (the
  Section 8 related work): software query detection plus fast per-core
  on-chip voltage regulators.
"""

from repro import _lazy_exports

__all__, __getattr__, __dir__ = _lazy_exports(__name__, {
    ".adrenaline": ("AdrenalineServerNode",),
    ".slack": ("SlackController",),
})
