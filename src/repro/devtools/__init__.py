"""Developer tooling: the determinism & layering enforcement layer.

Everything under ``repro.devtools`` exists to keep the *measurement
infrastructure* trustworthy rather than to produce measurements:

* :mod:`repro.devtools.detlint` -- an AST-based static-analysis pass
  (``repro-study lint``) that turns determinism hazards (bare
  ``random.*``, wall-clock reads, unordered ``set`` iteration feeding
  the scheduler or a transport send, ``hash()``-of-str ordering,
  ambient entropy) and layering violations into CI failures;
* :mod:`repro.devtools.digest` -- the event-stream digest that reduces
  a whole run to one hash, which the golden fixtures pin and the
  replay tests compare;
* :mod:`repro.devtools.lockorder` -- the runtime lock-order recorder
  the tier-1 lock-order test arms over a live, scraped campaign.

This package is *dev tooling*, not simulation code: the linter spells
out the very entropy sources its rules ban, so it is excluded from the
lint walk (see ``[tool.detlint] exclude`` in ``pyproject.toml``).
Nothing below the CLI may import it.
"""

from .detlint import Finding, LintResult, lint_repo

__all__ = ["Finding", "LintResult", "lint_repo"]
