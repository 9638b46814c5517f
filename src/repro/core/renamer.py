"""Back-compat alias for the renaming-policy interface.

The renamer interface grew into the formal :class:`RenamingPolicy`
(lifecycle hooks + capability flags + registry) in
:mod:`repro.core.policy`; ``Renamer`` remains as an alias so older
imports resolve.  Note one contract change for subclasses: the engine
no longer auto-detects overridden hooks — a scheme that overrides
``on_dispatch`` / ``on_issue`` / ``on_complete`` must also set the
matching capability flag (``has_dispatch_hook`` / ``has_issue_hook`` /
``has_complete_hook``), and pool introspection goes through
``phys_pools()`` instead of ``free`` / ``free_phys`` attribute
sniffing.  See ``docs/renaming-policies.md``.
"""

from __future__ import annotations

from repro.core.policy import RenamingPolicy

#: Historical name of :class:`repro.core.policy.RenamingPolicy`.
Renamer = RenamingPolicy
