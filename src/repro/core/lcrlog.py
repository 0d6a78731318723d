"""LCRLOG — LCR-based failure-log enhancement for concurrency bugs.

Same pipeline as LBRLOG but profiling the Last Cache-coherence Record.
Two LCR configurations are supported (Section 4.2.2):

* selector 1 — the *space-saving* configuration (invalid loads, invalid
  stores, shared loads) — "Conf1" of Table 7;
* selector 2 — the *space-consuming* configuration (invalid loads,
  invalid stores, exclusive loads) — "Conf2" of Table 7.
"""

from dataclasses import dataclass

from repro.core.logtool import LogToolBase

#: Table 7 configuration names.
CONF1_SPACE_SAVING = 1
CONF2_SPACE_CONSUMING = 2


@dataclass
class LcrLogReport:
    """Decoded LCR contents at a failure site."""

    status: object
    site: object
    entries: list          # DecodedEntry rows, newest first

    @property
    def captured(self):
        return self.site is not None

    def position_of(self, lines, state_tags=None, include_pollution=True):
        """Position (1 = latest) of the first entry on one of *lines*.

        *state_tags* optionally restricts matches to coherence classes
        like ``"load@I"``; pollution entries are counted in positions
        (they occupy real ring slots) but never match.
        """
        wanted = set(lines)
        tags = set(state_tags) if state_tags is not None else None
        for row in self.entries:
            if row.event.detail == "pollution":
                continue
            if row.line not in wanted:
                continue
            if tags is not None and row.event.detail not in tags:
                continue
            return row.position
        return None

    def describe(self):
        lines = ["LCRLOG @ %s" % (self.site,)]
        lines.extend("  %s" % row for row in self.entries)
        return "\n".join(lines)


class LcrLogTool(LogToolBase):
    """LCRLOG for one workload."""

    ring = "lcr"

    def __init__(self, workload, toggling=True,
                 selector=CONF2_SPACE_CONSUMING,
                 register_segv_handler=True, ring_capacity=16,
                 executor=None):
        super().__init__(
            workload, toggling=toggling, lcr_selector=selector,
            register_segv_handler=register_segv_handler,
            ring_capacity=ring_capacity, executor=executor,
        )
        self.selector = selector

    def report(self, status):
        """Build the :class:`LcrLogReport` for one run's failure profile."""
        profile, site = self.failure_snapshot(status)
        if profile is None:
            return LcrLogReport(status=status, site=None, entries=[])
        return LcrLogReport(
            status=status, site=site, entries=self.decode(profile),
        )

    def capture_failure(self, k=0):
        """Run the k-th failing plan and report the failure-site LCR."""
        return self.report(self.run_failing(k))


__all__ = [
    "CONF1_SPACE_SAVING",
    "CONF2_SPACE_CONSUMING",
    "LcrLogReport",
    "LcrLogTool",
]
