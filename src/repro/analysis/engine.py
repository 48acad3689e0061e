"""The fidelint engine: load, run rules, fold in suppressions + baseline.

One run is one serial pass: :meth:`Project.load` parses the tree,
:func:`_prepare_capabilities` builds the project-wide dataflow state the
selected rules need, :func:`_raw_findings` runs every rule over every
module in sorted order, and :func:`analyze` folds the stream through
the baseline and sorts.  Occurrence counters (the fingerprint
disambiguator) are keyed per ``(rule, module, line text)``, so a
finding's fingerprint does not depend on which other modules or rules
were in the run.
"""

from collections import Counter
from dataclasses import dataclass, field

from repro.analysis.baseline import load_baseline
from repro.analysis.findings import Severity
from repro.analysis.project import Project
from repro.analysis.registry import all_rules


@dataclass
class AnalysisResult:
    """Everything one analyzer run produced."""

    findings: list = field(default_factory=list)      # active (fail-worthy)
    suppressed: list = field(default_factory=list)    # inline-ignored
    baselined: list = field(default_factory=list)     # grandfathered
    stale_baseline: list = field(default_factory=list)  # unmatched entries
    modules_scanned: int = 0
    rules_run: int = 0

    @property
    def error_count(self):
        return sum(1 for f in self.findings
                   if f.severity is Severity.ERROR)

    @property
    def warning_count(self):
        return sum(1 for f in self.findings
                   if f.severity is Severity.WARNING)

    def exit_code(self, strict=False):
        """0 = clean.  Errors always fail; ``--strict`` also fails on
        warnings and on stale baseline entries (so the baseline cannot
        rot silently in CI)."""
        if self.error_count:
            return 1
        if strict and (self.warning_count or self.stale_baseline):
            return 1
        return 0

    def to_dict(self):
        return {
            "findings": [f.to_dict() for f in self.findings],
            "suppressed": [f.to_dict() for f in self.suppressed],
            "baselined": [f.to_dict() for f in self.baselined],
            "stale_baseline": list(self.stale_baseline),
            "counts": {
                "error": self.error_count,
                "warning": self.warning_count,
                "suppressed": len(self.suppressed),
                "baselined": len(self.baselined),
                "modules": self.modules_scanned,
                "rules": self.rules_run,
            },
        }


def findings_digest(result):
    """Canonical SHA-256 over the full result dict."""
    from repro.runner.merge import digest
    return digest(result.to_dict())


def _select_rules(rules, select):
    if not select:
        return list(rules)
    wanted = {rule_id.upper() for rule_id in select}
    unknown = wanted - {r.rule_id for r in rules}
    if unknown:
        raise ValueError("unknown rule ids: %s"
                         % ", ".join(sorted(unknown)))
    return [r for r in rules if r.rule_id in wanted]


def _prepare_capabilities(project, rules):
    """Build the shared caches the selected rules declare a need for —
    once, up front; a purely syntactic run never touches them."""
    if any(getattr(r, "needs_dataflow", False) for r in rules):
        project.dataflow.summaries
    if any(getattr(r, "needs_effects", False) for r in rules):
        project.dataflow.effects


def _raw_findings(project, rules):
    """Raw findings for every module, in deterministic order, with line
    text, occurrence counter and suppression flag resolved."""
    raw = []
    occurrences = Counter()
    for module in project.sorted_modules():
        for rule_obj in rules:
            for finding in rule_obj.run(module, project):
                finding.line_text = module.line_text(finding.line)
                finding.suppressed = module.is_suppressed(
                    finding.rule_id, finding.line)
                key = (finding.rule_id, finding.module, finding.line_text)
                finding.occurrence = occurrences[key]
                occurrences[key] += 1
                raw.append(finding)
    return raw


def analyze(root, rules=None, baseline_path=None, select=None):
    """Analyze the tree under ``root`` and return an AnalysisResult.

    ``root`` is a directory or an already loaded :class:`Project`;
    ``rules`` replaces the registry's rules (tests use it for custom
    rules); ``select`` limits the run to an iterable of rule ids;
    ``baseline_path`` points at the committed baseline (None = none).
    """
    project = root if isinstance(root, Project) else Project.load(root)
    rules = _select_rules(list(all_rules() if rules is None else rules),
                          select)
    _prepare_capabilities(project, rules)
    raw = _raw_findings(project, rules)

    baseline = load_baseline(baseline_path)
    matched_fingerprints = set()
    result = AnalysisResult(
        modules_scanned=len(project.modules), rules_run=len(rules))

    for finding in raw:
        if finding.suppressed:
            result.suppressed.append(finding)
        elif finding.fingerprint in baseline:
            finding.baselined = True
            matched_fingerprints.add(finding.fingerprint)
            result.baselined.append(finding)
        else:
            result.findings.append(finding)

    result.stale_baseline = [
        entry for fingerprint, entry in sorted(baseline.items())
        if fingerprint not in matched_fingerprints
    ]
    result.findings.sort(key=lambda f: (f.path, f.line, f.rule_id))
    return result
