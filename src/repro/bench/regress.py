"""Perf-regression gate: compare a suite run against a checked-in baseline.

Tolerance policy (see ``docs/BENCHMARKS.md``):

* **simulated metrics** (everything under a scenario's ``metrics``) come
  off the deterministic virtual clock, so any drift means the model or
  an algorithm changed.  They are held to a tight relative tolerance in
  *both* directions — an unexplained speedup is as suspicious as a
  slowdown — and to per-metric overrides the baseline may carry.
* **wall-clock metrics by naming convention**: a scenario metric ending
  in ``_wall_s`` is host wall clock (gated like ``wall_seconds``:
  regression-only, ``baseline * WALL_FACTOR + WALL_FLOOR_S``); one
  ending in ``_per_wall_s`` is wall-clock throughput (regression-only
  lower bound: current must stay above ``baseline / WALL_FACTOR``).
  This lets scale scenarios (``world_scale``) publish machine-dependent
  events/sec next to their deterministic counts without brittle gates.
* **phase call counts** (``phases.*.count``) are exact integers produced
  by the same deterministic run; they must match the baseline exactly.
* **wall-clock** (``wall_seconds`` and ``phases.*.seconds``) depends on
  the machine, so only a gross *regression* fails: current must stay
  under ``baseline * WALL_FACTOR + WALL_FLOOR_S``.  Improvements never
  fail.

A baseline may carry ``{"tolerances": {"scenario.metric": rel_tol}}`` to
loosen (or tighten) individual simulated metrics.  Scenarios or metrics
present in the current run but absent from the baseline are warnings —
new coverage should prompt a baseline refresh, not block the build.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterable

__all__ = [
    "SIM_REL_TOL",
    "WALL_FACTOR",
    "WALL_FLOOR_S",
    "Issue",
    "compare",
    "load_baseline",
    "run_check",
]

#: default relative tolerance for deterministic simulated metrics
SIM_REL_TOL = 0.05
#: wall-clock regression factor (current may be up to this times baseline)
WALL_FACTOR = 3.0
#: absolute wall-clock headroom so micro-second baselines aren't brittle
WALL_FLOOR_S = 0.5


@dataclass(frozen=True)
class Issue:
    """One comparison finding; ``fail`` issues make the gate exit nonzero."""

    severity: str  # "fail" | "warn"
    metric: str  # dotted path, e.g. "fig9_pcie_bw.V_bw"
    message: str

    @property
    def is_failure(self) -> bool:
        return self.severity == "fail"

    def __str__(self) -> str:
        return f"[{self.severity.upper()}] {self.metric}: {self.message}"


def load_baseline(path: str) -> dict:
    """Read and validate a baseline document from disk.

    Strict by design: a baseline that is not valid JSON, not an object,
    or does not declare ``schema: repro-bench/1`` raises ``ValueError``
    instead of sliding into the comparison — a gate that cannot read its
    baseline must fail loudly, not warn and pass (``run_check`` turns
    the error into a clean nonzero exit).
    """
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as err:
            raise ValueError(f"baseline {path} is not valid JSON: {err}") from err
    if not isinstance(doc, dict):
        raise ValueError(
            f"baseline {path} must be a JSON object, got {type(doc).__name__}"
        )
    if doc.get("schema") != "repro-bench/1":
        raise ValueError(
            f"baseline {path} declares schema {doc.get('schema')!r}, "
            "expected 'repro-bench/1' (regenerate with --update-baseline)"
        )
    return doc


def _rel_delta(cur: float, base: float) -> float:
    denom = max(abs(base), 1e-30)
    return abs(cur - base) / denom


def _check_wall(issues: list[Issue], path: str, cur: float, base: float) -> None:
    limit = base * WALL_FACTOR + WALL_FLOOR_S
    if cur > limit:
        issues.append(
            Issue(
                "fail",
                path,
                f"wall-clock regression: {cur:.3f}s vs baseline {base:.3f}s "
                f"(limit {limit:.3f}s = {WALL_FACTOR:g}x + {WALL_FLOOR_S:g}s)",
            )
        )


def _check_rate(issues: list[Issue], path: str, cur: float, base: float) -> None:
    """Wall-clock throughput (``*_per_wall_s``): only a gross slowdown fails."""
    if base <= 0.0:
        return
    limit = base / WALL_FACTOR
    if cur < limit:
        issues.append(
            Issue(
                "fail",
                path,
                f"throughput regression: {cur:,.0f}/s vs baseline "
                f"{base:,.0f}/s (limit {limit:,.0f}/s = baseline/"
                f"{WALL_FACTOR:g})",
            )
        )


def compare(current: dict, baseline: dict, only=None) -> list[Issue]:
    """All comparison findings between a current run and a baseline.

    ``only`` restricts the check to a subset of scenario names — a run
    produced with ``--scenario`` is gated against just those baseline
    records instead of failing every scenario it never executed.  Names
    in ``only`` absent from the baseline are warnings (new coverage),
    but an empty intersection fails: a subset gate that checks nothing
    must not pass.
    """
    issues: list[Issue] = []

    for doc, who in ((current, "current"), (baseline, "baseline")):
        if doc.get("schema") != "repro-bench/1":
            issues.append(
                Issue(
                    "fail",
                    "schema",
                    f"{who} document has schema {doc.get('schema')!r}, "
                    "expected 'repro-bench/1'",
                )
            )
    if any(i.is_failure for i in issues):
        return issues

    if current.get("profile") != baseline.get("profile"):
        issues.append(
            Issue(
                "fail",
                "profile",
                f"profile mismatch: current {current.get('profile')!r} vs "
                f"baseline {baseline.get('profile')!r} — a quick run can only "
                "be checked against a quick baseline",
            )
        )
        return issues

    tolerances: dict = baseline.get("tolerances", {})
    cur_scen: dict = current.get("scenarios", {})
    base_scen: dict = baseline.get("scenarios", {})
    if only is not None:
        wanted = set(only)
        base_scen = {n: r for n, r in base_scen.items() if n in wanted}
        if not base_scen:
            issues.append(
                Issue(
                    "fail",
                    "scenarios",
                    f"none of the requested scenarios {sorted(wanted)} are in "
                    "the baseline — the subset gate would check nothing",
                )
            )
            return issues

    for name, base_rec in base_scen.items():
        cur_rec = cur_scen.get(name)
        if cur_rec is None:
            issues.append(
                Issue("fail", name, "scenario missing from the current run")
            )
            continue

        # deterministic simulated metrics: tight, both directions
        base_metrics = base_rec.get("metrics", {})
        cur_metrics = cur_rec.get("metrics", {})
        for metric, base_val in base_metrics.items():
            path = f"{name}.{metric}"
            if metric not in cur_metrics:
                issues.append(
                    Issue("fail", path, "metric missing from the current run")
                )
                continue
            cur_val = cur_metrics[metric]
            # machine-dependent metrics by naming convention: loose,
            # regression-only gates (see module docstring)
            if metric.endswith("_per_wall_s"):
                _check_rate(issues, path, float(cur_val), float(base_val))
                continue
            if metric.endswith("_wall_s"):
                _check_wall(issues, path, float(cur_val), float(base_val))
                continue
            tol = float(tolerances.get(path, SIM_REL_TOL))
            delta = _rel_delta(cur_val, base_val)
            if delta > tol:
                moved = (
                    f"moved {delta * 100:.1f}%" if base_val else "moved off 0"
                )
                issues.append(
                    Issue(
                        "fail",
                        path,
                        f"simulated metric {moved} "
                        f"({cur_val:g} vs baseline {base_val:g}, "
                        f"tolerance {tol * 100:g}%)",
                    )
                )
        for metric in cur_metrics:
            if metric not in base_metrics:
                issues.append(
                    Issue(
                        "warn",
                        f"{name}.{metric}",
                        "metric not in baseline (refresh the baseline to track it)",
                    )
                )

        # deterministic phase call counts: exact
        base_phases = base_rec.get("phases", {})
        cur_phases = cur_rec.get("phases", {})
        for phase, base_ph in base_phases.items():
            cur_ph = cur_phases.get(phase)
            path = f"{name}.phases.{phase}"
            if cur_ph is None:
                issues.append(
                    Issue("fail", path, "phase missing from the current run")
                )
                continue
            if int(cur_ph.get("count", -1)) != int(base_ph.get("count", -1)):
                issues.append(
                    Issue(
                        "fail",
                        f"{path}.count",
                        f"phase call count changed: {cur_ph.get('count')} vs "
                        f"baseline {base_ph.get('count')} (deterministic — "
                        "a code-path change; refresh the baseline if intended)",
                    )
                )
            _check_wall(
                issues,
                f"{path}.seconds",
                float(cur_ph.get("seconds", 0.0)),
                float(base_ph.get("seconds", 0.0)),
            )

        # loose, regression-only wall clock
        _check_wall(
            issues,
            f"{name}.wall_seconds",
            float(cur_rec.get("wall_seconds", 0.0)),
            float(base_rec.get("wall_seconds", 0.0)),
        )

    for name in cur_scen:
        if name not in base_scen:
            issues.append(
                Issue(
                    "warn",
                    name,
                    "scenario not in baseline (refresh the baseline to gate it)",
                )
            )

    _check_wall(
        issues,
        "harness.wall_seconds",
        float(current.get("harness", {}).get("wall_seconds", 0.0)),
        float(baseline.get("harness", {}).get("wall_seconds", 0.0)),
    )
    return issues


def render_report(issues: Iterable[Issue]) -> str:
    """Human-readable multi-line report, failures first."""
    issues = list(issues)
    fails = [i for i in issues if i.is_failure]
    warns = [i for i in issues if not i.is_failure]
    lines = [str(i) for i in fails] + [str(i) for i in warns]
    lines.append(
        f"regression gate: {len(fails)} failure(s), {len(warns)} warning(s)"
    )
    return "\n".join(lines)


def run_check(
    current: dict, baseline_path: str, verbose: bool = True, only=None
) -> int:
    """Compare and print; returns a process exit code (1 on any failure).

    A missing or malformed baseline is itself a failure (exit 1 with a
    one-line reason), never a warn-and-pass.
    """
    try:
        baseline = load_baseline(baseline_path)
    except (OSError, ValueError) as err:
        if verbose:
            print(f"[FAIL] baseline: {err}")
            print("regression gate: 1 failure(s), 0 warning(s)")
        return 1
    issues = compare(current, baseline, only=only)
    if verbose:
        print(render_report(issues))
    return 1 if any(i.is_failure for i in issues) else 0
