"""Lint: concrete controller classes stay behind the policy registry.

The policy registry (``repro.core.registry``) is the single point where
concrete controller classes are wired to names; every other layer —
experiments, CLI, sim — selects controllers through
:class:`~repro.core.registry.PolicySpec`.  This linter walks the AST of
every Python file under the given roots and flags imports of concrete
controller class names outside ``src/repro/core/``.

Allowed everywhere: the abstract ``Controller`` protocol and plain
functions (``allocate_budget``).  ``src/repro/__init__.py`` is
whitelisted — it re-exports the concrete classes as public API.

Usage: python scripts/lint_policy_imports.py [root ...]
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

#: Concrete controller classes that only the registry may wire up.
CONTROLLER_CLASSES = frozenset(
    {
        "DUF",
        "DUFP",
        "DUFPF",
        "AdaptiveIntervalDUFP",
        "DefaultController",
        "StaticPowerCap",
        "StaticUncore",
        "TimeWindowCap",
        "DNPCLike",
        "BudgetedSocketController",
        "NodeBudgetCoordinator",
        # Frequency-governor baselines (repro.core.governors).
        "FrequencyGovernorBase",
        "PerformanceFreqGovernor",
        "PowersaveFreqGovernor",
        "OndemandFreqGovernor",
        "SchedutilFreqGovernor",
        # Hetero budget-split strategies (selected via split_policy()).
        "StaticSplit",
        "CoordinatedSplit",
        "FairShareSplit",
        # Fleet partitioning strategies (selected via fleet_policy()).
        # The abstract FleetPolicy marker stays importable, like the
        # Controller protocol and SplitPolicy.
        "StaticFleet",
        "DemandFleet",
        "FairShareFleet",
    }
)

#: Module paths (relative, POSIX-style) that may import the classes.
ALLOWED = (
    "src/repro/core/",
    "src/repro/__init__.py",
)


def _is_allowed(relative: str) -> bool:
    return any(
        relative == entry or relative.startswith(entry) for entry in ALLOWED
    )


def check_file(path: Path, root: Path | None = None) -> list[str]:
    """Offending ``path:line: message`` strings for one file."""
    relative = path.as_posix()
    if root is not None:
        relative = path.resolve().relative_to(root.resolve()).as_posix()
    if _is_allowed(relative):
        return []
    tree = ast.parse(path.read_text(), filename=str(path))
    problems = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            for alias in node.names:
                if alias.name in CONTROLLER_CLASSES:
                    problems.append(
                        f"{path}:{node.lineno}: imports concrete controller "
                        f"{alias.name!r}; select policies through "
                        "repro.core.registry instead"
                    )
    return problems


def main(roots: list[str]) -> int:
    """Lint every ``*.py`` under the roots; exit 1 on any offence."""
    repo = Path(__file__).resolve().parent.parent
    problems: list[str] = []
    for root in roots or ["src"]:
        for path in sorted(Path(root).rglob("*.py")):
            problems.extend(check_file(path, root=repo))
    for p in problems:
        print(p)
    print(f"{len(problems)} out-of-registry controller imports")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
