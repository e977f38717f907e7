import ast
from pathlib import Path

import tiersched

SRC = Path(tiersched.__file__).parent


def test_public_surface_is_pinned():
    # Adding or removing a public name means editing this list.
    assert tiersched.__all__ == [
        "AllowanceMode",
        "EnvironmentConfig",
        "EvolveResult",
        "GAConfig",
        "InstanceTooLargeError",
        "InvalidScheduleError",
        "Job",
        "JobProgress",
        "JobSet",
        "OracleResult",
        "PolicyKind",
        "QueueVariant",
        "Schedule",
        "ScheduleEvaluator",
        "SchedulingError",
        "Simulator",
        "Snapshot",
        "ValidationReport",
        "ViolationBreakdown",
        "WorkloadFormatError",
        "WorkloadSpec",
        "differentiated_allowance",
        "evolve",
        "exhaustive_best",
        "generate",
        "load",
        "make_policy",
        "save",
        "simulate_to_snapshot",
        "total_penalty",
        "validate_schedule",
    ]
    assert all(hasattr(tiersched, name) for name in tiersched.__all__)


def defined_names(tree: ast.Module) -> set[str]:
    """Names a module defines: its functions, classes and bound names, the
    attributes it assigns, and those it sets through ``setattr`` or
    ``__setattr__``."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif (isinstance(node, ast.Attribute)
              and isinstance(node.ctx, ast.Store)):
            names.add(node.attr)
        elif (isinstance(node, ast.Call) and len(node.args) >= 2
              and isinstance(node.args[1], ast.Constant)
              and getattr(node.func, "attr", getattr(node.func, "id", None))
              in ("setattr", "__setattr__")):
            names.add(node.args[1].value)
    return names


def private_reads(path: Path) -> list[str]:
    """Every ``obj._name`` read in a module where ``obj`` is not ``self`` or
    ``cls``, the name is not a dunder, and the module does not define it."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    own = defined_names(tree)
    return [
        f"{path.name}:{node.lineno}: {ast.unparse(node)}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
        and node.attr.startswith("_")
        and not (node.attr.startswith("__") and node.attr.endswith("__"))
        and not (isinstance(node.value, ast.Name)
                 and node.value.id in ("self", "cls"))
        and node.attr not in own
    ]


def test_no_module_reads_another_modules_private_attributes():
    assert [hit for path in sorted(SRC.glob("*.py"))
            for hit in private_reads(path)] == []
