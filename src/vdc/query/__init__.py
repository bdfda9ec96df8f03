"""SQL-like federated query pipeline: parser, planner, executor, oracle."""

from .executor import (
    ResultSet,
    execute_plan,
    result_to_csv,
    result_to_jsonl,
)
from .parser import QueryAst, parse_query
from .planner import Plan, plan_query

__all__ = [
    "Plan",
    "QueryAst",
    "ResultSet",
    "execute_plan",
    "parse_query",
    "plan_query",
    "reference_eval",
    "result_to_csv",
    "result_to_jsonl",
]


def __getattr__(name: str):
    """``reference_eval`` on first use: the test oracle is not compiled
    into every query process."""
    if name == "reference_eval":
        from .reference import reference_eval

        return reference_eval
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
