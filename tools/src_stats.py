#!/usr/bin/env python3
"""Print size counts of the swapcal package as one JSON line.

    python tools/src_stats.py [--src src/swapcal]

- lines: the lines of every .py file under the package;
- param_defaults: function parameters with a default value, positional
  and keyword-only, over every def and lambda;
- dataclass_field_defaults: fields with a default in @dataclass classes,
  reported apart from param_defaults.

Only the standard library is needed; the package is parsed, not imported.
"""

import argparse
import ast
import json
from pathlib import Path

DEFAULT_SRC = Path(__file__).resolve().parent.parent / "src" / "swapcal"


def _is_dataclass(node):
    for dec in node.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        name = getattr(target, "id", getattr(target, "attr", None))
        if name == "dataclass":
            return True
    return False


def stats(src):
    """The counts for the package directory src."""
    lines = params = fields = 0
    for path in sorted(Path(src).rglob("*.py")):
        text = path.read_text(encoding="utf-8")
        lines += len(text.splitlines())
        for node in ast.walk(ast.parse(text, filename=str(path))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.Lambda)):
                params += len(node.args.defaults)
                params += sum(d is not None for d in node.args.kw_defaults)
            elif isinstance(node, ast.ClassDef) and _is_dataclass(node):
                fields += sum(isinstance(s, ast.AnnAssign)
                              and s.value is not None for s in node.body)
    return {"src": str(src), "lines": lines, "param_defaults": params,
            "dataclass_field_defaults": fields}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--src", default=str(DEFAULT_SRC),
                    help="package directory (default: src/swapcal)")
    args = ap.parse_args(argv)
    print(json.dumps(stats(args.src)))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
