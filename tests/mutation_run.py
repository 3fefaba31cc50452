"""Mutation score for chosen functions of the njordan package.

An opt-in, slow script: the tier-1 suite does not collect it.  Each mutant
changes one site inside the named functions (nested functions included):
+ and - swap, * becomes + and ** becomes *, a comparison becomes its
neighbour or its negation (< and <=, > and >=, == and !=, is and is not, in
and not in), `and` and `or` swap, a `not` is dropped, or an integer constant
grows by one.  The mutated module is written into a temporary copy of the
package, never into src/, and the given test files run against it with -x;
a failing run or the timeout kills the mutant.  Run from the repository root:

    python tests/mutation_run.py src/njordan/derivation.py replay verify_certificate \\
        --tests tests/test_derivation.py tests/test_golden.py --timeout 90

It prints one line per mutant and the score, and exits 1 if any survives.
"""

from __future__ import annotations

import argparse
import ast
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

SWAPS = {
    ast.Add: ast.Sub, ast.Sub: ast.Add, ast.Mult: ast.Add, ast.Pow: ast.Mult,
    ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt, ast.Eq: ast.NotEq, ast.NotEq: ast.Eq,
    ast.Is: ast.IsNot, ast.IsNot: ast.Is, ast.In: ast.NotIn, ast.NotIn: ast.In, ast.And: ast.Or, ast.Or: ast.And,
}


class Mutator(ast.NodeTransformer):
    """Numbers the mutation sites inside the named functions and applies the one numbered `target`."""

    def __init__(self, functions: set[str], target: int = -1):
        self.functions, self.target = functions, target
        self.count, self.inside, self.applied = 0, 0, None

    def site(self, node: ast.AST, change: str) -> bool:
        if not self.inside:
            return False
        self.count += 1
        if self.count - 1 != self.target:
            return False
        self.applied = f"line {node.lineno}: {change}"
        return True

    def visit_FunctionDef(self, node):
        named = node.name in self.functions
        self.inside += named
        self.generic_visit(node)
        self.inside -= named
        return node

    def visit_BinOp(self, node):  # also AugAssign and BoolOp: each has one `op`
        old = type(node.op)
        if old in SWAPS and self.site(node, f"{old.__name__} -> {SWAPS[old].__name__}"):
            node.op = SWAPS[old]()
        return self.generic_visit(node)

    visit_AugAssign = visit_BoolOp = visit_BinOp

    def visit_Compare(self, node):
        for i, op in enumerate(node.ops):
            if type(op) in SWAPS and self.site(node, f"{type(op).__name__} -> {SWAPS[type(op)].__name__}"):
                node.ops[i] = SWAPS[type(op)]()
        return self.generic_visit(node)

    def visit_UnaryOp(self, node):
        if isinstance(node.op, ast.Not) and self.site(node, "drop not"):
            return self.visit(node.operand)
        return self.generic_visit(node)

    def visit_Constant(self, node):
        if type(node.value) is int and self.site(node, f"{node.value} -> {node.value + 1}"):
            return ast.copy_location(ast.Constant(node.value + 1), node)
        return node


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("module", help="a module file of the package, such as src/njordan/derivation.py")
    parser.add_argument("functions", nargs="+", help="names of the functions to mutate")
    parser.add_argument("--tests", nargs="+", required=True, help="test files to run on each mutant")
    parser.add_argument("--timeout", type=float, default=90.0, help="seconds per mutant; a timeout kills it")
    args = parser.parse_args(argv)
    module = Path(args.module).resolve()
    source = module.read_text(encoding="utf-8")
    counter = Mutator(set(args.functions))
    counter.visit(ast.parse(source))
    if not counter.count:
        parser.error("no mutation site in the named functions")

    with tempfile.TemporaryDirectory() as tmp:
        shutil.copytree(module.parent, Path(tmp) / module.parent.name, ignore=shutil.ignore_patterns("__pycache__"))
        copy = Path(tmp) / module.parent.name / module.name
        # no bytecode: a rewritten module of the same size and mtime would load a stale .pyc
        env = {**os.environ, "PYTHONPATH": tmp, "PYTHONDONTWRITEBYTECODE": "1"}
        command = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *args.tests]

        def passes(text: str) -> bool:
            copy.write_text(text, encoding="utf-8")
            try:
                run = subprocess.run(command, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
                                     timeout=args.timeout)
            except subprocess.TimeoutExpired:
                return False
            return run.returncode == 0

        if not passes(ast.unparse(ast.parse(source))):
            sys.exit("the unmutated module fails these tests")
        survivors = 0
        for k in range(counter.count):
            mutant = Mutator(set(args.functions), k)
            tree = mutant.visit(ast.parse(source))
            survived = passes(ast.unparse(tree))
            survivors += survived
            print(f"{'SURVIVED' if survived else 'killed':<9}{mutant.applied}", flush=True)
    print(f"score: {counter.count - survivors} of {counter.count} mutants killed")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
