import argparse
import ast
import builtins
import importlib
import os
import pathlib
import re
import subprocess
import sys

import numpy as np
import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]


def test_no_tracked_file_is_ignored():
    try:
        inside = subprocess.run(["git", "rev-parse", "--is-inside-work-tree"], cwd=ROOT,
                                capture_output=True, text=True)
    except OSError:
        pytest.skip("git is not installed")
    if inside.returncode != 0 or inside.stdout.strip() != "true":
        pytest.skip("not a git checkout")
    listed = subprocess.run(["git", "ls-files", "--cached", "--ignored", "--exclude-standard"],
                            cwd=ROOT, capture_output=True, text=True, check=True)
    assert listed.stdout == ""


def test_benchmark_tracer_binds_every_layer(monkeypatch):
    # perfbench/run.py --trace 1 looks every traced function up by name
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    importlib.import_module("pseudoherm.cli")
    tracer = importlib.import_module("tracer")

    def functions():
        return {layer: [getattr(owner, attr) for owner, attr in targets]
                for layer, targets in tracer.LAYERS.items()}

    originals = functions()
    t = tracer.Tracer()
    t.install()
    try:
        patched = [value for _, _, value in t._patched]
    finally:
        t.uninstall()
    unbound = [layer for layer, fns in originals.items()
               if not any(fn is value for fn in fns for value in patched)]
    assert unbound == []
    assert functions() == originals


def test_benchmark_oracles_accept_library_answers(monkeypatch, tmp_path):
    # one problem of every kind of every perfbench workload, run in-process and
    # judged by the workload's own oracle
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    workloads = importlib.import_module("workloads")
    verdicts = {}
    for index, (name, workload) in enumerate(workloads.WORKLOADS.items()):
        work_dir = tmp_path / name
        work_dir.mkdir()
        for p in workload.generate(np.random.default_rng([7, index]), str(work_dir)):
            if (name, p.kind) not in verdicts:
                verdicts[name, p.kind] = workload.check(p, workload.run(p, in_process=True))
    assert len(verdicts) == 16
    assert {key: v for key, v in verdicts.items() if v != "ok"} == {}


def test_package_exports_every_name():
    import pseudoherm

    namespace = {}
    exec("from pseudoherm import *", namespace)
    assert all(namespace[name] is getattr(pseudoherm, name) for name in pseudoherm.__all__)
    assert set(pseudoherm.__all__) <= set(dir(pseudoherm))
    assert pseudoherm.residual is pseudoherm.metric.residual
    with pytest.raises(AttributeError, match="no_such_name"):
        pseudoherm.no_such_name


def test_an_exported_name_imports_its_module_once(monkeypatch):
    import pseudoherm

    first = pseudoherm.residual  # may import pseudoherm.metric
    calls, real_import = [], builtins.__import__

    def counted(name, *args, **kwargs):
        calls.append(name)
        return real_import(name, *args, **kwargs)

    monkeypatch.setattr(builtins, "__import__", counted)
    assert pseudoherm.residual is first is pseudoherm.metric.residual
    assert calls == []
    assert "residual" not in vars(pseudoherm)  # never bound, so a patched module's wins


def test_package_import_loads_no_submodule():
    # a fresh interpreter, since this one has imported every submodule already
    submodules = ("chain", "cli", "errors", "io", "metric", "perturbation", "quasi", "weyl")
    script = ("import sys, pseudoherm\n"
              "print(sorted(m for m in sys.modules if m.split('.')[0] in ('numpy', 'pseudoherm')))\n"
              f"print([getattr(pseudoherm, m).__name__ for m in {submodules}])\n")
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=path))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "['pseudoherm']", str([f"pseudoherm.{m}" for m in submodules])]


def test_readme_names_every_cli_option():
    # the long options of README's "Command-line tool" section are those of the subcommands
    from pseudoherm.cli import build_parser

    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme[readme.index("## Command-line tool"):readme.index("## Tests")]
    named = set(re.findall(r"(?<![\w-])--[a-z][a-z0-9-]*", section))
    (subcommands,) = (a for a in build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction))
    options = {option for parser in subcommands.choices.values() for action in parser._actions
               for option in action.option_strings if option.startswith("--")}
    assert named == options


def test_readme_quick_start_runs(capsys):
    # README's "Library quick start" block, run as it is written: its code cannot drift from
    # the API
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme[readme.index("## Library quick start"):]
    start = section.index("```python\n") + len("```python\n")
    exec(compile(section[start:section.index("```\n", start)], "README.md", "exec"), {})
    assert capsys.readouterr().out == "[0.0, 0.0, 0.0, 0.0, 0.0] [] 2\n"


def test_no_check_writes_the_at_most_rule_inline():
    # a check held to at most its threshold is built by Check.at_most, the rule's one place
    inline = [f"{path.name}: {match}" for path in sorted((ROOT / "src").rglob("*.py"))
              for match in re.findall(r'Check\("[a-z_]+", [^)]*<=',
                                      path.read_text(encoding="utf-8"))]
    assert inline == []


def test_no_subcommand_handler_imports_a_package_module():
    # cli._COMMANDS names the module each handler runs, and cli.run passes it in
    from pseudoherm import cli

    def from_the_package(node):
        if isinstance(node, ast.ImportFrom):
            return node.level > 0 or node.module.split(".")[0] == "pseudoherm"
        return isinstance(node, ast.Import) and any(
            alias.name.split(".")[0] == "pseudoherm" for alias in node.names)

    tree = ast.parse((ROOT / "src" / "pseudoherm" / "cli.py").read_text(encoding="utf-8"))
    handlers = [node for node in tree.body
                if isinstance(node, ast.FunctionDef) and node.name.startswith("_cmd_")]
    assert {h.name for h in handlers} == {h.__name__ for _, _, h in cli._COMMANDS.values()}
    imports = [f"{handler.name}: {ast.unparse(node)}" for handler in handlers
               for node in ast.walk(handler) if from_the_package(node)]
    assert imports == []


def test_the_tolerance_rule_is_written_once():
    # "positive and finite", the chained test 0 < name < inf, lives only in errors.check_tol
    def positive_and_finite(node):
        return (isinstance(node, ast.Compare) and isinstance(node.left, ast.Constant)
                and node.left.value == 0 and [type(op) for op in node.ops] == [ast.Lt, ast.Lt]
                and isinstance(node.comparators[0], ast.Name)
                and "inf" in (getattr(node.comparators[1], "id", None),
                              getattr(node.comparators[1], "attr", None)))

    found = []
    for path in sorted((ROOT / "src").rglob("*.py")):
        tree, owner = ast.parse(path.read_text(encoding="utf-8")), {}
        for function in ast.walk(tree):  # outer functions first: the innermost one wins
            if isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef)):
                owner.update(dict.fromkeys(ast.walk(function), function.name))
        found += [(path.name, owner.get(node, "<module>")) for node in ast.walk(tree)
                  if positive_and_finite(node)]
    assert found == [("errors.py", "check_tol")]


def test_only_the_solve_classifies_without_measuring_defects():
    # _classify measures the defects of its stack unless its caller passes them.  Two callers
    # do: metric._measured passes zeros for its exactly Hermitian stacks, and chain._chain a
    # slice of the defects that its own _defects pass measured.  classify_metric and every
    # other caller let _classify measure the defects it reports
    def calls(function, name):
        return [node for node in ast.walk(function) if isinstance(node, ast.Call)
                and name in (getattr(node.func, "id", None), getattr(node.func, "attr", None))]

    def measured_names(function):
        # the names that an assignment in function binds to a value that calls _defects
        pairs = []
        for node in ast.walk(function):
            if not isinstance(node, (ast.Assign, ast.AugAssign)):
                continue
            for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                if isinstance(target, ast.Tuple) and isinstance(node.value, ast.Tuple):
                    pairs += zip(target.elts, node.value.elts)
                else:
                    pairs.append((target, node.value))
        return {target.id for target, value in pairs
                if isinstance(target, ast.Name) and calls(value, "_defects")}

    def passed(call, function):
        # what a _classify call passes for defects: None, "zeros", "measured" or its source
        given = call.args[3:] + [keyword.value for keyword in call.keywords
                                 if keyword.arg in ("defects", None)]
        if any(isinstance(arg, ast.Starred) for arg in call.args) or len(given) > 1:
            return "unread"
        if not given:
            return None
        if calls(given[0], "zeros") == [given[0]]:
            return "zeros"
        sliced = {node.value.id for node in ast.walk(given[0]) if isinstance(node, ast.Subscript)
                  and isinstance(node.value, ast.Name)}
        return "measured" if sliced and sliced <= measured_names(function) else ast.unparse(
            given[0])

    found = []
    for path in sorted((ROOT / "src").rglob("*.py")):
        tree, owner = ast.parse(path.read_text(encoding="utf-8")), {}
        for function in ast.walk(tree):  # outer functions first: the innermost one wins
            if isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef)):
                owner.update(dict.fromkeys(ast.walk(function), function))
        for call in calls(tree, "_classify"):
            function = owner.get(call, tree)
            found.append((path.name, getattr(function, "name", "<module>"), passed(call, function)))
    assert ("metric.py", "classify_metric", None) in found
    assert [call for call in found if call[2] is not None] == [
        ("chain.py", "_chain", "measured"), ("metric.py", "_measured", "zeros")]
