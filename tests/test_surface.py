"""The package's public surface: every public name and knob is used somewhere in it.

A public function, class, constant or method that no module of
``poisson_deconv`` loads is API kept alive only by tests or by nobody.  The
scan parses the sources with ``ast``; a name counts as loaded when it is read
as a variable or as an attribute anywhere in the package.

Likewise a defaulted parameter of a function or method, public or private
but not a dunder, that no call in the package passes is a knob only tests
turn, or nobody.  A call passes a
parameter by keyword, by position, or through ``*``/``**``; callees are
matched by name, as loaded names are.

And every name a module imports is read in that module, every JSON writer
refuses NaN and infinity instead of writing invalid JSON, and each kernel
internal is read only where it belongs.
"""
import ast
from pathlib import Path

import poisson_deconv

PACKAGE = Path(poisson_deconv.__file__).parent

# Public names no module loads, each kept on purpose.
ALLOWED_UNUSED = {
    "density": "kernel densities are the quadrature oracles of the kernel and psi tests",
    "local_divergence": "the paper's multiscale loss, not yet reported by experiments",
    "perturb_matching_moments": "builds the paper's moment-matched adversarial pairs",
}

# Imported names their module never reads, each kept on purpose.
ALLOWED_UNUSED_IMPORTS = {
    "pipeline.run_em": "perfbench/test_tracer.py checks that the tracer patches this binding",
}

# Defaulted parameters no call in the package passes, each kept on purpose.
ALLOWED_DEFAULTS = {
    "cli.main(argv)": "the console entry point reads sys.argv when argv is None",
}


def _is_constant(target) -> bool:
    return isinstance(target, ast.Name) and target.id.isupper()


def public_definitions(tree: ast.Module):
    """(qualified name, line) of every public top-level definition and method."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node.lineno
        elif isinstance(node, ast.Assign):
            yield from ((t.id, node.lineno) for t in node.targets if _is_constant(t))
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    yield f"{node.name}.{item.name}", item.lineno
                elif isinstance(item, ast.Assign):
                    yield from ((f"{node.name}.{t.id}", item.lineno)
                                for t in item.targets if _is_constant(t))


def loaded_names(tree: ast.Module) -> set:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            names.add(node.attr)
    return names


def unused_public_definitions() -> list:
    """(module.qualified name, line) of each public definition no module loads."""
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    loaded = set().union(*map(loaded_names, trees.values()))
    return [
        (f"{module}.{name}", line)
        for module, tree in trees.items()
        for name, line in public_definitions(tree)
        if not name.rsplit(".", 1)[-1].startswith("_")
        and name.rsplit(".", 1)[-1] not in loaded
    ]


def test_every_public_name_is_loaded_in_the_package():
    offenders = [f"{name} (line {line})" for name, line in unused_public_definitions()
                 if name.rsplit(".", 1)[-1] not in ALLOWED_UNUSED]
    assert not offenders, "public names nothing in poisson_deconv loads: " + ", ".join(offenders)


def test_allowlist_names_only_unused_definitions():
    unused = {name.rsplit(".", 1)[-1] for name, _ in unused_public_definitions()}
    assert ALLOWED_UNUSED.keys() <= unused


def _defaulted_parameters(func: ast.FunctionDef, is_method: bool):
    """(position or None, name) of each defaulted parameter a caller can set.

    Positions count from the first argument a call writes, so a method's
    ``self`` or ``cls`` is skipped; keyword-only parameters have no position.
    """
    args = func.args
    positional = args.posonlyargs + args.args
    is_static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                    for d in func.decorator_list)
    offset = 1 if is_method and not is_static else 0
    first_default = len(positional) - len(args.defaults)
    for index in range(first_default, len(positional)):
        yield index - offset, positional[index].arg
    for arg, default in zip(args.kwonlyargs, args.kw_defaults):
        if default is not None:
            yield None, arg.arg


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _functions(tree: ast.Module):
    """(qualified name, node, is_method) of every function and method but dunder methods."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            yield node.name, node, False
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not _is_dunder(item.name):
                    yield f"{node.name}.{item.name}", item, True


def _calls_by_name(trees) -> dict:
    """Callee name -> list of (positional count or None for *, keywords or None for **)."""
    calls = {}
    for tree in trees:
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name is None:
                continue
            starred = any(isinstance(a, ast.Starred) for a in node.args)
            double_starred = any(kw.arg is None for kw in node.keywords)
            calls.setdefault(name, []).append((
                None if starred else len(node.args),
                None if double_starred else {kw.arg for kw in node.keywords},
            ))
    return calls


def unpassed_defaulted_parameters() -> list:
    """``module.function(param)`` for each defaulted parameter no package call passes."""
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    calls = _calls_by_name(trees.values())
    unpassed = []
    for module, tree in trees.items():
        for name, func, is_method in _functions(tree):
            sites = calls.get(name.rsplit(".", 1)[-1], [])
            for position, param in _defaulted_parameters(func, is_method):
                passed = any(
                    n_args is None or keywords is None or param in keywords
                    or (position is not None and position < n_args)
                    for n_args, keywords in sites
                )
                if not passed:
                    unpassed.append(f"{module}.{name}({param})")
    return unpassed


def test_every_defaulted_parameter_is_passed_in_the_package():
    offenders = [p for p in unpassed_defaulted_parameters() if p not in ALLOWED_DEFAULTS]
    assert not offenders, "defaulted parameters nothing in poisson_deconv passes: " + (
        ", ".join(offenders))


def test_default_allowlist_names_only_unpassed_parameters():
    assert ALLOWED_DEFAULTS.keys() <= set(unpassed_defaulted_parameters())


def unused_imports() -> list:
    """``module.name`` for each name an import binds that its module never reads."""
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    if name not in read:
                        unused.append(f"{path.stem}.{name}")
    return unused


def test_only_kernels_reads_the_axis_factors():
    # product kernels contract their axis factors inside Kernel.intensity_and_vjp;
    # no other module knows how a kernel lays out its bins
    readers = [path.stem for path in sorted(PACKAGE.glob("*.py")) if path.stem != "kernels"
               and "axis_factors" in loaded_names(ast.parse(path.read_text()))]
    assert readers == []


def test_only_the_q_objective_reads_the_dense_matrices_in_em():
    # every log-likelihood in em.py comes from Kernel.intensity_and_vjp; only
    # Q needs the per-atom (m, k) and (m, k, d) bin integrals
    tree = ast.parse((PACKAGE / "em.py").read_text())
    readers = [node.name for node in tree.body
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))
               and {"bin_integral_matrix", "bin_integral_gradient_matrix"} & loaded_names(node)]
    assert readers == ["_neg_q"]


def test_every_import_is_used():
    assert sorted(unused_imports()) == sorted(ALLOWED_UNUSED_IMPORTS)


def json_writers_allowing_nan() -> list:
    """``module:line`` of each json.dump or json.dumps call without ``allow_nan=False``."""
    offenders = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and isinstance(node.func.value, ast.Name) and node.func.value.id == "json"
                    and node.func.attr in ("dump", "dumps")):
                continue
            if not any(kw.arg == "allow_nan" and isinstance(kw.value, ast.Constant)
                       and kw.value.value is False for kw in node.keywords):
                offenders.append(f"{path.stem}:{node.lineno}")
    return offenders


def test_every_json_writer_refuses_nan():
    # Python's json writes NaN and Infinity by default, which RFC 8259 parsers reject
    assert json_writers_allowing_nan() == []
