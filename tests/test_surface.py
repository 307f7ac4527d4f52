"""The package's public surface: every public name is loaded somewhere in it.

A public function, class, constant or method that no module of
``poisson_deconv`` loads is API kept alive only by tests or by nobody.  The
scan parses the sources with ``ast``; a name counts as loaded when it is read
as a variable or as an attribute anywhere in the package.
"""
import ast
from pathlib import Path

import poisson_deconv

PACKAGE = Path(poisson_deconv.__file__).parent

# Public names no module loads, each kept on purpose.
ALLOWED_UNUSED = {
    "density": "kernel densities are the quadrature oracles of the kernel and psi tests",
    "log_likelihood": "the public observed-data log-likelihood for scoring fits at finite t",
    "separation": "cluster separation of the paper's multiscale loss, not yet in experiments",
    "mu0": "the clustered reference measure of the paper's multiscale loss",
    "local_divergence": "the paper's multiscale loss, not yet reported by experiments",
    "perturb_matching_moments": "builds the paper's moment-matched adversarial pairs",
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
