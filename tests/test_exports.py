import ast
from pathlib import Path

import isocenter

SOURCE = Path(isocenter.__file__).parent

# Every parameter with a default in the package, as module.qualname.parameter.
# A default is a setting that each caller may change and each test must
# cover, so adding or removing one is a declared edit of this list.
DEFAULTED = [
    "algebra.BiPoly.__init__.terms",
    "algebra.BiPoly.monomial.coef",
    "algebra.GaussianRational.__init__.im",
    "algebra.GaussianRational.__init__.re",
    "cli._HelpFormatter.add_usage.prefix",
    "cli._parser.command.input_file",
    "cli.main.args",
    "cli.main.prog_name",
    "conditions.ConditionVerdict.__init__.failing_relations",
    "lemmas.LemmaResult.__init__.detail",
    "lie_analysis.ResonanceReport.__init__.structurally_proven",
    "lie_analysis.ResonanceReport.__init__.witnesses",
    "lie_analysis.SeriesReport.__init__.witnesses",
    "lie_analysis.iter_bracket_levels.resonant_only",
    "numverify.isochrony_scan.radii",
    "numverify.isochrony_scan.tol",
    "numverify.measure_period.tol",
    "prenormal.Mould.__init__.evaluate_fn",
    "prenormal.Mould.__init__.fold",
    "prenormal.Mould.__init__.support_resonant_only",
    "prenormal.random_mould.support_resonant_only",
    "prenormal.verify_fond3.seed",
    "prepared.Alphabet.__init__.entries",
    "prepared.PlanarField.__init__.xi_sign",
    "samples.random_field.density",
    "samples.random_hom_op.max_deg",
    "samples.random_scalar.bound",
    "samples.random_ui_homogeneous.force_middle_zero",
]


def defaulted_parameters(node: ast.AST, prefix: str) -> list[str]:
    """module.qualname.parameter of each parameter with a default in node,
    nested functions and classes included."""
    found = []
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = child.args
            positional = args.posonlyargs + args.args
            named = positional[len(positional) - len(args.defaults):]
            named += [a for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
            found += [f"{prefix}.{child.name}.{a.arg}" for a in named]
            found += defaulted_parameters(child, f"{prefix}.{child.name}")
        elif isinstance(child, ast.ClassDef):
            found += defaulted_parameters(child, f"{prefix}.{child.name}")
        else:
            found += defaulted_parameters(child, prefix)
    return found


def test_every_exported_name_resolves():
    assert [name for name in isocenter.__all__ if not hasattr(isocenter, name)] == []


def test_parameters_with_a_default_are_pinned():
    found = []
    for path in sorted(SOURCE.glob("*.py")):
        found += defaulted_parameters(ast.parse(path.read_text(encoding="utf-8")), path.stem)
    assert sorted(found) == DEFAULTED
    assert len(DEFAULTED) == 28
