"""Every name imported into a module of the package is used there, every
private helper or constant defined in the package is used somewhere in
it, and a module imports another module's private names, or reads
private attributes of objects other than `self`, only from an allow-list.

No linter ships with the project, so this stands in for the unused-import
and dead-code checks. __init__.py is skipped by the import check: its
imports are the public re-exports.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "aliasfree"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def imported_names(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                yield alias.asname or alias.name


def used_names(tree):
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    unused = sorted(set(imported_names(tree)) - used_names(tree))
    assert unused == [], f"{path.name} imports names it never uses: {unused}"


def private_definitions(tree):
    """Private module-level functions, classes and constants, and private methods."""
    defs = [n for n in tree.body if isinstance(n, (ast.FunctionDef, ast.ClassDef))]
    defs += [m for c in tree.body if isinstance(c, ast.ClassDef)
             for m in c.body if isinstance(m, ast.FunctionDef)]
    names = {d.name for d in defs}
    targets = [t for n in tree.body if isinstance(n, ast.Assign) for t in n.targets]
    targets += [n.target for n in tree.body if isinstance(n, ast.AnnAssign)]
    names |= {name.id for t in targets for name in ast.walk(t) if isinstance(name, ast.Name)}
    return {name for name in names if name.startswith("_") and not name.startswith("__")}


def referenced_names(tree):
    """Names read (a constant's own assignment is no use of it) and attributes."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_every_private_helper_is_used(path):
    trees = [ast.parse(p.read_text(), filename=str(p)) for p in PACKAGE.glob("*.py")]
    used = {name for tree in trees for name in referenced_names(tree)}
    dead = sorted(private_definitions(ast.parse(path.read_text())) - used)
    assert dead == [], f"{path.name} defines private helpers or constants nothing uses: {dead}"


# The private names each module may import from the rest of the package;
# the draw layout (Box-Muller pairs, step words, blocks) stays inside rng.
PRIVATE_IMPORTS = {"activation.py": {"_assembled", "_check_border", "_check_finite", "_choice",
                                      "_filtered", "_slabs"},
                   "cli.py": {"_choice", "_encoded", "_image_shape", "_number", "_pixels",
                              "_rotator", "_whole"},
                   "diffusion.py": {"_choice", "_finite", "_whole", "_rotator", "_image_shape"},
                   "filter_design.py": {"_finite", "_number", "_whole"},
                   "image_io.py": {"_check_finite"},
                   "resample.py": {"_choice", "_whole"},
                   "rotation.py": {"_assembled", "_blend", "_check_finite", "_choice", "_finite",
                                   "_linear_plan", "_image_shape", "_spans"},
                   "special_functions.py": {"_finite"},
                   "spectral.py": {"_af_bands", "_bilinear_bands", "_choice", "_finite",
                                   "_max_pool_bands", "_number", "_pointwise_bands", "_rotator",
                                   "_whole", "_wrapped_bands"}}


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_private_imports_are_on_the_allow_list(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    private = {alias.name for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom)
               and (node.level or (node.module or "").split(".")[0] == "aliasfree")
               for alias in node.names if alias.name.startswith("_")}
    assert private == PRIVATE_IMPORTS.get(path.name, set()), path.name


# The private attributes each module may read through an object other than
# `self`: diffusion takes the sampler's draws one at a time from Rng._draws
# and the training loss's in runs from Rng._runs, and nothing outside rng
# sees _top53, _count or _streams.
PRIVATE_ATTRIBUTES = {"diffusion.py": {"_draws", "_runs"}}


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_private_attributes_of_other_objects_are_on_the_allow_list(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    private = {node.attr for node in ast.walk(tree)
               if isinstance(node, ast.Attribute) and node.attr.startswith("_")
               and not node.attr.startswith("__")
               and not (isinstance(node.value, ast.Name) and node.value.id == "self")}
    assert private == PRIVATE_ATTRIBUTES.get(path.name, set()), path.name


def test_the_whole_number_rule_is_written_once():
    """Counts, sizes and shape sides go through rng._whole, the one place
    that asks whether a number is whole."""
    sources = {p.name: p.read_text() for p in PACKAGE.glob("*.py")}
    assert sum(text.count(".is_integer(") for text in sources.values()) == 1
    whole = next(node for node in ast.parse(sources["rng.py"]).body
                 if isinstance(node, ast.FunctionDef) and node.name == "_whole")
    assert ".is_integer(" in ast.get_source_segment(sources["rng.py"], whole)


def test_the_finite_number_rule_is_written_once():
    """Real scalar arguments go through rng._finite, the one place outside the
    CLI's text parsers that asks whether a scalar is finite; no module keeps
    a finite-float helper of its own."""
    sources = {p.name: p.read_text() for p in PACKAGE.glob("*.py") if p.name != "cli.py"}
    assert sum(text.count("math.isfinite(") for text in sources.values()) == 1
    finite = next(node for node in ast.parse(sources["rng.py"]).body
                  if isinstance(node, ast.FunctionDef) and node.name == "_finite")
    assert "math.isfinite(" in ast.get_source_segment(sources["rng.py"], finite)
    assert not any("_as_finite_float" in text for text in sources.values())


def test_the_text_number_rule_is_written_once():
    """Numbers written as text go through rng._number, the one place that
    refuses the "_" float() and int() skip; the CLI's arguments, pipeline
    names and kernel text all read their numbers with it."""
    sources = {p.name: p.read_text() for p in PACKAGE.glob("*.py")}
    assert sum(text.count('"_" in') + text.count("'_' in") for text in sources.values()) == 1
    trees = {name: ast.parse(text) for name, text in sources.items()}
    rule = next(node for node in trees["rng.py"].body
                if isinstance(node, ast.FunctionDef) and node.name == "_number")
    assert '"_" in' in ast.get_source_segment(sources["rng.py"], rule)
    readers = {"cli.py": None, "spectral.py": "parse_config_name",
               "filter_design.py": "kernel_from_text"}
    for module, name in readers.items():
        scope = trees[module] if name is None else next(
            node for node in trees[module].body if getattr(node, "name", None) == name)
        assert any(isinstance(call, ast.Call) and isinstance(call.func, ast.Name)
                   and call.func.id == "_number" for call in ast.walk(scope)), module


def test_the_tap_sum_is_written_once():
    """convolve2d and both alias-free resamplers run one engine, _filtered,
    whose one loop sums the kernel taps and whose one border rule,
    _check_border, checks the padding."""
    source = (PACKAGE / "resample.py").read_text()
    assert source.count("kernel.taps[") == 1
    names = {node.name for node in ast.parse(source).body if isinstance(node, ast.FunctionDef)}
    assert "_filtered" in names and "_check_padding" not in names


def _calls(tree, name):
    return [node for node in ast.walk(tree) if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name) and node.func.id == name]


def test_the_option_rule_is_written_once():
    """Every named option (activation, padding, fill, sigma_mode, pipeline and
    denoiser kind) goes through rng._choice, the one place that lists the
    known names in its message."""
    sources = {p.name: p.read_text() for p in PACKAGE.glob("*.py")}
    assert sum(text.count("expected one of") for text in sources.values()) == 1
    choice = next(node for node in ast.parse(sources["rng.py"]).body
                  if isinstance(node, ast.FunctionDef) and node.name == "_choice")
    assert "expected one of" in ast.get_source_segment(sources["rng.py"], choice)
    callers = {name for name, text in sources.items() if _calls(ast.parse(text), "_choice")}
    assert callers == {"activation.py", "cli.py", "diffusion.py", "resample.py",
                       "rotation.py", "spectral.py"}


def test_the_reflect_limit_is_written_once():
    """resample._check_border is the one place that compares a kernel with
    min(H, W); the band forms of the filters and of wrapped_activation call it
    once for the whole image, before their bands, and the engine, _filtered,
    never does."""
    trees = {p.name: ast.parse(p.read_text()) for p in PACKAGE.glob("*.py")}
    mins = [(name, node) for name, tree in trees.items() for node in _calls(tree, "min")
            if [getattr(arg, "id", None) for arg in node.args] == ["H", "W"]]
    border = next(node for node in trees["resample.py"].body
                  if getattr(node, "name", None) == "_check_border")
    assert [name for name, _ in mins] == ["resample.py"]
    assert mins[0][1] in set(ast.walk(border))
    for module, name, count in (("resample.py", "_filtered", 0), ("resample.py", "_af_bands", 1),
                                ("activation.py", "_wrapped_bands", 1)):
        scope = next(node for node in trees[module].body if getattr(node, "name", None) == name)
        assert len(_calls(scope, "_check_border")) == count, name


# each whole-image operator and the band form whose bands it assembles
BAND_FORMS = {"resample.py": {"convolve2d": "_af_bands", "downsample2x_af": "_af_bands",
                              "upsample2x_af": "_af_bands", "downsample2x_naive": "_max_pool_bands",
                              "upsample2x_naive": "_bilinear_bands"},
              "activation.py": {"apply_pointwise": "_pointwise_bands",
                                "wrapped_activation": "_wrapped_bands"}}


def test_every_operator_is_its_band_form():
    """Library and CLI run one code path: each whole-image operator's body is
    one `_assembled(*form(...))` of its band form, with no check or arithmetic
    of its own, and bilinear doubling keeps no checker apart from its form."""
    for module, forms in BAND_FORMS.items():
        tree = ast.parse((PACKAGE / module).read_text())
        defs = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
        assert "_doubling" not in defs
        for name, form in forms.items():
            body = [node for node in defs[name].body
                    if not (isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant))]
            assert len(body) == 1 and isinstance(body[0], ast.Return), name
            call = body[0].value
            assert isinstance(call, ast.Call) and call.func.id == "_assembled", name
            [arg] = call.args
            assert isinstance(arg, ast.Starred) and arg.value.func.id == form, name
            for engine in ("_filtered", "_max_pool", "_bilinear"):
                assert not _calls(defs[name], engine), (name, engine)


def test_the_band_budget_and_the_row_rule_are_written_once():
    """resample._BAND, the one band budget, is assigned once and read only by
    resample._spans, the one row rule: _slabs, _bilinear_bands and _rotator
    take their bands from it, and activation and rotation never name _BAND.
    _slabs takes no budget of its own and yields from one place, with no
    branch for an image of one band."""
    sources = {p.name: p.read_text() for p in PACKAGE.glob("*.py")}
    trees = {name: ast.parse(text) for name, text in sources.items()}
    named = [(name, node) for name, tree in trees.items() for node in ast.walk(tree)
             if isinstance(node, ast.Name) and node.id == "_BAND"]
    assert [name for name, node in named if isinstance(node.ctx, ast.Store)] == ["resample.py"]
    spans = next(node for node in trees["resample.py"].body
                 if getattr(node, "name", None) == "_spans")
    reads = [node for _, node in named if isinstance(node.ctx, ast.Load)]
    assert reads and set(reads) <= set(ast.walk(spans))
    assert sum(text.count("_BAND //") for text in sources.values()) == 1
    assert "_BAND" not in sources["activation.py"] + sources["rotation.py"]
    callers = {node.name for tree in trees.values() for node in tree.body
               if isinstance(node, ast.FunctionDef) and _calls(node, "_spans")}
    assert callers == {"_slabs", "_bilinear_bands", "_rotator"}
    slabs = next(node for node in trees["resample.py"].body
                 if getattr(node, "name", None) == "_slabs")
    assert "band" not in [arg.arg for arg in slabs.args.args]
    assert len([node for node in ast.walk(slabs) if isinstance(node, ast.Yield)]) == 1


def test_only_spectral_turns_a_pipeline_kind_into_operators():
    """The CLI takes every down, nonlinearity and up from spectral.pipeline_stages,
    and apply_pipeline composes those stages without asking which kind it runs."""
    cli = ast.parse((PACKAGE / "cli.py").read_text())
    operators = {"downsample2x_af", "upsample2x_af", "downsample2x_naive",
                 "upsample2x_naive", "wrapped_activation", "apply_pointwise"}
    assert operators.isdisjoint(imported_names(cli))
    spectral = ast.parse((PACKAGE / "spectral.py").read_text())
    apply = next(node for node in spectral.body
                 if isinstance(node, ast.FunctionDef) and node.name == "apply_pipeline")
    compared = {name for cmp in ast.walk(apply) if isinstance(cmp, ast.Compare)
                for name in referenced_names(cmp)}
    assert "kind" not in compared


def test_the_sampler_states_no_rotation_rule():
    """rotation._rotator checks the shape, angle and fill of a turn and folds
    the streams; sample_rotated builds its one turn there and states none."""
    source = (PACKAGE / "diffusion.py").read_text()
    tree = ast.parse(source)
    assert {"FILL_MODES", "check_image"}.isdisjoint(referenced_names(tree))
    calls = [node for node in ast.walk(tree) if isinstance(node, ast.Call)
             and isinstance(node.func, ast.Name) and node.func.id == "_rotator"]
    assert len(calls) == 1


def test_the_image_shape_rule_is_written_once():
    """resample._image_shape is the one place that asks for three sides;
    every entry taking an image, a sample shape or --shape text calls it."""
    sources = {p.name: p.read_text() for p in PACKAGE.glob("*.py")}
    assert sum(text.count("!= 3") for text in sources.values()) == 1
    trees = {name: ast.parse(text) for name, text in sources.items()}
    rule = next(node for node in trees["resample.py"].body
                if isinstance(node, ast.FunctionDef) and node.name == "_image_shape")
    assert "!= 3" in ast.get_source_segment(sources["resample.py"], rule)
    entries = {"resample.py": {"check_image"}, "rotation.py": {"_rotator"},
               "diffusion.py": {"GaussianDataSpec", "sample_rotated"},
               "cli.py": {"parse_shape"}}
    for module, names in entries.items():
        calling = {node.name for node in trees[module].body
                   if getattr(node, "name", None) in names
                   and any(isinstance(call, ast.Call) and isinstance(call.func, ast.Name)
                           and call.func.id == "_image_shape" for call in ast.walk(node))}
        assert calling == names, module
