"""Rules every module of the package keeps, checked on its source."""

import ast
from collections import Counter
from pathlib import Path

import specdec

PACKAGE = Path(specdec.__file__).parent


def source_nodes():
    """(module path relative to the package, node) for every AST node of every module."""
    modules = sorted(PACKAGE.rglob("*.py"))
    assert len(modules) >= 10
    for path in modules:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            yield path.relative_to(PACKAGE), node


def test_no_assert_statements():
    # Invariants raise real exceptions: ``python -O`` strips assert statements.
    found = [f"{path}:{node.lineno}" for path, node in source_nodes() if isinstance(node, ast.Assert)]
    assert found == []


def test_one_residual_kernel():
    # Every residual row [q - b p]_+ comes from dist._residual_rows. The only
    # other positive parts are exact.py's closed forms, W_{m+1} = (q - S_m p)_+.
    found = {
        str(path)
        for path, node in source_nodes()
        if isinstance(node, ast.Attribute)
        and node.attr == "maximum"
        and isinstance(node.value, ast.Name)
        and node.value.id == "np"
    }
    assert found <= {"dist.py", "exact.py"}


def _imported_modules(node: ast.AST) -> list[str]:
    """Dotted names of the modules an import node reads, ``from . import x`` giving x."""
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    if isinstance(node, ast.ImportFrom):
        if node.module is None:
            return [alias.name for alias in node.names]
        return [node.module]
    return []


def test_the_oracle_stays_on_callbacks():
    # The enumeration oracle is the third route, held against the closed forms
    # and the samplers' campaigns, so it imports neither, and it reads a policy
    # through its callbacks only, never through Policy.tables.
    nodes = [node for path, node in source_nodes() if path == Path("enumeration.py")]
    assert nodes
    imported = {part for node in nodes for name in _imported_modules(node) for part in name.split(".")}
    assert "decoding" in imported
    assert not imported & {"exact", "montecarlo"}
    tables = [
        node.lineno
        for node in nodes
        if (isinstance(node, ast.Attribute) and node.attr == "tables")
        or (isinstance(node, ast.Constant) and node.value == "tables")
    ]
    assert tables == []


def test_only_the_cli_knows_output_formats():
    # Commands return their results and CSV table; cli.main alone writes them.
    found = {
        str(path)
        for path, node in source_nodes()
        if "json" in _imported_modules(node)
        or (isinstance(node, ast.FunctionDef) and node.name in ("csv_document", "report_header"))
    }
    assert found == {"cli.py"}


def test_one_row_check():
    # Every "this row is a distribution" check is dist._row_totals, behind
    # _normalized_rows and _dist_vector. The one other reader of
    # NORMALIZE_TOL is ModelPair's prompt agreement.
    found = [
        str(path)
        for path, node in source_nodes()
        if isinstance(node, ast.Name) and node.id == "NORMALIZE_TOL"
    ]
    assert set(found) == {"dist.py", "models.py"}
    assert found.count("models.py") == 1


def test_one_value_rule():
    # "This is an integer, a real, an array of reals" is decided in dist.py.
    # decoding.py keeps its policy-callback check, which raises InvalidPolicy,
    # and rng.py numpy's index rule, which also refuses bools there.
    numbers_importers = {
        str(path) for path, node in source_nodes() if "numbers" in _imported_modules(node)
    }
    assert numbers_importers == {"dist.py", "decoding.py"}
    bool_tests = {
        str(path)
        for path, node in source_nodes()
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "isinstance"
        and len(node.args) == 2
        and any(isinstance(kind, ast.Name) and kind.id == "bool"
                for kind in ast.walk(node.args[1]))
    }
    assert bool_tests == {"dist.py", "rng.py", "decoding.py"}


# The distribution arguments of dist's and tradeoff's public functions, by
# module. tradeoff's b is an acceptance vector, and is_optimal_residual's
# candidate is what that predicate judges, so neither is read as a
# distribution.
DISTRIBUTION_PARAMETERS = {
    "dist.py": {"a", "b", "p", "q", "q_m"},
    "tradeoff.py": {"p", "q", "residual"},
}


def _module_functions(name: str) -> dict[str, ast.FunctionDef]:
    tree = ast.parse((PACKAGE / name).read_text(encoding="utf-8"))
    return {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}


def _unread_arguments(function: ast.FunctionDef, params: set, readers: set) -> list:
    """Uses of ``params`` in ``function`` other than as direct arguments of calls to ``readers``."""
    passed = {
        id(arg)
        for node in ast.walk(function)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
        and node.func.id in readers
        for arg in node.args
    }
    return [
        f"{function.name}:{node.lineno} {node.id}"
        for node in ast.walk(function)
        if isinstance(node, ast.Name) and node.id in params and id(node) not in passed
    ]


def test_one_distribution_reader():
    # dist's and tradeoff's public functions read p, q and residual arguments
    # only through dist._dist_vector: directly, through _vector_pair, which
    # reads both of its vectors by it, or by handing them unread to another
    # such function.
    functions = {name: _module_functions(name) for name in DISTRIBUTION_PARAMETERS}
    pair_reader = functions["dist.py"]["_vector_pair"]
    assert _unread_arguments(pair_reader, {"a", "b"}, {"_dist_vector"}) == []
    public = {name for module in functions.values() for name in module if not name.startswith("_")}
    readers = {"_dist_vector", "_vector_pair"} | public
    checked, unread = set(), []
    for module, params in DISTRIBUTION_PARAMETERS.items():
        for name, function in functions[module].items():
            taken = {arg.arg for arg in function.args.args} & params
            if name.startswith("_") or not taken:
                continue
            checked.add(name)
            unread += _unread_arguments(function, taken, readers)
    assert unread == []
    assert checked >= {
        "tv_distance", "residual_plus", "rejection_iterate", "epsilon_acceptance",
        "rejection_probability", "loss_tv_star", "optimal_residual", "is_optimal_residual",
        "induced_output_distribution", "pareto_front", "tradeoff_identity_gap",
    }


def test_one_sd_record():
    # A Markov pair's whole closed-form record (the tv table, SD's total and
    # the deepest root level) is one ModelPair slot that exact.py alone reads
    # and writes; models.py only declares the slot. The samplers and the
    # oracle never name it, so the three routes stay independent.
    found = [
        str(path)
        for path, node in source_nodes()
        if (isinstance(node, ast.Attribute) and node.attr == "_sd_record")
        or (isinstance(node, ast.Constant) and node.value == "_sd_record")
    ]
    assert "exact.py" in found
    assert set(found) == {"exact.py", "models.py"}
    assert found.count("models.py") == 1
    assert not set(found) & {"enumeration.py", "decoding.py", "montecarlo.py"}
    assert specdec.ModelPair.__slots__ == ("_p", "_q", "_sd_record")
    # exact.py gives the pair no other attribute: every attribute it assigns
    # on a pair is the record.
    assigned = {
        target.attr
        for path, node in source_nodes()
        if path == Path("exact.py") and isinstance(node, ast.Assign)
        for target in node.targets
        if isinstance(target, ast.Attribute)
        and isinstance(target.value, ast.Name)
        and target.value.id == "pair"
    }
    assert assigned == {"_sd_record"}


def test_one_marginal_recursion():
    # The target laws mu_n come from MarkovModel.marginals alone. The other
    # matrix products are exact.py's root-law recursion g, two products, and
    # montecarlo's flat trajectory index.
    found = Counter(
        str(path)
        for path, node in source_nodes()
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.MatMult)
    )
    assert found == {"models.py": 1, "exact.py": 2, "montecarlo.py": 1}
    calls = {
        node.func.attr
        for path, node in source_nodes()
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
    }
    assert not calls & {"dot", "matmul", "einsum", "tensordot", "vdot", "inner"}


def test_one_engine_path():
    # The lockstep engine is built at one site, in the block loop, so a
    # one-size decode and a scan's shared block of several sizes run the
    # same engine code.
    found = [
        f"{path}:{node.lineno}"
        for path, node in source_nodes()
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "_Lockstep"
    ]
    assert len(found) == 1 and found[0].startswith("decoding.py:")


def test_campaigns_only_fold_blocks():
    # decoding._run_blocks alone chooses a run's route, its block size and its
    # stream, so montecarlo imports no decoder, stream splitter or block
    # constant, and nothing else builds an engine or a scalar-loop block.
    nodes = [node for path, node in source_nodes() if path == Path("montecarlo.py")]
    imported = {
        (node.module, alias.name)
        for node in nodes
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    assert {name for module, name in imported if module == "decoding"} == {
        "Policy", "_run_args", "_run_blocks"}
    assert not [
        name for _, name in imported
        if "decode" in name or name.startswith("split_") or name == "BLOCK_RUNS"
    ]
    assert not {part for node in nodes for name in _imported_modules(node)
                for part in name.split(".")} & {"rng"}
    builders = {"_decoded_block", "_scalar_block"}
    loop = _module_functions("decoding.py")["_run_blocks"]
    inside = [
        node.id for node in ast.walk(loop) if isinstance(node, ast.Name) and node.id in builders
    ]
    everywhere = [
        f"{path}:{node.lineno}" for path, node in source_nodes()
        if isinstance(node, ast.Name) and node.id in builders
    ]
    assert sorted(set(inside)) == sorted(builders)
    assert len(everywhere) == len(inside)


def test_one_history_layout():
    # A FullModel is the chain over histories: T level stacks in history-code
    # order, a layout models.py alone knows. The oracle, the history closed
    # form and the policies read its rows, and a chain's, through
    # models._level_rows, a whole level or frontier at once, never history by
    # history through step; no module enumerates histories with itertools.
    nodes = list(source_nodes())
    slot = {
        str(path)
        for path, node in nodes
        if (isinstance(node, ast.Attribute) and node.attr == "_levels")
        or (isinstance(node, ast.Constant) and node.value == "_levels")
    }
    assert slot == {"models.py"}
    for module in ("enumeration.py", "exact.py", "policies.py"):
        names = {node.id for path, node in nodes if path == Path(module) and isinstance(node, ast.Name)}
        calls = {
            node.func.attr
            for path, node in nodes
            if path == Path(module)
            and isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
        }
        assert "_level_rows" in names, module
        assert not calls & {"step", "step_cumsum"}, module
    importers = {str(path) for path, node in nodes if "itertools" in _imported_modules(node)}
    assert importers <= {"models.py"}


def test_one_model_core():
    # MarkovModel and FullModel extend one chain core, models._Chain, the one
    # holder of the prompt, the level stacks and the history-to-row rule:
    # neither model defines a read or a shared property of its own, and
    # _level_rows reads either model's rows without a type test.
    tree = ast.parse((PACKAGE / "models.py").read_text(encoding="utf-8"))
    classes = {node.name: node for node in tree.body if isinstance(node, ast.ClassDef)}

    def defined(name: str) -> set:
        names = set()
        for item in classes[name].body:
            if isinstance(item, ast.FunctionDef):
                names.add(item.name)
            elif isinstance(item, ast.Assign):
                names.update(target.id for target in item.targets if isinstance(target, ast.Name))
        return names

    shared = {"step", "step_cumsum", "prompt", "vocab_size", "horizon", "prompt_cumsum"}
    assert shared <= defined("_Chain")
    for name in ("MarkovModel", "FullModel"):
        assert [base.id for base in classes[name].bases] == ["_Chain"], name
        assert not defined(name) & shared, name
    level_rows = _module_functions("models.py")["_level_rows"]
    names = {node.id for node in ast.walk(level_rows) if isinstance(node, ast.Name)}
    assert "isinstance" not in names


def test_one_response_pass():
    # An opening run that rejects response 0 tests its responses 1, ...,
    # M_i - 1 in one pass over a (response, run) grid, masked by its own
    # batch size: _Lockstep._respond has no loop, and the engine keeps no
    # cut points of the rows by size.
    tree = ast.parse((PACKAGE / "decoding.py").read_text(encoding="utf-8"))
    lockstep = next(
        node for node in tree.body if isinstance(node, ast.ClassDef) and node.name == "_Lockstep")
    methods = {node.name: node for node in lockstep.body if isinstance(node, ast.FunctionDef)}
    loops = (ast.For, ast.While, ast.comprehension)
    assert not [node.lineno for node in ast.walk(methods["_respond"]) if isinstance(node, loops)]
    attributes = {node.attr for node in ast.walk(lockstep) if isinstance(node, ast.Attribute)}
    assert "ends" not in attributes


def test_one_error_path():
    # The scalar loop is the one place a sampler error is raised: only
    # _decode builds a ZeroResidual or the error for a draft outside p's
    # support. The engine marks the runs that fail and raises nothing but its
    # window guard; _decoded_block decodes a marked run again on the scalar
    # loop, so the block loop neither retries a block nor reorders its sizes.
    tree = ast.parse((PACKAGE / "decoding.py").read_text(encoding="utf-8"))
    functions = [node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)]
    builders = {
        function.name
        for function in functions
        for call in ast.walk(function)
        if isinstance(call, ast.Call)
        and (
            (isinstance(call.func, ast.Name) and call.func.id == "ZeroResidual")
            or any(isinstance(part, ast.Constant) and "outside p's support" in str(part.value)
                   for part in ast.walk(call))
        )
    }
    assert builders == {"_decode"}
    lockstep = next(
        node for node in tree.body if isinstance(node, ast.ClassDef) and node.name == "_Lockstep")
    raised = [ast.unparse(node.exc) for node in ast.walk(lockstep) if isinstance(node, ast.Raise)]
    assert raised and all(text.startswith("_overrun(") for text in raised)
    gone = {"_check_responses", "_raise_off_support"}
    assert not [
        f"{path}:{node.lineno}"
        for path, node in source_nodes()
        if (isinstance(node, ast.Name) and node.id in gone)
        or (isinstance(node, ast.Attribute) and node.attr in gone)
        or (isinstance(node, ast.FunctionDef) and node.name in gone)
    ]
    loop = _module_functions("decoding.py")["_run_blocks"]
    assert not [node for node in ast.walk(loop) if isinstance(node, ast.Try)]
    calls = {
        node.func.id if isinstance(node.func, ast.Name) else getattr(node.func, "attr", None)
        for node in ast.walk(loop)
        if isinstance(node, ast.Call)
    }
    assert not calls & {"sorted", "sort", "argsort"}


def test_routes_ignore_the_models_type():
    # The engine reads any pair's level rows, so a run's route depends on its
    # algorithm, its policy's tables and the table budget, never on which
    # kind of model the pair holds: decoding never names _is_markov_pair.
    # Every policy factory returns Policy.from_tables, so _rows_policy keeps
    # no callbacks of its own.
    names = {
        node.id if isinstance(node, ast.Name) else node.attr if isinstance(node, ast.Attribute)
        else node.name
        for path, node in source_nodes()
        if path == Path("decoding.py") and isinstance(node, (ast.Name, ast.Attribute, ast.alias))
    }
    assert "_is_markov_pair" not in names
    rows_policy = _module_functions("policies.py")["_rows_policy"]
    nested = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
    assert not [node.lineno for node in ast.walk(rows_policy)
                if isinstance(node, nested) and node is not rows_policy]
