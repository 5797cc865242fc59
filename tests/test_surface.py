"""Dead-surface guard: every top-level function or class in the package is
used somewhere in the package outside its own definition, or is a listed
public test oracle; every public method of a public class, and every private
method of any class, is read as an attribute somewhere in the package; and
every keyword parameter with a default is set by some package call, or is a
listed test seam. Every settings key has exactly one check-table entry."""

import ast
import inspect
import pathlib
import textwrap
from dataclasses import fields

from stabletrade import bandit_envs, cli, market_sim, rl_agents, ts_agents

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "stabletrade"

# reference implementations that only tests and diagnostics call
ORACLES = (
    "pdf",
    "cdf",
    "mh_location_kernel",
    "replay_information",
    "gradient_check",
    "kink_distance",
    "tail_order_check",
)

# keyword parameters that only tests set, as function.parameter (a class for
# its __init__): the oracles' tolerances and probes, the density table's
# grid, and the command line
SEAMS = (
    "gradient_check.h",
    "gradient_check.rng",
    "pdf.tol",
    "tail_order_check.top_frac",
    "tail_order_check.band",
    "replay_information.b0",
    "PdfTable.span",
    "PdfTable.n",
    "main.argv",
)


def _uses(node):
    """Names a subtree reads, by bare name or as an attribute."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr


def unreferenced_names(src=SRC):
    """(module, name) of each top-level def or class no other code uses."""
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(src.glob("*.py"))}
    defined = []
    used = set()
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.append((module, node))
                # uses inside a definition count for every name but its own
                used.update((n, node.name) for n in _uses(node))
            else:
                used.update((n, None) for n in _uses(node))
    return [(module, node.name) for module, node in defined
            if not any(n == node.name and owner != node.name for n, owner in used)]


def unread_methods(src=SRC):
    """(module, class, method) of each method whose name no package code reads
    as an attribute; special methods, which the language calls, are left out."""
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(src.glob("*.py"))}
    attrs = {sub.attr for tree in trees.values() for sub in ast.walk(tree)
             if isinstance(sub, ast.Attribute)}
    return [(module, cls.name, fn.name)
            for module, tree in trees.items()
            for cls in tree.body
            if isinstance(cls, ast.ClassDef)
            for fn in cls.body
            if isinstance(fn, ast.FunctionDef) and not fn.name.startswith("__")
            and fn.name not in attrs]


def _callee(call):
    f = call.func
    return f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)


def unset_defaults(src=SRC):
    """function.parameter of each parameter with a default that no package
    call sets, by keyword or by position, matching callees by bare name; a
    call that splats ** may set any keyword, and a **kw parameter, which
    forwards keywords unseen, is always reported. An __init__ goes by the
    names of its class and the class's subclasses."""
    trees = [ast.parse(path.read_text()) for path in sorted(src.glob("*.py"))]
    keywords, positions, splats, bases = {}, {}, set(), {}
    for node in (n for tree in trees for n in ast.walk(tree)):
        if isinstance(node, ast.ClassDef):
            for base in node.bases:
                if isinstance(base, ast.Name):
                    bases.setdefault(base.id, []).append(node.name)
        if not isinstance(node, ast.Call) or _callee(node) is None:
            continue
        name = _callee(node)
        keywords.setdefault(name, set()).update(k.arg for k in node.keywords)
        if None in keywords[name]:
            splats.add(name)
        n = (float("inf") if any(isinstance(a, ast.Starred) for a in node.args)
             else len(node.args))
        positions[name] = max(positions.get(name, 0), n)

    def callers(cls):
        return [cls] + [c for sub in bases.get(cls, ()) for c in callers(sub)]

    found = []
    for tree in trees:
        owners = {fn: node.name for node in ast.walk(tree) if isinstance(node, ast.ClassDef)
                  for fn in node.body if isinstance(fn, ast.FunctionDef)}
        for fn in (n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef)):
            label = owners[fn] if fn.name == "__init__" else fn.name
            names = callers(label) if fn.name == "__init__" else [fn.name]
            args = fn.args.posonlyargs + fn.args.args
            skip = 1 if fn in owners and args and args[0].arg in ("self", "cls") else 0
            params = [(arg, args.index(arg) - skip)
                      for arg in args[len(args) - len(fn.args.defaults):]]
            params += [(arg, None) for arg, d in zip(fn.args.kwonlyargs, fn.args.kw_defaults)
                       if d is not None]
            for arg, pos in params:
                if not any(n in splats or arg.arg in keywords.get(n, ())
                           or (pos is not None and positions.get(n, 0) > pos)
                           for n in names):
                    found.append(f"{label}.{arg.arg}")
            if fn.args.kwarg is not None:
                found.append(f"{label}.**{fn.args.kwarg.arg}")
    return found


def test_every_public_name_has_a_caller_or_is_an_oracle():
    dead = [f"{module}.{name}" for module, name in unreferenced_names()
            if not name.startswith("_") and name not in ORACLES]
    assert dead == []


def test_every_oracle_still_exists():
    names = {name for path in SRC.glob("*.py")
             for name in (node.name for node in ast.parse(path.read_text()).body
                          if isinstance(node, (ast.FunctionDef, ast.ClassDef)))}
    assert set(ORACLES) <= names


def test_every_public_method_is_read_somewhere():
    dead = [f"{module}.{cls}.{name}" for module, cls, name in unread_methods()
            if not cls.startswith("_") and not name.startswith("_")]
    assert dead == []


def test_every_private_name_and_method_is_read_somewhere():
    dead = ([f"{module}.{name}" for module, name in unreferenced_names()
             if name.startswith("_")]
            + [f"{module}.{cls}.{name}" for module, cls, name in unread_methods()
               if name.startswith("_")])
    assert dead == []


def test_every_keyword_default_is_set_by_a_caller_or_is_a_seam():
    assert [knob for knob in unset_defaults() if knob not in SEAMS] == []


def test_every_seam_is_still_an_unset_default():
    assert sorted(set(SEAMS) - set(unset_defaults())) == []


def _reads_params(node):
    return ((isinstance(node, ast.Name) and node.id == "params")
            or (isinstance(node, ast.Attribute) and node.attr == "params"))


def params_read(fn):
    """The keys a parser reads from its config's params, by subscript, by
    .get or by an ``in`` test."""
    keys = set()
    for node in ast.walk(ast.parse(textwrap.dedent(inspect.getsource(fn)))):
        if isinstance(node, ast.Subscript) and _reads_params(node.value):
            keys.add(node.slice.value)
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
              and node.func.attr == "get" and _reads_params(node.func.value)):
            keys.add(node.args[0].value)
        elif (isinstance(node, ast.Compare) and isinstance(node.ops[0], ast.In)
              and _reads_params(node.comparators[0])):
            keys.add(node.left.value)
    return keys


def test_every_settings_field_has_one_check_table_entry():
    for cls, table in ((rl_agents.TrainConfig, rl_agents._TRAIN_CHECKS),
                       (rl_agents.BacktestConfig, rl_agents._BACKTEST_CHECKS),
                       (ts_agents.AgentConfig, ts_agents._AGENT_CHECKS),
                       (bandit_envs.EnvSpec, bandit_envs._ENV_CHECKS),
                       (bandit_envs.MdpTables, bandit_envs._MDP_CHECKS),
                       (cli.ExperimentConfig, cli._CONFIG_CHECKS)):
        assert sorted(f.name for f in fields(cls)) == sorted(table), cls.__name__
    market = inspect.signature(market_sim.synth_market).parameters
    assert sorted(market) == sorted(cli._MARKET_CHECKS)


def test_every_params_key_of_each_kind_has_one_check_table_entry():
    for kind, (parse, _, table) in cli._KINDS.items():
        assert sorted(params_read(parse)) == sorted(table), kind


def test_every_env_key_is_checked_and_read_by_some_kind():
    read = set().union(*bandit_envs._ENV_READS.values())
    assert read <= set(bandit_envs._ENV_CHECKS)
    assert sorted(set(bandit_envs._ENV_CHECKS) - read) == ["kind"]


def test_every_agent_key_is_checked_and_read_by_some_algorithm():
    read = set().union(*ts_agents._READS.values())
    assert read <= set(ts_agents._AGENT_CHECKS)
    assert sorted(set(ts_agents._AGENT_CHECKS) - read) == ["algorithm"]
