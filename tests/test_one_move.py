"""A form is moved to a point in one place, the dimension limit is checked in
three, a move's other limits in one, an integer parameter is refused in
one, a common denominator is taken and bounded in one, a rational vector
is scaled to integers in one, a support is translated in one, a form row,
a text number and a CLI point each have one reader, rows become a form in
one place, a caller's number becomes a Fraction in one place, the CLI
reads its shared flags in one place, equality of a value is derived, not
written, and no module imports a name it does not use.

`forms.frame_moving_to_origin` refuses a point of more than MAX_DIM
coordinates before it builds anything, and so does `cli._read_point`, the
CLI's one reader of a projective --point, before it reads a coordinate;
`forms.move_to_origin` is the one composition
act(frame_moving_to_origin(p), f).  `forms.check_move` alone reads
MAX_MOVED_TERMS and MAX_SHIFT_WORK, and it and
`_linalg.common_denominator` alone read MAX_DEN_BITS, so `act` and
`worst_frame_search` refuse a move by one function.  "must be an integer"
is raised only by `forms.check_ints` and by the two readers of N whose
messages name 'auto', `classifier._resolve_n` and `cli._parse_n`.
`_linalg.common_denominator` is the one lcm, and it stops at
MAX_DEN_BITS: `_linalg.scaled` multiplies a rational vector by it, and
`HomogeneousForm._from_rows`, the one builder of a form from outside rows,
scales the rows by it, so form rows, points, band points and projection
targets share one limit on their common denominator.
`statepoly.torus_index` takes a form and nothing else, so a support is
translated only by `forms.destabilize`, which the library calls from
`classifier.classify_at_origin` and `cli._cmd_destab` alone: the band of a
classification is read from torus_index(destabilize(f, N)).
`forms._read_rows` is the one reader of payload rows, and the only
compiled patterns are the header and the rational coefficient, so a
whole-row pattern cannot come back beside them; `forms` is the one module
that imports `re`.  Only `forms._read_rational` matches `_RATIONAL`, so
coefficients, coordinates and the CLI's integer options read a number by
one grammar, and only `_linalg.exact` turns a caller's number into a
Fraction, taking ints and Fractions alone, so no string reaches
Fraction()'s wider grammar.  The invariants of a form are checked where
outside input enters, by `HomogeneousForm._from_ints` from `_from_rows`,
which `parse_form` and the public constructor share; forms the library
computes, the corpus included, are valid by construction, so no module
calls that constructor.  `_linalg.shown` is the one writer of a value
into a message: no message writes a value by `!r:.40` or
`_quote(str(...))`, no module guesses str(int)'s digit limit as 4300,
and only `shown` and `serialize.written`, which refuses a whole answer,
read the live limit.  `cli._answer` is the one caller of `_parse_n` and
`_read_form`, so every command reads --N and then --input in the same
order, after argparse.  No class writes its own __eq__ or
__hash__: `ProjPoint` compares its primitive as a dataclass field.  A
caller that repeats any of these would be a second place to keep in step
with the first.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "hypermult"


def _name(func: ast.expr) -> str:
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return ""


def _modules():
    """(module, syntax tree) for every module of the library."""
    return [
        (path.stem, ast.parse(path.read_text(encoding="utf-8")))
        for path in sorted(SRC.glob("*.py"))
    ]


def _nodes():
    """(module, enclosing function, node) for every node in the library."""
    found = []

    def visit(node, module, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, module, child.name)
                continue
            found.append((module, where, child))
            visit(child, module, where)

    for module, tree in _modules():
        visit(tree, module, None)
    assert found, "no nodes seen: the source path is wrong"
    return found


def _calls():
    """(module, enclosing function, call) for every call in the library."""
    return [(module, where, call) for module, where, call in _nodes() if isinstance(call, ast.Call)]


def _readers(name):
    """(module, enclosing function) of every read of the name in the library."""
    return {
        (module, where)
        for module, where, node in _nodes()
        if isinstance(node, ast.Name) and node.id == name and isinstance(node.ctx, ast.Load)
    }


def test_only_check_move_reads_the_term_and_step_limits():
    assert _readers("MAX_MOVED_TERMS") == {("forms", "check_move")}
    assert _readers("MAX_SHIFT_WORK") == {("forms", "check_move")}


def test_only_check_move_and_the_common_denominator_read_the_bit_limit():
    assert _readers("MAX_DEN_BITS") == {
        ("forms", "check_move"), ("_linalg", "common_denominator")
    }


def test_only_check_ints_and_the_two_readers_of_n_refuse_a_non_integer():
    sites = {
        (module, where)
        for module, where, node in _nodes()
        if isinstance(node, ast.Raise)
        for part in ast.walk(node)
        if isinstance(part, ast.Constant) and "must be an integer" in str(part.value)
    }
    assert sites == {("forms", "check_ints"), ("classifier", "_resolve_n"), ("cli", "_parse_n")}


def test_every_module_uses_each_name_it_imports():
    # a name kept only to be imported from elsewhere belongs in __init__.py
    unused = []
    for module, tree in _modules():
        if module == "__init__":
            continue
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    if name not in used:
                        unused.append((module, name))
    assert unused == []


def test_only_the_mover_and_the_projection_check_the_dimension():
    sites = {(module, where) for module, where, call in _calls() if _name(call.func) == "check_dim"}
    assert sites == {
        ("forms", "frame_moving_to_origin"), ("statepoly", "nearest_point"), ("cli", "_read_point")
    }


def test_only_move_to_origin_applies_the_mover():
    sites = {
        (module, where)
        for module, where, call in _calls()
        if _name(call.func) == "act"
        and any(isinstance(a, ast.Call) and _name(a.func) == "frame_moving_to_origin"
                for a in call.args)
    }
    assert sites == {("forms", "move_to_origin")}


def test_only_the_common_denominator_takes_an_lcm():
    sites = {(module, where) for module, where, call in _calls() if _name(call.func) == "lcm"}
    assert sites == {("_linalg", "common_denominator")}


def test_only_the_header_and_the_rational_are_compiled_patterns():
    built = [
        (module, target.id)
        for module, tree in _modules()
        for node in ast.walk(tree)
        if isinstance(node, ast.Assign) and isinstance(node.value, ast.Call)
        and _name(node.value.func) == "compile"
        for target in node.targets
    ]
    calls = [call for _, _, call in _calls() if _name(call.func) == "compile"]
    assert built == [("forms", "_HEADER"), ("forms", "_RATIONAL")] and len(calls) == 2


def test_only_read_rational_matches_a_text_number():
    sites = {
        (module, where)
        for module, where, call in _calls()
        if isinstance(call.func, ast.Attribute) and call.func.attr == "fullmatch"
        and _name(call.func.value) == "_RATIONAL"
    }
    namers = {
        module
        for module, tree in _modules()
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and node.id == "_RATIONAL"
        or isinstance(node, ast.alias) and node.name == "_RATIONAL"
    }
    assert sites == {("forms", "_read_rational")} and namers == {"forms"}


def test_only_exact_converts_one_number_to_a_fraction():
    sites = {
        (module, where)
        for module, where, call in _calls()
        if _name(call.func) == "Fraction"
        and len(call.args) + len(call.keywords) == 1
        and not isinstance(call.args[0] if call.args else None, ast.Starred)
    }
    assert sites == {("_linalg", "exact")}


def test_torus_index_takes_a_form_and_nothing_else():
    (args,) = [
        node.args
        for module, tree in _modules()
        if module == "statepoly"
        for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef) and node.name == "torus_index"
    ]
    params = args.posonlyargs + args.args + args.kwonlyargs
    assert [a.arg for a in params] == ["f"] and args.vararg is None and args.kwarg is None


def test_only_classify_and_the_destab_command_translate_a_support():
    sites = {(module, where) for module, where, call in _calls() if _name(call.func) == "destabilize"}
    assert sites == {("classifier", "classify_at_origin"), ("cli", "_cmd_destab")}


def test_only_outside_input_checks_a_form():
    sites = {(module, where) for module, where, call in _calls() if _name(call.func) == "_from_ints"}
    assert sites == {("forms", "_from_rows")}


def test_no_module_calls_the_checking_constructor():
    sites = {(module, where) for module, where, call in _calls() if _name(call.func) == "HomogeneousForm"}
    assert sites == set()


def test_only_answer_reads_n_and_the_form_file():
    sites = {
        (module, where, _name(call.func))
        for module, where, call in _calls()
        if _name(call.func) in ("_parse_n", "_read_form")
    }
    assert sites == {("cli", "_answer", "_parse_n"), ("cli", "_answer", "_read_form")}


def test_only_forms_imports_re():
    importers = {
        module
        for module, tree in _modules()
        for node in ast.walk(tree)
        if isinstance(node, ast.Import) and any(alias.name == "re" for alias in node.names)
        or isinstance(node, ast.ImportFrom) and node.module == "re"
    }
    assert importers == {"forms"}


def test_no_class_writes_its_own_equality_or_hash():
    written = [
        (module, node.name, item.name)
        for module, tree in _modules()
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef)
        for item in node.body
        if isinstance(item, ast.FunctionDef) and item.name in ("__eq__", "__hash__")
    ]
    assert written == []


def test_only_shown_writes_a_value_into_a_message():
    truncated_reprs = [
        (module, where)
        for module, where, node in _nodes()
        if isinstance(node, ast.FormattedValue) and node.conversion == ord("r")
        and node.format_spec is not None and ".40" in ast.unparse(node.format_spec)
    ]
    quoted_strs = [
        (module, where)
        for module, where, call in _calls()
        if _name(call.func) == "_quote"
        and any(isinstance(a, ast.Call) and _name(a.func) == "str" for a in call.args)
    ]
    guessed_limits = [
        (module, where)
        for module, where, node in _nodes()
        if isinstance(node, ast.Constant) and (node.value == 4300 or "4300" in str(node.value))
    ]
    readers = {
        (module, where)
        for module, where, call in _calls()
        if _name(call.func) == "get_int_max_str_digits"
    }
    assert (truncated_reprs, quoted_strs, guessed_limits) == ([], [], [])
    assert readers == {("_linalg", "shown"), ("serialize", "written")}
