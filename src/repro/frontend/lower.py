"""``ast`` → TAC lowering for the PyLite subset.

PyLite is restricted-but-real Python: the accepted surface is ints, bools,
strings, ``None``, lists, dicts, ``if``/``while``/``for .. in range(...)``,
top-level functions, single-target assignment (names and subscripts),
``assert``/``raise``/``break``/``continue``/``return``, short-circuit
``and``/``or``, single comparisons (including ``in``/``not in``), the
builtins ``len``/``ord``/``chr``/``print``, the ``lst.append(x)`` method,
and the symbolic intrinsics ``sym_string``/``sym_int``/``make_symbolic``.
Anything outside the subset raises :class:`PyLiteSyntaxError` with the
offending source line, never silently mis-compiling.

Scoping follows CPython: module-level names are globals; inside a function
every name assigned anywhere in its body is a local (reads before binding
raise ``UnboundLocalError`` via CHK), and everything else resolves through
the global cells (``NameError`` when unbound).  The lowering tracks the
names bound on every path, so a read that only ever follows a binding
carries no check.  ``for`` loops keep the
CPython contract that the loop variable is only bound when the body runs —
the induction counter is a hidden temp, copied into the variable at the
top of each iteration.
"""

from __future__ import annotations

import ast
from typing import Dict, List, Optional, Set, Tuple

from repro.errors import ReproError
from repro.frontend import tac
from repro.frontend.tac import EXC_IDS, STMT_KINDS, TacFunction, TacInstr, TacModule

#: builtins callable from PyLite source (mapped 1:1 onto runtime helpers).
BUILTIN_ARITY = {
    "len": (1, 1),
    "ord": (1, 1),
    "chr": (1, 1),
    "print": (1, 1),
    "sym_string": (1, 1),
    "sym_int": (1, 3),
    "make_symbolic": (1, 1),
}

_CMP_OPS = {
    ast.Eq: "eq", ast.NotEq: "ne", ast.Lt: "lt", ast.LtE: "le",
    ast.Gt: "gt", ast.GtE: "ge",
}

_BIN_OPS = {
    ast.Add: "add", ast.Sub: "sub", ast.Mult: "mul",
    ast.FloorDiv: "floordiv", ast.Mod: "mod",
}

_UN_OPS = {ast.USub: "neg", ast.Not: "not"}


class PyLiteSyntaxError(ReproError):
    """Source uses a construct outside the PyLite subset."""

    def __init__(self, message: str, node: Optional[ast.AST] = None):
        line = getattr(node, "lineno", None)
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


def _fail(message: str, node: Optional[ast.AST] = None) -> None:
    raise PyLiteSyntaxError(message, node)


def _assigned_names(stmts: List[ast.stmt]) -> List[str]:
    """Names bound by assignment/for in ``stmts``, first-binding order.

    Breadth-first over statements, as ``ast.walk`` visits them: every
    statement of one nesting level before any of the next.  Only ``if``,
    ``while`` and ``for`` nest statements in PyLite, and no expression
    holds one, so the expressions need no walk.
    """
    seen: Dict[str, None] = {}
    level = stmts
    while level:
        nested: List[ast.stmt] = []
        for node in level:
            kind = type(node)
            if kind is ast.Assign:
                targets = node.targets
            elif kind is ast.AugAssign or kind is ast.For:
                targets = [node.target]
            else:
                targets = ()
            for target in targets:
                if type(target) is ast.Name:
                    seen.setdefault(target.id)
            if kind is ast.If or kind is ast.While or kind is ast.For:
                nested += node.body
                nested += node.orelse
        level = nested
    return list(seen)


def _meet(a: Optional[Set[str]], b: Optional[Set[str]]) -> Optional[Set[str]]:
    """Names bound where two paths join (None: that path cannot reach)."""
    return b if a is None else a if b is None else a & b


class _Lowerer:
    """Lowers one function body (or the module body) to TAC."""

    def __init__(
        self,
        name: str,
        params: List[str],
        body: List[ast.stmt],
        functions: Dict[str, List[str]],
        global_names: List[str],
        is_main: bool,
    ):
        self.name = name
        self.params = params
        self.functions = functions
        self.global_names = global_names
        self.is_main = is_main
        self.body = body
        self.instrs: List[TacInstr] = []
        self._next_temp = 0
        self.local_slots: Dict[str, int] = {}
        #: names bound on every path to the current instruction (locals in
        #: a function, globals in main); None where control cannot reach.
        self._bound: Optional[Set[str]] = set(params)
        self._line = 0
        #: (continue target label, break target label) stack.
        self._loops: List[Tuple[object, object]] = []
        self._labels: Dict[int, Optional[int]] = {}
        self._next_label = 0
        self.coverable: Set[int] = set()
        if not is_main:
            for param in params:
                self.local_slots[param] = self._temp()
            for local in _assigned_names(body):
                if local not in self.local_slots:
                    self.local_slots[local] = self._temp()

    # -- plumbing -------------------------------------------------------------

    def _temp(self) -> int:
        index = self._next_temp
        self._next_temp += 1
        return index

    def _label(self) -> int:
        label = self._next_label
        self._next_label += 1
        self._labels[label] = None
        return label

    def _place(self, label: int) -> None:
        assert self._labels[label] is None, "label placed twice"
        self._labels[label] = len(self.instrs)

    def _emit(self, op, dst=None, a=None, b=None, extra=None, args=None) -> None:
        self.instrs.append(TacInstr(op, dst, a, b, extra, args, self._line))

    def _mark(self, node: ast.stmt, kind: str) -> None:
        self._line = node.lineno
        self.coverable.add(node.lineno)
        self._emit(tac.LINE, a=node.lineno, b=STMT_KINDS[kind])

    # -- names ----------------------------------------------------------------

    def _load_name(self, node: ast.Name) -> int:
        name = node.id
        bound = self._bound is None or name in self._bound
        if not self.is_main and name in self.local_slots:
            slot = self.local_slots[name]
            if not bound:
                self._emit(tac.CHK, a=slot, extra=name)
            return slot
        if name in self.functions:
            _fail(f"function {name!r} used as a value", node)
        if name in BUILTIN_ARITY or name in EXC_IDS or name == "range":
            _fail(f"{name!r} may only be called", node)
        if name not in self.global_names:
            self.global_names.append(name)
        dst = self._temp()
        # Only main's stores reach ``_bound``: a function may run before
        # main binds the global, so its reads keep the NameError check.
        self._emit(tac.GLOAD, dst=dst, b=int(self.is_main and bound),
                   extra=name)
        return dst

    def _store_name(self, name: str, value: int, node: ast.AST) -> None:
        if name in self.functions or name in BUILTIN_ARITY or name == "range":
            _fail(f"cannot assign to {name!r}", node)
        # Bound from here on along this path; _if and the loops merge
        # the paths where control joins.
        if self._bound is not None:
            self._bound.add(name)
        if not self.is_main and name in self.local_slots:
            self._emit(tac.MOVE, dst=self.local_slots[name], a=value)
            return
        if name not in self.global_names:
            self.global_names.append(name)
        self._emit(tac.GSTORE, a=value, extra=name)

    # -- expressions ----------------------------------------------------------

    def _expr(self, node: ast.expr) -> int:
        lower = _EXPR.get(type(node))
        if lower is None:
            _fail(f"{type(node).__name__} expressions are outside PyLite", node)
        return lower(self, node)

    def _binop(self, node: ast.BinOp) -> int:
        if isinstance(node.op, ast.Div):
            _fail("true division '/' is outside PyLite; use '//'", node)
        op = _BIN_OPS.get(type(node.op))
        if op is None:
            _fail(f"operator {type(node.op).__name__} is outside PyLite", node)
        a = self._expr(node.left)
        b = self._expr(node.right)
        dst = self._temp()
        self._emit(tac.BIN, dst, a, b, op)
        return dst

    def _unaryop(self, node: ast.UnaryOp) -> int:
        op = _UN_OPS.get(type(node.op))
        if op is None:
            _fail(f"unary {type(node.op).__name__} is outside PyLite", node)
        a = self._expr(node.operand)
        dst = self._temp()
        self._emit(tac.UN, dst, a, None, op)
        return dst

    def _subscript(self, node: ast.Subscript) -> int:
        obj = self._expr(node.value)
        idx = self._expr(node.slice)
        dst = self._temp()
        self._emit(tac.INDEX, dst, obj, idx)
        return dst

    def _list(self, node: ast.List) -> int:
        elems = [self._expr(elt) for elt in node.elts]
        dst = self._temp()
        self._emit(tac.LIST, dst, args=elems)
        return dst

    def _dict(self, node: ast.Dict) -> int:
        args: List[int] = []
        for key, value in zip(node.keys, node.values):
            if key is None:
                _fail("dict unpacking is outside PyLite", node)
            args.append(self._expr(key))
            args.append(self._expr(value))
        dst = self._temp()
        self._emit(tac.DICT, dst, args=args)
        return dst

    def _constant(self, node: ast.Constant) -> int:
        value = node.value
        dst = self._temp()
        if value is None:
            self._emit(tac.NONE, dst=dst)
        elif isinstance(value, bool):
            self._emit(tac.CONST, dst=dst, a=int(value))
        elif isinstance(value, int):
            self._emit(tac.CONST, dst=dst, a=value)
        elif isinstance(value, str):
            self._emit(tac.STR, dst=dst, extra=value)
        else:
            _fail(f"{type(value).__name__} literals are outside PyLite", node)
        return dst

    def _boolop(self, node: ast.BoolOp) -> int:
        """Short-circuit with CPython value semantics (result is an operand)."""
        result = self._temp()
        done = self._label()
        last = len(node.values) - 1
        for i, operand in enumerate(node.values):
            value = self._expr(operand)
            self._emit(tac.MOVE, dst=result, a=value)
            if i == last:
                break
            keep_going = self._label()
            if isinstance(node.op, ast.And):
                self._emit(tac.CJMP, a=result, b=keep_going, extra=done)
            else:
                self._emit(tac.CJMP, a=result, b=done, extra=keep_going)
            self._place(keep_going)
        self._place(done)
        return result

    def _compare(self, node: ast.Compare) -> int:
        if len(node.ops) != 1:
            _fail("chained comparisons are outside PyLite", node)
        op = node.ops[0]
        left = self._expr(node.left)
        right = self._expr(node.comparators[0])
        dst = self._temp()
        if isinstance(op, (ast.In, ast.NotIn)):
            self._emit(tac.BUILTIN, dst=dst, extra="contains", args=[right, left])
            if isinstance(op, ast.NotIn):
                inverted = self._temp()
                self._emit(tac.UN, dst=inverted, a=dst, extra="not")
                return inverted
            return dst
        name = _CMP_OPS.get(type(op))
        if name is None:
            _fail(f"comparison {type(op).__name__} is outside PyLite", node)
        self._emit(tac.BIN, dst=dst, a=left, b=right, extra=name)
        return dst

    def _call(self, node: ast.Call) -> int:
        if node.keywords:
            _fail("keyword arguments are outside PyLite", node)
        func = node.func
        if isinstance(func, ast.Attribute):
            if func.attr != "append":
                _fail(f"method .{func.attr}() is outside PyLite "
                      "(only list.append)", node)
            if len(node.args) != 1:
                _fail("append() takes exactly one argument", node)
            obj = self._expr(func.value)
            value = self._expr(node.args[0])
            dst = self._temp()
            self._emit(tac.BUILTIN, dst=dst, extra="append", args=[obj, value])
            return dst
        if not isinstance(func, ast.Name):
            _fail("only plain-name calls are in PyLite", node)
        name = func.id
        if name == "range":
            _fail("range() is only valid as a for-loop iterable", node)
        if name in EXC_IDS:
            _fail(f"{name}() may only appear in a raise statement", node)
        if name in self.functions:
            params = self.functions[name]
            if len(node.args) != len(params):
                _fail(f"{name}() takes {len(params)} arguments, "
                      f"got {len(node.args)}", node)
            args = [self._expr(arg) for arg in node.args]
            dst = self._temp()
            self._emit(tac.CALL, dst=dst, extra=name, args=args)
            return dst
        if name in BUILTIN_ARITY:
            lo, hi = BUILTIN_ARITY[name]
            if not lo <= len(node.args) <= hi:
                _fail(f"{name}() takes {lo}..{hi} arguments, "
                      f"got {len(node.args)}", node)
            args = [self._expr(arg) for arg in node.args]
            if name == "sym_int":
                # fill the default domain: sym_int(seed, lo=0, hi=255)
                while len(args) < 3:
                    temp = self._temp()
                    self._emit(tac.CONST, dst=temp, a=0 if len(args) == 1 else 255)
                    args.append(temp)
            dst = self._temp()
            self._emit(tac.BUILTIN, dst=dst, extra=name, args=args)
            return dst
        _fail(f"call to unknown function {name!r}", node)

    # -- statements -----------------------------------------------------------

    def lower_body(self) -> TacFunction:
        for stmt in self.body:
            self._stmt(stmt)
        none = self._temp()
        self._emit(tac.NONE, dst=none)
        self._emit(tac.RET, a=none)
        self._resolve_labels()
        return TacFunction(
            name=self.name,
            params=list(self.params),
            n_temps=self._next_temp,
            instrs=self.instrs,
            local_slots=dict(self.local_slots),
        )

    def _resolve_labels(self) -> None:
        targets = {}
        for label, index in self._labels.items():
            assert index is not None, f"label {label} never placed"
            targets[label] = index
        for instr in self.instrs:
            if instr.op == tac.JMP:
                instr.extra = targets[instr.extra]
            elif instr.op == tac.CJMP:
                instr.b = targets[instr.b]
                instr.extra = targets[instr.extra]

    def _stmt(self, node: ast.stmt) -> None:
        lower = _STMT.get(type(node))
        if lower is None:
            _fail(f"{type(node).__name__} statements are outside PyLite", node)
        lower(self, node)

    def _expr_stmt(self, node: ast.Expr) -> None:
        if isinstance(node.value, ast.Constant):
            return  # docstrings / bare literals compile to nothing
        self._mark(node, "expr")
        self._expr(node.value)

    def _return(self, node: ast.Return) -> None:
        if self.is_main:
            _fail("'return' outside function", node)
        self._mark(node, "return")
        value = self._expr(node.value) if node.value is not None else None
        if value is None:
            value = self._temp()
            self._emit(tac.NONE, value)
        self._emit(tac.RET, a=value)
        self._bound = None

    def _loop_exit(self, node: ast.stmt) -> None:
        kind = "break" if isinstance(node, ast.Break) else "continue"
        if not self._loops:
            _fail(f"'{kind}' outside loop", node)
        self._mark(node, kind)
        # _loops holds (continue target, break target) pairs.
        self._emit(tac.JMP, extra=self._loops[-1][kind == "break"])
        self._bound = None

    def _pass(self, node: ast.Pass) -> None:
        self._mark(node, "pass")

    def _nested_def(self, node: ast.FunctionDef) -> None:
        _fail("nested function definitions are outside PyLite", node)

    def _body(self, stmts: List[ast.stmt], bound: Optional[Set[str]]) -> None:
        """Lower ``stmts`` from a copy of ``bound``; leaves what they bind.

        A loop restores its entry bindings afterwards: its body may run
        zero times, and a ``break`` leaves with a superset of them.
        """
        self._bound = None if bound is None else set(bound)
        for stmt in stmts:
            self._stmt(stmt)

    def _assign(self, node: ast.Assign) -> None:
        if len(node.targets) != 1:
            _fail("chained assignment is outside PyLite", node)
        target = node.targets[0]
        self._mark(node, "assign")
        if isinstance(target, ast.Name):
            value = self._expr(node.value)
            self._store_name(target.id, value, node)
            return
        if isinstance(target, ast.Subscript):
            obj = self._expr(target.value)
            idx = self._expr(target.slice)
            value = self._expr(node.value)
            self._emit(tac.SETINDEX, args=[obj, idx, value])
            return
        _fail(f"cannot assign to {type(target).__name__}", node)

    def _aug_assign(self, node: ast.AugAssign) -> None:
        if isinstance(node.op, ast.Div):
            _fail("true division '/' is outside PyLite; use '//'", node)
        op = _BIN_OPS.get(type(node.op))
        if op is None:
            _fail(f"operator {type(node.op).__name__} is outside PyLite", node)
        target = node.target
        self._mark(node, "assign")
        if isinstance(target, ast.Name):
            current = self._load_name(ast.Name(id=target.id, ctx=ast.Load(),
                                               lineno=node.lineno,
                                               col_offset=node.col_offset))
            value = self._expr(node.value)
            dst = self._temp()
            self._emit(tac.BIN, dst=dst, a=current, b=value, extra=op)
            self._store_name(target.id, dst, node)
            return
        if isinstance(target, ast.Subscript):
            obj = self._expr(target.value)
            idx = self._expr(target.slice)
            current = self._temp()
            self._emit(tac.INDEX, dst=current, a=obj, b=idx)
            value = self._expr(node.value)
            dst = self._temp()
            self._emit(tac.BIN, dst=dst, a=current, b=value, extra=op)
            self._emit(tac.SETINDEX, args=[obj, idx, dst])
            return
        _fail(f"cannot assign to {type(target).__name__}", node)

    def _if(self, node: ast.If) -> None:
        self._mark(node, "if")
        cond = self._expr(node.test)
        then_label = self._label()
        else_label = self._label()
        done = self._label()
        self._emit(tac.CJMP, a=cond, b=then_label, extra=else_label)
        self._place(then_label)
        before = self._bound
        self._body(node.body, before)
        then_bound = self._bound
        self._emit(tac.JMP, extra=done)
        self._place(else_label)
        self._body(node.orelse, before)
        self._bound = _meet(then_bound, self._bound)
        self._place(done)

    def _while(self, node: ast.While) -> None:
        if node.orelse:
            _fail("while/else is outside PyLite", node)
        test = self._label()
        body = self._label()
        done = self._label()
        self._place(test)
        self._mark(node, "while")
        cond = self._expr(node.test)
        self._emit(tac.CJMP, a=cond, b=body, extra=done)
        self._place(body)
        self._loops.append((test, done))
        before = self._bound
        self._body(node.body, before)
        self._bound = before
        self._loops.pop()
        self._emit(tac.JMP, extra=test)
        self._place(done)

    def _for(self, node: ast.For) -> None:
        if node.orelse:
            _fail("for/else is outside PyLite", node)
        if not isinstance(node.target, ast.Name):
            _fail("for-loop target must be a plain name", node)
        call = node.iter
        if not (isinstance(call, ast.Call) and isinstance(call.func, ast.Name)
                and call.func.id == "range"):
            _fail("for-loops iterate over range(...) only in PyLite", node)
        if call.keywords or not 1 <= len(call.args) <= 3:
            _fail("range() takes 1..3 positional arguments", node)
        self._mark(node, "for")
        step = 1
        if len(call.args) == 3:
            step = self._literal_step(call.args[2])
        if len(call.args) == 1:
            start = self._temp()
            self._emit(tac.CONST, dst=start, a=0)
            stop = self._expr(call.args[0])
        else:
            start = self._expr(call.args[0])
            stop = self._expr(call.args[1])
        step_t = self._temp()
        self._emit(tac.CONST, dst=step_t, a=step)
        counter = self._temp()
        self._emit(tac.MOVE, dst=counter, a=start)
        test = self._label()
        body = self._label()
        incr = self._label()
        done = self._label()
        self._place(test)
        cond = self._temp()
        self._emit(tac.BIN, dst=cond, a=counter, b=stop,
                   extra="lt" if step > 0 else "gt")
        self._emit(tac.CJMP, a=cond, b=body, extra=done)
        self._place(body)
        # The loop variable only binds when the body actually runs —
        # CPython leaves it unbound after a zero-iteration loop.
        before = self._bound
        self._bound = None if before is None else set(before)
        self._store_name(node.target.id, counter, node)
        self._loops.append((incr, done))
        for stmt in node.body:
            self._stmt(stmt)
        self._bound = before
        self._loops.pop()
        self._place(incr)
        bumped = self._temp()
        self._emit(tac.BIN, dst=bumped, a=counter, b=step_t, extra="add")
        self._emit(tac.MOVE, dst=counter, a=bumped)
        self._emit(tac.JMP, extra=test)
        self._place(done)

    def _literal_step(self, node: ast.expr) -> int:
        value = node
        sign = 1
        if isinstance(value, ast.UnaryOp) and isinstance(value.op, ast.USub):
            sign = -1
            value = value.operand
        if not (isinstance(value, ast.Constant) and isinstance(value.value, int)
                and not isinstance(value.value, bool)):
            _fail("range() step must be a literal integer", node)
        step = sign * value.value
        if step == 0:
            _fail("range() step must not be zero", node)
        return step

    def _assert(self, node: ast.Assert) -> None:
        if node.msg is not None and not isinstance(node.msg, ast.Constant):
            _fail("assert messages must be literals in PyLite", node)
        self._mark(node, "assert")
        cond = self._expr(node.test)
        ok = self._label()
        fail = self._label()
        self._emit(tac.CJMP, a=cond, b=ok, extra=fail)
        self._place(fail)
        self._emit(tac.RAISE, extra="AssertionError")
        self._place(ok)

    def _raise(self, node: ast.Raise) -> None:
        if node.exc is None or node.cause is not None:
            _fail("bare raise / raise-from are outside PyLite", node)
        exc = node.exc
        if isinstance(exc, ast.Call):
            if not isinstance(exc.func, ast.Name):
                _fail("raise takes an exception name", node)
            if exc.keywords or len(exc.args) > 1 or (
                    exc.args and not isinstance(exc.args[0], ast.Constant)):
                _fail("exception arguments must be a single literal", node)
            name = exc.func.id
        elif isinstance(exc, ast.Name):
            name = exc.id
        else:
            _fail("raise takes an exception name", node)
        if name not in EXC_IDS:
            _fail(f"unknown exception type {name!r}", node)
        self._mark(node, "raise")
        self._emit(tac.RAISE, extra=name)
        self._bound = None


#: node type -> the _Lowerer method that lowers it.
_EXPR = {
    ast.Constant: _Lowerer._constant, ast.Name: _Lowerer._load_name,
    ast.BinOp: _Lowerer._binop, ast.UnaryOp: _Lowerer._unaryop,
    ast.BoolOp: _Lowerer._boolop, ast.Compare: _Lowerer._compare,
    ast.Call: _Lowerer._call, ast.Subscript: _Lowerer._subscript,
    ast.List: _Lowerer._list, ast.Dict: _Lowerer._dict,
}
_STMT = {
    ast.Expr: _Lowerer._expr_stmt, ast.Assign: _Lowerer._assign,
    ast.AugAssign: _Lowerer._aug_assign, ast.If: _Lowerer._if,
    ast.While: _Lowerer._while, ast.For: _Lowerer._for,
    ast.Return: _Lowerer._return, ast.Assert: _Lowerer._assert,
    ast.Raise: _Lowerer._raise, ast.Break: _Lowerer._loop_exit,
    ast.Continue: _Lowerer._loop_exit, ast.Pass: _Lowerer._pass,
    ast.FunctionDef: _Lowerer._nested_def,
}


def lower_module(source: str) -> TacModule:
    """Parse and lower PyLite source; raises :class:`PyLiteSyntaxError`."""
    try:
        module = ast.parse(source)
    except SyntaxError as exc:
        raise PyLiteSyntaxError(f"invalid syntax: {exc.msg}"
                                + (f" (line {exc.lineno})" if exc.lineno else "")
                                ) from exc
    defs: Dict[str, ast.FunctionDef] = {}
    main_body: List[ast.stmt] = []
    for stmt in module.body:
        if isinstance(stmt, ast.FunctionDef):
            if stmt.name in defs:
                _fail(f"duplicate function {stmt.name!r}", stmt)
            if (stmt.args.posonlyargs or stmt.args.kwonlyargs
                    or stmt.args.vararg or stmt.args.kwarg
                    or stmt.args.defaults or stmt.args.kw_defaults):
                _fail("PyLite functions take plain positional parameters "
                      "only", stmt)
            if stmt.decorator_list:
                _fail("decorators are outside PyLite", stmt)
            defs[stmt.name] = stmt
        elif isinstance(stmt, ast.AsyncFunctionDef):
            _fail("async functions are outside PyLite", stmt)
        elif isinstance(stmt, ast.ClassDef):
            _fail("classes are outside PyLite", stmt)
        elif isinstance(stmt, (ast.Import, ast.ImportFrom)):
            _fail("imports are outside PyLite", stmt)
        else:
            main_body.append(stmt)
    signatures = {name: [arg.arg for arg in fn.args.args]
                  for name, fn in defs.items()}
    if "main" in signatures:
        _fail("'main' is reserved for the module body", defs["main"])

    global_names: List[str] = _assigned_names(main_body)
    functions: Dict[str, TacFunction] = {}
    coverable: Set[int] = set()

    main = _Lowerer("main", [], main_body, signatures, global_names,
                    is_main=True)
    functions["main"] = main.lower_body()
    coverable |= main.coverable
    for name, fn in defs.items():
        lowerer = _Lowerer(name, signatures[name], fn.body, signatures,
                           global_names, is_main=False)
        functions[name] = lowerer.lower_body()
        coverable |= lowerer.coverable

    return TacModule(
        functions=functions,
        global_names=list(global_names),
        coverable_lines=tuple(sorted(coverable)),
    )


__all__ = ["BUILTIN_ARITY", "PyLiteSyntaxError", "lower_module"]
