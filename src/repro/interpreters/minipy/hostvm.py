"""Host reference VM for MiniPy bytecode.

This is the stand-in for the *vanilla* CPython used in the paper for test
replay and line-coverage measurement (§6.1).  Its semantics follow the
paper's Clay-hosted interpreter instruction by instruction.

Values map to native Python values (int, bool, str, None, list, dict) plus
small wrapper objects for functions, exception types/instances, method
references and iterators.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.errors import HostVMError
from repro.interpreters.minipy.bytecode import (
    BinOp,
    CodeObject,
    CompiledModule,
    Op,
    UnOp,
)

_WHITESPACE = " \t\n\r"


class MiniPyException(Exception):
    """An in-language exception travelling through the host VM."""

    def __init__(self, type_id: int, message: str = "", name: str = ""):
        super().__init__(f"{name or type_id}: {message}")
        self.type_id = type_id
        self.message = message
        self.name = name


@dataclass
class ExcType:
    type_id: int


@dataclass
class ExcValue:
    type_id: int
    message: str = ""


@dataclass
class FuncValue:
    code_id: int


@dataclass
class BuiltinValue:
    builtin_id: int


@dataclass
class MethodRef:
    obj: object
    method_id: int


@dataclass
class RangeValue:
    start: int
    stop: int


class _Iter:
    __slots__ = ("kind", "obj", "index")

    def __init__(self, kind: str, obj):
        self.kind = kind
        self.obj = obj
        self.index = 0


@dataclass
class HostRunResult:
    """Observable outcome of one host execution."""

    output: List[int] = field(default_factory=list)
    exception: Optional[MiniPyException] = None
    covered_lines: Set[int] = field(default_factory=set)
    hl_instrs: int = 0
    hit_budget: bool = False


class HostVM:
    """Executes a :class:`CompiledModule` with concrete inputs."""

    def __init__(
        self,
        module: CompiledModule,
        symbolic_inputs: Optional[Sequence[object]] = None,
        instr_budget: int = 2_000_000,
    ):
        self.module = module
        self.globals: List[object] = [None] * max(len(module.global_names), 1)
        self._global_set: Set[int] = set()
        self._inputs = list(symbolic_inputs or [])
        self._next_input = 0
        self.result = HostRunResult()
        self._budget = instr_budget
        self._exc_names = {v: k for k, v in module.exception_ids.items()}
        for slot, (kind, value) in module.global_inits.items():
            if kind == "builtin":
                self.globals[slot] = BuiltinValue(value)
            elif kind == "exctype":
                self.globals[slot] = ExcType(value)
            self._global_set.add(slot)

    # -- public --------------------------------------------------------------

    def run(self) -> HostRunResult:
        """Execute the module body; capture an uncaught exception if any."""
        main = self.module.codes[self.module.main_code]
        try:
            self._eval(main, self.globals, module_level=True)
        except MiniPyException as exc:
            self.result.exception = exc
        except _BudgetExceeded:
            self.result.hit_budget = True
        return self.result

    def call_function(self, name: str, args: List[object]) -> object:
        """Call a module-level function directly (used by unit tests)."""
        slot = self.module.global_names.get(name)
        if slot is None:
            raise HostVMError(f"no global named {name!r}")
        func = self.globals[slot]
        if not isinstance(func, FuncValue):
            raise HostVMError(f"{name!r} is not a function")
        return self._call(func, args)

    # -- helpers ----------------------------------------------------------------

    def _raise(self, name: str, message: str = "") -> None:
        type_id = self.module.exception_ids.get(name, 1)
        raise MiniPyException(type_id, message, name)

    def _exc_name(self, type_id: int) -> str:
        return self._exc_names.get(type_id, f"<exc:{type_id}>")

    def _call(self, func, args: List[object]):
        if isinstance(func, FuncValue):
            code = self.module.codes[func.code_id]
            if len(args) != code.argcount:
                self._raise(
                    "TypeError",
                    f"{code.name}() takes {code.argcount} args, got {len(args)}",
                )
            frame_locals: List[object] = [None] * max(code.nlocals, 1)
            frame_locals[: len(args)] = args
            return self._eval(code, frame_locals)
        if isinstance(func, BuiltinValue):
            return self._call_builtin(func.builtin_id, args)
        if isinstance(func, ExcType):
            message = ""
            if args:
                if not isinstance(args[0], str):
                    message = self._to_str(args[0])
                else:
                    message = args[0]
            return ExcValue(func.type_id, message)
        self._raise("TypeError", "object is not callable")

    # -- the interpreter loop ----------------------------------------------------

    def _eval(self, code: CodeObject, frame_locals: List[object], module_level=False):
        stack: List[object] = []
        blocks: List[Tuple[int, int]] = []  # (handler_ip, stack_depth)
        instrs = code.instrs
        lines = code.lines
        consts = code.consts
        ip = 0
        while True:
            if self.result.hl_instrs >= self._budget:
                raise _BudgetExceeded()
            self.result.hl_instrs += 1
            op, arg = instrs[ip]
            if lines[ip] > 0:
                self.result.covered_lines.add(lines[ip])
            ip += 1
            try:
                if op == Op.LOAD_CONST:
                    stack.append(consts[arg])
                elif op == Op.LOAD_LOCAL:
                    stack.append(frame_locals[arg])
                elif op == Op.STORE_LOCAL:
                    frame_locals[arg] = stack.pop()
                elif op == Op.LOAD_GLOBAL:
                    if arg not in self._global_set and not module_level:
                        self._raise("RuntimeError", "name is not defined")
                    if module_level and arg not in self._global_set:
                        self._raise("RuntimeError", "name is not defined")
                    stack.append(self.globals[arg])
                elif op == Op.STORE_GLOBAL:
                    self.globals[arg] = stack.pop()
                    self._global_set.add(arg)
                elif op == Op.BINARY:
                    right = stack.pop()
                    left = stack.pop()
                    stack.append(self._binary(arg, left, right))
                elif op == Op.UNARY:
                    value = stack.pop()
                    if arg == UnOp.NEG:
                        if not isinstance(value, (int, bool)):
                            self._raise("TypeError", "bad operand for unary -")
                        stack.append(-int(value))
                    else:
                        stack.append(not self._truth(value))
                elif op == Op.JUMP:
                    ip = arg
                elif op == Op.POP_JUMP_IF_FALSE:
                    if not self._truth(stack.pop()):
                        ip = arg
                elif op == Op.POP_JUMP_IF_TRUE:
                    if self._truth(stack.pop()):
                        ip = arg
                elif op == Op.CALL_FUNCTION:
                    args = stack[len(stack) - arg:]
                    del stack[len(stack) - arg:]
                    func = stack.pop()
                    stack.append(self._call(func, args))
                elif op == Op.RETURN_VALUE:
                    return stack.pop()
                elif op == Op.BUILD_LIST:
                    items = stack[len(stack) - arg:]
                    del stack[len(stack) - arg:]
                    stack.append(list(items))
                elif op == Op.BUILD_DICT:
                    pairs = stack[len(stack) - 2 * arg:]
                    del stack[len(stack) - 2 * arg:]
                    d: Dict = {}
                    for k in range(arg):
                        d[self._dict_key(pairs[2 * k])] = pairs[2 * k + 1]
                    stack.append(d)
                elif op == Op.BINARY_SUBSCR:
                    index = stack.pop()
                    obj = stack.pop()
                    stack.append(self._subscr(obj, index))
                elif op == Op.STORE_SUBSCR:
                    index = stack.pop()
                    obj = stack.pop()
                    value = stack.pop()
                    self._store_subscr(obj, index, value)
                elif op == Op.LOAD_METHOD:
                    obj = stack.pop()
                    stack.append(MethodRef(obj, arg))
                elif op == Op.CALL_METHOD:
                    args = stack[len(stack) - arg:]
                    del stack[len(stack) - arg:]
                    ref = stack.pop()
                    assert isinstance(ref, MethodRef)
                    stack.append(self._call_method(ref.obj, ref.method_id, args))
                elif op == Op.RAISE:
                    exc = stack.pop()
                    if isinstance(exc, ExcValue):
                        raise MiniPyException(
                            exc.type_id, exc.message, self._exc_name(exc.type_id)
                        )
                    self._raise("TypeError", "can only raise exception instances")
                elif op == Op.SETUP_EXCEPT:
                    blocks.append((arg, len(stack)))
                elif op == Op.POP_BLOCK:
                    blocks.pop()
                elif op == Op.GET_ITER:
                    stack.append(self._get_iter(stack.pop()))
                elif op == Op.FOR_ITER:
                    iterator = stack[-1]
                    assert isinstance(iterator, _Iter)
                    nxt = self._iter_next(iterator)
                    if nxt is _EXHAUSTED:
                        stack.pop()
                        ip = arg
                    else:
                        stack.append(nxt)
                elif op == Op.DUP:
                    stack.append(stack[-1])
                elif op == Op.POP:
                    stack.pop()
                elif op == Op.SLICE:
                    hi = stack.pop() if arg & 2 else None
                    lo = stack.pop() if arg & 1 else None
                    obj = stack.pop()
                    stack.append(self._slice(obj, lo, hi))
                elif op == Op.MAKE_FUNCTION:
                    stack.append(FuncValue(arg))
                elif op == Op.LOAD_EXCTYPE:
                    stack.append(ExcType(arg))
                elif op == Op.EXC_MATCH:
                    exc_type = stack.pop()
                    exc = stack.pop()
                    assert isinstance(exc_type, ExcType)
                    assert isinstance(exc, ExcValue)
                    stack.append(
                        exc_type.type_id == 1 or exc.type_id == exc_type.type_id
                    )
                elif op == Op.NOP:
                    pass
                else:
                    raise HostVMError(f"unknown opcode {op}")
            except MiniPyException as exc:
                if not blocks:
                    raise
                handler_ip, depth = blocks.pop()
                del stack[depth:]
                stack.append(ExcValue(exc.type_id, exc.message))
                ip = handler_ip

    # -- semantics shared with the Clay interpreter -----------------------------------

    @staticmethod
    def _truth(value) -> bool:
        if value is None or value is False:
            return False
        if value is True:
            return True
        if isinstance(value, int):
            return value != 0
        if isinstance(value, (str, list, dict)):
            return len(value) > 0
        return True

    def _dict_key(self, key):
        if isinstance(key, (bool, int, str)):
            return key
        self._raise("TypeError", "unhashable dict key")

    def _binary(self, op: int, left, right):
        if op == BinOp.ADD:
            if isinstance(left, str) and isinstance(right, str):
                return left + right
            return self._arith(op, left, right)
        if op in (BinOp.SUB, BinOp.MUL, BinOp.FLOORDIV, BinOp.MOD):
            return self._arith(op, left, right)
        if op == BinOp.EQ:
            return self._value_eq(left, right)
        if op == BinOp.NE:
            return not self._value_eq(left, right)
        if op in (BinOp.LT, BinOp.LE, BinOp.GT, BinOp.GE):
            if not isinstance(left, (int, bool)) or not isinstance(right, (int, bool)):
                self._raise("TypeError", "ordered comparison needs integers")
            a, b = int(left), int(right)
            if op == BinOp.LT:
                return a < b
            if op == BinOp.LE:
                return a <= b
            if op == BinOp.GT:
                return a > b
            return a >= b
        if op in (BinOp.IN, BinOp.NOT_IN):
            result = self._contains(left, right)
            return result if op == BinOp.IN else not result
        raise HostVMError(f"unknown binary op {op}")

    def _arith(self, op: int, left, right) -> int:
        if not isinstance(left, (int, bool)) or not isinstance(right, (int, bool)):
            self._raise("TypeError", "arithmetic needs integers")
        a, b = int(left), int(right)
        if op == BinOp.ADD:
            return a + b
        if op == BinOp.SUB:
            return a - b
        if op == BinOp.MUL:
            return a * b
        if b == 0:
            self._raise("ZeroDivisionError", "division by zero")
        return a // b if op == BinOp.FLOORDIV else a % b

    def _value_eq(self, left, right) -> bool:
        if isinstance(left, (int, bool)) and isinstance(right, (int, bool)):
            return int(left) == int(right)
        if isinstance(left, str) and isinstance(right, str):
            return left == right
        if left is None and right is None:
            return True
        if isinstance(left, (list, dict)) or isinstance(right, (list, dict)):
            return left is right
        return False

    def _contains(self, needle, haystack) -> bool:
        if isinstance(haystack, str):
            if not isinstance(needle, str):
                self._raise("TypeError", "'in <string>' needs a string")
            return needle in haystack
        if isinstance(haystack, list):
            return any(self._value_eq(needle, item) for item in haystack)
        if isinstance(haystack, dict):
            return self._dict_key(needle) in haystack
        self._raise("TypeError", "argument is not iterable")

    def _subscr(self, obj, index):
        if isinstance(obj, str):
            index = self._index_int(index)
            if index < 0:
                index += len(obj)
            if not 0 <= index < len(obj):
                self._raise("IndexError", "string index out of range")
            return obj[index]
        if isinstance(obj, list):
            index = self._index_int(index)
            if index < 0:
                index += len(obj)
            if not 0 <= index < len(obj):
                self._raise("IndexError", "list index out of range")
            return obj[index]
        if isinstance(obj, dict):
            key = self._dict_key(index)
            if key not in obj:
                self._raise("KeyError", str(index))
            return obj[key]
        self._raise("TypeError", "object is not subscriptable")

    def _store_subscr(self, obj, index, value) -> None:
        if isinstance(obj, list):
            index = self._index_int(index)
            if index < 0:
                index += len(obj)
            if not 0 <= index < len(obj):
                self._raise("IndexError", "list assignment out of range")
            obj[index] = value
            return
        if isinstance(obj, dict):
            obj[self._dict_key(index)] = value
            return
        self._raise("TypeError", "object does not support item assignment")

    def _index_int(self, index) -> int:
        if isinstance(index, bool):
            return int(index)
        if not isinstance(index, int):
            self._raise("TypeError", "indices must be integers")
        return index

    def _slice(self, obj, lo, hi):
        if not isinstance(obj, (str, list)):
            self._raise("TypeError", "object is not sliceable")
        length = len(obj)
        lo = 0 if lo is None else self._index_int(lo)
        hi = length if hi is None else self._index_int(hi)
        if lo < 0:
            lo += length
        if hi < 0:
            hi += length
        lo = min(max(lo, 0), length)
        hi = min(max(hi, 0), length)
        if lo > hi:
            hi = lo
        return obj[lo:hi]

    def _get_iter(self, obj) -> _Iter:
        if isinstance(obj, list):
            return _Iter("list", obj)
        if isinstance(obj, str):
            return _Iter("str", obj)
        if isinstance(obj, RangeValue):
            return _Iter("range", obj)
        if isinstance(obj, dict):
            return _Iter("list", list(obj.keys()))
        self._raise("TypeError", "object is not iterable")

    def _iter_next(self, iterator: _Iter):
        if iterator.kind in ("list", "str"):
            if iterator.index >= len(iterator.obj):
                return _EXHAUSTED
            value = iterator.obj[iterator.index]
            iterator.index += 1
            return value
        value = iterator.obj.start + iterator.index
        if value >= iterator.obj.stop:
            return _EXHAUSTED
        iterator.index += 1
        return value

    # -- builtins -----------------------------------------------------------------------

    def _call_builtin(self, builtin_id: int, args: List[object]):
        if builtin_id == 1:  # len
            self._arity(args, 1, "len")
            if not isinstance(args[0], (str, list, dict)):
                self._raise("TypeError", "object has no len()")
            return len(args[0])
        if builtin_id == 2:  # ord
            self._arity(args, 1, "ord")
            if not isinstance(args[0], str) or len(args[0]) != 1:
                self._raise("TypeError", "ord() expects a 1-character string")
            return ord(args[0])
        if builtin_id == 3:  # chr
            self._arity(args, 1, "chr")
            value = self._index_int(args[0])
            if not 0 <= value < 1114112:
                self._raise("ValueError", "chr() out of range")
            return chr(value)
        if builtin_id == 4:  # str
            self._arity(args, 1, "str")
            return self._to_str(args[0])
        if builtin_id == 5:  # int
            self._arity(args, 1, "int")
            return self._to_int(args[0])
        if builtin_id == 6:  # range
            if len(args) == 1:
                return RangeValue(0, self._index_int(args[0]))
            if len(args) == 2:
                return RangeValue(self._index_int(args[0]), self._index_int(args[1]))
            self._raise("TypeError", "range() takes 1 or 2 arguments")
        if builtin_id == 7:  # print
            self._arity(args, 1, "print")
            self._emit(args[0])
            return None
        if builtin_id == 8:  # sym_string — replay: next recorded input
            self._arity(args, 1, "sym_string")
            if not isinstance(args[0], str):
                self._raise("TypeError", "sym_string() expects a string seed")
            return self._next_symbolic(args[0])
        if builtin_id == 9:  # sym_int(seed, lo, hi)
            if len(args) != 3:
                self._raise("TypeError", "sym_int() takes 3 arguments")
            return self._next_symbolic(self._index_int(args[0]))
        if builtin_id == 10:  # re_match (native extension)
            if len(args) != 2 or not isinstance(args[0], str) or not isinstance(args[1], str):
                self._raise("TypeError", "re_match(pattern, text)")
            return _re_match(args[0], args[1])
        if builtin_id == 11:  # abs
            self._arity(args, 1, "abs")
            return abs(self._index_int(args[0]))
        if builtin_id == 12:  # min
            self._arity(args, 2, "min")
            return min(self._index_int(args[0]), self._index_int(args[1]))
        if builtin_id == 13:  # max
            self._arity(args, 2, "max")
            return max(self._index_int(args[0]), self._index_int(args[1]))
        self._raise("TypeError", f"unknown builtin {builtin_id}")

    def _next_symbolic(self, seed):
        if self._next_input < len(self._inputs):
            value = self._inputs[self._next_input]
            self._next_input += 1
            if isinstance(seed, str):
                if isinstance(value, str):
                    return value
                return "".join(chr(v & 0xFF) for v in value)
            if isinstance(value, (list, tuple)):
                return int(value[0]) if value else seed
            return int(value)
        return seed

    def _arity(self, args, n: int, name: str) -> None:
        if len(args) != n:
            self._raise("TypeError", f"{name}() takes {n} argument(s)")

    def _to_str(self, value) -> str:
        if isinstance(value, bool):
            return "True" if value else "False"
        if isinstance(value, int):
            return str(value)
        if isinstance(value, str):
            return value
        if value is None:
            return "None"
        self._raise("TypeError", "unsupported str() argument")

    def _to_int(self, value) -> int:
        if isinstance(value, bool):
            return int(value)
        if isinstance(value, int):
            return value
        if isinstance(value, str):
            text = value.strip()
            negative = text.startswith("-")
            if negative:
                text = text[1:]
            if not text or not all(c.isdigit() for c in text):
                self._raise("ValueError", f"invalid literal for int(): {value!r}")
            return -int(text) if negative else int(text)
        self._raise("TypeError", "unsupported int() argument")

    def _emit(self, value) -> None:
        """Encode a printed value as output words (same scheme as Clay)."""
        out = self.result.output
        if isinstance(value, bool):
            out.extend([2, int(value)])
        elif isinstance(value, int):
            out.extend([1, value])
        elif isinstance(value, str):
            out.append(4)
            out.append(len(value))
            out.extend(ord(c) for c in value)
        elif value is None:
            out.append(3)
        elif isinstance(value, list):
            out.extend([5, len(value)])
        elif isinstance(value, dict):
            out.extend([6, len(value)])
        else:
            out.extend([9, 0])

    # -- methods -------------------------------------------------------------------------

    def _call_method(self, obj, method_id: int, args: List[object]):
        if method_id < 20:
            if not isinstance(obj, str):
                self._raise("TypeError", "string method on non-string")
            return self._str_method(obj, method_id, args)
        if method_id < 30:
            if not isinstance(obj, list):
                self._raise("TypeError", "list method on non-list")
            if method_id == 20:
                self._arity(args, 1, "append")
                obj.append(args[0])
                return None
            if method_id == 21:
                if args:
                    self._raise("TypeError", "pop() takes no arguments")
                if not obj:
                    self._raise("IndexError", "pop from empty list")
                return obj.pop()
        if method_id < 40:
            if not isinstance(obj, dict):
                self._raise("TypeError", "dict method on non-dict")
            if method_id == 30:
                if len(args) not in (1, 2):
                    self._raise("TypeError", "get() takes 1 or 2 arguments")
                default = args[1] if len(args) == 2 else None
                return obj.get(self._dict_key(args[0]), default)
            if method_id == 31:
                return list(obj.keys())
            if method_id == 32:
                return list(obj.values())
        self._raise("TypeError", f"unknown method {method_id}")

    def _str_method(self, obj: str, method_id: int, args: List[object]):
        def str_arg(i: int) -> str:
            if i >= len(args) or not isinstance(args[i], str):
                self._raise("TypeError", "expected a string argument")
            return args[i]

        if method_id == 1:  # find
            return obj.find(str_arg(0))
        if method_id == 2:  # startswith
            return obj.startswith(str_arg(0))
        if method_id == 3:  # endswith
            return obj.endswith(str_arg(0))
        if method_id == 4:  # strip
            if args:
                self._raise("TypeError", "strip() takes no arguments")
            return obj.strip(_WHITESPACE)
        if method_id == 5:  # split
            sep = str_arg(0)
            if sep == "":
                self._raise("ValueError", "empty separator")
            return obj.split(sep)
        if method_id == 6:
            return _ascii_lower(obj)
        if method_id == 7:
            return _ascii_upper(obj)
        if method_id == 8:  # isdigit
            return len(obj) > 0 and all("0" <= c <= "9" for c in obj)
        if method_id == 9:  # isalpha
            return len(obj) > 0 and all(
                "a" <= c <= "z" or "A" <= c <= "Z" for c in obj
            )
        if method_id == 10:  # join
            if len(args) != 1 or not isinstance(args[0], list):
                self._raise("TypeError", "join() expects a list")
            for item in args[0]:
                if not isinstance(item, str):
                    self._raise("TypeError", "join() expects strings")
            return obj.join(args[0])
        if method_id == 11:  # replace
            old = str_arg(0)
            new = str_arg(1)
            if old == "":
                return obj
            return obj.replace(old, new)
        self._raise("TypeError", f"unknown string method {method_id}")


def _ascii_lower(text: str) -> str:
    return "".join(
        chr(ord(c) + 32) if "A" <= c <= "Z" else c for c in text
    )


def _ascii_upper(text: str) -> str:
    return "".join(
        chr(ord(c) - 32) if "a" <= c <= "z" else c for c in text
    )


def _re_match(pattern: str, text: str) -> bool:
    """Regex-lite matcher: literals, '.', and postfix '*' (full match).

    The Clay interpreter carries the same matcher as a native extension
    module; both implementations must agree.
    """
    return _re_match_here(pattern, 0, text, 0)


def _re_match_here(pattern: str, pi: int, text: str, ti: int) -> bool:
    if pi == len(pattern):
        return ti == len(text)
    if pi + 1 < len(pattern) and pattern[pi + 1] == "*":
        if _re_match_here(pattern, pi + 2, text, ti):
            return True
        while ti < len(text) and (pattern[pi] == "." or text[ti] == pattern[pi]):
            ti += 1
            if _re_match_here(pattern, pi + 2, text, ti):
                return True
        return False
    if ti < len(text) and (pattern[pi] == "." or text[ti] == pattern[pi]):
        return _re_match_here(pattern, pi + 1, text, ti + 1)
    return False


class _BudgetExceeded(Exception):
    pass


_EXHAUSTED = object()
