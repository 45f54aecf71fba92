"""Tree-walking evaluator for the PhishScript JavaScript subset.

The interpreter is deliberately small but semantically honest where the
phishing kits in the paper rely on behaviour: closures, ``this`` binding
on method calls, loose/strict equality, string coercion, a functioning
``eval`` (base64-``eval`` droppers), redefinable globals (console-method
hijacking), ``debugger`` hooks (anti-debugging timers), and timers that
the host browser schedules.

A step budget bounds run time so hostile scripts cannot hang the
analysis pipeline — the crawler treats a budget overrun as an evasion
signal rather than crashing.
"""

from __future__ import annotations

import math
import random
from typing import Callable

from repro.js import nodes as ast
from repro.js.parser import parse


class JSError(Exception):
    """A JavaScript-level error (TypeError, ReferenceError, thrown value)."""

    def __init__(self, message: str, value: object = None):
        super().__init__(message)
        self.value = value if value is not None else message


class JSTimeoutError(JSError):
    """The script exceeded its step budget."""


class _Undefined:
    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "undefined"

    def __bool__(self) -> bool:
        return False


UNDEFINED = _Undefined()


class JSObject:
    """A plain JavaScript object: ordered string-keyed properties."""

    def __init__(self, properties: dict | None = None):
        self.properties: dict[str, object] = dict(properties or {})

    def get(self, name: str) -> object:
        return self.properties.get(name, UNDEFINED)

    def set(self, name: str, value: object) -> None:
        self.properties[name] = value

    def has(self, name: str) -> bool:
        return name in self.properties

    def keys(self) -> list[str]:
        return list(self.properties)

    def __repr__(self) -> str:
        return f"JSObject({self.properties!r})"


class JSArray:
    """A JavaScript array backed by a Python list."""

    def __init__(self, elements: list | None = None):
        self.elements: list = list(elements or [])

    def __repr__(self) -> str:
        return f"JSArray({self.elements!r})"


class JSFunction:
    """A user-defined function with its closure environment."""

    def __init__(
        self,
        name: str | None,
        params: list[str],
        body: list,
        closure: "Environment",
        is_arrow: bool = False,
        bound_this: object = None,
    ):
        self.name = name or ""
        self.params = params
        self.body = body
        self.closure = closure
        self.is_arrow = is_arrow
        self.bound_this = bound_this

    def __repr__(self) -> str:
        return f"JSFunction({self.name or '<anonymous>'})"


class NativeFunction:
    """A host function callable from scripts.

    The wrapped callable receives ``(interp, this, args)`` and returns a
    JS value.  ``properties`` are read-only statics such as ``Date.now``:
    scripts cannot set properties on a native function, which is what
    lets one instance serve every interpreter in the process.
    """

    __slots__ = ("fn", "name", "properties")

    def __init__(self, fn: Callable, name: str = "", properties: dict | None = None):
        self.fn = fn
        self.name = name or getattr(fn, "__name__", "")
        self.properties = properties

    def __repr__(self) -> str:
        return f"NativeFunction({self.name})"


class Environment:
    """A lexical scope chain."""

    __slots__ = ("variables", "parent")

    def __init__(self, parent: "Environment | None" = None):
        self.variables: dict[str, object] = {}
        self.parent = parent

    def lookup(self, name: str) -> object:
        scope: Environment | None = self
        while scope is not None:
            if name in scope.variables:
                return scope.variables[name]
            scope = scope.parent
        raise JSError(f"ReferenceError: {name} is not defined")

    def has(self, name: str) -> bool:
        scope: Environment | None = self
        while scope is not None:
            if name in scope.variables:
                return True
            scope = scope.parent
        return False

    def assign(self, name: str, value: object) -> None:
        scope: Environment | None = self
        while scope is not None:
            if name in scope.variables:
                scope.variables[name] = value
                return
            scope = scope.parent
        # Implicit global, like sloppy-mode JavaScript.
        root: Environment = self
        while root.parent is not None:
            root = root.parent
        root.variables[name] = value

    def declare(self, name: str, value: object) -> None:
        self.variables[name] = value


# Control-flow signals.
class _Break(Exception):
    pass


class _Continue(Exception):
    pass


class _Return(Exception):
    def __init__(self, value: object):
        self.value = value


class _Throw(Exception):
    def __init__(self, value: object):
        self.value = value


class Timer:
    """A pending setTimeout/setInterval registration."""

    def __init__(self, timer_id: int, callback: object, delay_ms: float, repeating: bool):
        self.id = timer_id
        self.callback = callback
        self.delay_ms = delay_ms
        self.repeating = repeating
        self.cancelled = False


class Interpreter:
    """Evaluates PhishScript programs against a (host-provided) global scope.

    ``host`` is the embedding object (the browser's page session) that
    host natives reach through the interpreter they are called with.
    """

    def __init__(
        self,
        step_limit: int = 2_000_000,
        rng: random.Random | None = None,
        clock_ms: Callable[[], float] | None = None,
        host: object = None,
    ):
        from repro.js.stdlib import global_table

        self.globals = Environment()
        self.globals.variables = global_table()
        self.host = host
        self.step_limit = step_limit
        self.steps = 0
        # Per-message cooperative budget, captured once so the hot tick
        # path pays a single attribute check when no budget is active
        # (see repro._budget; BudgetExceeded is deliberately NOT a
        # JSError, so it escapes the page session to the stage plan).
        from repro._budget import current_budget

        self._budget = current_budget()
        self.rng = rng or random.Random(0)
        self.clock_ms = clock_ms or self._default_clock
        self.timers: list[Timer] = []
        self._last_timer_id = 0
        #: ``(level, message)`` per console call, observed by the host.
        self.console_log: list[tuple[str, str]] = []
        #: Called whenever a ``debugger`` statement executes.
        self.on_debugger: Callable[[], None] | None = None

    def _default_clock(self) -> float:
        """A fake monotonic clock advancing 1 ms per 1000 steps."""
        return self.steps / 1000.0

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def run(self, source: str) -> object:
        """Parse and execute a program; returns the last expression value."""
        program = parse(source)
        return self.run_program(program, self.globals)

    def run_program(self, program: ast.Program, env: Environment) -> object:
        self._hoist(program.body, env)
        result: object = UNDEFINED
        try:
            for statement in program.body:
                value = self.execute(statement, env)
                if isinstance(statement, ast.ExprStatement):
                    result = value
        except _Throw as thrown:
            # An uncaught script-level throw surfaces as a JS error, like
            # a browser reporting "Uncaught ..." — never as an internal
            # control-flow exception leaking into host code.
            raise JSError(f"Uncaught {to_js_string(thrown.value)}", thrown.value) from None
        except _Return:
            raise JSError("SyntaxError: return outside of a function") from None
        except (_Break, _Continue):
            raise JSError("SyntaxError: break/continue outside of a loop") from None
        return result

    def call_function(self, fn: object, this: object, args: list) -> object:
        """Invoke a JS or native function from host code."""
        try:
            return self._call(fn, this, args)
        except _Throw as thrown:
            raise JSError(f"Uncaught {to_js_string(thrown.value)}", thrown.value) from None

    def add_timer(self, callback: object, delay_ms: float, repeating: bool) -> Timer:
        """Register a timer; ids count from 1 in each interpreter."""
        self._last_timer_id += 1
        timer = Timer(self._last_timer_id, callback, delay_ms, repeating)
        self.timers.append(timer)
        return timer

    def run_due_timers(self, budget: int = 64) -> int:
        """Execute pending timers (host drives this).  Returns runs made."""
        runs = 0
        for timer in list(self.timers):
            if timer.cancelled:
                continue
            if runs >= budget:
                break
            try:
                self.call_function(timer.callback, UNDEFINED, [])
            except JSError:
                pass  # a broken timer callback must not kill the page
            runs += 1
            if not timer.repeating:
                timer.cancelled = True
        self.timers = [t for t in self.timers if not t.cancelled]
        return runs

    # ------------------------------------------------------------------
    # Statement execution
    # ------------------------------------------------------------------
    def _tick(self) -> None:
        self.steps += 1
        if self.steps > self.step_limit:
            raise JSTimeoutError("script exceeded its step budget")
        if self._budget is not None and self.steps % 1024 == 0:
            self._budget.charge(1024, "js-steps")

    def _hoist(self, body: list, env: Environment) -> None:
        """Hoist function declarations and ``var`` names."""
        for statement in body:
            if isinstance(statement, ast.FunctionDecl):
                env.declare(
                    statement.name,
                    JSFunction(statement.name, statement.params, statement.body, env),
                )
            elif isinstance(statement, ast.VarDecl) and statement.kind == "var":
                for name, _ in statement.declarations:
                    if not env.has(name):
                        env.declare(name, UNDEFINED)

    def execute(self, node: ast.Node, env: Environment) -> object:
        self._tick()
        method = getattr(self, f"_exec_{type(node).__name__}", None)
        if method is None:
            raise JSError(f"cannot execute node {type(node).__name__}")
        return method(node, env)

    def _exec_Empty(self, node: ast.Empty, env: Environment) -> object:
        return UNDEFINED

    def _exec_ExprStatement(self, node: ast.ExprStatement, env: Environment) -> object:
        return self.evaluate(node.expression, env)

    def _exec_VarDecl(self, node: ast.VarDecl, env: Environment) -> object:
        for name, initializer in node.declarations:
            value = self.evaluate(initializer, env) if initializer is not None else UNDEFINED
            env.declare(name, value)
        return UNDEFINED

    def _exec_FunctionDecl(self, node: ast.FunctionDecl, env: Environment) -> object:
        env.declare(node.name, JSFunction(node.name, node.params, node.body, env))
        return UNDEFINED

    def _exec_Block(self, node: ast.Block, env: Environment) -> object:
        scope = Environment(env)
        self._hoist(node.body, scope)
        for statement in node.body:
            self.execute(statement, scope)
        return UNDEFINED

    def _exec_If(self, node: ast.If, env: Environment) -> object:
        if truthy(self.evaluate(node.test, env)):
            self.execute(node.consequent, env)
        elif node.alternate is not None:
            self.execute(node.alternate, env)
        return UNDEFINED

    def _exec_While(self, node: ast.While, env: Environment) -> object:
        while truthy(self.evaluate(node.test, env)):
            self._tick()
            try:
                self.execute(node.body, env)
            except _Break:
                break
            except _Continue:
                continue
        return UNDEFINED

    def _exec_DoWhile(self, node: ast.DoWhile, env: Environment) -> object:
        while True:
            self._tick()
            try:
                self.execute(node.body, env)
            except _Break:
                break
            except _Continue:
                pass
            if not truthy(self.evaluate(node.test, env)):
                break
        return UNDEFINED

    def _exec_For(self, node: ast.For, env: Environment) -> object:
        scope = Environment(env)
        if node.init is not None:
            self.execute(node.init, scope)
        while node.test is None or truthy(self.evaluate(node.test, scope)):
            self._tick()
            try:
                self.execute(node.body, scope)
            except _Break:
                break
            except _Continue:
                pass
            if node.update is not None:
                self.evaluate(node.update, scope)
        return UNDEFINED

    def _exec_ForIn(self, node: ast.ForIn, env: Environment) -> object:
        iterable = self.evaluate(node.iterable, env)
        if node.of:
            if isinstance(iterable, JSArray):
                items = list(iterable.elements)
            elif isinstance(iterable, str):
                items = list(iterable)
            else:
                raise JSError("TypeError: value is not iterable")
        else:
            if isinstance(iterable, JSObject):
                items = list(iterable.keys())
            elif isinstance(iterable, JSArray):
                items = [str(i) for i in range(len(iterable.elements))]
            elif isinstance(iterable, str):
                items = [str(i) for i in range(len(iterable))]
            else:
                items = []
        scope = Environment(env)
        scope.declare(node.name, UNDEFINED)
        for item in items:
            self._tick()
            scope.variables[node.name] = item
            try:
                self.execute(node.body, scope)
            except _Break:
                break
            except _Continue:
                continue
        return UNDEFINED

    def _exec_Return(self, node: ast.Return, env: Environment) -> object:
        value = self.evaluate(node.value, env) if node.value is not None else UNDEFINED
        raise _Return(value)

    def _exec_Break(self, node: ast.Break, env: Environment) -> object:
        raise _Break()

    def _exec_Continue(self, node: ast.Continue, env: Environment) -> object:
        raise _Continue()

    def _exec_Throw(self, node: ast.Throw, env: Environment) -> object:
        raise _Throw(self.evaluate(node.value, env))

    def _exec_Try(self, node: ast.Try, env: Environment) -> object:
        try:
            self.execute(node.block, env)
        except _Throw as thrown:
            if node.handler is not None:
                scope = Environment(env)
                if node.param:
                    scope.declare(node.param, thrown.value)
                self.execute(node.handler, scope)
            elif node.finalizer is None:
                raise
        except JSError as error:
            if node.handler is not None:
                scope = Environment(env)
                if node.param:
                    scope.declare(node.param, str(error))
                self.execute(node.handler, scope)
            elif node.finalizer is None:
                raise
        finally:
            if node.finalizer is not None:
                self.execute(node.finalizer, env)
        return UNDEFINED

    def _exec_Debugger(self, node: ast.Debugger, env: Environment) -> object:
        if self.on_debugger is not None:
            self.on_debugger()
        return UNDEFINED

    def _exec_Switch(self, node: ast.Switch, env: Environment) -> object:
        value = self.evaluate(node.discriminant, env)
        matched = False
        try:
            for test, statements in node.cases:
                if not matched:
                    if test is None:
                        continue
                    if not strict_equals(value, self.evaluate(test, env)):
                        continue
                    matched = True
                for statement in statements:
                    self.execute(statement, env)
            if not matched:
                running = False
                for test, statements in node.cases:
                    if test is None:
                        running = True
                    if running:
                        for statement in statements:
                            self.execute(statement, env)
        except _Break:
            pass
        return UNDEFINED

    # ------------------------------------------------------------------
    # Expression evaluation
    # ------------------------------------------------------------------
    def evaluate(self, node: ast.Node, env: Environment) -> object:
        self._tick()
        method = getattr(self, f"_eval_{type(node).__name__}", None)
        if method is None:
            raise JSError(f"cannot evaluate node {type(node).__name__}")
        return method(node, env)

    def _eval_Literal(self, node: ast.Literal, env: Environment) -> object:
        return node.value

    def _eval_TemplateLiteral(self, node: ast.TemplateLiteral, env: Environment) -> object:
        parts = []
        for kind, payload in node.parts:
            if kind == "str":
                parts.append(payload)
            else:
                parts.append(to_js_string(self.evaluate(payload, env)))
        return "".join(parts)

    def _eval_Identifier(self, node: ast.Identifier, env: Environment) -> object:
        return env.lookup(node.name)

    def _eval_ThisExpr(self, node: ast.ThisExpr, env: Environment) -> object:
        if env.has("this"):
            return env.lookup("this")
        return UNDEFINED

    def _eval_ArrayLiteral(self, node: ast.ArrayLiteral, env: Environment) -> object:
        return JSArray([self.evaluate(element, env) for element in node.elements])

    def _eval_ObjectLiteral(self, node: ast.ObjectLiteral, env: Environment) -> object:
        obj = JSObject()
        for key, value in node.entries:
            obj.set(key, self.evaluate(value, env))
        return obj

    def _eval_FunctionExpr(self, node: ast.FunctionExpr, env: Environment) -> object:
        bound_this = None
        if node.is_arrow and env.has("this"):
            bound_this = env.lookup("this")
        fn = JSFunction(node.name, node.params, node.body, env, node.is_arrow, bound_this)
        if node.name:
            # Named function expressions can refer to themselves.
            scope = Environment(env)
            scope.declare(node.name, fn)
            fn.closure = scope
        return fn

    def _eval_Member(self, node: ast.Member, env: Environment) -> object:
        obj = self.evaluate(node.obj, env)
        name = self._member_name(node, env)
        return self.get_property(obj, name)

    def _member_name(self, node: ast.Member, env: Environment) -> str:
        if node.computed:
            return to_property_key(self.evaluate(node.prop, env))
        assert isinstance(node.prop, ast.Identifier)
        return node.prop.name

    def _eval_Call(self, node: ast.Call, env: Environment) -> object:
        if isinstance(node.callee, ast.Member):
            this = self.evaluate(node.callee.obj, env)
            name = self._member_name(node.callee, env)
            fn = self.get_property(this, name)
            if fn is UNDEFINED:
                raise JSError(f"TypeError: {name} is not a function")
        else:
            this = UNDEFINED
            fn = self.evaluate(node.callee, env)
            # eval() needs the caller's scope; handle it as a special form.
            if isinstance(node.callee, ast.Identifier) and node.callee.name == "eval":
                source = self.evaluate(node.args[0], env) if node.args else ""
                if not isinstance(source, str):
                    return source
                return self.run_program(parse(source), env)
        args = [self.evaluate(arg, env) for arg in node.args]
        return self._call(fn, this, args)

    def _eval_New(self, node: ast.New, env: Environment) -> object:
        constructor = self.evaluate(node.callee, env)
        args = [self.evaluate(arg, env) for arg in node.args]
        if isinstance(constructor, NativeFunction):
            return constructor.fn(self, UNDEFINED, args)
        if isinstance(constructor, JSFunction):
            instance = JSObject()
            result = self._call(constructor, instance, args)
            return result if isinstance(result, (JSObject, JSArray)) else instance
        raise JSError("TypeError: not a constructor")

    def _eval_Unary(self, node: ast.Unary, env: Environment) -> object:
        if node.op == "typeof":
            # typeof of an undeclared name is 'undefined', not an error.
            if isinstance(node.operand, ast.Identifier) and not env.has(node.operand.name):
                return "undefined"
            return js_typeof(self.evaluate(node.operand, env))
        if node.op == "delete":
            if isinstance(node.operand, ast.Member):
                obj = self.evaluate(node.operand.obj, env)
                name = self._member_name(node.operand, env)
                if isinstance(obj, JSObject):
                    obj.properties.pop(name, None)
                    return True
            return True
        value = self.evaluate(node.operand, env)
        if node.op == "!":
            return not truthy(value)
        if node.op == "-":
            return -to_number(value)
        if node.op == "+":
            return to_number(value)
        if node.op == "~":
            return float(~int(to_number(value)))
        if node.op == "void":
            return UNDEFINED
        raise JSError(f"unsupported unary operator {node.op}")

    def _eval_Update(self, node: ast.Update, env: Environment) -> object:
        old = to_number(self._read_target(node.operand, env))
        new = old + 1 if node.op == "++" else old - 1
        self._write_target(node.operand, new, env)
        return new if node.prefix else old

    def _eval_Binary(self, node: ast.Binary, env: Environment) -> object:
        left = self.evaluate(node.left, env)
        right = self.evaluate(node.right, env)
        return binary_operate(node.op, left, right, self)

    def _eval_Logical(self, node: ast.Logical, env: Environment) -> object:
        left = self.evaluate(node.left, env)
        if node.op == "&&":
            return self.evaluate(node.right, env) if truthy(left) else left
        if node.op == "||":
            return left if truthy(left) else self.evaluate(node.right, env)
        if node.op == "??":
            if left is None or left is UNDEFINED:
                return self.evaluate(node.right, env)
            return left
        raise JSError(f"unsupported logical operator {node.op}")

    def _eval_Conditional(self, node: ast.Conditional, env: Environment) -> object:
        if truthy(self.evaluate(node.test, env)):
            return self.evaluate(node.consequent, env)
        return self.evaluate(node.alternate, env)

    def _eval_Assign(self, node: ast.Assign, env: Environment) -> object:
        if node.op == "=":
            value = self.evaluate(node.value, env)
        else:
            current = self._read_target(node.target, env)
            operand = self.evaluate(node.value, env)
            value = binary_operate(node.op[:-1], current, operand, self)
        self._write_target(node.target, value, env)
        return value

    def _eval_Sequence(self, node: ast.Sequence, env: Environment) -> object:
        result: object = UNDEFINED
        for expression in node.expressions:
            result = self.evaluate(expression, env)
        return result

    def _read_target(self, target: ast.Node, env: Environment) -> object:
        if isinstance(target, ast.Identifier):
            if env.has(target.name):
                return env.lookup(target.name)
            return UNDEFINED
        if isinstance(target, ast.Member):
            obj = self.evaluate(target.obj, env)
            return self.get_property(obj, self._member_name(target, env))
        raise JSError("invalid assignment target")

    def _write_target(self, target: ast.Node, value: object, env: Environment) -> None:
        if isinstance(target, ast.Identifier):
            env.assign(target.name, value)
            return
        if isinstance(target, ast.Member):
            obj = self.evaluate(target.obj, env)
            self.set_property(obj, self._member_name(target, env), value)
            return
        raise JSError("invalid assignment target")

    # ------------------------------------------------------------------
    # Property access
    # ------------------------------------------------------------------
    def get_property(self, obj: object, name: str) -> object:
        from repro.js.stdlib import builtin_property

        if obj is None or obj is UNDEFINED:
            raise JSError(f"TypeError: cannot read property {name!r} of {to_js_string(obj)}")
        if isinstance(obj, JSObject):
            if obj.has(name):
                return obj.get(name)
            return builtin_property(self, obj, name)
        return builtin_property(self, obj, name)

    def set_property(self, obj: object, name: str, value: object) -> None:
        if isinstance(obj, JSObject):
            obj.set(name, value)
            return
        if isinstance(obj, JSArray):
            if name == "length":
                new_length = int(to_number(value))
                del obj.elements[new_length:]
                obj.elements.extend([UNDEFINED] * (new_length - len(obj.elements)))
                return
            try:
                index = int(name)
            except ValueError:
                return  # silently ignored, like non-index array props
            if index >= len(obj.elements):
                obj.elements.extend([UNDEFINED] * (index + 1 - len(obj.elements)))
            obj.elements[index] = value
            return
        raise JSError(f"TypeError: cannot set property {name!r}")

    # ------------------------------------------------------------------
    # Calls
    # ------------------------------------------------------------------
    def _call(self, fn: object, this: object, args: list) -> object:
        self._tick()
        if isinstance(fn, NativeFunction):
            return fn.fn(self, this, args)
        if isinstance(fn, JSFunction):
            scope = Environment(fn.closure)
            if fn.is_arrow:
                if fn.bound_this is not None:
                    pass  # arrows keep the lexical this already in closure
            else:
                scope.declare("this", this)
            arguments = JSArray(list(args))
            scope.declare("arguments", arguments)
            for index, param in enumerate(fn.params):
                scope.declare(param, args[index] if index < len(args) else UNDEFINED)
            self._hoist(fn.body, scope)
            try:
                for statement in fn.body:
                    self.execute(statement, scope)
            except _Return as result:
                return result.value
            return UNDEFINED
        raise JSError(f"TypeError: {to_js_string(fn)} is not a function")


# ----------------------------------------------------------------------
# Coercions and operators (module-level helpers)
# ----------------------------------------------------------------------
def truthy(value: object) -> bool:
    if value is UNDEFINED or value is None:
        return False
    if isinstance(value, bool):
        return value
    if isinstance(value, float):
        return value != 0 and not math.isnan(value)
    if isinstance(value, int):
        return value != 0
    if isinstance(value, str):
        return len(value) > 0
    return True


def to_number(value: object) -> float:
    if isinstance(value, bool):
        return 1.0 if value else 0.0
    if isinstance(value, (int, float)):
        return float(value)
    if value is None:
        return 0.0
    if value is UNDEFINED:
        return math.nan
    if isinstance(value, str):
        text = value.strip()
        if not text:
            return 0.0
        try:
            if text.lower().startswith("0x"):
                return float(int(text, 16))
            return float(text)
        except ValueError:
            return math.nan
    if isinstance(value, JSArray):
        if not value.elements:
            return 0.0
        if len(value.elements) == 1:
            return to_number(value.elements[0])
    return math.nan


def js_number_to_string(value: float) -> str:
    if math.isnan(value):
        return "NaN"
    if value == math.inf:
        return "Infinity"
    if value == -math.inf:
        return "-Infinity"
    if float(value).is_integer() and abs(value) < 1e21:
        return str(int(value))
    return repr(float(value))


def to_js_string(value: object) -> str:
    if value is UNDEFINED:
        return "undefined"
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, float)):
        return js_number_to_string(float(value))
    if isinstance(value, str):
        return value
    if isinstance(value, JSArray):
        return ",".join("" if e is UNDEFINED or e is None else to_js_string(e) for e in value.elements)
    if isinstance(value, JSObject):
        return "[object Object]"
    if isinstance(value, (JSFunction, NativeFunction)):
        return f"function {getattr(value, 'name', '')}() {{ [code] }}"
    return str(value)


def to_property_key(value: object) -> str:
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return js_number_to_string(float(value))
    return to_js_string(value)


def js_typeof(value: object) -> str:
    if value is UNDEFINED:
        return "undefined"
    if isinstance(value, bool):
        return "boolean"
    if isinstance(value, (int, float)):
        return "number"
    if isinstance(value, str):
        return "string"
    if isinstance(value, (JSFunction, NativeFunction)):
        return "function"
    return "object"


def strict_equals(left: object, right: object) -> bool:
    if left is UNDEFINED or right is UNDEFINED:
        return left is right
    if left is None or right is None:
        return left is right
    if isinstance(left, bool) or isinstance(right, bool):
        return isinstance(left, bool) and isinstance(right, bool) and left == right
    if isinstance(left, (int, float)) and isinstance(right, (int, float)):
        return float(left) == float(right)
    if isinstance(left, str) and isinstance(right, str):
        return left == right
    return left is right


def loose_equals(left: object, right: object) -> bool:
    if (left is None or left is UNDEFINED) and (right is None or right is UNDEFINED):
        return True
    if (left is None or left is UNDEFINED) != (right is None or right is UNDEFINED):
        return False
    if isinstance(left, str) and isinstance(right, (int, float)) and not isinstance(right, bool):
        return to_number(left) == float(right)
    if isinstance(right, str) and isinstance(left, (int, float)) and not isinstance(left, bool):
        return to_number(right) == float(left)
    if isinstance(left, bool) or isinstance(right, bool):
        return to_number(left) == to_number(right)
    return strict_equals(left, right)


def binary_operate(op: str, left: object, right: object, interp: Interpreter) -> object:
    if op == "+":
        if isinstance(left, str) or isinstance(right, str) or isinstance(left, (JSObject, JSArray)) or isinstance(right, (JSObject, JSArray)):
            return to_js_string(left) + to_js_string(right)
        return to_number(left) + to_number(right)
    if op == "-":
        return to_number(left) - to_number(right)
    if op == "*":
        return to_number(left) * to_number(right)
    if op == "/":
        divisor = to_number(right)
        dividend = to_number(left)
        if divisor == 0:
            if dividend == 0 or math.isnan(dividend):
                return math.nan
            return math.inf if dividend > 0 else -math.inf
        return dividend / divisor
    if op == "%":
        divisor = to_number(right)
        if divisor == 0:
            return math.nan
        return math.fmod(to_number(left), divisor)
    if op == "**":
        return to_number(left) ** to_number(right)
    if op == "==":
        return loose_equals(left, right)
    if op == "!=":
        return not loose_equals(left, right)
    if op == "===":
        return strict_equals(left, right)
    if op == "!==":
        return not strict_equals(left, right)
    if op in ("<", ">", "<=", ">="):
        if isinstance(left, str) and isinstance(right, str):
            pair = (left, right)
        else:
            pair = (to_number(left), to_number(right))
            if math.isnan(pair[0]) or math.isnan(pair[1]):
                return False
        if op == "<":
            return pair[0] < pair[1]
        if op == ">":
            return pair[0] > pair[1]
        if op == "<=":
            return pair[0] <= pair[1]
        return pair[0] >= pair[1]
    if op in ("&", "|", "^", "<<", ">>", ">>>"):
        a = int(to_number(left)) & 0xFFFFFFFF
        b = int(to_number(right)) & 0xFFFFFFFF
        if op == "&":
            result = a & b
        elif op == "|":
            result = a | b
        elif op == "^":
            result = a ^ b
        elif op == "<<":
            result = (a << (b & 31)) & 0xFFFFFFFF
        elif op == ">>":
            signed = a - 0x100000000 if a & 0x80000000 else a
            return float(signed >> (b & 31))
        else:  # >>>
            result = a >> (b & 31)
        if result & 0x80000000 and op != ">>>":
            result -= 0x100000000
        return float(result)
    if op == "in":
        key = to_property_key(left)
        if isinstance(right, JSObject):
            return right.has(key)
        if isinstance(right, JSArray):
            try:
                return 0 <= int(key) < len(right.elements)
            except ValueError:
                return False
        return False
    if op == "instanceof":
        return False  # no prototype chains in the subset
    raise JSError(f"unsupported binary operator {op}")
