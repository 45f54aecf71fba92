"""Built-in objects and methods for the PhishScript interpreter.

Provides the globals phishing kits rely on (``atob``/``btoa``, ``console``,
``JSON``, ``Math``, ``Date``, timers, ``RegExp``, URI coders) as
:func:`global_table`, and ``builtin_property``, the method dispatcher for
primitive values, arrays, and objects.

``console`` is an ordinary mutable :class:`~repro.js.interp.JSObject`
whose methods scripts can overwrite — exactly what the console-hijacking
cloak found on 295 messages does.
"""

from __future__ import annotations

import base64
import binascii
import json
import math
import re
import urllib.parse

from repro.js.interp import (
    Interpreter,
    JSArray,
    JSError,
    JSFunction,
    JSObject,
    NativeFunction,
    UNDEFINED,
    js_number_to_string,
    strict_equals,
    to_js_string,
    to_number,
    truthy,
)


def native(fn, name: str = "") -> NativeFunction:
    """Wrap a Python callable as a script-callable native function."""
    wrapper = NativeFunction(fn, name)
    return wrapper


class JSRegExp:
    """A RegExp value backed by Python's ``re`` module."""

    def __init__(self, pattern: str, flags: str = ""):
        self.source = pattern
        self.flags = flags
        py_flags = 0
        if "i" in flags:
            py_flags |= re.IGNORECASE
        if "m" in flags:
            py_flags |= re.MULTILINE
        if "s" in flags:
            py_flags |= re.DOTALL
        try:
            self.regex = re.compile(pattern, py_flags)
        except re.error as exc:
            raise JSError(f"SyntaxError: invalid regular expression: {exc}") from exc
        self.global_flag = "g" in flags
        self.last_index = 0

    def __repr__(self) -> str:
        return f"/{self.source}/{self.flags}"


def _object_define_property(_i, _t, args):
    """Minimal Object.defineProperty supporting value descriptors."""
    if len(args) < 3 or not isinstance(args[0], JSObject):
        raise JSError("TypeError: Object.defineProperty on non-object")
    target, key, descriptor = args[0], to_js_string(args[1]), args[2]
    if isinstance(descriptor, JSObject) and descriptor.has("value"):
        target.set(key, descriptor.get("value"))
    return target


def _parse_float(text: str) -> float:
    match = re.match(r"^\s*[+-]?(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?", text)
    if not match:
        return math.nan
    return float(match.group(0))


# ----------------------------------------------------------------------
# The global table
# ----------------------------------------------------------------------
# Every native below is stateless: what it touches per run (the console
# log, the RNG, the clock, the timers, the global scope) it reaches
# through the interpreter it is called with.  Scripts cannot set
# properties on a NativeFunction, so one instance of each serves every
# interpreter in the process.  The objects scripts *can* mutate --
# ``globalThis``, ``console``, ``Math`` and ``JSON`` -- are built fresh
# for each interpreter by :func:`global_table`.
def _atob(_interp, _this, args):
    text = to_js_string(args[0] if args else "")
    try:
        return base64.b64decode(text.encode("ascii"), validate=False).decode("latin-1")
    except (binascii.Error, ValueError) as exc:
        raise JSError(f"InvalidCharacterError: {exc}") from exc


def _btoa(_interp, _this, args):
    text = to_js_string(args[0] if args else "")
    try:
        return base64.b64encode(text.encode("latin-1")).decode("ascii")
    except UnicodeEncodeError as exc:
        raise JSError("InvalidCharacterError: non latin-1 input to btoa") from exc


def _parse_int(_interp, _this, args):
    text = to_js_string(args[0] if args else "").strip()
    radix = int(to_number(args[1])) if len(args) > 1 and truthy(args[1]) else 10
    match = re.match(r"^[+-]?(0[xX][0-9a-fA-F]+|[0-9a-zA-Z]+)", text)
    if not match:
        return math.nan
    token = match.group(0)
    try:
        if token.lower().startswith(("0x", "+0x", "-0x")) and radix in (10, 16):
            return float(int(token, 16))
        # Trim characters invalid for the radix, like JS does.
        sign = 1
        if token[0] in "+-":
            sign = -1 if token[0] == "-" else 1
            token = token[1:]
        digits = ""
        for char in token:
            try:
                if int(char, radix) is not None:
                    digits += char
            except ValueError:
                break
        if not digits:
            return math.nan
        return float(sign * int(digits, radix))
    except ValueError:
        return math.nan


# console: a plain mutable object so kits can hijack its methods.
def _console_method(level: str) -> NativeFunction:
    def _log(_interp, _this, args):
        message = " ".join(to_js_string(arg) for arg in args)
        _interp.console_log.append((level, message))
        return UNDEFINED

    return native(_log, level)


_CONSOLE = {level: _console_method(level) for level in ("log", "warn", "error", "info", "debug", "trace")}
_CONSOLE["clear"] = native(lambda _i, _t, _a: UNDEFINED, "clear")


def _math1(fn, name):
    return native(lambda _i, _t, args: float(fn(to_number(args[0] if args else UNDEFINED))), name)


_MATH = {
    "floor": _math1(math.floor, "floor"),
    "ceil": _math1(math.ceil, "ceil"),
    "round": _math1(lambda x: math.floor(x + 0.5), "round"),
    "abs": _math1(abs, "abs"),
    "sqrt": _math1(math.sqrt, "sqrt"),
    "log": _math1(math.log, "log"),
    "sign": _math1(lambda x: (x > 0) - (x < 0), "sign"),
    "trunc": _math1(math.trunc, "trunc"),
    "pow": native(lambda _i, _t, args: to_number(args[0]) ** to_number(args[1]), "pow"),
    "min": native(lambda _i, _t, args: min((to_number(a) for a in args), default=math.inf), "min"),
    "max": native(lambda _i, _t, args: max((to_number(a) for a in args), default=-math.inf), "max"),
    "random": native(lambda _interp, _t, _a: _interp.rng.random(), "random"),
    "PI": math.pi,
    "E": math.e,
}


def _json_stringify(_interp, _this, args):
    value = args[0] if args else UNDEFINED
    if value is UNDEFINED:
        return UNDEFINED
    return json.dumps(js_to_python(value), separators=(",", ":"))


def _json_parse(_interp, _this, args):
    text = to_js_string(args[0] if args else "")
    try:
        return python_to_js(json.loads(text))
    except json.JSONDecodeError as exc:
        raise JSError(f"SyntaxError: JSON.parse: {exc}") from exc


_JSON = {"stringify": native(_json_stringify, "stringify"), "parse": native(_json_parse, "parse")}


# Date: callable constructor with a .now() static.
def _date_constructor(_interp, _this, args):
    obj = JSObject()
    now = _interp.clock_ms()
    obj.set("getTime", native(lambda _i, _t, _a: now, "getTime"))
    obj.set("getTimezoneOffset", native(lambda _i, _t, _a: 0.0, "getTimezoneOffset"))
    obj.set("toISOString", native(lambda _i, _t, _a: f"1970-01-01T00:00:{now / 1000.0:06.3f}Z", "toISOString"))
    obj.set("valueOf", native(lambda _i, _t, _a: now, "valueOf"))
    return obj


def _object_keys(_i, _t, args):
    target = args[0] if args else None
    if isinstance(target, JSObject):
        return JSArray(target.keys())
    if isinstance(target, JSArray):
        return JSArray([str(i) for i in range(len(target.elements))])
    return JSArray([])


def _object_assign(_i, _t, args):
    if not args or not isinstance(args[0], JSObject):
        raise JSError("TypeError: Object.assign target must be an object")
    target = args[0]
    for source in args[1:]:
        if isinstance(source, JSObject):
            target.properties.update(source.properties)
    return target


def _error_ctor(_i, _t, args):
    obj = JSObject()
    obj.set("message", to_js_string(args[0]) if args else "")
    obj.set("name", "Error")
    return obj


# Timers: registrations land on interp.timers; the host runs them.
def _set_timer(repeating: bool):
    def _register(_interp, _this, args):
        callback = args[0] if args else UNDEFINED
        delay = to_number(args[1]) if len(args) > 1 else 0.0
        return float(_interp.add_timer(callback, delay, repeating).id)

    return _register


def _clear_timer(_interp, _this, args):
    if args:
        timer_id = to_number(args[0])
        for timer in _interp.timers:
            if timer.id == timer_id:
                timer.cancelled = True
    return UNDEFINED


# Fallback eval (calls in expression position are special-formed in
# the interpreter; this covers indirect references).
def _eval(_interp, _this, args):
    source = args[0] if args else ""
    if not isinstance(source, str):
        return source
    from repro.js.parser import parse as _parse

    return _interp.run_program(_parse(source), _interp.globals)


#: Name -> value of every global, in declaration order.  ``None`` marks
#: the per-interpreter containers :func:`global_table` fills in.
_GLOBALS: dict[str, object] = {
    "undefined": UNDEFINED,
    "globalThis": None,
    "atob": native(_atob, "atob"),
    "btoa": native(_btoa, "btoa"),
    "NaN": math.nan,
    "Infinity": math.inf,
    "parseInt": native(_parse_int, "parseInt"),
    "parseFloat": native(
        lambda _i, _t, args: _parse_float(to_js_string(args[0] if args else "")), "parseFloat"
    ),
    "isNaN": native(lambda _i, _t, args: math.isnan(to_number(args[0] if args else UNDEFINED)), "isNaN"),
    "encodeURIComponent": native(
        lambda _i, _t, args: urllib.parse.quote(to_js_string(args[0] if args else ""), safe="!'()*-._~"),
        "encodeURIComponent",
    ),
    "decodeURIComponent": native(
        lambda _i, _t, args: urllib.parse.unquote(to_js_string(args[0] if args else "")),
        "decodeURIComponent",
    ),
    "console": None,
    "Math": None,
    "JSON": None,
    "Date": NativeFunction(
        _date_constructor, "Date", {"now": native(lambda _interp, _t, _a: _interp.clock_ms(), "now")}
    ),
    "String": NativeFunction(
        lambda _i, _t, args: to_js_string(args[0]) if args else "",
        "String",
        {
            "fromCharCode": native(
                lambda _i, _t, args: "".join(chr(int(to_number(a))) for a in args), "fromCharCode"
            ),
        },
    ),
    "Number": NativeFunction(
        lambda _i, _t, args: to_number(args[0]) if args else 0.0,
        "Number",
        {
            "isInteger": native(
                lambda _i, _t, args: isinstance(args[0], (int, float))
                and not isinstance(args[0], bool)
                and float(args[0]).is_integer()
                if args
                else False,
                "isInteger",
            ),
            "parseFloat": native(
                lambda _i, _t, args: _parse_float(to_js_string(args[0] if args else "")), "parseFloat"
            ),
            "MAX_SAFE_INTEGER": float(2**53 - 1),
        },
    ),
    "Boolean": native(lambda _i, _t, args: truthy(args[0]) if args else False, "Boolean"),
    "Array": NativeFunction(
        lambda _i, _t, args: JSArray(list(args)),
        "Array",
        {
            "isArray": native(lambda _i, _t, args: isinstance(args[0], JSArray) if args else False, "isArray"),
            "from": native(
                lambda _i, _t, args: JSArray(
                    list(args[0].elements) if args and isinstance(args[0], JSArray) else list(to_js_string(args[0])) if args else []
                ),
                "from",
            ),
        },
    ),
    "Object": NativeFunction(
        lambda _i, _t, args: args[0] if args else JSObject(),
        "Object",
        {
            "keys": native(_object_keys, "keys"),
            "values": native(
                lambda _i, _t, args: JSArray(list(args[0].properties.values()))
                if args and isinstance(args[0], JSObject)
                else JSArray([]),
                "values",
            ),
            "assign": native(_object_assign, "assign"),
            "entries": native(
                lambda _i, _t, args: JSArray(
                    [JSArray([k, v]) for k, v in args[0].properties.items()]
                )
                if args and isinstance(args[0], JSObject)
                else JSArray([]),
                "entries",
            ),
            "defineProperty": native(_object_define_property, "defineProperty"),
        },
    ),
    "RegExp": native(
        lambda _i, _t, args: JSRegExp(
            to_js_string(args[0]) if args else "",
            to_js_string(args[1]) if len(args) > 1 else "",
        ),
        "RegExp",
    ),
    "Error": native(_error_ctor, "Error"),
    "TypeError": native(_error_ctor, "TypeError"),
    "setTimeout": native(_set_timer(False), "setTimeout"),
    "setInterval": native(_set_timer(True), "setInterval"),
    "clearTimeout": native(_clear_timer, "clearTimeout"),
    "clearInterval": native(_clear_timer, "clearInterval"),
    "eval": native(_eval, "eval"),
}


def global_table() -> dict[str, object]:
    """A fresh global scope: the shared natives plus new mutable containers."""
    table = dict(_GLOBALS)
    table["globalThis"] = JSObject()
    table["console"] = JSObject(_CONSOLE)
    table["Math"] = JSObject(_MATH)
    table["JSON"] = JSObject(_JSON)
    return table


# ----------------------------------------------------------------------
# Conversions between JS and Python structures (for JSON and host code)
# ----------------------------------------------------------------------
def js_to_python(value: object) -> object:
    if value is UNDEFINED:
        return None
    if isinstance(value, JSArray):
        return [js_to_python(element) for element in value.elements]
    if isinstance(value, JSObject):
        return {key: js_to_python(val) for key, val in value.properties.items()}
    if isinstance(value, float) and value.is_integer() and abs(value) < 2**53:
        return int(value)
    if isinstance(value, (JSFunction, NativeFunction)):
        return None
    return value


def python_to_js(value: object) -> object:
    if value is None:
        return None
    if isinstance(value, bool):
        return value
    if isinstance(value, (int, float)):
        return float(value)
    if isinstance(value, str):
        return value
    if isinstance(value, (list, tuple)):
        return JSArray([python_to_js(element) for element in value])
    if isinstance(value, dict):
        return JSObject({str(key): python_to_js(val) for key, val in value.items()})
    return value


# ----------------------------------------------------------------------
# Method dispatch for primitives and containers
# ----------------------------------------------------------------------
def builtin_property(interp: Interpreter, obj: object, name: str) -> object:
    """Resolve built-in properties/methods on non-JSObject values."""
    if isinstance(obj, str):
        return _string_property(obj, name)
    if isinstance(obj, JSArray):
        return _array_property(interp, obj, name)
    if isinstance(obj, JSRegExp):
        return _regexp_property(obj, name)
    if isinstance(obj, (int, float)) and not isinstance(obj, bool):
        return _number_property(float(obj), name)
    if isinstance(obj, (JSFunction, NativeFunction)):
        return _function_property(interp, obj, name)
    if isinstance(obj, JSObject):
        if name == "hasOwnProperty":
            return native(
                lambda _i, this, args: isinstance(this, JSObject)
                and this.has(to_js_string(args[0]) if args else ""),
                "hasOwnProperty",
            )
        if name == "toString":
            return native(lambda _i, this, _a: to_js_string(this), "toString")
        return UNDEFINED
    return UNDEFINED


def _string_property(value: str, name: str) -> object:
    if name == "length":
        return float(len(value))
    try:
        index = int(name)
        if 0 <= index < len(value):
            return value[index]
    except ValueError:
        pass

    def method(fn, label):
        return native(fn, label)

    if name == "charAt":
        return method(
            lambda _i, this, args: this[int(to_number(args[0]))] if args and 0 <= int(to_number(args[0])) < len(this) else "",
            name,
        )
    if name == "charCodeAt":
        return method(
            lambda _i, this, args: float(ord(this[int(to_number(args[0])) if args else 0]))
            if (int(to_number(args[0])) if args else 0) < len(this)
            else math.nan,
            name,
        )
    if name == "codePointAt":
        return method(
            lambda _i, this, args: float(ord(this[int(to_number(args[0])) if args else 0])), name
        )
    if name == "indexOf":
        return method(
            lambda _i, this, args: float(this.find(to_js_string(args[0]) if args else "")), name
        )
    if name == "lastIndexOf":
        return method(
            lambda _i, this, args: float(this.rfind(to_js_string(args[0]) if args else "")), name
        )
    if name == "includes":
        return method(
            lambda _i, this, args: (to_js_string(args[0]) if args else "") in this, name
        )
    if name == "startsWith":
        return method(
            lambda _i, this, args: this.startswith(to_js_string(args[0]) if args else ""), name
        )
    if name == "endsWith":
        return method(
            lambda _i, this, args: this.endswith(to_js_string(args[0]) if args else ""), name
        )
    if name == "slice":
        return method(lambda _i, this, args: _js_slice(this, args), name)
    if name == "substring":
        return method(lambda _i, this, args: _js_substring(this, args), name)
    if name == "substr":
        return method(lambda _i, this, args: _js_substr(this, args), name)
    if name == "split":
        return method(lambda _i, this, args: _js_split(this, args), name)
    if name == "replace":
        return method(lambda interp, this, args: _js_replace(interp, this, args, all_matches=False), name)
    if name == "replaceAll":
        return method(lambda interp, this, args: _js_replace(interp, this, args, all_matches=True), name)
    if name == "toLowerCase":
        return method(lambda _i, this, _a: this.lower(), name)
    if name == "toUpperCase":
        return method(lambda _i, this, _a: this.upper(), name)
    if name == "trim":
        return method(lambda _i, this, _a: this.strip(), name)
    if name == "repeat":
        return method(lambda _i, this, args: this * int(to_number(args[0])) if args else "", name)
    if name == "concat":
        return method(lambda _i, this, args: this + "".join(to_js_string(a) for a in args), name)
    if name == "padStart":
        return method(
            lambda _i, this, args: this.rjust(
                int(to_number(args[0])) if args else 0,
                (to_js_string(args[1]) if len(args) > 1 else " ")[0] if (to_js_string(args[1]) if len(args) > 1 else " ") else " ",
            ),
            name,
        )
    if name == "padEnd":
        return method(
            lambda _i, this, args: this.ljust(
                int(to_number(args[0])) if args else 0,
                (to_js_string(args[1]) if len(args) > 1 else " ")[0] if (to_js_string(args[1]) if len(args) > 1 else " ") else " ",
            ),
            name,
        )
    if name == "match":
        return method(lambda _i, this, args: _js_match(this, args), name)
    if name == "search":
        return method(lambda _i, this, args: _js_search(this, args), name)
    if name == "toString":
        return method(lambda _i, this, _a: this, name)
    if name == "at":
        return method(lambda _i, this, args: _js_at(this, args), name)
    return UNDEFINED


def _js_slice(this: str, args: list) -> str:
    start = int(to_number(args[0])) if args else 0
    end = int(to_number(args[1])) if len(args) > 1 and args[1] is not UNDEFINED else len(this)
    return this[slice(start if start >= 0 else max(0, len(this) + start), end if end >= 0 else max(0, len(this) + end))]


def _js_substring(this: str, args: list) -> str:
    start = max(0, int(to_number(args[0]))) if args else 0
    end = max(0, int(to_number(args[1]))) if len(args) > 1 and args[1] is not UNDEFINED else len(this)
    start, end = min(start, end), max(start, end)
    return this[start:end]


def _js_substr(this: str, args: list) -> str:
    start = int(to_number(args[0])) if args else 0
    if start < 0:
        start = max(0, len(this) + start)
    length = int(to_number(args[1])) if len(args) > 1 else len(this) - start
    return this[start : start + max(0, length)]


def _js_at(this: str, args: list) -> object:
    index = int(to_number(args[0])) if args else 0
    if index < 0:
        index += len(this)
    if 0 <= index < len(this):
        return this[index]
    return UNDEFINED


def _js_split(this: str, args: list) -> JSArray:
    if not args or args[0] is UNDEFINED:
        return JSArray([this])
    separator = args[0]
    if isinstance(separator, JSRegExp):
        return JSArray(separator.regex.split(this))
    separator = to_js_string(separator)
    if separator == "":
        return JSArray(list(this))
    return JSArray(this.split(separator))


def _js_replace(interp: Interpreter, this: str, args: list, all_matches: bool) -> str:
    if len(args) < 2:
        return this
    pattern, replacement = args[0], args[1]

    def replace_with(match_text: str, groups: tuple) -> str:
        if isinstance(replacement, (JSFunction, NativeFunction)):
            call_args: list = [match_text] + list(groups)
            return to_js_string(interp.call_function(replacement, UNDEFINED, call_args))
        return to_js_string(replacement)

    if isinstance(pattern, JSRegExp):
        count = 0 if (pattern.global_flag or all_matches) else 1

        def _sub(match: re.Match) -> str:
            text = replace_with(match.group(0), match.groups())
            # Support $1..$9 backreferences in string replacements.
            if not isinstance(replacement, (JSFunction, NativeFunction)):
                for index, group in enumerate(match.groups(), start=1):
                    text = text.replace(f"${index}", group or "")
            return text

        return pattern.regex.sub(_sub, this, count=count)
    needle = to_js_string(pattern)
    replaced = replace_with(needle, ())
    if all_matches:
        return this.replace(needle, replaced)
    return this.replace(needle, replaced, 1)


def _js_match(this: str, args: list) -> object:
    if not args:
        return None
    pattern = args[0] if isinstance(args[0], JSRegExp) else JSRegExp(to_js_string(args[0]))
    if pattern.global_flag:
        found = pattern.regex.findall(this)
        if not found:
            return None
        return JSArray([f if isinstance(f, str) else f[0] for f in found])
    match = pattern.regex.search(this)
    if match is None:
        return None
    result = JSArray([match.group(0)] + [g if g is not None else UNDEFINED for g in match.groups()])
    return result


def _js_search(this: str, args: list) -> float:
    if not args:
        return -1.0
    pattern = args[0] if isinstance(args[0], JSRegExp) else JSRegExp(to_js_string(args[0]))
    match = pattern.regex.search(this)
    return float(match.start()) if match else -1.0


def _array_property(interp: Interpreter, array: JSArray, name: str) -> object:
    elements = array.elements
    if name == "length":
        return float(len(elements))
    try:
        index = int(name)
        if 0 <= index < len(elements):
            return elements[index]
        return UNDEFINED
    except ValueError:
        pass

    if name == "push":
        def _push(_i, this, args):
            this.elements.extend(args)
            return float(len(this.elements))
        return native(_push, name)
    if name == "pop":
        return native(lambda _i, this, _a: this.elements.pop() if this.elements else UNDEFINED, name)
    if name == "shift":
        return native(lambda _i, this, _a: this.elements.pop(0) if this.elements else UNDEFINED, name)
    if name == "unshift":
        def _unshift(_i, this, args):
            this.elements[0:0] = args
            return float(len(this.elements))
        return native(_unshift, name)
    if name == "indexOf":
        def _index_of(_i, this, args):
            target = args[0] if args else UNDEFINED
            for position, element in enumerate(this.elements):
                if strict_equals(element, target):
                    return float(position)
            return -1.0
        return native(_index_of, name)
    if name == "includes":
        def _includes(_i, this, args):
            target = args[0] if args else UNDEFINED
            return any(strict_equals(element, target) for element in this.elements)
        return native(_includes, name)
    if name == "join":
        return native(
            lambda _i, this, args: (to_js_string(args[0]) if args else ",").join(
                "" if e is None or e is UNDEFINED else to_js_string(e) for e in this.elements
            ),
            name,
        )
    if name == "slice":
        def _slice(_i, this, args):
            start = int(to_number(args[0])) if args else 0
            end = int(to_number(args[1])) if len(args) > 1 and args[1] is not UNDEFINED else len(this.elements)
            return JSArray(this.elements[start:end] if start >= 0 else this.elements[start:end or None])
        return native(_slice, name)
    if name == "splice":
        def _splice(_i, this, args):
            start = int(to_number(args[0])) if args else 0
            count = int(to_number(args[1])) if len(args) > 1 else len(this.elements) - start
            removed = this.elements[start : start + count]
            this.elements[start : start + count] = list(args[2:])
            return JSArray(removed)
        return native(_splice, name)
    if name == "concat":
        def _concat(_i, this, args):
            result = list(this.elements)
            for arg in args:
                if isinstance(arg, JSArray):
                    result.extend(arg.elements)
                else:
                    result.append(arg)
            return JSArray(result)
        return native(_concat, name)
    if name == "reverse":
        def _reverse(_i, this, _a):
            this.elements.reverse()
            return this
        return native(_reverse, name)
    if name == "map":
        def _map(interp_, this, args):
            fn = args[0]
            return JSArray(
                [interp_.call_function(fn, UNDEFINED, [element, float(i), this]) for i, element in enumerate(this.elements)]
            )
        return native(_map, name)
    if name == "filter":
        def _filter(interp_, this, args):
            fn = args[0]
            return JSArray(
                [e for i, e in enumerate(this.elements) if truthy(interp_.call_function(fn, UNDEFINED, [e, float(i), this]))]
            )
        return native(_filter, name)
    if name == "forEach":
        def _for_each(interp_, this, args):
            fn = args[0]
            for i, element in enumerate(list(this.elements)):
                interp_.call_function(fn, UNDEFINED, [element, float(i), this])
            return UNDEFINED
        return native(_for_each, name)
    if name == "find":
        def _find(interp_, this, args):
            fn = args[0]
            for i, element in enumerate(this.elements):
                if truthy(interp_.call_function(fn, UNDEFINED, [element, float(i), this])):
                    return element
            return UNDEFINED
        return native(_find, name)
    if name == "findIndex":
        def _find_index(interp_, this, args):
            fn = args[0]
            for i, element in enumerate(this.elements):
                if truthy(interp_.call_function(fn, UNDEFINED, [element, float(i), this])):
                    return float(i)
            return -1.0
        return native(_find_index, name)
    if name == "some":
        def _some(interp_, this, args):
            fn = args[0]
            return any(
                truthy(interp_.call_function(fn, UNDEFINED, [e, float(i), this]))
                for i, e in enumerate(this.elements)
            )
        return native(_some, name)
    if name == "every":
        def _every(interp_, this, args):
            fn = args[0]
            return all(
                truthy(interp_.call_function(fn, UNDEFINED, [e, float(i), this]))
                for i, e in enumerate(this.elements)
            )
        return native(_every, name)
    if name == "reduce":
        def _reduce(interp_, this, args):
            fn = args[0]
            items = list(this.elements)
            if len(args) > 1:
                accumulator = args[1]
                start = 0
            else:
                if not items:
                    raise JSError("TypeError: reduce of empty array with no initial value")
                accumulator = items[0]
                start = 1
            for i in range(start, len(items)):
                accumulator = interp_.call_function(fn, UNDEFINED, [accumulator, items[i], float(i), this])
            return accumulator
        return native(_reduce, name)
    if name == "sort":
        def _sort(interp_, this, args):
            if args and args[0] is not UNDEFINED:
                fn = args[0]
                import functools

                def compare(a, b):
                    result = to_number(interp_.call_function(fn, UNDEFINED, [a, b]))
                    return -1 if result < 0 else (1 if result > 0 else 0)

                this.elements.sort(key=functools.cmp_to_key(compare))
            else:
                this.elements.sort(key=to_js_string)
            return this
        return native(_sort, name)
    if name == "toString":
        return native(lambda _i, this, _a: to_js_string(this), name)
    return UNDEFINED


def _regexp_property(regexp: JSRegExp, name: str) -> object:
    if name == "source":
        return regexp.source
    if name == "flags":
        return regexp.flags
    if name == "global":
        return regexp.global_flag
    if name == "lastIndex":
        return float(regexp.last_index)
    if name == "test":
        return native(
            lambda _i, this, args: this.regex.search(to_js_string(args[0] if args else "")) is not None,
            name,
        )
    if name == "exec":
        def _exec(_i, this, args):
            text = to_js_string(args[0] if args else "")
            start = this.last_index if this.global_flag else 0
            match = this.regex.search(text, start)
            if match is None:
                this.last_index = 0
                return None
            if this.global_flag:
                this.last_index = match.end()
            return JSArray([match.group(0)] + [g if g is not None else UNDEFINED for g in match.groups()])
        return native(_exec, name)
    return UNDEFINED


def _number_property(value: float, name: str) -> object:
    if name == "toString":
        def _to_string(_i, this, args):
            if args:
                radix = int(to_number(args[0]))
                integer = int(this)
                if radix == 10:
                    return js_number_to_string(this)
                digits = "0123456789abcdefghijklmnopqrstuvwxyz"
                if integer == 0:
                    return "0"
                negative = integer < 0
                integer = abs(integer)
                out = ""
                while integer:
                    out = digits[integer % radix] + out
                    integer //= radix
                return ("-" if negative else "") + out
            return js_number_to_string(this)
        return native(_to_string, name)
    if name == "toFixed":
        return native(
            lambda _i, this, args: f"{this:.{int(to_number(args[0])) if args else 0}f}", name
        )
    return UNDEFINED


def _function_property(interp: Interpreter, fn: object, name: str) -> object:
    attached = getattr(fn, "properties", None)
    if attached and name in attached:
        return attached[name]
    if name == "name":
        return getattr(fn, "name", "")
    if name == "call":
        def _call(interp_, this, args):
            target_this = args[0] if args else UNDEFINED
            return interp_.call_function(this, target_this, list(args[1:]))
        return native(_call, name)
    if name == "apply":
        def _apply(interp_, this, args):
            target_this = args[0] if args else UNDEFINED
            call_args = list(args[1].elements) if len(args) > 1 and isinstance(args[1], JSArray) else []
            return interp_.call_function(this, target_this, call_args)
        return native(_apply, name)
    if name == "bind":
        def _bind(interp_, this, args):
            bound_this = args[0] if args else UNDEFINED
            bound_args = list(args[1:])
            inner = this

            def _bound(interp__, _t, call_args):
                return interp__.call_function(inner, bound_this, bound_args + list(call_args))

            return native(_bound, f"bound {getattr(this, 'name', '')}")
        return native(_bind, name)
    if name == "toString":
        return native(lambda _i, this, _a: to_js_string(this), name)
    return UNDEFINED
