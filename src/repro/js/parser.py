"""Recursive-descent parser for the PhishScript JavaScript subset.

Parsed programs are cached in a small LRU keyed by a hash of the script
source: phishing kits deploy the same cloaking/anti-debug scripts on
every page of a campaign, so a corpus run re-lexes and re-parses the
same few hundred distinct scripts thousands of times.  The cache
returns the *same* ``Program`` object for identical sources — safe
because AST nodes are plain dataclasses that the interpreter never
mutates (all mutable evaluation state lives in ``Environment``).
The LRU is the one :class:`repro._memo.LRU` the screenshot fingerprint
memo also uses; its capacity is the constant ``PARSE_CACHE_SIZE``.
"""

from __future__ import annotations

import hashlib

from repro._memo import LRU
from repro.js import nodes as ast
from repro.js.lexer import JSSyntaxError, Token, tokenize

#: Binary operator precedence (higher binds tighter).
_BINARY_PRECEDENCE = {
    "|": 5, "^": 6, "&": 7,
    "==": 8, "!=": 8, "===": 8, "!==": 8,
    "<": 9, ">": 9, "<=": 9, ">=": 9, "in": 9, "instanceof": 9,
    "<<": 10, ">>": 10, ">>>": 10,
    "+": 11, "-": 11,
    "*": 12, "/": 12, "%": 12,
    "**": 13,
}

_ASSIGN_OPS = {"=", "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^="}


class Parser:
    """Parses a token stream into a :class:`~repro.js.nodes.Program`."""

    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.position = 0

    # ------------------------------------------------------------------
    # Token helpers
    # ------------------------------------------------------------------
    def peek(self, offset: int = 0) -> Token:
        index = min(self.position + offset, len(self.tokens) - 1)
        return self.tokens[index]

    def advance(self) -> Token:
        token = self.tokens[self.position]
        if token.kind != "eof":
            self.position += 1
        return token

    def at(self, kind: str, value: object = None) -> bool:
        token = self.peek()
        if token.kind != kind:
            return False
        return value is None or token.value == value

    def expect(self, kind: str, value: object = None) -> Token:
        token = self.peek()
        if not self.at(kind, value):
            raise JSSyntaxError(
                f"line {token.line}: expected {value or kind}, got {token.value!r}"
            )
        return self.advance()

    def eat(self, kind: str, value: object = None) -> bool:
        if self.at(kind, value):
            self.advance()
            return True
        return False

    def _eat_semicolon(self) -> None:
        """Consume an optional statement terminator (ASI is forgiving)."""
        self.eat("punct", ";")

    # ------------------------------------------------------------------
    # Program and statements
    # ------------------------------------------------------------------
    def parse_program(self) -> ast.Program:
        body = []
        while not self.at("eof"):
            body.append(self.parse_statement())
        return ast.Program(body)

    def parse_statement(self) -> ast.Node:
        token = self.peek()
        if token.kind == "punct" and token.value == "{":
            return self.parse_block()
        if token.kind == "punct" and token.value == ";":
            self.advance()
            return ast.Empty()
        if token.kind == "keyword":
            keyword = token.value
            if keyword in ("var", "let", "const"):
                statement = self.parse_var_decl()
                self._eat_semicolon()
                return statement
            if keyword == "function":
                return self.parse_function_decl()
            if keyword == "if":
                return self.parse_if()
            if keyword == "while":
                return self.parse_while()
            if keyword == "do":
                return self.parse_do_while()
            if keyword == "for":
                return self.parse_for()
            if keyword == "return":
                self.advance()
                value = None
                if not self.at("punct", ";") and not self.at("punct", "}") and not self.at("eof"):
                    value = self.parse_expression()
                self._eat_semicolon()
                return ast.Return(value)
            if keyword == "break":
                self.advance()
                self._eat_semicolon()
                return ast.Break()
            if keyword == "continue":
                self.advance()
                self._eat_semicolon()
                return ast.Continue()
            if keyword == "throw":
                self.advance()
                value = self.parse_expression()
                self._eat_semicolon()
                return ast.Throw(value)
            if keyword == "try":
                return self.parse_try()
            if keyword == "debugger":
                self.advance()
                self._eat_semicolon()
                return ast.Debugger()
            if keyword == "switch":
                return self.parse_switch()
        expression = self.parse_expression()
        self._eat_semicolon()
        return ast.ExprStatement(expression)

    def parse_block(self) -> ast.Block:
        self.expect("punct", "{")
        body = []
        while not self.at("punct", "}"):
            if self.at("eof"):
                raise JSSyntaxError("unexpected end of input in block")
            body.append(self.parse_statement())
        self.expect("punct", "}")
        return ast.Block(body)

    def parse_var_decl(self) -> ast.VarDecl:
        kind = self.advance().value
        declarations = []
        while True:
            name = self.expect("ident").value
            initializer = None
            if self.eat("punct", "="):
                initializer = self.parse_assignment()
            declarations.append((name, initializer))
            if not self.eat("punct", ","):
                break
        return ast.VarDecl(str(kind), declarations)

    def parse_function_decl(self) -> ast.FunctionDecl:
        self.expect("keyword", "function")
        name = self.expect("ident").value
        params = self.parse_params()
        body = self.parse_block().body
        return ast.FunctionDecl(str(name), params, body)

    def parse_params(self) -> list[str]:
        self.expect("punct", "(")
        params = []
        while not self.at("punct", ")"):
            params.append(str(self.expect("ident").value))
            if not self.eat("punct", ","):
                break
        self.expect("punct", ")")
        return params

    def parse_if(self) -> ast.If:
        self.expect("keyword", "if")
        self.expect("punct", "(")
        test = self.parse_expression()
        self.expect("punct", ")")
        consequent = self.parse_statement()
        alternate = None
        if self.eat("keyword", "else"):
            alternate = self.parse_statement()
        return ast.If(test, consequent, alternate)

    def parse_while(self) -> ast.While:
        self.expect("keyword", "while")
        self.expect("punct", "(")
        test = self.parse_expression()
        self.expect("punct", ")")
        return ast.While(test, self.parse_statement())

    def parse_do_while(self) -> ast.DoWhile:
        self.expect("keyword", "do")
        body = self.parse_statement()
        self.expect("keyword", "while")
        self.expect("punct", "(")
        test = self.parse_expression()
        self.expect("punct", ")")
        self._eat_semicolon()
        return ast.DoWhile(test, body)

    def parse_for(self) -> ast.Node:
        self.expect("keyword", "for")
        self.expect("punct", "(")
        # for (x in y) / for (var x of y) forms.
        kind = None
        checkpoint = self.position
        if self.peek().kind == "keyword" and self.peek().value in ("var", "let", "const"):
            kind = str(self.advance().value)
        if self.peek().kind == "ident" and self.peek(1).kind == "keyword" and self.peek(1).value in ("in", "of"):
            name = str(self.advance().value)
            of = self.advance().value == "of"
            iterable = self.parse_expression()
            self.expect("punct", ")")
            return ast.ForIn(kind, name, of, iterable, self.parse_statement())
        self.position = checkpoint

        init = None
        if not self.at("punct", ";"):
            if self.peek().kind == "keyword" and self.peek().value in ("var", "let", "const"):
                init = self.parse_var_decl()
            else:
                init = ast.ExprStatement(self.parse_expression())
        self.expect("punct", ";")
        test = None if self.at("punct", ";") else self.parse_expression()
        self.expect("punct", ";")
        update = None if self.at("punct", ")") else self.parse_expression()
        self.expect("punct", ")")
        return ast.For(init, test, update, self.parse_statement())

    def parse_try(self) -> ast.Try:
        self.expect("keyword", "try")
        block = self.parse_block()
        param = None
        handler = None
        finalizer = None
        if self.eat("keyword", "catch"):
            if self.eat("punct", "("):
                param = str(self.expect("ident").value)
                self.expect("punct", ")")
            handler = self.parse_block()
        if self.eat("keyword", "finally"):
            finalizer = self.parse_block()
        if handler is None and finalizer is None:
            raise JSSyntaxError("try without catch or finally")
        return ast.Try(block, param, handler, finalizer)

    def parse_switch(self) -> ast.Switch:
        self.expect("keyword", "switch")
        self.expect("punct", "(")
        discriminant = self.parse_expression()
        self.expect("punct", ")")
        self.expect("punct", "{")
        cases = []
        while not self.at("punct", "}"):
            if self.eat("keyword", "case"):
                test = self.parse_expression()
            else:
                self.expect("keyword", "default")
                test = None
            self.expect("punct", ":")
            statements = []
            while not (
                self.at("keyword", "case")
                or self.at("keyword", "default")
                or self.at("punct", "}")
            ):
                statements.append(self.parse_statement())
            cases.append((test, statements))
        self.expect("punct", "}")
        return ast.Switch(discriminant, cases)

    # ------------------------------------------------------------------
    # Expressions
    # ------------------------------------------------------------------
    def parse_expression(self) -> ast.Node:
        expression = self.parse_assignment()
        if self.at("punct", ","):
            expressions = [expression]
            while self.eat("punct", ","):
                expressions.append(self.parse_assignment())
            return ast.Sequence(expressions)
        return expression

    def parse_assignment(self) -> ast.Node:
        arrow = self._try_parse_arrow()
        if arrow is not None:
            return arrow
        target = self.parse_conditional()
        token = self.peek()
        if token.kind == "punct" and token.value in _ASSIGN_OPS:
            if not isinstance(target, (ast.Identifier, ast.Member)):
                raise JSSyntaxError(f"line {token.line}: invalid assignment target")
            op = str(self.advance().value)
            value = self.parse_assignment()
            return ast.Assign(op, target, value)
        return target

    def _try_parse_arrow(self) -> ast.FunctionExpr | None:
        """Detect ``ident =>`` and ``(a, b) =>`` arrow functions."""
        token = self.peek()
        if token.kind == "ident" and self.peek(1).kind == "punct" and self.peek(1).value == "=>":
            name = str(self.advance().value)
            self.advance()  # =>
            return self._finish_arrow([name])
        if token.kind == "punct" and token.value == "(":
            # Scan ahead for ') =>'.
            depth = 0
            offset = 0
            while True:
                scan = self.peek(offset)
                if scan.kind == "eof":
                    return None
                if scan.kind == "punct" and scan.value == "(":
                    depth += 1
                elif scan.kind == "punct" and scan.value == ")":
                    depth -= 1
                    if depth == 0:
                        break
                offset += 1
            after = self.peek(offset + 1)
            if not (after.kind == "punct" and after.value == "=>"):
                return None
            params = self.parse_params()
            self.expect("punct", "=>")
            return self._finish_arrow(params)
        return None

    def _finish_arrow(self, params: list[str]) -> ast.FunctionExpr:
        if self.at("punct", "{"):
            body = self.parse_block().body
        else:
            body = [ast.Return(self.parse_assignment())]
        return ast.FunctionExpr(None, params, body, is_arrow=True)

    def parse_conditional(self) -> ast.Node:
        test = self.parse_logical_or()
        if self.eat("punct", "?"):
            consequent = self.parse_assignment()
            self.expect("punct", ":")
            alternate = self.parse_assignment()
            return ast.Conditional(test, consequent, alternate)
        return test

    def parse_logical_or(self) -> ast.Node:
        left = self.parse_logical_and()
        while self.at("punct", "||") or self.at("punct", "??"):
            op = str(self.advance().value)
            left = ast.Logical(op, left, self.parse_logical_and())
        return left

    def parse_logical_and(self) -> ast.Node:
        left = self.parse_binary(0)
        while self.at("punct", "&&"):
            self.advance()
            left = ast.Logical("&&", left, self.parse_binary(0))
        return left

    def parse_binary(self, min_precedence: int) -> ast.Node:
        left = self.parse_unary()
        while True:
            token = self.peek()
            op = None
            if token.kind == "punct" and token.value in _BINARY_PRECEDENCE:
                op = str(token.value)
            elif token.kind == "keyword" and token.value in ("in", "instanceof"):
                op = str(token.value)
            if op is None:
                return left
            precedence = _BINARY_PRECEDENCE[op]
            if precedence < min_precedence:
                return left
            self.advance()
            right = self.parse_binary(precedence + 1)
            left = ast.Binary(op, left, right)

    def parse_unary(self) -> ast.Node:
        token = self.peek()
        if token.kind == "punct" and token.value in ("!", "-", "+", "~"):
            self.advance()
            return ast.Unary(str(token.value), self.parse_unary())
        if token.kind == "keyword" and token.value in ("typeof", "void", "delete"):
            self.advance()
            return ast.Unary(str(token.value), self.parse_unary())
        if token.kind == "punct" and token.value in ("++", "--"):
            self.advance()
            operand = self.parse_unary()
            return ast.Update(str(token.value), operand, prefix=True)
        return self.parse_postfix()

    def parse_postfix(self) -> ast.Node:
        expression = self.parse_call_member()
        token = self.peek()
        if token.kind == "punct" and token.value in ("++", "--"):
            self.advance()
            return ast.Update(str(token.value), expression, prefix=False)
        return expression

    def parse_call_member(self) -> ast.Node:
        if self.at("keyword", "new"):
            self.advance()
            callee = self.parse_call_member_base()
            args: list = []
            if self.at("punct", "("):
                args = self.parse_args()
            expression: ast.Node = ast.New(callee, args)
        else:
            expression = self.parse_call_member_base()
        while True:
            if self.eat("punct", "."):
                name_token = self.peek()
                if name_token.kind not in ("ident", "keyword"):
                    raise JSSyntaxError(f"line {name_token.line}: expected property name")
                self.advance()
                expression = ast.Member(expression, ast.Identifier(str(name_token.value)), computed=False)
            elif self.at("punct", "["):
                self.advance()
                prop = self.parse_expression()
                self.expect("punct", "]")
                expression = ast.Member(expression, prop, computed=True)
            elif self.at("punct", "("):
                expression = ast.Call(expression, self.parse_args())
            else:
                return expression

    def parse_call_member_base(self) -> ast.Node:
        """Primary expression that may itself contain member accesses."""
        return self.parse_primary()

    def parse_args(self) -> list:
        self.expect("punct", "(")
        args = []
        while not self.at("punct", ")"):
            args.append(self.parse_assignment())
            if not self.eat("punct", ","):
                break
        self.expect("punct", ")")
        return args

    def parse_primary(self) -> ast.Node:
        token = self.peek()
        if token.kind == "num" or token.kind == "str":
            self.advance()
            return ast.Literal(token.value)
        if token.kind == "template":
            self.advance()
            parts: list = []
            for kind, text in token.value:  # type: ignore[union-attr]
                if kind == "str":
                    parts.append(("str", text))
                else:
                    parts.append(("expr", parse_expression_source(text)))
            return ast.TemplateLiteral(parts)
        if token.kind == "keyword":
            keyword = token.value
            if keyword == "true":
                self.advance()
                return ast.Literal(True)
            if keyword == "false":
                self.advance()
                return ast.Literal(False)
            if keyword == "null":
                self.advance()
                return ast.Literal(None)
            if keyword == "undefined":
                self.advance()
                return ast.Identifier("undefined")
            if keyword == "this":
                self.advance()
                return ast.ThisExpr()
            if keyword == "function":
                self.advance()
                name = None
                if self.peek().kind == "ident":
                    name = str(self.advance().value)
                params = self.parse_params()
                body = self.parse_block().body
                return ast.FunctionExpr(name, params, body)
        if token.kind == "ident":
            self.advance()
            return ast.Identifier(str(token.value))
        if token.kind == "punct":
            if token.value == "(":
                self.advance()
                expression = self.parse_expression()
                self.expect("punct", ")")
                return expression
            if token.value == "[":
                self.advance()
                elements = []
                while not self.at("punct", "]"):
                    elements.append(self.parse_assignment())
                    if not self.eat("punct", ","):
                        break
                self.expect("punct", "]")
                return ast.ArrayLiteral(elements)
            if token.value == "{":
                return self.parse_object_literal()
        raise JSSyntaxError(f"line {token.line}: unexpected token {token.value!r}")

    def parse_object_literal(self) -> ast.ObjectLiteral:
        self.expect("punct", "{")
        entries = []
        while not self.at("punct", "}"):
            key_token = self.peek()
            if key_token.kind in ("ident", "keyword", "str"):
                key = str(self.advance().value)
            elif key_token.kind == "num":
                value = self.advance().value
                key = str(int(value)) if float(value).is_integer() else str(value)  # type: ignore[arg-type]
            else:
                raise JSSyntaxError(f"line {key_token.line}: bad object key")
            if self.at("punct", "("):  # shorthand method: name() {}
                params = self.parse_params()
                body = self.parse_block().body
                entries.append((key, ast.FunctionExpr(key, params, body)))
            elif self.eat("punct", ":"):
                entries.append((key, self.parse_assignment()))
            else:  # shorthand property {name}
                entries.append((key, ast.Identifier(key)))
            if not self.eat("punct", ","):
                break
        self.expect("punct", "}")
        return ast.ObjectLiteral(entries)


#: Distinct scripts kept parsed; a corpus run sees a few hundred.
PARSE_CACHE_SIZE = 256

_PARSE_CACHE: LRU[ast.Program] = LRU(PARSE_CACHE_SIZE)


def _source_key(source: str) -> bytes:
    return hashlib.blake2b(source.encode("utf-8"), digest_size=16).digest()


def parse_cache_info() -> dict:
    """Hit/miss/size counters of the shared parse cache."""
    return _PARSE_CACHE.info()


def clear_parse_cache() -> None:
    """Drop all cached programs and reset the counters."""
    _PARSE_CACHE.clear()


def parse(source: str, use_cache: bool = True) -> ast.Program:
    """Parse PhishScript source into a program AST (LRU-cached)."""
    if not use_cache:
        return Parser(tokenize(source)).parse_program()
    key = _source_key(source)
    program = _PARSE_CACHE.get(key)
    if program is None:
        program = Parser(tokenize(source)).parse_program()
        _PARSE_CACHE.put(key, program)
    return program


def parse_expression_source(source: str) -> ast.Node:
    """Parse a standalone expression (used for template interpolations)."""
    parser = Parser(tokenize(source))
    expression = parser.parse_expression()
    parser.expect("eof")
    return expression
