"""Navigable token stream for FMLR parsing.

The preprocessor's token tree is turned into a DAG of stream nodes:

* a :class:`TokenNode` holds one ordinary token, its document-order
  position, and a ``succ`` link to the next element *in its branch* —
  when the branch ends, ``succ`` points past the enclosing conditional
  (recursively), so stepping a subparser never needs parent pointers;
* a :class:`BranchNode` is a static-conditional branch point whose
  alternatives are ``(relative condition, first element)`` pairs; an
  empty or implicit else-branch points directly at the element after
  the conditional, materialized explicitly at build time.

Positions are assigned in *document order* (branch bodies before the
shared continuation), which is what the FMLR priority queue orders by:
"no subparser can outrun the other subparsers" (§4.1).  A sentinel EOF
token node terminates the stream.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple, Union

from repro.cpp.tree import Conditional, TokenTree
from repro.lexer.tokens import Token, TokenKind

StreamElement = Union["TokenNode", "BranchNode"]


class TokenNode:
    """One ordinary token in the stream DAG.

    ``terminal`` memoizes the token's base grammar terminal: the parser
    fills it on first use, so classification runs once per token
    rather than once per step.
    """

    __slots__ = ("token", "position", "succ", "terminal")

    def __init__(self, token: Token, position: int = -1,
                 succ: Optional[StreamElement] = None):
        self.token = token
        self.position = position
        self.succ = succ
        self.terminal: Optional[str] = None

    @property
    def is_eof(self) -> bool:
        return self.token.kind is TokenKind.EOF

    def __repr__(self) -> str:
        return f"TokenNode(#{self.position}, {self.token.text!r})"


class BranchNode:
    """A static-conditional branch point."""

    __slots__ = ("alternatives", "position")

    def __init__(self, alternatives: List[Tuple[Any, StreamElement]],
                 position: int = -1):
        # (relative presence condition, first element of the branch)
        self.alternatives = alternatives
        self.position = position

    def __repr__(self) -> str:
        return (f"BranchNode(#{self.position}, "
                f"{len(self.alternatives)} alternatives)")


def build_stream(tree: TokenTree, manager: Any,
                 filename: str = "<input>") -> StreamElement:
    """Build the stream DAG from a token tree.

    Returns the first element (the EOF sentinel for an empty tree).
    The builders are module-level functions, not recursive closures:
    a recursive closure is a reference cycle that would keep every
    stream node alive until the cyclic garbage collector runs, instead
    of freeing the stream as soon as the parse drops it.
    """
    eof_node = TokenNode(Token(TokenKind.EOF, "", filename))
    nodes: Dict[int, StreamElement] = {}
    first = _build(tree, eof_node, manager, nodes)
    eof_node.position = _assign_positions(tree, nodes, 0)
    return first


def _build(items: TokenTree, following: StreamElement, manager: Any,
           nodes: Dict[int, StreamElement]) -> StreamElement:
    """Link ``items`` in front of ``following``; record each item's
    stream element in ``nodes`` by the item's id."""
    result: StreamElement = following
    for item in reversed(items):
        if isinstance(item, Conditional):
            alternatives: List[Tuple[Any, StreamElement]] = []
            remainder = manager.true
            for condition, subtree in item.branches:
                remainder = remainder & ~condition
                alternatives.append(
                    (condition, _build(subtree, result, manager, nodes)))
            if not remainder.is_false():
                alternatives.append((remainder, result))
            result = BranchNode(alternatives)
        else:
            result = TokenNode(item, succ=result)
        nodes[id(item)] = result
    return result


def _assign_positions(items: TokenTree, nodes: Dict[int, StreamElement],
                      position: int) -> int:
    """Document-order positions via a forward walk over the *tree*;
    returns the next free position."""
    for item in items:
        nodes[id(item)].position = position
        if isinstance(item, Conditional):
            for _condition, subtree in item.branches:
                position = _assign_positions(subtree, nodes, position)
        else:
            position += 1
    return position


def stream_tokens(first: StreamElement) -> List[TokenNode]:
    """All token nodes reachable from ``first``, in position order."""
    seen = set()
    out: List[TokenNode] = []
    stack: List[Optional[StreamElement]] = [first]
    while stack:
        element = stack.pop()
        if element is None or id(element) in seen:
            continue
        seen.add(id(element))
        if isinstance(element, TokenNode):
            out.append(element)
            stack.append(element.succ)
        else:
            for _cond, sub in element.alternatives:
                stack.append(sub)
    return sorted(out, key=lambda node: node.position)
