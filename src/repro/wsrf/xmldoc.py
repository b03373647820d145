"""A small XML infoset: elements, a parser, and a serializer.

Resource-property documents, activity-type descriptions and
deploy-files (paper Fig. 9) are all XML.  This module implements the
subset of XML those documents need — elements, attributes, character
data, comments, self-closing tags, and an optional XML declaration —
with position-annotated parse errors.  Namespaces are treated as plain
prefixes (GT4 documents use them decoratively for our purposes).

Two parsers, one grammar: :func:`parse_xml` builds a private tree its
caller may keep and edit; :func:`parse_shared` decodes each distinct
document string once and hands every caller the same *read-only* tree
(the receive side of wire-form caching, see :mod:`repro.glare.model`).
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional

from repro.net.message import _STR_REPR_LEN_LIMIT

_ESCAPES = [("&", "&amp;"), ("<", "&lt;"), (">", "&gt;"), ('"', "&quot;")]


def escape_text(value: str) -> str:
    """Escape character data for serialization."""
    for raw, enc in _ESCAPES:
        value = value.replace(raw, enc)
    return value


def unescape_text(value: str) -> str:
    """Reverse :func:`escape_text` plus ``&apos;``."""
    if "&" not in value:
        return value
    for raw, enc in reversed(_ESCAPES):
        value = value.replace(enc, raw)
    return value.replace("&apos;", "'")


class XmlParseError(ValueError):
    """Malformed XML, annotated with the offending position."""

    def __init__(self, message: str, pos: int, text: str) -> None:
        line = text.count("\n", 0, pos) + 1
        col = pos - (text.rfind("\n", 0, pos) + 1) + 1
        super().__init__(f"{message} at line {line}, column {col}")
        self.pos = pos
        self.line = line
        self.column = col


class Element:
    """One XML element: tag, attributes, text, children."""

    __slots__ = ("tag", "attrib", "text", "children", "parent")

    def __init__(
        self,
        tag: str,
        attrib: Optional[Dict[str, str]] = None,
        text: str = "",
        children: Optional[List["Element"]] = None,
    ) -> None:
        self.tag = tag
        self.attrib: Dict[str, str] = dict(attrib or {})
        self.text = text
        self.children: List[Element] = []
        self.parent: Optional[Element] = None
        for child in children or ():
            self.append(child)

    # -- construction -----------------------------------------------------

    def append(self, child: "Element") -> "Element":
        """Attach ``child`` (returns it, for chaining)."""
        child.parent = self
        self.children.append(child)
        return child

    def make_child(self, tag: str, text: str = "", **attrib: str) -> "Element":
        """Create, attach and return a new child element."""
        return self.append(Element(tag, attrib={k: str(v) for k, v in attrib.items()}, text=text))

    # -- queries -----------------------------------------------------------

    def get(self, name: str, default: Optional[str] = None) -> Optional[str]:
        """Attribute value, or ``default``."""
        return self.attrib.get(name, default)

    def find(self, tag: str) -> Optional["Element"]:
        """First direct child with the given tag."""
        for child in self.children:
            if child.tag == tag:
                return child
        return None

    def findall(self, tag: str) -> List["Element"]:
        """All direct children with the given tag (``*`` matches all)."""
        if tag == "*":
            return list(self.children)
        return [c for c in self.children if c.tag == tag]

    def findtext(self, tag: str, default: str = "") -> str:
        """Text of the first matching child, or ``default``."""
        child = self.find(tag)
        return child.text if child is not None else default

    def iter(self) -> Iterator["Element"]:
        """Depth-first (pre-order) iteration over this subtree.

        Implemented with an explicit stack rather than recursive
        generator delegation: this is the hottest loop of the XPath
        engine (every //-query walks whole resource forests) and the
        iterative form avoids O(depth) frame chaining per element.
        """
        stack = [self]
        pop = stack.pop
        while stack:
            node = pop()
            yield node
            children = node.children
            if children:
                stack.extend(reversed(children))

    def preorder(self) -> List["Element"]:
        """This subtree as a pre-order list (same order as :meth:`iter`).

        The XPath engine consumes whole subtrees as lists; building the
        list directly skips the per-element generator resume of
        :meth:`iter`, which dominated query-heavy profiles.
        """
        out: List["Element"] = []
        append = out.append
        stack = [self]
        pop = stack.pop
        extend = stack.extend
        while stack:
            node = pop()
            append(node)
            children = node.children
            if children:
                extend(reversed(children))
        return out

    def walk_matching(self, tag: Optional[str], out: List["Element"]) -> int:
        """Append pre-order descendants-or-self whose tag is ``tag``.

        ``tag=None`` matches every element.  Returns the number of
        nodes visited (= subtree size) — the XPath engine's node-test
        visit count.  Fusing the walk with the tag test avoids
        materializing whole subtrees just to discard non-matches,
        which is the hot path of every ``//Tag[...]`` query.
        """
        visited = 0
        append = out.append
        stack = [self]
        pop = stack.pop
        extend = stack.extend
        while stack:
            node = pop()
            visited += 1
            if tag is None or node.tag == tag:
                append(node)
            children = node.children
            if children:
                extend(reversed(children))
        return visited

    def count_nodes(self) -> int:
        """Number of elements in this subtree."""
        count = 1
        stack = [self]
        pop = stack.pop
        extend = stack.extend
        while stack:
            children = pop().children
            if children:
                count += len(children)
                extend(children)
        return count

    def deep_copy(self) -> "Element":
        """A detached structural copy of this subtree."""
        clone = Element(self.tag, attrib=dict(self.attrib), text=self.text)
        for child in self.children:
            clone.append(child.deep_copy())
        return clone

    def equals(self, other: "Element") -> bool:
        """Deep structural equality (tag, attrs, text, children)."""
        if (
            self.tag != other.tag
            or self.attrib != other.attrib
            or self.text.strip() != other.text.strip()
            or len(self.children) != len(other.children)
        ):
            return False
        return all(a.equals(b) for a, b in zip(self.children, other.children))

    # -- serialization -------------------------------------------------------

    def to_string(self, indent: int = 0, step: int = 2) -> str:
        """Pretty-printed XML."""
        pad = " " * indent
        attrs = "".join(f' {k}="{escape_text(v)}"' for k, v in self.attrib.items())
        text = escape_text(self.text.strip()) if self.text.strip() else ""
        if not self.children and not text:
            return f"{pad}<{self.tag}{attrs}/>"
        if not self.children:
            return f"{pad}<{self.tag}{attrs}>{text}</{self.tag}>"
        inner = "\n".join(c.to_string(indent + step, step) for c in self.children)
        head = f"{pad}<{self.tag}{attrs}>"
        if text:
            head += text
        return f"{head}\n{inner}\n{pad}</{self.tag}>"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Element {self.tag!r} attrs={len(self.attrib)} children={len(self.children)}>"


class _Parser:
    """Recursive-descent parser for the XML subset."""

    def __init__(self, text: str) -> None:
        self.text = text
        self.pos = 0
        self.length = len(text)

    def error(self, message: str) -> XmlParseError:
        return XmlParseError(message, self.pos, self.text)

    def skip_ws(self) -> None:
        text, pos, length = self.text, self.pos, self.length
        while pos < length and text[pos].isspace():
            pos += 1
        self.pos = pos

    def skip_prolog_and_comments(self) -> None:
        while True:
            self.skip_ws()
            if self.text.startswith("<?", self.pos):
                end = self.text.find("?>", self.pos)
                if end < 0:
                    raise self.error("unterminated processing instruction")
                self.pos = end + 2
            elif self.text.startswith("<!--", self.pos):
                end = self.text.find("-->", self.pos)
                if end < 0:
                    raise self.error("unterminated comment")
                self.pos = end + 3
            else:
                return

    def parse_name(self) -> str:
        text, length = self.text, self.length
        start = pos = self.pos
        while pos < length and (text[pos].isalnum() or text[pos] in "_-.:"):
            pos += 1
        if pos == start:
            raise self.error("expected a name")
        self.pos = pos
        return text[start:pos]

    def parse_attributes(self) -> Dict[str, str]:
        attrib: Dict[str, str] = {}
        while True:
            self.skip_ws()
            if self.pos >= self.length or self.text[self.pos] in "/>":
                return attrib
            name = self.parse_name()
            self.skip_ws()
            if self.pos >= self.length or self.text[self.pos] != "=":
                raise self.error(f"attribute {name!r} missing '='")
            self.pos += 1
            self.skip_ws()
            quote = self.text[self.pos] if self.pos < self.length else ""
            if quote not in "\"'":
                raise self.error(f"attribute {name!r} value must be quoted")
            self.pos += 1
            end = self.text.find(quote, self.pos)
            if end < 0:
                raise self.error(f"unterminated value for attribute {name!r}")
            attrib[name] = unescape_text(self.text[self.pos : end])
            self.pos = end + 1

    def parse_element(self) -> Element:
        if self.pos >= self.length or self.text[self.pos] != "<":
            raise self.error("expected '<'")
        self.pos += 1
        tag = self.parse_name()
        attrib = self.parse_attributes()
        if self.text.startswith("/>", self.pos):
            self.pos += 2
            return Element(tag, attrib=attrib)
        if self.pos >= self.length or self.text[self.pos] != ">":
            raise self.error(f"malformed start tag <{tag}>")
        self.pos += 1

        element = Element(tag, attrib=attrib)
        text_parts: List[str] = []
        while True:
            if self.pos >= self.length:
                raise self.error(f"unexpected end of input inside <{tag}>")
            if self.text.startswith("<!--", self.pos):
                end = self.text.find("-->", self.pos)
                if end < 0:
                    raise self.error("unterminated comment")
                self.pos = end + 3
            elif self.text.startswith("</", self.pos):
                self.pos += 2
                closing = self.parse_name()
                if closing != tag:
                    raise self.error(f"mismatched closing tag </{closing}> for <{tag}>")
                self.skip_ws()
                if self.pos >= self.length or self.text[self.pos] != ">":
                    raise self.error(f"malformed closing tag </{closing}>")
                self.pos += 1
                element.text = unescape_text("".join(text_parts)).strip()
                return element
            elif self.text[self.pos] == "<":
                element.append(self.parse_element())
            else:
                next_tag = self.text.find("<", self.pos)
                if next_tag < 0:
                    raise self.error(f"unexpected end of input inside <{tag}>")
                text_parts.append(self.text[self.pos : next_tag])
                self.pos = next_tag


def parse_xml(text: str) -> Element:
    """Parse an XML document and return its root element."""
    parser = _Parser(text)
    parser.skip_prolog_and_comments()
    root = parser.parse_element()
    parser.skip_prolog_and_comments()
    parser.skip_ws()
    if parser.pos != parser.length:
        raise parser.error("trailing content after document element")
    return root


class SharedDocument:
    """One wire document, decoded once for every receiver of its string.

    ``root`` is read-only: whoever builds objects from it copies what
    they keep.  The other two slots are where the document's decoder
    leaves what it derived (``None`` until computed), so that too
    happens once per distinct string: ``canonical``, its own
    re-serialisation of the decoded object, and ``compiled``, the one
    object every receiver shares and none writes to — a deploy-file's
    plan, or the type or deployment every registry cache holds (a
    registry checks the class of what it finds there).
    """

    __slots__ = ("root", "canonical", "compiled")

    def __init__(self, root: Element) -> None:
        self.root = root
        self.canonical: Optional[str] = None
        self.compiled: Optional[object] = None


#: memoized :func:`parse_xml` per immutable document string: a wire
#: travels client -> super-peer -> shard owner and every hop decodes
#: the same string object.  Bounded like ``_COMPILE_CACHE``: cleared
#: wholesale at the limit.  A constant, not a setting, and the one
#: ``net.message._STR_REPR_LEN`` sizes the same documents under: one
#: 64-site resolve pass touches ~1,500 distinct documents, and a memo
#: smaller than the working set only thrashes.
_SHARED: Dict[str, SharedDocument] = {}
_SHARED_LIMIT = _STR_REPR_LEN_LIMIT


def shared_document(text: str) -> SharedDocument:
    """The memo entry for ``text`` (parsed on first sight).

    A malformed document raises :class:`XmlParseError` every time and
    is never stored.
    """
    shared = _SHARED.get(text)
    if shared is None:
        shared = SharedDocument(parse_xml(text))
        if len(_SHARED) >= _SHARED_LIMIT:
            _SHARED.clear()
        _SHARED[text] = shared
    return shared


def parse_shared(text: str) -> Element:
    """Root of ``text``, parsed once and shared by every caller: read
    it, never edit it or graft it into another tree — :func:`parse_xml`
    gives a private tree to aggregate or change."""
    return shared_document(text).root
