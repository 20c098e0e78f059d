"""Newick ingestion and phylogenetic tree shapes.

A rooted tree shape is turned into an ultra-dissimilarity space over its
tips: with d the maximum root-to-tip depth, the dissimilarity between two
distinct tips is d minus the depth of their most recent common ancestor,
and the self-dissimilarity of a tip is d minus its own depth (so only the
deepest tips are born at height 0).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .spaces import UmSpace, to_dendrogram, validate


class NewickError(ValueError):
    def __init__(self, message, line, col):
        super().__init__("%s at line %d, column %d" % (message, line, col))
        self.line = line
        self.col = col


@dataclass
class PhyloNode:
    label: str | None = None
    length: float | None = None
    children: list = field(default_factory=list)

    @property
    def is_tip(self):
        return not self.children

    def tips(self):
        if self.is_tip:
            return [self]
        out = []
        for c in self.children:
            out.extend(c.tips())
        return out


class _Scanner:
    def __init__(self, text):
        self.text = text
        self.pos = 0
        self.line = 1
        self.col = 1

    def error(self, message):
        raise NewickError(message, self.line, self.col)

    def _advance(self, k=1):
        for _ in range(k):
            if self.pos < len(self.text):
                if self.text[self.pos] == "\n":
                    self.line += 1
                    self.col = 1
                else:
                    self.col += 1
                self.pos += 1

    def skip_space(self):
        while self.pos < len(self.text):
            ch = self.text[self.pos]
            if ch.isspace():
                self._advance()
            elif ch == "[":  # comment, possibly nested
                depth = 0
                while self.pos < len(self.text):
                    if self.text[self.pos] == "[":
                        depth += 1
                    elif self.text[self.pos] == "]":
                        depth -= 1
                        if depth == 0:
                            self._advance()
                            break
                    self._advance()
                else:
                    self.error("unterminated comment")
            else:
                break

    def peek(self):
        self.skip_space()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def take(self, ch):
        self.skip_space()
        if self.pos >= len(self.text) or self.text[self.pos] != ch:
            self.error("expected %r" % ch)
        self._advance()

    def label(self):
        self.skip_space()
        if self.pos < len(self.text) and self.text[self.pos] == "'":
            self._advance()
            out = []
            while True:
                if self.pos >= len(self.text):
                    self.error("unterminated quoted label")
                ch = self.text[self.pos]
                if ch == "'":
                    if self.pos + 1 < len(self.text) and self.text[self.pos + 1] == "'":
                        out.append("'")
                        self._advance(2)
                        continue
                    self._advance()
                    break
                out.append(ch)
                self._advance()
            return "".join(out)
        out = []
        while self.pos < len(self.text):
            ch = self.text[self.pos]
            if ch in "(),:;[]" or ch.isspace():
                break
            out.append(ch)
            self._advance()
        return "".join(out) if out else None

    def number(self):
        self.skip_space()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos] in "+-0123456789.eE":
            self._advance()
        tok = self.text[start:self.pos]
        try:
            return float(tok)
        except ValueError:
            self.error("malformed branch length %r" % tok)


def _parse_subtree(sc):
    node = PhyloNode()
    if sc.peek() == "(":
        sc.take("(")
        node.children.append(_parse_subtree(sc))
        while sc.peek() == ",":
            sc.take(",")
            node.children.append(_parse_subtree(sc))
        sc.take(")")
    node.label = sc.label()
    if sc.peek() == ":":
        sc.take(":")
        node.length = sc.number()
        if node.length < 0:
            sc.error("negative branch length")
    return node


def parse_newick(text):
    """Parse a single Newick tree (terminated by ';')."""
    sc = _Scanner(text)
    tree = _parse_subtree(sc)
    sc.take(";")
    sc.skip_space()
    if sc.pos != len(sc.text):
        sc.error("trailing characters after ';'")
    return tree


def parse_newick_multi(text):
    """Parse a ';'-separated sequence of Newick trees."""
    sc = _Scanner(text)
    trees = []
    while True:
        sc.skip_space()
        if sc.pos == len(sc.text):
            break
        trees.append(_parse_subtree(sc))
        sc.take(";")
    if not trees:
        sc.error("no tree found")
    return trees


def _quote_label(label):
    if label and all(c not in "(),:;[]' \t\n" for c in label):
        return label
    return "'" + label.replace("'", "''") + "'"


def write_newick(tree):
    def fmt(node):
        s = ""
        if node.children:
            s = "(" + ",".join(fmt(c) for c in node.children) + ")"
        if node.label is not None:
            s += _quote_label(node.label)
        if node.length is not None:
            s += ":" + repr(node.length)
        return s

    return fmt(tree) + ";"


def _lca_depths(tree, unit_edges):
    """Depths of the tips, in tips() order, and the matrix of depths of
    each pair's most recent common ancestor.

    The tips below a node are one contiguous run of tips() order, so each
    internal node's depth fills its run x run block; nodes are recorded
    ancestors first, so a deeper node overwrites its ancestors' blocks.
    """
    tip_depths = []
    runs = []   # [start, stop, depth] per internal node, in preorder

    def visit(node, depth):
        if node.is_tip:
            tip_depths.append(depth)
            return
        run = [len(tip_depths), None, depth]
        runs.append(run)
        for c in node.children:
            if unit_edges:
                step = 1.0
            else:
                if c.length is None:
                    raise ValueError(
                        "branch length missing; use unit_edges or annotate "
                        "the tree")
                step = float(c.length)
            visit(c, depth + step)
        run[1] = len(tip_depths)

    visit(tree, 0.0)
    depths = np.array(tip_depths)
    lca = np.empty((len(depths), len(depths)))
    for start, stop, depth in runs:
        lca[start:stop, start:stop] = depth
    np.fill_diagonal(lca, depths)
    return depths, lca


def tree_shape_space(tree, unit_edges=True, measure="uniform"):
    """Ultra-dissimilarity space of a rooted tree shape over its tips."""
    tips = tree.tips()
    n = len(tips)
    if n < 1:
        raise ValueError("tree has no tips")
    depths, lca = _lca_depths(tree, unit_edges)
    u = depths.max() - lca
    ids = [t.label if t.label is not None else "t%d" % i
           for i, t in enumerate(tips)]
    if measure == "uniform":
        mu = np.full(n, 1.0 / n)
    elif measure == "length-weighted":
        w = np.array([t.length if t.length is not None else 0.0 for t in tips])
        if np.any(w <= 0):
            raise ValueError("length-weighted measure needs positive pendant "
                             "edge lengths on every tip")
        mu = w / w.sum()
    else:
        raise ValueError("unknown measure %r" % measure)
    return UmSpace(ids, u, mu)


def treegram(space):
    """Merge tree of an ultra-dissimilarity space (leaves born at their
    self-dissimilarities)."""
    rep = validate(space, mode="ultra_dissimilarity")
    if not rep.ok:
        raise ValueError("treegram needs a valid ultra-dissimilarity space: %r"
                         % rep.violations[:3])
    return to_dendrogram(space)
