"""Newick ingestion and phylogenetic tree shapes.

A rooted tree shape is turned into an ultra-dissimilarity space over its
tips: with d the maximum root-to-tip depth, the dissimilarity between two
distinct tips is d minus the depth of their most recent common ancestor,
and the self-dissimilarity of a tip is d minus its own depth (so only the
deepest tips are born at height 0).
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

import numpy as np

from .spaces import UmSpace, leaf_runs, lca_matrix, to_dendrogram, validate


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
        return leaf_runs(self)[0]


class _Scanner:
    """Newick tokens read from a position of the text; the line and column
    of the position are counted only for an error."""

    _SPACE = re.compile(r"\s*")
    _BARE = re.compile(r"[^(),:;\[\]\s]*")  # an unquoted label
    _NUMBER = re.compile(r"[-+0-9.eE]*")

    def __init__(self, text):
        self.text = text
        self.pos = 0

    def error(self, message):
        raise NewickError(message, self.text.count("\n", 0, self.pos) + 1,
                          self.pos - self.text.rfind("\n", 0, self.pos))

    def skip_space(self):
        """Skip white space and comments, which may nest."""
        while True:
            self.pos = self._SPACE.match(self.text, self.pos).end()
            if not self.text.startswith("[", self.pos):
                return
            depth, self.pos = 1, self.pos + 1
            while depth:
                if self.pos == len(self.text):
                    self.error("unterminated comment")
                depth += {"[": 1, "]": -1}.get(self.text[self.pos], 0)
                self.pos += 1

    def peek(self):
        self.skip_space()
        return self.text[self.pos:self.pos + 1]

    def take(self, ch):
        if self.peek() != ch:
            self.error("expected %r" % ch)
        self.pos += 1

    def label(self):
        """A quoted label ('' inside stands for '), a bare one, or None."""
        if self.peek() != "'":
            bare = self._BARE.match(self.text, self.pos).group()
            self.pos += len(bare)
            return bare or None
        out, self.pos = [], self.pos + 1
        while True:
            end = self.text.find("'", self.pos)
            if end < 0:
                self.pos = len(self.text)
                self.error("unterminated quoted label")
            out.append(self.text[self.pos:end])
            self.pos = end + 1
            if not self.text.startswith("'", self.pos):
                return "'".join(out)
            self.pos += 1

    def number(self):
        self.skip_space()
        tok = self._NUMBER.match(self.text, self.pos).group()
        self.pos += len(tok)
        try:
            return float(tok)
        except ValueError:
            self.error("malformed branch length %r" % tok)


def _parse_subtree(sc):
    """(child,...,child)label:length, every part optional, parsed on an
    explicit stack of the nodes whose parenthesis is open."""
    node, path = PhyloNode(), []
    while True:
        if sc.peek() == "(":  # down to the first child
            sc.take("(")
            path.append(node)
        else:
            while True:  # the node is complete but for label and length
                node.label = sc.label()
                if sc.peek() == ":":
                    sc.take(":")
                    node.length = sc.number()
                    if node.length < 0:
                        sc.error("negative branch length")
                if not path:
                    return node
                if sc.peek() == ",":  # on to the next child
                    sc.take(",")
                    break
                sc.take(")")
                node = path.pop()
        node = PhyloNode()
        path[-1].children.append(node)


def parse_newick(text):
    """Parse a single Newick tree (terminated by ';')."""
    sc = _Scanner(text)
    tree = _parse_subtree(sc)
    sc.take(";")
    if sc.peek():
        sc.error("trailing characters after ';'")
    return tree


def parse_newick_multi(text):
    """Parse a ';'-separated sequence of Newick trees."""
    sc, trees = _Scanner(text), []
    while sc.peek():
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
    """Newick text of a tree, from an explicit stack of nodes and text."""
    out, stack = [], [tree]
    while stack:
        node = stack.pop()
        if isinstance(node, str):
            out.append(node)
            continue
        tail = ("" if node.label is None else _quote_label(node.label)) + (
            "" if node.length is None else ":" + repr(node.length))
        kids = [x for c in node.children for x in (",", c)][1:]
        stack += reversed(["(", *kids, ")" + tail] if kids else [tail])
    return "".join(out) + ";"


def tree_shape_space(tree, unit_edges=True, measure="uniform"):
    """Ultra-dissimilarity space of a rooted tree shape over its tips."""
    def depth(node, parent_depth):
        if parent_depth is None:
            return 0.0
        if not unit_edges and node.length is None:
            raise ValueError("branch length missing; use unit_edges or "
                             "annotate the tree")
        return parent_depth + (1.0 if unit_edges else float(node.length))

    tips, depths, runs = leaf_runs(tree, depth)
    n = len(tips)
    u = max(depths) - lca_matrix(runs, depths)
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
