"""Prefix tries that count their child lookups, so a test can bound a
decoder's work by counting it rather than by timing it."""


class StepCountingDict(dict):
    """A trie node that counts child lookups in `steps`, a one-item list
    shared by every node of its trie."""

    def get(self, key, default=None):
        if key:
            self.steps[0] += 1
        return super().get(key, default)


def counting(node, steps):
    out = StepCountingDict({k: v if k == "" else counting(v, steps) for k, v in node.items()})
    out.steps = steps
    return out


def trie_depth(node):
    return max((1 + trie_depth(child) for key, child in node.items() if key), default=0)
