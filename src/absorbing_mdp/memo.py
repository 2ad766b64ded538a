"""Results kept no longer than the object that owns them.

`remembered(memo, owner, refs, key, compute)` returns compute() and keeps
it in `memo`, a module-level dict, under id(owner) and then under the ids
of `refs` followed by `key`.  A `weakref.finalize` on the owner drops the
owner's entries when it is collected, before its id can be reused.  An
entry holds only weak references to `refs`, and a hit needs each of them
to still be the object itself: the id of a collected object, reused, never
matches, and the memo keeps alive neither those objects nor anything they
refer to.  A call that raises stores nothing, so it raises again on every
call.

`integrate` keeps an integral under its measure (refs: the function) and
a cell table under its measure (refs: none); the countable solver keeps an
occupation under its strategy (refs: the model).
"""

from __future__ import annotations

import weakref


def remembered(memo: dict, owner, refs: tuple, key: tuple, compute):
    entries = memo.get(id(owner))
    full = (*map(id, refs), *key)
    if entries is not None:
        hit = entries.get(full)
        if hit is not None and all(r() is x for r, x in zip(hit[0], refs)):
            return hit[1]
    got = compute()
    entries = memo.get(id(owner))  # compute may have made them
    if entries is None:
        entries = memo[id(owner)] = {}
        weakref.finalize(owner, memo.pop, id(owner), None).atexit = False
    entries[full] = (tuple(map(weakref.ref, refs)), got)
    return got
