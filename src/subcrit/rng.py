"""Counter-based random streams.

Every stochastic routine in the package derives its randomness from a
Philox-4x64 counter-based generator keyed by ``(seed, stream tag)`` with the
block counter positioned at the sample (or step) index.  Two consequences:

* estimates are bit-reproducible for a fixed seed, independent of how the
  sample loop is batched or partitioned, and
* any sample can be regenerated in isolation, which keeps failures
  replayable.

Within one sample block, each uniform is one 64-bit word, so word k of a
sample depends on k alone, which pins down the "(seed, sample index, edge
index)" keying.  A cluster walk reads edge e's uniform from word e; a
percolation sample with a field reads the one uniform behind its cluster
size stop from word 2**64 (``perc_mc._GHOST_WORD``), and a Wolff update
picks its seed site with word ``n_bonds``.
A walk draws only the prefix it reads; ``sample_stream(..., start=k)``
opens word k directly.
"""

from __future__ import annotations

import threading

import numpy as np

_MASK64 = (1 << 64) - 1

# Stream tags keep independent observables from sharing blocks under one seed.
STREAM_PHI = 1
STREAM_EXIT = 2
STREAM_SUSCEPTIBILITY = 3
STREAM_GHOST = 4
STREAM_WOLFF = 5
STREAM_TEST = 99

# The state sample_stream loads into every generator it positions: the
# setter copies the words out, so one template per thread serves them all.
_THREAD = threading.local()


def _state_template() -> tuple[dict, list[int], list[int]]:
    counter, key = [0, 0, 0, 0], [0, 0]
    state = {"bit_generator": "Philox",
             "state": {"counter": counter, "key": key},
             "buffer": [0, 0, 0, 0], "buffer_pos": 4,
             "has_uint32": 0, "uinteger": 0}
    return state, counter, key


def sample_stream(seed: int, stream: int, index: int, start: int = 0,
                  gen: np.random.Generator | None = None
                  ) -> np.random.Generator:
    """Generator for sample ``index`` of observable ``stream`` under ``seed``.

    The Philox key mixes (seed, stream); the 256-bit counter is positioned at
    ``index * 2**128`` so successive samples own disjoint counter blocks of
    2**128 draws each.  The first draw is word ``start`` of the block: Philox
    makes four words per counter step, so the counter moves ``start // 4``
    steps and the remaining ``start % 4`` words are discarded.

    Passing ``gen``, a generator this function returned earlier, repositions
    it in place; without it a new Philox is made and positioned the same
    way.  Either way the generator loads a per-thread state template whose
    four counter words every call writes from ``index`` and ``start``
    (words 0-1 hold ``start // 4``, words 2-3 ``index``); its key words are
    validated and rewritten only when they do not already hold (seed,
    stream), as they do for every sample of one walker.  A reused call at
    ``start = 0`` takes about 0.9 us on a 2-core shared host, most of it
    the state setter, against 1.5 us when every call built the 256-bit
    counter integer and validated the key.  A negative ``index`` or
    ``start`` raises ``ValueError`` on every call, and so does a seed or
    stream tag outside [0, 2**64); an ``index`` from 2**128 or a ``start``
    from 2**130 on, past the counter, raises ``OverflowError``.
    """
    if index < 0 or start < 0:
        raise ValueError("sample index and word position must be non-negative")
    try:
        state, counter, key = _THREAD.template
    except AttributeError:
        state, counter, key = _THREAD.template = _state_template()
    if key[0] != seed or key[1] != stream:
        seed, stream = int(seed), int(stream)
        if not (0 <= seed <= _MASK64 and 0 <= stream <= _MASK64):
            # masking would alias -1 with 2**64 - 1 and hand both one stream
            raise ValueError(f"seed and stream tag must lie in [0, 2**64), "
                             f"got {seed} and {stream}")
        key[0], key[1] = seed, stream
    # the state of a fresh Philox(key=seed | stream << 64,
    # counter=(index << 128) + start // 4); a word past 64 bits makes the
    # setter raise OverflowError
    step = start >> 2
    counter[0] = step & _MASK64
    counter[1] = step >> 64
    counter[2] = index & _MASK64
    counter[3] = index >> 64
    if gen is None:
        gen = np.random.Generator(np.random.Philox(key=0))
    gen.bit_generator.state = state
    if start & 3:
        gen.bit_generator.random_raw(start & 3)
    return gen
