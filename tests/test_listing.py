"""The frontier merge of candidate listing: the pairs it scores, its
tie fallback, its memory bound, the rows it breaks ties in, and its
lists against the per-instant reference over random quantizer banks."""

import numpy as np
import pytest
from conftest import code_scores, listed_one_instant
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from ofbdec import Box, ChannelModel, Interval, QuantizerBank, allocate_rates, subband_ranges
from ofbdec import decoder
from ofbdec.decoder import _LIST_CHUNK_ELEMENTS, _best_first, _candidate_lists, _merge_pairs


def image_quantizers(pipe):
    """The bundled bank's quantizers for 8-bit pixels at step 8: rates
    6 and 7, so every later stage merges 64 x 64 pairs at n_max 64."""
    q = allocate_rates(subband_ranges(pipe.poly, Interval(0.0, 255.0)), 8.0)
    assert q.rates.tolist() == [6, 6, 6, 6, 7, 7]
    return q


def recorded_merges(monkeypatch):
    """Wrap _best_first; returns the list of (rows, width) it is given."""
    calls = []
    original = decoder._best_first

    def spy(neg, lex, n):
        calls.append(neg.shape)
        return original(neg, lex, n)

    monkeypatch.setattr(decoder, "_best_first", spy)
    return calls


class TestMergePairs:
    @pytest.mark.parametrize("P, S, n", [(64, 64, 64), (20, 20, 20), (1, 64, 64), (7, 3, 12)])
    def test_frontier_is_the_pairs_under_the_hyperbola(self, P, S, n):
        pair_p, pair_s, front_p, front_s = _merge_pairs(P, S, n)
        p, s = np.meshgrid(np.arange(P), np.arange(S), indexing="ij")
        inside = (p + 1) * (s + 1) <= n
        assert sorted(zip(pair_p.tolist(), pair_s.tolist())) == sorted(
            zip(p[inside].tolist(), s[inside].tolist())
        )
        # each row's best pair beyond the frontier, where it has one
        rows = np.flatnonzero(~inside.all(axis=1))
        assert front_p.tolist() == rows.tolist()
        assert front_s.tolist() == [int(np.argmin(inside[r])) for r in rows]

    def test_frontier_holds_a_full_list(self):
        """At least min(n, P * S) pairs for every n <= 128 and P, S <= n:
        the count is sum over p < P of min(S, n // (p+1)), 280 pairs at
        n = P = S = 64 and 66 at 20."""
        for n in range(1, 129):
            size = np.arange(1, n + 1)
            width = np.minimum(size[None, :], n // size[:, None])  # [p, S - 1]
            count = np.cumsum(width, axis=0)  # [P - 1, S - 1]
            assert np.all(count >= np.minimum(n, size[:, None] * size[None, :])), n
        assert _merge_pairs(9, 5, 11)[0].size == int(np.minimum(5, 11 // np.arange(1, 10)).sum())
        assert _merge_pairs(64, 64, 64)[0].size == 280
        assert _merge_pairs(20, 20, 20)[0].size == 66


class TestFrontierPaths:
    def test_noisy_bits_take_the_frontier_merge_only(self, default_pipe, monkeypatch):
        q = image_quantizers(default_pipe)
        ch = ChannelModel(7.0, seed=8)
        bits = ch.stream(0).integers(0, 2, size=(200, q.total_bits))
        r = ch.transmit(bits, ch.stream(1))
        calls = recorded_merges(monkeypatch)
        _candidate_lists(r, q, ch.effective_sigma2(), 64)
        assert max(width for _, width in calls) == 280
        assert sum(rows for rows, _ in calls) == 200 * q.M

    def test_all_zero_rows_take_the_full_merge(self, default_pipe, monkeypatch):
        q = image_quantizers(default_pipe)
        sig2 = ChannelModel(7.0).effective_sigma2()
        r = np.zeros((3, q.total_bits))
        calls = recorded_merges(monkeypatch)
        u, scores = _candidate_lists(r, q, sig2, 64)
        full = [rows for rows, width in calls if width == 64 * 64]
        assert sum(full) == 3 * (q.M - 1)
        want_u, want_s = listed_one_instant(r[0], q, sig2, 64)
        for i in range(3):
            assert np.array_equal(u[i], want_u)
            assert scores[i].tobytes() == want_s.tobytes()

    def test_rounding_tie_needs_the_full_merge(self):
        """Subband 0's scores near -2e18 swallow subband 1's differences,
        so every pair of a row ties and index order, not subband 1's
        likelihood, decides: the full merge keeps (-1, -2), whose
        subband 1 entry is the least likely one, beyond the frontier."""
        ones = np.ones(2)
        q = QuantizerBank(ones, [2, 2], Box(-4.0 * ones, 4.0 * ones))
        r = np.array([[1e9, 1e9, -0.3, -0.1]])
        u, scores = _candidate_lists(r, q, 0.5, 6)
        want_u, want_s = listed_one_instant(r[0], q, 0.5, 6)
        assert want_u.tolist()[4] == [-1, -2]
        assert np.array_equal(u[0], want_u)
        assert scores[0].tobytes() == want_s.tobytes()

    def test_every_merge_array_within_the_chunk_bound(self, default_pipe, monkeypatch):
        """An all-ties stream sends every instant of every later stage to
        the fallback, whose sub-chunks keep to the bound too."""
        q = image_quantizers(default_pipe)
        r = np.zeros((2000, q.total_bits))
        calls = recorded_merges(monkeypatch)
        _candidate_lists(r, q, ChannelModel(7.0).effective_sigma2(), 64)
        assert max(rows * width for rows, width in calls) <= _LIST_CHUNK_ELEMENTS
        assert sum(rows for rows, width in calls if width == 64 * 64) == 2000 * (q.M - 1)


def recorded_chunks(monkeypatch):
    """Wrap _list_chunk and _sorted_head, through which every stage's
    code-score sort and merge goes; returns the lists of chunk lengths
    and of (rows, width) arrays sorted."""
    chunks, arrays = [], []
    list_chunk, sorted_head = decoder._list_chunk, decoder._sorted_head

    def chunk_spy(rows, *args):
        chunks.append(rows.shape[0])
        return list_chunk(rows, *args)

    def head_spy(neg, n):
        arrays.append(neg.shape)
        return sorted_head(neg, n)

    monkeypatch.setattr(decoder, "_list_chunk", chunk_spy)
    monkeypatch.setattr(decoder, "_sorted_head", head_spy)
    return chunks, arrays


class TestChunkSizes:
    """Chunks are sized by the widest array a stage really builds: its
    frontier pairs or its 2^R code scores."""

    def test_image_rows_fill_the_budget(self, default_pipe, monkeypatch):
        """The 129 rows of an image round at n_max 64 are listed in 2
        chunks, whose widest arrays are the 280 frontier pairs, and
        each row as it is listed alone."""
        q = image_quantizers(default_pipe)
        ch = ChannelModel(7.0, seed=4)
        bits = ch.stream(0).integers(0, 2, size=(129, q.total_bits))
        r = ch.transmit(bits, ch.stream(1))
        sig2 = ch.effective_sigma2()
        want = [_candidate_lists(row[None], q, sig2, 64) for row in r]
        chunks, arrays = recorded_chunks(monkeypatch)
        u, scores = _candidate_lists(r, q, sig2, 64)
        assert len(chunks) == 2 and sum(chunks) == 129
        assert max(rows * width for rows, width in arrays) <= _LIST_CHUNK_ELEMENTS
        assert max(width for _, width in arrays) == 280
        for i, (want_u, want_s) in enumerate(want):
            assert np.array_equal(u[i], want_u[0]), i
            assert scores[i].tobytes() == want_s[0].tobytes(), i

    def test_code_scores_can_be_the_widest(self, monkeypatch):
        """A 12-bit subband's 4096 code scores outgrow every merge at
        n_max 8, so 40 rows go in chunks of 2^15 / 4096 = 8."""
        ones = np.ones(2)
        q = QuantizerBank(ones, [12, 2], Box(-2.0**16 * ones, 2.0**16 * ones))
        r = np.random.default_rng(12).normal(size=(40, q.total_bits))
        chunks, arrays = recorded_chunks(monkeypatch)
        _candidate_lists(r, q, 0.4, 8)
        assert chunks == [8] * 5
        assert max(rows * width for rows, width in arrays) == _LIST_CHUNK_ELEMENTS


class TestWhereTiesFall:
    """Each stage sorts by score alone and breaks ties only in rows
    where two of its n_max + 1 best scores tie; such rows sit in the
    same chunk as rows without ties."""

    @pytest.mark.parametrize("gray", [False, True])
    @pytest.mark.parametrize("n_max", [1, 20, 64])
    def test_ties_in_one_subband(self, default_pipe, monkeypatch, n_max, gray):
        """Rows whose soft bits are zero, or the noiseless +-1, in the
        first, a middle or the last subband tie in that stage alone,
        beside noisy rows: a plain argsort keeps the equal scores of
        zero bits in index order but not those of noiseless bits."""
        q = allocate_rates(subband_ranges(default_pipe.poly, Interval(0.0, 255.0)), 8.0,
                           gray=gray)
        ch = ChannelModel(7.0, seed=9)
        bits = ch.stream(0).integers(0, 2, size=(8, q.total_bits))
        noisy = ch.transmit(bits, ch.stream(1))
        tied = []
        for m in (0, q.M // 2, q.M - 1):
            for soft in (0.0, 1.0 - 2.0 * bits[:4, q.bit_slices[m]]):
                rows = noisy[:4].copy()
                rows[:, q.bit_slices[m]] = soft
                tied.append(rows)
        r = np.concatenate([noisy, *tied])
        lexed = []
        original = decoder._best_first

        def spy(neg, lex, n):
            def recorded(rows):
                lexed.append(rows.size)
                return lex(rows)

            return original(neg, recorded, n)

        monkeypatch.setattr(decoder, "_best_first", spy)
        sig2 = ch.effective_sigma2()
        u, scores = _candidate_lists(r, q, sig2, n_max)
        for i in range(r.shape[0]):
            want_u, want_s = listed_one_instant(r[i], q, sig2, n_max)
            assert np.array_equal(u[i], want_u), i
            assert scores[i].tobytes() == want_s.tobytes(), i
        if n_max > 1:
            assert sum(lexed) > 0

    @pytest.mark.parametrize("gray", [False, True])
    @pytest.mark.parametrize("rates, r0, n_max", [
        ([3, 2], [0.5, 0.25, 0.25], 2),
        ([7], [1.0, -1.0, -1.0, 1.0, 1.0, -1.0, 1.0], 20),
    ])
    def test_nth_and_next_stage_scores_tie(self, gray, rates, r0, n_max):
        """Subband 0's sorted scores tie at places n_max and n_max + 1:
        soft bits (0.5, 0.25, 0.25) tie there and nowhere above, and
        the noiseless bits of a 7-bit codeword tie in groups of equal
        Hamming distance (1, 7, 21, ...), whose third the cut splits.
        The stage keeps the lower indexes of the tied scores."""
        ones = np.ones(len(rates))
        q = QuantizerBank(ones, rates, Box(-64.0 * ones, 64.0 * ones), gray=gray)
        noise = np.random.default_rng(3).normal(size=(2, q.total_bits - len(r0)))
        r = np.concatenate([np.tile(r0, (2, 1)), noise], axis=1)
        stage = np.sort(code_scores(np.array(r0), q.index_codes(0), 0.4))[::-1]
        assert stage[n_max - 1] == stage[n_max]
        u, scores = _candidate_lists(r, q, 0.4, n_max)
        for i in range(r.shape[0]):
            want_u, want_s = listed_one_instant(r[i], q, 0.4, n_max)
            assert np.array_equal(u[i], want_u)
            assert scores[i].tobytes() == want_s.tobytes()


@pytest.mark.parametrize("n", [1, 8])
def test_best_first_equals_a_full_lexsort(n):
    """Rows of distinct values, some with one tie placed inside the n
    smallest, at places n and n + 1, or beyond them: the (neg, lex)
    order of a full np.lexsort, with lex asked only for the rows whose
    tie falls among the n + 1 smallest."""
    rng = np.random.default_rng(n)
    rows, width = 30, 40
    neg = np.stack([rng.permutation(width) for _ in range(rows)]) * 0.5 - 7.0
    lex = np.stack([rng.permutation(width) for _ in range(rows)])
    places = {"inside": (n - 2, n - 1), "boundary": (n - 1, n), "beyond": (n + 1, n + 2)}
    tied = []
    for row, where in zip(range(0, rows, 2), 5 * list(places)):
        a, b = places[where]
        if a < 0:
            continue
        by_value = np.argsort(neg[row])
        neg[row, by_value[b]] = neg[row, by_value[a]]
        if where != "beyond":
            tied.append(row)
    asked = []

    def lex_of(rows):
        asked.extend(rows.tolist())
        return lex[rows]

    cols = _best_first(neg, lex_of, n)
    assert np.array_equal(cols, np.lexsort((lex, neg), axis=1)[:, :n])
    assert asked == tied


class TestStreamsInOnePass:
    """decode_streams lists the instants of all its streams in one call,
    each row scored with its own channel's noise variance as a (rows, 1)
    column; every stream keeps the indexes and score bytes of its own
    scalar call, row for row."""

    T = 50

    def _check(self, q, rs, sig2s, n_max):
        col = np.repeat(sig2s, self.T)[:, None]
        u, scores = _candidate_lists(np.concatenate(rs), q, col, n_max)
        for s, (r, sig2) in enumerate(zip(rs, sig2s)):
            want_u, want_s = _candidate_lists(r, q, sig2, n_max)
            rows = slice(s * self.T, (s + 1) * self.T)
            assert np.array_equal(u[rows], want_u)
            assert scores[rows].tobytes() == want_s.tobytes()

    def _streams(self, q, snrs, seed):
        channels = [ChannelModel(snr, seed=seed) for snr in snrs]
        bits = channels[0].stream(0).integers(0, 2, size=(self.T, q.total_bits))
        rs = [ch.transmit(bits, ch.stream(1, j)) for j, ch in enumerate(channels)]
        return rs, [ch.effective_sigma2() for ch in channels]

    def test_chunks_that_cross_streams(self, default_pipe, monkeypatch):
        q = image_quantizers(default_pipe)
        rs, sig2s = self._streams(q, (4.0, 7.0, 10.0), seed=3)
        chunks = []
        original = decoder._list_chunk

        def spy(r, q, sig2, n_max):
            chunks.append(r.shape[0])
            return original(r, q, sig2, n_max)

        monkeypatch.setattr(decoder, "_list_chunk", spy)
        _candidate_lists(np.concatenate(rs), q, np.repeat(sig2s, self.T)[:, None], 64)
        monkeypatch.undo()
        ends = np.cumsum(chunks)
        assert ends[-1] == 3 * self.T
        # some chunk holds the last rows of one stream and the first of the next
        assert any(e - c < s * self.T < e for c, e in zip(chunks, ends) for s in (1, 2))
        self._check(q, rs, sig2s, 64)

    def test_a_stream_of_ties_beside_noisy_streams(self, default_pipe, monkeypatch):
        q = image_quantizers(default_pipe)
        rs, sig2s = self._streams(q, (5.0, 7.0, 9.0), seed=4)
        rs[1] = np.zeros_like(rs[1])  # every index vector ties: the full merge
        calls = recorded_merges(monkeypatch)
        self._check(q, rs, sig2s, 64)
        assert any(width == 64 * 64 for _, width in calls)

    def test_noise_variances_a_million_apart(self, default_pipe):
        q = default_pipe.q
        rs, _ = self._streams(q, (0.0, 0.0, 0.0), seed=5)
        self._check(q, rs, [1e-3, 1.0, 1e3], 20)


@st.composite
def quantizer_banks(draw):
    M = draw(st.integers(1, 6))
    rates = draw(st.lists(st.integers(1, 7), min_size=M, max_size=M))
    ones = np.ones(M)
    return QuantizerBank(ones, rates, Box(-8.0 * ones, 8.0 * ones), gray=draw(st.booleans()))


@settings(max_examples=120, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    q=quantizer_banks(),
    n_max=st.integers(1, 80),
    kind=st.sampled_from(["noisy", "coarse", "zero", "mixed_scale"]),
    sig2=st.sampled_from([0.05, 0.4, 1.0]),
    seed=st.integers(0, 2**32 - 1),
)
def test_frontier_lists_equal_the_reference(q, n_max, kind, sig2, seed):
    """Indexes and score bytes of the per-instant reference listing, on
    noisy soft bits, on bits rounded to a coarse grid (many exact score
    ties), on all-zero bits (every index vector ties) and on bits with
    some subbands scaled by 1e9 (sums that round to ties)."""
    assert_lists_equal_the_reference(q, n_max, kind, sig2, seed, rows=5)


def assert_lists_equal_the_reference(q, n_max, kind, sig2, seed, rows):
    rng = np.random.default_rng(seed)
    bits = rng.integers(0, 2, size=(rows, q.total_bits))
    r = 1.0 - 2.0 * bits + rng.normal(scale=np.sqrt(sig2), size=bits.shape)
    if kind == "coarse":
        r = np.round(2.0 * r) / 2.0
    elif kind == "zero":
        r = np.zeros_like(r)
    elif kind == "mixed_scale":
        for m in range(q.M):
            r[:, q.bit_slices[m]] *= rng.choice([1.0, 1e9])
    u, scores = _candidate_lists(r, q, sig2, n_max)
    for i in range(r.shape[0]):
        want_u, want_s = listed_one_instant(r[i], q, sig2, n_max)
        assert np.array_equal(u[i], want_u)
        assert scores[i].tobytes() == want_s.tobytes()


@pytest.mark.parametrize(
    "rates, gray, kind, n_max",
    [
        ([8], False, "noisy", 20),
        ([9, 2], True, "coarse", 30),
        ([10, 11], False, "mixed_scale", 25),
        ([12, 1], True, "zero", 40),
        ([13], False, "coarse", 64),
        ([14], True, "noisy", 7),
        ([15], False, "zero", 16),
        ([16], True, "mixed_scale", 12),
        ([16, 3], False, "noisy", 33),
    ],
)
def test_long_codes_list_as_the_reference(rates, gray, kind, n_max):
    """Rates 8-16, the long codes whose 2^R scores a stage builds by R
    outer sums: listed as the reference lists them, which adds each
    codeword's bit terms one by one, for both code maps and every kind
    of soft bits."""
    ones = np.ones(len(rates))
    q = QuantizerBank(ones, rates, Box(-2.0**16 * ones, 2.0**16 * ones), gray=gray)
    assert_lists_equal_the_reference(q, n_max, kind, 0.4, seed=sum(rates), rows=3)


@pytest.mark.parametrize("gray", [False, True])
@pytest.mark.parametrize("R", [8, 12, 16])
def test_scores_add_bit_terms_msb_first(R, gray):
    """The score definition, checked without numpy's arithmetic: each
    listed codeword's squared bit distances added in a Python float
    loop, MSB first, and divided by 2 sig2 once, give the listed score's
    bytes."""
    sig2 = 0.4
    q = QuantizerBank(np.ones(1), [R], Box(-2.0**16 * np.ones(1), 2.0**16 * np.ones(1)),
                      gray=gray)
    rng = np.random.default_rng(R)
    r = rng.normal(scale=1.5, size=(3, R))
    u, scores = _candidate_lists(r, q, sig2, 6)
    for i in range(r.shape[0]):
        for k in range(u.shape[1]):
            v = int(u[i, k, 0]) + (1 << R) // 2
            code = v ^ (v >> 1) if gray else v
            total = 0.0
            for j in range(R):
                bit = (code >> (R - 1 - j)) & 1
                total += (float(r[i, j]) - (1.0 - 2.0 * bit)) ** 2
            assert np.float64(-total / (2.0 * sig2)).tobytes() == scores[i, k].tobytes()
